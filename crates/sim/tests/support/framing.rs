//! Test support: take a `.mlsc`/`.mlss` container apart along its
//! framing and put it back together with every checksum valid, so an
//! edit reaches the record codecs instead of stopping at the CRC.
//!
//! ```text
//! file    := magic | version u16 LE | section* | 0
//! section := id u8 | record-count varint | (len varint | crc u32 LE | payload)* | 0
//! ```
//!
//! Shared by the crate's unit tests (`#[path]`-included from `lib.rs`)
//! and the hostile-input sweep (`tests/hostile_input.rs`).

use mlora_scenario_io::ScenarioWriter;

/// Magic plus version word.
const FILE_HEADER: usize = 6;

/// Appends `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `v` as a LEB128 varint.
pub fn varint(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, v);
    out
}

/// Reads the varint at `*pos` of a well-formed buffer, advancing it.
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0;
    for shift in (0..).step_by(7) {
        let byte = bytes[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    value
}

/// One section as the framing delimits it: the promised record count
/// and the block payloads, concatenated.
#[derive(Debug, Clone)]
pub struct Section {
    pub id: u8,
    pub count: u64,
    pub payload: Vec<u8>,
}

/// Splits a well-formed container into its sections.
pub fn sections(bytes: &[u8]) -> Vec<Section> {
    let mut pos = FILE_HEADER;
    let mut out = Vec::new();
    loop {
        let id = bytes[pos];
        pos += 1;
        if id == 0 {
            return out;
        }
        let count = get_varint(bytes, &mut pos);
        let mut payload = Vec::new();
        loop {
            let len = get_varint(bytes, &mut pos) as usize;
            if len == 0 {
                break;
            }
            pos += 4; // the block's CRC
            payload.extend_from_slice(&bytes[pos..pos + len]);
            pos += len;
        }
        out.push(Section { id, count, payload });
    }
}

/// Frames `sections` into a container under `magic`. [`ScenarioWriter`]
/// seals each payload as one record of one block; the promised count is
/// patched in afterwards — section headers sit outside the checksummed
/// blocks — so a section may promise any number of records over any
/// bytes and every CRC of the result still holds.
pub fn seal(magic: [u8; 4], sections: &[Section]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&mlora_scenario_io::FORMAT_VERSION.to_le_bytes());
    for s in sections {
        let mut w = ScenarioWriter::with_magic(Vec::new(), magic).unwrap();
        w.begin_section(s.id, 1).unwrap();
        for &b in &s.payload {
            w.enc().put_u8(b);
        }
        w.end_record().unwrap();
        w.end_section().unwrap();
        let framed = w.finish().unwrap();
        // id | count 1 | blocks | 0, between the file header and the
        // end marker.
        out.push(s.id);
        put_varint(&mut out, s.count);
        out.extend_from_slice(&framed[FILE_HEADER + 2..framed.len() - 1]);
    }
    out.push(0);
    out
}

/// `bytes` with section `id` edited by `edit` and re-sealed.
pub fn splice(bytes: &[u8], magic: [u8; 4], id: u8, edit: impl FnOnce(&mut Section)) -> Vec<u8> {
    let mut all = sections(bytes);
    edit(
        all.iter_mut()
            .find(|s| s.id == id)
            .expect("section present"),
    );
    seal(magic, &all)
}
