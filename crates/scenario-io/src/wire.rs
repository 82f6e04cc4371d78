//! Primitive wire encoding: LEB128 varints, little-endian floats, and
//! the CRC32 the block framing checksums payloads with.

/// CRC32 (IEEE 802.3, reflected) slicing tables, built at compile time
/// so no runtime initialisation or external crate is needed.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes, which is
/// what lets [`crc32`] fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC32 (IEEE) of `bytes`, eight bytes per step (slicing-by-8).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Appends `v` to `buf` as a LEB128 varint (1–10 bytes).
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes a LEB128 varint from `buf` starting at `*pos`, advancing it.
///
/// Returns `None` on truncation or a varint longer than 10 bytes.
pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// An append-only record encoder over a byte buffer.
///
/// All multi-byte values are little-endian; floats are stored as their
/// IEEE-754 bit patterns, so encoding is bit-exact and roundtrips are
/// byte-identical.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Clears the buffer, keeping its allocation.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a LEB128 varint.
    pub fn put_varint(&mut self, v: u64) {
        put_varint(&mut self.buf, v);
    }

    /// Appends an `f64` as its little-endian IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a UTF-8 string as a varint length followed by its bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends an opaque byte blob as a varint length followed by the
    /// raw bytes. Unlike [`Enc::put_str`] no UTF-8 validity is implied;
    /// the blob roundtrips byte-identically through
    /// [`ScenarioReader::bytes`](crate::ScenarioReader::bytes).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table CRC the container shipped with: the
    /// reference [`crc32`] must agree with on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_at_every_tail_length_and_offset() {
        let mut rng = mlora_simcore::SimRng::new(32);
        let buf: Vec<u8> = (0..65_536 + 8).map(|_| rng.gen_u64() as u8).collect();
        // Every tail length 0..=7 after zero, one and many full steps,
        // and the sizes around the writer's block target.
        let lengths = (0..=24).chain([65_535, 65_536]);
        for len in lengths {
            // Sub-slices starting at every offset of an eight-byte
            // stride: the result must not depend on alignment.
            for offset in 0..8 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "len {len} at offset {offset}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn crc32_matches_bytewise_on_arbitrary_bytes(
            words in proptest::collection::vec(0u32..256, 0..4_096),
            offset in 0usize..8,
        ) {
            let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            let bytes = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn varint_roundtrip() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overlength() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(get_varint(&buf[..buf.len() - 1], &mut pos), None);
        let overlong = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&overlong, &mut pos), None);
    }

    #[test]
    fn f64_is_bit_exact() {
        let mut enc = Enc::default();
        let v = -0.1f64;
        enc.put_f64(v);
        let bits = u64::from_le_bytes(enc.as_slice().try_into().unwrap());
        assert_eq!(bits, v.to_bits());
    }
}
