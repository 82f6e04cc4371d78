//! One statement of each record layout: the [`Persist`] trait under the
//! `.mlsc` simulation sections ([`crate::io`]) and the `.mlss` engine
//! snapshot (`engine/snapshot.rs`).
//!
//! A type's `put` and `get` are written together — by hand for the
//! primitives, the containers and the substrate types below, from a
//! single field list ([`persist_struct!`]) or a single tag table
//! ([`persist_enum!`]) everywhere a record is just its fields — so the
//! two directions cannot drift apart, and `get` is the one place a
//! type's bytes are decoded and therefore the one place its invariants
//! are checked. The wire forms are the ones both formats have always
//! used (`FORMAT_VERSION` 1): a `u8` is a raw byte, every wider integer
//! a LEB128 varint, `f64` its little-endian bits, an `Option` a flag
//! byte before the value, a `Vec` a count before the elements, a struct
//! or tuple its fields in order with no framing of their own.
//!
//! Decoding never panics and never trusts a count: out-of-range values
//! are [`ScenarioIoError::Corrupt`], and a `Vec` or a section reserves a
//! bounded number of bytes ahead of the data ([`reserved`]). Clippy
//! holds the module to it: no indexing, `unwrap`, `expect` or `panic!`.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use std::io::{Read, Write};

use mlora_geo::Point;
use mlora_scenario_io::{Enc, ScenarioIoError, ScenarioReader, ScenarioWriter};
use mlora_simcore::stats::{TimeSeries, Welford};
use mlora_simcore::{MessageId, NodeId, SimDuration, SimRng, SimTime, SlabKey};

/// A value with a wire form (see the module docs).
pub(crate) trait Persist: Sized {
    /// Appends the value to the record being written.
    fn put(&self, enc: &mut Enc);

    /// Decodes a value from the current record.
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::Corrupt`] when the bytes are not a value of
    /// this type.
    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError>;
}

/// The most a decoder reserves ahead of the data, in bytes. A count is a
/// claim, and a re-sealed file can claim anything; an honest one still
/// gets its one allocation up to here — a day of a 20 000-bus metro is
/// 283 626 trips of 32 bytes.
const RESERVE_BYTES: usize = 16 << 20;

/// An empty vector with room for `count` promised elements, as far as
/// [`RESERVE_BYTES`] goes.
pub(crate) fn reserved<T>(count: u64) -> Vec<T> {
    let most = RESERVE_BYTES / std::mem::size_of::<T>().max(1);
    Vec::with_capacity(count.min(most as u64) as usize)
}

/// Where stored counts stop, exclusive. A count the run goes on adding
/// to must leave it room to: one at `u64::MAX` overflows on its next
/// increment. No run comes near 2⁶² of anything.
pub(crate) const COUNT_LIMIT: u64 = 1 << 62;

/// A count the run goes on adding to — events processed, sequence
/// numbers issued, frames sent, samples taken — on the wire as a
/// varint, refused from [`COUNT_LIMIT`] up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Count(pub(crate) u64);

impl Persist for Count {
    fn put(&self, enc: &mut Enc) {
        self.0.put(enc);
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        let count = u64::get(r)?;
        ensure(count < COUNT_LIMIT, "stored count leaves no room to count")?;
        Ok(Count(count))
    }
}

impl From<Count> for u64 {
    fn from(count: Count) -> u64 {
        count.0
    }
}

/// `Corrupt(what)` unless `ok`: how a decoder states an invariant.
pub(crate) fn ensure(ok: bool, what: &'static str) -> Result<(), ScenarioIoError> {
    ok.then_some(()).ok_or(ScenarioIoError::Corrupt(what))
}

/// Writes section `id` as one record per element.
pub(crate) fn write_records<W: Write, T: Persist>(
    w: &mut ScenarioWriter<W>,
    id: u8,
    records: &[T],
) -> std::io::Result<()> {
    write_each(w, id, records, T::put)
}

/// Writes section `id` as one record per element, the record `put`
/// encodes from it.
pub(crate) fn write_each<W: Write, T>(
    w: &mut ScenarioWriter<W>,
    id: u8,
    items: &[T],
    put: impl Fn(&T, &mut Enc),
) -> std::io::Result<()> {
    w.begin_section(id, items.len() as u64)?;
    for item in items {
        put(item, w.enc());
        w.end_record()?;
    }
    w.end_section()
}

/// Writes section `id` as the single record `put` encodes.
pub(crate) fn write_record<W: Write>(
    w: &mut ScenarioWriter<W>,
    id: u8,
    put: impl FnOnce(&mut Enc),
) -> std::io::Result<()> {
    w.begin_section(id, 1)?;
    put(w.enc());
    w.end_record()?;
    w.end_section()
}

/// Decodes the `count` records of the section just opened.
pub(crate) fn read_records<R: Read, T: Persist>(
    r: &mut ScenarioReader<R>,
    count: u64,
) -> Result<Vec<T>, ScenarioIoError> {
    read_each(r, count, |r, _| T::get(r))
}

/// Decodes the `count` records of the section just opened with `get`,
/// which is handed each record's place in the section.
pub(crate) fn read_each<R: Read, T>(
    r: &mut ScenarioReader<R>,
    count: u64,
    mut get: impl FnMut(&mut ScenarioReader<R>, usize) -> Result<T, ScenarioIoError>,
) -> Result<Vec<T>, ScenarioIoError> {
    let mut records = reserved(count);
    for index in 0..count as usize {
        r.begin_record()?;
        records.push(get(r, index)?);
    }
    Ok(records)
}

/// Decodes the next record of the current section as a `T`.
pub(crate) fn read_record<R: Read, T: Persist>(
    r: &mut ScenarioReader<R>,
) -> Result<T, ScenarioIoError> {
    r.begin_record()?;
    T::get(r)
}

/// Derives [`Persist`] from one field list, in wire order. A listed
/// type is the field's wire form: its own type, or one that decodes
/// into it ([`Count`] for a `u64` the run adds to).
///
/// * `persist_struct!(Type { field: Ty, … })` — for a struct whose
///   fields are visible here;
/// * `persist_struct!(Type, written from View as method { … })` — also
///   gives `View`, which has fields of the same names (borrowed or
///   owned), an inherent `method(&self, &mut Enc)` writing the same
///   record: the encoder's source need not be the decoder's target;
/// * `persist_struct!(struct Type { … })` (with or without `written
///   from`) — declares the struct as well, so the list exists once.
///
/// Like [`persist_enum!`], expands to code naming `Persist`, `Enc`,
/// `Read`, `ScenarioReader` and `ScenarioIoError` as its caller imports
/// them.
macro_rules! persist_struct {
    ($(#[$meta:meta])* struct $name:ident $(, written from $view:ty as $method:ident)? {
        $($field:ident : $fty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        struct $name { $($field: $fty),* }
        persist_struct!($name $(, written from $view as $method)? { $($field: $fty),* });
    };
    ($ty:ty, written from $view:ty as $method:ident { $($field:ident : $fty:ty),* $(,)? }) => {
        persist_struct!($ty { $($field: $fty),* });
        impl $view {
            fn $method(&self, enc: &mut Enc) {
                $(self.$field.put(enc);)*
            }
        }
    };
    ($ty:ty { $($field:ident : $fty:ty),* $(,)? }) => {
        impl Persist for $ty {
            fn put(&self, enc: &mut Enc) {
                $(self.$field.put(enc);)*
            }

            fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
                Ok(Self { $($field: <$fty>::get(r)?.into()),* })
            }
        }
    };
}
pub(crate) use persist_struct;

/// Derives [`Persist`] for an enum from one tag table — `Variant => tag`
/// for a unit variant, `Variant { field, … } => tag` for one whose named
/// fields follow the tag byte in that order; an unlisted tag is
/// `Corrupt($unknown)`.
macro_rules! persist_enum {
    ($ty:ty, $unknown:literal {
        $($enum:ident :: $variant:ident $({ $($field:ident),* })? => $tag:literal),* $(,)?
    }) => {
        impl Persist for $ty {
            fn put(&self, enc: &mut Enc) {
                match self {
                    $($enum::$variant $({ $($field),* })? => {
                        enc.put_u8($tag);
                        $($($field.put(enc);)*)?
                    })*
                }
            }

            fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
                match r.u8()? {
                    $($tag => Ok($enum::$variant $({ $($field: Persist::get(r)?),* })?),)*
                    _ => Err(ScenarioIoError::Corrupt($unknown)),
                }
            }
        }
    };
}
pub(crate) use persist_enum;

/// The reader's and the encoder's own primitives: a `u8` is a raw byte,
/// a `u64` a varint.
macro_rules! persist_primitive {
    ($($ty:ty = $put:ident / $get:ident;)*) => {$(
        impl Persist for $ty {
            fn put(&self, enc: &mut Enc) {
                enc.$put(*self);
            }

            fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
                r.$get()
            }
        }
    )*};
}
persist_primitive! {
    u8 = put_u8 / u8;
    u64 = put_varint / varint;
    bool = put_bool / bool;
    f64 = put_f64 / f64;
}

/// The narrower integers travel as varints too, range-checked back.
macro_rules! persist_narrow {
    ($($ty:ty),*) => {$(
        impl Persist for $ty {
            fn put(&self, enc: &mut Enc) {
                enc.put_varint(*self as u64);
            }

            fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
                <$ty>::try_from(r.varint()?)
                    .map_err(|_| ScenarioIoError::Corrupt("stored integer out of range"))
            }
        }
    )*};
}
persist_narrow!(u16, u32, usize);

impl Persist for String {
    fn put(&self, enc: &mut Enc) {
        enc.put_str(self);
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        r.string()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn put(&self, enc: &mut Enc) {
        enc.put_bool(self.is_some());
        if let Some(value) = self {
            value.put(enc);
        }
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

/// A slice is written as the `Vec` it is read back as.
pub(crate) fn put_slice<T: Persist>(items: &[T], enc: &mut Enc) {
    enc.put_varint(items.len() as u64);
    for item in items {
        item.put(enc);
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn put(&self, enc: &mut Enc) {
        put_slice(self, enc);
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        let count = r.varint()?;
        let mut items = reserved(count);
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// Tuples are their members in order — what `raw_parts` accessors
/// return, and the unit is nothing at all (a map of `()` is its keys).
macro_rules! persist_tuple {
    ($(($($name:ident),*))*) => {$(
        impl<$($name: Persist),*> Persist for ($($name,)*) {
            #[allow(non_snake_case, unused_variables)]
            fn put(&self, enc: &mut Enc) {
                let ($($name,)*) = self;
                $($name.put(enc);)*
            }

            #[allow(unused_variables)]
            fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
                Ok(($($name::get(r)?,)*))
            }
        }
    )*};
}
persist_tuple!(()(A, B)(A, B, C)(A, B, C, D)(A, B, C, D, E));

/// Newtypes over one integer: `Type: wire integer = accessor / constructor`.
macro_rules! persist_newtype {
    ($($ty:ty : $inner:ty = $raw:ident / $new:path;)*) => {$(
        impl Persist for $ty {
            fn put(&self, enc: &mut Enc) {
                self.$raw().put(enc);
            }

            fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
                <$inner>::get(r).map($new)
            }
        }
    )*};
}
persist_newtype! {
    SimTime: u64 = as_millis / SimTime::from_millis;
    SimDuration: u64 = as_millis / SimDuration::from_millis;
    NodeId: u32 = raw / NodeId::new;
    MessageId: u64 = raw / MessageId::new;
}

persist_struct!(Point { x: f64, y: f64 });

impl Persist for SlabKey {
    fn put(&self, enc: &mut Enc) {
        (self.index(), self.generation()).put(enc);
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        let (index, generation) = Persist::get(r)?;
        Ok(SlabKey::from_parts(index, generation))
    }
}

/// An RNG stream's exact state: its seed and the four generator words.
impl Persist for SimRng {
    fn put(&self, enc: &mut Enc) {
        let (seed, [a, b, c, d]) = self.state();
        (seed, a, b, c, d).put(enc);
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        let (seed, a, b, c, d) = Persist::get(r)?;
        Ok(SimRng::from_state(seed, [a, b, c, d]))
    }
}

impl Persist for Welford {
    fn put(&self, enc: &mut Enc) {
        self.raw_parts().put(enc);
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        let (Count(count), mean, m2, min, max) = Persist::get(r)?;
        Ok(Welford::from_raw_parts(count, mean, m2, min, max))
    }
}

impl Persist for TimeSeries {
    fn put(&self, enc: &mut Enc) {
        (self.bucket(), self.is_bounded()).put(enc);
        put_slice(self.counts(), enc);
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        let (bucket, bounded, counts): (SimDuration, bool, Vec<u64>) = Persist::get(r)?;
        let buckets = !bucket.is_zero() && !counts.is_empty();
        ensure(buckets, "time series without buckets")?;
        let room = counts.iter().all(|&count| count < COUNT_LIMIT);
        ensure(room, "stored count leaves no room to count")?;
        Ok(TimeSeries::from_raw_parts(bucket, counts, bounded))
    }
}
