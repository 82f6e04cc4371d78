//! Uniform spatial hash grid for range queries.

use crate::Point;

/// Sentinel marking an empty slot in [`CellTable`]. This value can only
/// collide with the packed key of cell `(2^31 − 1, 2^31 − 1)`, which at
/// any practical cell size sits astronomically far from the origin;
/// [`CellTable::insert`] rejects it outright.
const EMPTY: u64 = u64::MAX;

/// Packs signed cell coordinates into one table key (offset-binary, so
/// nearby cells get distinct, well-mixed keys).
fn pack(cx: i64, cy: i64) -> u64 {
    let x = (cx.wrapping_add(1 << 31)) as u64 & 0xFFFF_FFFF;
    let y = (cy.wrapping_add(1 << 31)) as u64 & 0xFFFF_FFFF;
    (x << 32) | y
}

/// A minimal open-addressing map from packed cell keys to bucket slots.
///
/// Grid queries hit this table up to nine times per event, so it uses a
/// single multiply-shift hash and linear probing over flat arrays
/// instead of the standard library's SipHash map — an order of magnitude
/// cheaper per probe, fully deterministic, and allocation-free once the
/// set of touched cells stops growing. Cells are never removed.
#[derive(Debug, Clone, Default)]
struct CellTable {
    keys: Vec<u64>,
    vals: Vec<u32>,
    len: usize,
}

impl CellTable {
    fn new() -> Self {
        CellTable::default()
    }

    #[inline]
    fn hash(key: u64) -> usize {
        // Fibonacci multiply; the high bits are the well-mixed ones.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::hash(key) & mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a key known to be absent.
    fn insert(&mut self, key: u64, val: u32) {
        assert_ne!(key, EMPTY, "grid cell coordinate overflow");
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::hash(key) & mask;
        while self.keys[i] != EMPTY {
            debug_assert_ne!(self.keys[i], key, "duplicate cell insert");
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.vals[i] = val;
        self.len += 1;
    }

    fn grow(&mut self) {
        let cap = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![0; cap];
        let mask = cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == EMPTY {
                continue;
            }
            let mut i = Self::hash(k) & mask;
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

/// An incrementally maintained uniform grid index over `(item, position)`
/// pairs.
///
/// The index is mutated in place as entities appear, move and disappear
/// ([`GridIndex::insert`] / [`GridIndex::relocate`] /
/// [`GridIndex::remove`]) instead of being rebuilt from scratch, and
/// range queries can write into caller-provided scratch storage
/// ([`GridIndex::within_into`]) so a steady-state query loop performs no
/// heap allocation. With cell size ≥ query radius, a query inspects at
/// most 9 cells.
///
/// Cells are flat `Vec` buckets addressed through a cell-key table; a
/// bucket keeps its capacity when emptied, so churn (buses entering and
/// leaving cells) stops allocating once the index reaches steady state.
/// Within every bucket items are kept sorted by id, which makes
/// iteration order *canonical*: queries yield items in `(cell key, id)`
/// order, a pure function of the current membership — never of the
/// insertion history. Items must be unique; `remove`/`relocate` locate
/// an item by the position it was last filed under.
///
/// # Example
///
/// ```
/// use mlora_geo::{GridIndex, Point};
///
/// let items = [(1u32, Point::new(0.0, 0.0)), (2, Point::new(30.0, 40.0)),
///              (3, Point::new(500.0, 0.0))];
/// let mut grid = GridIndex::build(items.iter().copied(), 100.0);
/// let mut near: Vec<u32> = grid.within(Point::ORIGIN, 60.0).map(|(id, _)| id).collect();
/// near.sort_unstable();
/// assert_eq!(near, vec![1, 2]);
///
/// // Bus 3 drives into range; no rebuild required.
/// grid.relocate(3, Point::new(500.0, 0.0), Point::new(50.0, 0.0));
/// assert_eq!(grid.within(Point::ORIGIN, 60.0).count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    cell: f64,
    /// Cell key → slot in `buckets`. Keys are never un-mapped: the table
    /// is bounded by the number of distinct cells ever touched.
    slots: CellTable,
    /// Flat bucket storage; each bucket is sorted by item id.
    buckets: Vec<Vec<(T, Point)>>,
    len: usize,
}

impl<T: Copy + Ord> GridIndex<T> {
    /// Creates an empty index with the given cell size.
    ///
    /// For best performance pick `cell_size` close to the typical query
    /// radius.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "bad cell size {cell_size}"
        );
        GridIndex {
            cell: cell_size,
            slots: CellTable::new(),
            buckets: Vec::new(),
            len: 0,
        }
    }

    /// Builds an index from items and positions with the given cell size.
    ///
    /// Equivalent to [`GridIndex::new`] followed by one
    /// [`GridIndex::insert`] per item.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn build(items: impl IntoIterator<Item = (T, Point)>, cell_size: f64) -> Self {
        let mut grid = GridIndex::new(cell_size);
        for (item, pos) in items {
            grid.insert(item, pos);
        }
        grid
    }

    fn key_for(p: Point, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bucket slot for `key`, creating an empty bucket if the cell
    /// has never been touched.
    fn slot_for(&mut self, key: (i64, i64)) -> usize {
        let packed = pack(key.0, key.1);
        if let Some(slot) = self.slots.get(packed) {
            return slot as usize;
        }
        let slot = u32::try_from(self.buckets.len()).expect("grid cell overflow");
        self.buckets.push(Vec::new());
        self.slots.insert(packed, slot);
        slot as usize
    }

    /// Files `item` under the cell containing `pos`.
    pub fn insert(&mut self, item: T, pos: Point) {
        let slot = self.slot_for(Self::key_for(pos, self.cell));
        let bucket = &mut self.buckets[slot];
        let at = bucket.partition_point(|&(other, _)| other < item);
        bucket.insert(at, (item, pos));
        self.len += 1;
    }

    /// Removes `item`, located through `pos` (the position it was last
    /// inserted or relocated at). Returns `true` if the item was found.
    pub fn remove(&mut self, item: T, pos: Point) -> bool {
        let key = Self::key_for(pos, self.cell);
        let Some(slot) = self.slots.get(pack(key.0, key.1)) else {
            return false;
        };
        let bucket = &mut self.buckets[slot as usize];
        let at = bucket.partition_point(|&(other, _)| other < item);
        if bucket.get(at).is_some_and(|&(other, _)| other == item) {
            bucket.remove(at);
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Moves `item` from `old_pos` to `new_pos`. When both fall in the
    /// same cell only the stored position is updated. Returns `true` if
    /// the item was found under `old_pos`.
    pub fn relocate(&mut self, item: T, old_pos: Point, new_pos: Point) -> bool {
        let old_key = Self::key_for(old_pos, self.cell);
        let new_key = Self::key_for(new_pos, self.cell);
        if old_key == new_key {
            let Some(slot) = self.slots.get(pack(old_key.0, old_key.1)) else {
                return false;
            };
            let bucket = &mut self.buckets[slot as usize];
            let at = bucket.partition_point(|&(other, _)| other < item);
            match bucket.get_mut(at) {
                Some(entry) if entry.0 == item => {
                    entry.1 = new_pos;
                    true
                }
                _ => false,
            }
        } else {
            if !self.remove(item, old_pos) {
                return false;
            }
            self.insert(item, new_pos);
            true
        }
    }

    /// All items within `radius` metres of `center` (inclusive), in
    /// canonical `(cell key, id)` order.
    pub fn within(&self, center: Point, radius: f64) -> impl Iterator<Item = (T, Point)> + '_ {
        let r = radius.max(0.0);
        let r_sq = r * r;
        let lo = Self::key_for(Point::new(center.x - r, center.y - r), self.cell);
        let hi = Self::key_for(Point::new(center.x + r, center.y + r), self.cell);
        (lo.0..=hi.0)
            .flat_map(move |cx| (lo.1..=hi.1).map(move |cy| (cx, cy)))
            .filter_map(move |key| {
                self.slots
                    .get(pack(key.0, key.1))
                    .map(|slot| &self.buckets[slot as usize])
            })
            .flatten()
            .copied()
            .filter(move |(_, p)| p.distance_sq(center) <= r_sq)
    }

    /// Writes all items within `radius` of `center` into `out` (cleared
    /// first), in canonical `(cell key, id)` order.
    ///
    /// This is the allocation-free query path: once `out` has reached its
    /// steady-state capacity, repeated queries perform no heap
    /// allocation. The explicit cell loop (instead of the iterator
    /// chain behind [`GridIndex::within`]) is what the engine's
    /// per-transmission gateway query runs.
    pub fn within_into(&self, center: Point, radius: f64, out: &mut Vec<(T, Point)>) {
        out.clear();
        let r = radius.max(0.0);
        let r_sq = r * r;
        let lo = Self::key_for(Point::new(center.x - r, center.y - r), self.cell);
        let hi = Self::key_for(Point::new(center.x + r, center.y + r), self.cell);
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                let Some(slot) = self.slots.get(pack(cx, cy)) else {
                    continue;
                };
                for &(item, p) in &self.buckets[slot as usize] {
                    if p.distance_sq(center) <= r_sq {
                        out.push((item, p));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_items_across_cell_borders() {
        // Two points close together but in different grid cells.
        let items = [(1u32, Point::new(99.0, 0.0)), (2, Point::new(101.0, 0.0))];
        let grid = GridIndex::build(items.iter().copied(), 100.0);
        let hits: Vec<u32> = grid
            .within(Point::new(100.0, 0.0), 5.0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn radius_is_inclusive_boundary() {
        let items = [(1u32, Point::new(10.0, 0.0))];
        let grid = GridIndex::build(items.iter().copied(), 50.0);
        assert_eq!(grid.within(Point::ORIGIN, 10.0).count(), 1);
        assert_eq!(grid.within(Point::ORIGIN, 9.999).count(), 0);
    }

    #[test]
    fn negative_coordinates() {
        let items = [(1u32, Point::new(-250.0, -250.0))];
        let grid = GridIndex::build(items.iter().copied(), 100.0);
        assert_eq!(grid.within(Point::new(-240.0, -240.0), 20.0).count(), 1);
    }

    #[test]
    fn insert_remove_relocate_roundtrip() {
        let mut grid = GridIndex::new(100.0);
        grid.insert(7u32, Point::new(10.0, 10.0));
        assert_eq!(grid.len(), 1);
        // Same-cell relocate updates the stored position.
        assert!(grid.relocate(7, Point::new(10.0, 10.0), Point::new(20.0, 20.0)));
        assert_eq!(grid.within(Point::new(20.0, 20.0), 1.0).count(), 1);
        // Cross-cell relocate moves buckets.
        assert!(grid.relocate(7, Point::new(20.0, 20.0), Point::new(950.0, 950.0)));
        assert_eq!(grid.within(Point::new(20.0, 20.0), 50.0).count(), 0);
        assert_eq!(grid.within(Point::new(950.0, 950.0), 1.0).count(), 1);
        assert!(grid.remove(7, Point::new(950.0, 950.0)));
        assert!(grid.is_empty());
        // Gone means gone.
        assert!(!grid.remove(7, Point::new(950.0, 950.0)));
        assert!(!grid.relocate(7, Point::new(950.0, 950.0), Point::ORIGIN));
    }

    #[test]
    fn canonical_order_is_membership_pure() {
        // Two construction histories, same membership → identical query
        // output, including order.
        let items = [
            (3u32, Point::new(10.0, 0.0)),
            (1, Point::new(20.0, 0.0)),
            (2, Point::new(130.0, 0.0)),
        ];
        let built = GridIndex::build(items.iter().copied(), 100.0);
        let mut incr = GridIndex::new(100.0);
        incr.insert(2, Point::new(700.0, 0.0));
        incr.insert(1, Point::new(20.0, 0.0));
        incr.insert(3, Point::new(10.0, 0.0));
        incr.relocate(2, Point::new(700.0, 0.0), Point::new(130.0, 0.0));
        let mut a = Vec::new();
        let mut b = Vec::new();
        built.within_into(Point::ORIGIN, 200.0, &mut a);
        incr.within_into(Point::ORIGIN, 200.0, &mut b);
        assert_eq!(a, b);
        // Cell (0,0) holds {1, 3} (id-sorted), cell (1,0) holds {2}.
        assert_eq!(a.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![1, 3, 2]);
    }

    #[test]
    fn within_into_reuses_capacity() {
        let items: Vec<(u32, Point)> = (0..64)
            .map(|i| (i, Point::new(f64::from(i) * 10.0, 0.0)))
            .collect();
        let grid = GridIndex::build(items.iter().copied(), 100.0);
        let mut out = Vec::new();
        grid.within_into(Point::ORIGIN, 300.0, &mut out);
        let cap = out.capacity();
        for _ in 0..10 {
            grid.within_into(Point::ORIGIN, 300.0, &mut out);
        }
        assert_eq!(out.capacity(), cap, "steady-state queries must not grow");
        assert_eq!(out.len(), 31);
    }

    #[test]
    fn brute_force_agreement() {
        use mlora_simcore::SimRng;
        let mut rng = SimRng::new(42);
        let items: Vec<(u32, Point)> = (0..500)
            .map(|i| {
                (
                    i,
                    Point::new(
                        rng.gen_range_f64(0.0, 5000.0),
                        rng.gen_range_f64(0.0, 5000.0),
                    ),
                )
            })
            .collect();
        let grid = GridIndex::build(items.iter().copied(), 500.0);
        for _ in 0..50 {
            let c = Point::new(
                rng.gen_range_f64(0.0, 5000.0),
                rng.gen_range_f64(0.0, 5000.0),
            );
            let r = rng.gen_range_f64(10.0, 1500.0);
            let mut got: Vec<u32> = grid.within(c, r).map(|(i, _)| i).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = items
                .iter()
                .filter(|(_, p)| p.distance_sq(c) <= r * r)
                .map(|(i, _)| *i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_index() {
        let grid: GridIndex<u32> = GridIndex::build(std::iter::empty(), 10.0);
        assert!(grid.is_empty());
        assert_eq!(grid.within(Point::ORIGIN, 100.0).count(), 0);
    }
}
