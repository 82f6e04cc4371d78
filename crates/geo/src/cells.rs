//! Dense cell list for range queries over a bounded area.

use crate::{BBox, Point};

/// Slot-index value of an id with no live entry.
const ABSENT: u32 = u32::MAX;

/// The most cells either side of the area is cut into. The offset array
/// is dense and a rebuild clears and sums all of it, so the cell count
/// must not follow the area: a wider area gets wider cells instead.
const MAX_CELLS_PER_SIDE: usize = 512;

/// Where a tombstoned entry is parked: infinitely far from every finite
/// point, so a `distance_sq(center) <= r²` filter over a finite centre
/// drops it without a separate liveness check.
const TOMB: Point = Point::new(f64::INFINITY, f64::INFINITY);

/// A uniform grid over a fixed area, stored as one dense cell list:
/// `(id, position)` entries sorted by row-major cell in compressed-row
/// form (a start offset per cell into one entry array), followed by an
/// *overflow run* of entries inserted since the last
/// [`CellList::rebuild`].
///
/// The list is built for a population that is re-filed wholesale at
/// intervals and changes a little in between:
///
/// * [`CellList::rebuild`] files every item from scratch with a two-pass
///   counting sort and empties the overflow run;
/// * [`CellList::insert`] appends to the overflow run;
/// * [`CellList::remove`] tombstones the entry in O(1) through a per-id
///   slot index;
/// * [`CellList::for_each_slice_within`] visits one contiguous slice per
///   cell row of the query box, plus the overflow run.
///
/// Cells cover the `area` given at construction, at most 512 a side
/// whatever the area claims. Positions outside it are filed in the
/// nearest edge cell, and query boxes clamp the same way, so a query
/// stays exact for any position and any radius. Ids are
/// `u32`s and index the slot table directly, so keep them dense. Once
/// the entry array, the slot table and the rebuild scratch have reached
/// their steady-state sizes, no operation allocates.
///
/// # Example
///
/// ```
/// use mlora_geo::{BBox, CellList, Point};
///
/// let area = BBox::square(Point::ORIGIN, 1_000.0);
/// let mut cells = CellList::new(area, 100.0);
/// cells.rebuild([(1, Point::new(0.0, 0.0)), (2, Point::new(30.0, 40.0))]);
/// cells.insert(3, Point::new(-20.0, 0.0)); // outside the area: still found
/// cells.remove(2);
///
/// let mut near = Vec::new();
/// cells.for_each_slice_within(Point::ORIGIN, 60.0, |run| {
///     near.extend(run.iter().filter(|(_, p)| p.distance(Point::ORIGIN) <= 60.0).map(|&(id, _)| id));
/// });
/// near.sort_unstable();
/// assert_eq!(near, vec![1, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct CellList {
    /// Lower-left corner of cell `(0, 0)`.
    origin: Point,
    cell: f64,
    cols: usize,
    rows: usize,
    /// `entries[start[c]..start[c + 1]]` is cell `c`'s run (row-major);
    /// the overflow run begins at `start[cols * rows]`.
    start: Vec<u32>,
    entries: Vec<(u32, Point)>,
    /// Id → index of its live entry, or [`ABSENT`].
    slot: Vec<u32>,
    /// Rebuild scratch: `(cell, id, position)` per item.
    staged: Vec<(u32, u32, Point)>,
    len: usize,
}

impl CellList {
    /// Creates an empty list of square cells covering `area`: at least
    /// one, at most 512 a side, `cell_size` metres wide unless the area
    /// needs wider cells to stay within that. Queries are exact for any
    /// cell size, so widening only trades query work for a bounded
    /// offset array.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(area: BBox, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "bad cell size {cell_size}"
        );
        // An infinitely wide area (a finite box can overflow its width)
        // makes an infinite cell: one cell holds everything.
        let widest = area.width().max(area.height());
        let cell = cell_size.max(widest / MAX_CELLS_PER_SIDE as f64);
        let span = |extent: f64| ((extent / cell).ceil() as usize).clamp(1, MAX_CELLS_PER_SIDE);
        let (cols, rows) = (span(area.width()), span(area.height()));
        CellList {
            origin: area.min(),
            cell,
            cols,
            rows,
            start: vec![0; cols * rows + 1],
            entries: Vec::new(),
            slot: Vec::new(),
            staged: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column (or row) of coordinate offset `d` from the origin,
    /// clamped to `0..=last`. Truncation is `floor` on the clamped,
    /// non-negative range, and a NaN lands in cell 0.
    fn axis(&self, d: f64, last: usize) -> usize {
        (d / self.cell).clamp(0.0, last as f64) as usize
    }

    fn col(&self, x: f64) -> usize {
        self.axis(x - self.origin.x, self.cols - 1)
    }

    fn row(&self, y: f64) -> usize {
        self.axis(y - self.origin.y, self.rows - 1)
    }

    fn cell_of(&self, p: Point) -> u32 {
        (self.row(p.y) * self.cols + self.col(p.x)) as u32
    }

    /// The slot-table entry for `id`, growing the table to reach it.
    fn slot_mut(&mut self, id: u32) -> &mut u32 {
        let i = id as usize;
        if i >= self.slot.len() {
            self.slot.resize(i + 1, ABSENT);
        }
        &mut self.slot[i]
    }

    /// Re-files exactly `items` (ids unique), discarding every previous
    /// entry, tombstone and the overflow run. Within a cell, entries
    /// keep the order `items` gave them.
    ///
    /// # Panics
    ///
    /// Panics if an id repeats, or if `items` holds `u32::MAX` items or
    /// more.
    pub fn rebuild(&mut self, items: impl IntoIterator<Item = (u32, Point)>) {
        for &(id, _) in &self.entries {
            self.slot[id as usize] = ABSENT;
        }
        let mut staged = std::mem::take(&mut self.staged);
        staged.clear();
        staged.extend(items.into_iter().map(|(id, p)| (self.cell_of(p), id, p)));
        assert!(staged.len() < ABSENT as usize, "cell list overflow");
        // Pass one counts each cell; the running sum then leaves
        // `start[c]` at the *end* of cell c's run.
        self.start.fill(0);
        for &(c, ..) in &staged {
            self.start[c as usize] += 1;
        }
        let mut end = 0;
        for s in &mut self.start {
            end += *s;
            *s = end;
        }
        // Pass two fills each run from its end backwards, which walks
        // `start[c]` down to the run's beginning and keeps staging order.
        self.entries.clear();
        self.entries.resize(staged.len(), (0, TOMB));
        for &(c, id, p) in staged.iter().rev() {
            let at = &mut self.start[c as usize];
            *at -= 1;
            let at = *at;
            self.entries[at as usize] = (id, p);
            let slot = self.slot_mut(id);
            assert_eq!(*slot, ABSENT, "id {id} filed twice");
            *slot = at;
        }
        self.len = staged.len();
        self.staged = staged;
    }

    /// Files `id` at `pos` in the overflow run, until the next
    /// [`CellList::rebuild`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is already live.
    pub fn insert(&mut self, id: u32, pos: Point) {
        let at = u32::try_from(self.entries.len())
            .ok()
            .filter(|&at| at < ABSENT)
            .expect("cell list overflow");
        let slot = self.slot_mut(id);
        assert_eq!(*slot, ABSENT, "id {id} filed twice");
        *slot = at;
        self.entries.push((id, pos));
        self.len += 1;
    }

    /// Tombstones `id`'s entry. Returns `true` if `id` was live.
    pub fn remove(&mut self, id: u32) -> bool {
        match self.slot.get_mut(id as usize) {
            Some(at) if *at != ABSENT => {
                self.entries[*at as usize].1 = TOMB;
                *at = ABSENT;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// The position `id` is filed at, if it is live.
    pub fn get(&self, id: u32) -> Option<Point> {
        let at = *self.slot.get(id as usize)?;
        (at != ABSENT).then(|| self.entries[at as usize].1)
    }

    /// Every live `(id, position)` entry, in storage order: by cell, then
    /// the overflow run.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Point)> + '_ {
        (0u32..)
            .zip(&self.entries)
            .filter(|&(at, &(id, _))| self.slot[id as usize] == at)
            .map(|(_, &entry)| entry)
    }

    /// Visits, as contiguous slices, every entry that may lie within
    /// `radius` of `center`: one slice per cell row of the clamped query
    /// box, then the overflow run. Slices hold tombstones too, parked at
    /// infinity, and entries outside the radius; filtering them with
    /// `distance(center) <= radius` (or its square) leaves exactly the
    /// live entries in range, each once.
    pub fn for_each_slice_within(
        &self,
        center: Point,
        radius: f64,
        mut f: impl FnMut(&[(u32, Point)]),
    ) {
        let r = radius.max(0.0);
        let (c0, c1) = (self.col(center.x - r), self.col(center.x + r));
        let (r0, r1) = (self.row(center.y - r), self.row(center.y + r));
        for row in r0..=r1 {
            let base = row * self.cols;
            let run =
                &self.entries[self.start[base + c0] as usize..self.start[base + c1 + 1] as usize];
            if !run.is_empty() {
                f(run);
            }
        }
        let overflow = &self.entries[self.start[self.cols * self.rows] as usize..];
        if !overflow.is_empty() {
            f(overflow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_simcore::SimRng;

    fn within(cells: &CellList, center: Point, radius: f64) -> Vec<u32> {
        let mut ids = Vec::new();
        cells.for_each_slice_within(center, radius, |run| {
            ids.extend(
                run.iter()
                    .filter(|(_, p)| p.distance(center) <= radius)
                    .map(|&(id, _)| id),
            );
        });
        ids.sort_unstable();
        ids
    }

    #[test]
    fn radius_is_inclusive_and_crosses_cell_borders() {
        let mut cells = CellList::new(BBox::square(Point::ORIGIN, 1_000.0), 100.0);
        cells.rebuild([(1, Point::new(99.0, 0.0)), (2, Point::new(101.0, 0.0))]);
        assert_eq!(within(&cells, Point::new(100.0, 0.0), 1.0), vec![1, 2]);
        assert_eq!(
            within(&cells, Point::new(100.0, 0.0), 0.999),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn rebuild_sorts_by_cell_and_keeps_order_within_one() {
        let mut cells = CellList::new(BBox::square(Point::ORIGIN, 300.0), 100.0);
        cells.rebuild([
            (5, Point::new(250.0, 250.0)),
            (3, Point::new(10.0, 10.0)),
            (9, Point::new(150.0, 10.0)),
            (4, Point::new(20.0, 20.0)),
        ]);
        let order: Vec<u32> = cells.iter().map(|(id, _)| id).collect();
        assert_eq!(order, vec![3, 4, 9, 5]);
        assert_eq!(cells.len(), 4);
    }

    #[test]
    fn outside_the_area_clamps_to_the_edge() {
        let mut cells = CellList::new(BBox::square(Point::ORIGIN, 500.0), 100.0);
        cells.rebuild([
            (1, Point::new(-250.0, -250.0)),
            (2, Point::new(900.0, 40.0)),
        ]);
        assert_eq!(within(&cells, Point::new(-240.0, -240.0), 20.0), vec![1]);
        assert_eq!(within(&cells, Point::new(880.0, 40.0), 20.0), vec![2]);
        // A query far outside still reaches both through the edge cells.
        assert_eq!(
            within(&cells, Point::new(5_000.0, 5_000.0), 10_000.0),
            vec![1, 2]
        );
    }

    #[test]
    fn overflow_and_tombstones_until_the_next_rebuild() {
        let mut cells = CellList::new(BBox::square(Point::ORIGIN, 1_000.0), 100.0);
        cells.rebuild([(0, Point::new(10.0, 10.0)), (1, Point::new(20.0, 20.0))]);
        cells.insert(7, Point::new(15.0, 15.0));
        assert!(cells.remove(0));
        assert!(!cells.remove(0), "gone means gone");
        assert!(!cells.remove(42), "never filed");
        assert_eq!(within(&cells, Point::ORIGIN, 50.0), vec![1, 7]);
        assert_eq!(cells.len(), 2);
        // A removed id may be filed again, into the overflow run.
        cells.insert(0, Point::new(11.0, 11.0));
        assert!(cells.remove(7));
        assert_eq!(within(&cells, Point::ORIGIN, 50.0), vec![0, 1]);
        cells.rebuild(cells.iter().collect::<Vec<_>>());
        assert_eq!(within(&cells, Point::ORIGIN, 50.0), vec![0, 1]);
        assert_eq!(cells.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "filed twice")]
    fn a_live_id_cannot_be_inserted_again() {
        let mut cells = CellList::new(BBox::square(Point::ORIGIN, 100.0), 10.0);
        cells.insert(3, Point::ORIGIN);
        cells.insert(3, Point::ORIGIN);
    }

    #[test]
    fn slice_visit_filtered_matches_brute_force() {
        let mut rng = SimRng::new(17);
        let side = 3_000.0;
        let items: Vec<(u32, Point)> = (0..300)
            .map(|i| {
                let p = Point::new(
                    rng.gen_range_f64(-200.0, side + 200.0),
                    rng.gen_range_f64(-200.0, side + 200.0),
                );
                (i, p)
            })
            .collect();
        let mut cells = CellList::new(BBox::square(Point::ORIGIN, side), 400.0);
        cells.rebuild(items.iter().copied());
        for _ in 0..50 {
            let c = Point::new(
                rng.gen_range_f64(-500.0, side + 500.0),
                rng.gen_range_f64(-500.0, side + 500.0),
            );
            let r = rng.gen_range_f64(10.0, 1_500.0);
            let want: Vec<u32> = items
                .iter()
                .filter(|(_, p)| p.distance(c) <= r)
                .map(|&(id, _)| id)
                .collect();
            assert_eq!(within(&cells, c, r), want);
        }
    }

    #[test]
    fn a_huge_area_widens_its_cells_and_stays_exact() {
        let items = [
            (1, Point::new(0.0, 0.0)),
            (2, Point::new(150.0, 0.0)),
            (3, Point::new(-1e300, 1e300)),
        ];
        for area in [
            BBox::square(Point::ORIGIN, 1e7),
            BBox::square(Point::ORIGIN, 1e300),
            // Finite corners, infinite width.
            BBox::new(Point::new(-1e308, -1e308), Point::new(1e308, 1e308)),
        ] {
            let mut cells = CellList::new(area, 200.0);
            assert!(cells.cols <= MAX_CELLS_PER_SIDE && cells.rows <= MAX_CELLS_PER_SIDE);
            assert_eq!(cells.start.len(), cells.cols * cells.rows + 1);
            cells.rebuild(items);
            assert_eq!(within(&cells, Point::ORIGIN, 100.0), vec![1]);
            assert_eq!(within(&cells, Point::new(100.0, 0.0), 100.0), vec![1, 2]);
            assert_eq!(
                within(&cells, Point::new(-1e300, 1e300), 1.0),
                vec![3],
                "{area:?}"
            );
        }
    }

    #[test]
    fn empty_list() {
        let mut cells = CellList::new(BBox::square(Point::ORIGIN, 0.0), 10.0);
        assert!(cells.is_empty());
        assert_eq!(within(&cells, Point::ORIGIN, 100.0), Vec::<u32>::new());
        cells.rebuild(std::iter::empty());
        assert!(cells.is_empty());
    }
}
