//! Property test: a [`CellList`] query, filtered by distance, finds
//! exactly the live items a brute-force scan finds, after *arbitrary*
//! interleavings of rebuild, insert (into the overflow run) and remove
//! (a tombstone) — with positions off the area, negative coordinates
//! and radii wider than the area among them.

use mlora_geo::{BBox, CellList, Point};
use mlora_simcore::SimRng;
use proptest::prelude::*;

const AREA: f64 = 5_000.0;

/// Mostly inside the area, but a fifth of the draws land up to a
/// kilometre off it on any side, negative coordinates included.
fn random_point(rng: &mut SimRng) -> Point {
    let (lo, hi) = if rng.gen_range_u64(0, 5) == 0 {
        (-1_000.0, AREA + 1_000.0)
    } else {
        (0.0, AREA)
    };
    Point::new(rng.gen_range_f64(lo, hi), rng.gen_range_f64(lo, hi))
}

/// The live ids within `radius` of `center`, ascending, as the engine
/// reads them: every visited slice filtered by exact distance.
fn visited(cells: &CellList, center: Point, radius: f64) -> Vec<u32> {
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

proptest! {
    /// Applies a random op sequence to one cell list while mirroring the
    /// live set in a plain `Vec` model, and after every step checks
    /// random queries against a brute-force filter of the model.
    #[test]
    fn cell_list_agrees_with_brute_force(
        seed in 0u64..1_000_000,
        n_ops in 20usize..200,
        cell in 40.0f64..900.0,
    ) {
        let mut rng = SimRng::new(seed);
        let mut cells = CellList::new(BBox::square(Point::ORIGIN, AREA), cell);
        let mut model: Vec<(u32, Point)> = Vec::new();
        let mut next_id = 0u32;

        for _ in 0..n_ops {
            match rng.gen_range_u64(0, 8) {
                // Rebuild: every live item moves a little or far, and
                // the whole set is re-filed.
                0 => {
                    for (_, pos) in &mut model {
                        *pos = random_point(&mut rng);
                    }
                    cells.rebuild(model.iter().copied());
                }
                // Insert a fresh item into the overflow run.
                1..=4 => {
                    let pos = random_point(&mut rng);
                    cells.insert(next_id, pos);
                    model.push((next_id, pos));
                    next_id += 1;
                }
                // Tombstone a random live item.
                _ if !model.is_empty() => {
                    let at = rng.gen_range_u64(0, model.len() as u64) as usize;
                    let (id, _) = model.swap_remove(at);
                    prop_assert!(cells.remove(id), "remove lost item {id}");
                    prop_assert!(!cells.remove(id), "item {id} removed twice");
                }
                _ => {}
            }

            prop_assert_eq!(cells.len(), model.len());
            for _ in 0..4 {
                let center = random_point(&mut rng);
                let radius = if rng.gen_range_u64(0, 8) == 0 {
                    rng.gen_range_f64(AREA, 3.0 * AREA)
                } else {
                    rng.gen_range_f64(0.0, 1_500.0)
                };
                let mut brute: Vec<u32> = model
                    .iter()
                    .filter(|(_, p)| p.distance(center) <= radius)
                    .map(|&(id, _)| id)
                    .collect();
                brute.sort_unstable();
                let got = visited(&cells, center, radius);
                prop_assert_eq!(got, brute, "divergence at {} r={}", center, radius);
            }
        }

        // The live entries are the model, position for position.
        let mut live: Vec<(u32, Point)> = cells.iter().collect();
        live.sort_unstable_by_key(|&(id, _)| id);
        model.sort_unstable_by_key(|&(id, _)| id);
        prop_assert_eq!(live, model);
    }
}
