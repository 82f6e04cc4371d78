//! Dense, index-addressed storage for hot simulation state.
//!
//! Discrete-event hot loops touch per-entity state on every event; hash
//! lookups and per-event allocation dominate once fleets reach thousands
//! of entities. This module provides the two shapes of dense storage the
//! engine uses instead:
//!
//! * [`Slab`] — a generational arena for entities with dynamic lifetimes
//!   (frames in flight). Insertion reuses vacated slots through a free
//!   list, keys are `(index, generation)` pairs so a stale key can never
//!   alias a recycled slot, and iteration is in index order.
//! * [`DenseMap`] — a flat `Vec`-backed map for entities that already
//!   carry small dense indices (devices keyed by
//!   [`NodeId`](crate::NodeId)). Lookup is a bounds-checked array index.
//!
//! # Example
//!
//! ```
//! use mlora_simcore::Slab;
//!
//! let mut slab = Slab::new();
//! let a = slab.insert("alpha");
//! let b = slab.insert("beta");
//! assert_eq!(slab[a], "alpha");
//! assert_eq!(slab.remove(b), Some("beta"));
//! // The slot is recycled under a new generation: the old key is dead.
//! let c = slab.insert("gamma");
//! assert_eq!(slab.get(b), None);
//! assert_eq!(slab[c], "gamma");
//! ```

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

/// A generational handle into a [`Slab`].
///
/// Keys are `Copy` and order by `(index, generation)`; a key obtained
/// from one slab must only be used with that slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlabKey {
    index: u32,
    generation: u32,
}

impl SlabKey {
    /// The slot index behind this key.
    pub const fn index(self) -> usize {
        self.index as usize
    }

    /// The generation that must match for the key to resolve.
    pub const fn generation(self) -> u32 {
        self.generation
    }
}

impl SlabKey {
    /// Rebuilds a key from its `(index, generation)` parts — the
    /// checkpoint counterpart of [`SlabKey::index`] and
    /// [`SlabKey::generation`]. The key only resolves against a slab
    /// whose slot still carries the same generation.
    pub const fn from_parts(index: u32, generation: u32) -> Self {
        SlabKey { index, generation }
    }
}

impl fmt::Display for SlabKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slab-{}v{}", self.index, self.generation)
    }
}

#[derive(Debug, Clone)]
enum Entry<T> {
    Vacant { generation: u32 },
    Occupied { generation: u32, value: T },
}

/// A generational arena with free-list slot reuse.
///
/// All operations are O(1) except [`Slab::iter`] and [`Slab::retain`],
/// which are linear in the number of *slots* (occupied plus vacant).
/// Capacity is never shrunk, so a slab that reached its steady-state
/// size performs no further allocation.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty slab with room for `capacity` values.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value`, reusing a vacated slot when one is available.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX` slots.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let entry = &mut self.entries[index as usize];
            let generation = match *entry {
                Entry::Vacant { generation } => generation,
                Entry::Occupied { .. } => unreachable!("free list points at occupied slot"),
            };
            *entry = Entry::Occupied { generation, value };
            SlabKey { index, generation }
        } else {
            let index = u32::try_from(self.entries.len()).expect("slab overflow");
            self.entries.push(Entry::Occupied {
                generation: 0,
                value,
            });
            SlabKey {
                index,
                generation: 0,
            }
        }
    }

    /// The value behind `key`, if it is still live.
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        match self.entries.get(key.index()) {
            Some(Entry::Occupied { generation, value }) if *generation == key.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable access to the value behind `key`, if it is still live.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.entries.get_mut(key.index()) {
            Some(Entry::Occupied { generation, value }) if *generation == key.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Removes and returns the value behind `key`.
    ///
    /// The slot's generation advances, so `key` (and any copy of it)
    /// stops resolving; the slot itself is recycled by later insertions.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let entry = self.entries.get_mut(key.index())?;
        match entry {
            Entry::Occupied { generation, .. } if *generation == key.generation => {
                let next = Entry::Vacant {
                    generation: key.generation.wrapping_add(1),
                };
                let Entry::Occupied { value, .. } = std::mem::replace(entry, next) else {
                    unreachable!("matched occupied above");
                };
                self.free.push(key.index);
                self.len -= 1;
                Some(value)
            }
            _ => None,
        }
    }

    /// Iterates the occupied slots in index order.
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(index, entry)| match entry {
                Entry::Occupied { generation, value } => Some((
                    SlabKey {
                        index: index as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Entry::Vacant { .. } => None,
            })
    }

    /// Iterates every *slot* in index order as `(generation, value)`,
    /// vacant slots included (`None` value). Together with
    /// [`Slab::free_list`] this captures the arena's full layout, so a
    /// checkpoint rebuilt through [`Slab::from_raw_parts`] hands out the
    /// same keys in the same order as the original.
    pub fn raw_slots(&self) -> impl Iterator<Item = (u32, Option<&T>)> + '_ {
        self.entries.iter().map(|entry| match entry {
            Entry::Occupied { generation, value } => (*generation, Some(value)),
            Entry::Vacant { generation } => (*generation, None),
        })
    }

    /// The free list, in pop order from the back: the checkpoint
    /// counterpart of [`Slab::from_raw_parts`].
    pub fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Total number of slots (occupied + vacant). Grows monotonically
    /// between [`Slab::from_raw_parts`] rebuilds, and — together with
    /// [`Slab::has_free_slot`] — is part of the checkpointed layout, so
    /// callers can derive growth-boundary policies (e.g. batched sweeps)
    /// that replay identically across a checkpoint/restore.
    pub fn slot_count(&self) -> usize {
        self.entries.len()
    }

    /// True when the next [`Slab::insert`] will recycle a vacated slot
    /// rather than grow the arena.
    pub fn has_free_slot(&self) -> bool {
        !self.free.is_empty()
    }

    /// Rebuilds a slab from state captured by [`Slab::raw_slots`] and
    /// [`Slab::free_list`], or `None` when `free` names a slot that is
    /// occupied or missing, or names one slot twice: such a list would
    /// hand a live slot, or one slot to two values, to later inserts.
    pub fn from_raw_parts(slots: Vec<(u32, Option<T>)>, free: Vec<u32>) -> Option<Self> {
        let mut len = 0;
        let entries: Vec<Entry<T>> = slots
            .into_iter()
            .map(|(generation, value)| match value {
                Some(value) => {
                    len += 1;
                    Entry::Occupied { generation, value }
                }
                None => Entry::Vacant { generation },
            })
            .collect();
        // A listed slot is struck off: naming it again finds it taken.
        let mut unlisted: Vec<bool> = entries
            .iter()
            .map(|entry| matches!(entry, Entry::Vacant { .. }))
            .collect();
        let distinct_vacant = free.iter().all(|&index| {
            unlisted
                .get_mut(index as usize)
                .is_some_and(|v| std::mem::replace(v, false))
        });
        distinct_vacant.then_some(Slab { entries, free, len })
    }

    /// Keeps only the values for which `keep` returns true, visiting
    /// slots in index order. Removal recycles slots exactly like
    /// [`Slab::remove`], without allocating.
    pub fn retain(&mut self, mut keep: impl FnMut(SlabKey, &mut T) -> bool) {
        for index in 0..self.entries.len() {
            let entry = &mut self.entries[index];
            if let Entry::Occupied { generation, value } = entry {
                let key = SlabKey {
                    index: index as u32,
                    generation: *generation,
                };
                if !keep(key, value) {
                    *entry = Entry::Vacant {
                        generation: key.generation.wrapping_add(1),
                    };
                    self.free.push(key.index);
                    self.len -= 1;
                }
            }
        }
    }
}

impl<T> Index<SlabKey> for Slab<T> {
    type Output = T;
    fn index(&self, key: SlabKey) -> &T {
        self.get(key).expect("stale or foreign slab key")
    }
}

impl<T> IndexMut<SlabKey> for Slab<T> {
    fn index_mut(&mut self, key: SlabKey) -> &mut T {
        self.get_mut(key).expect("stale or foreign slab key")
    }
}

/// A key type with a small dense index, usable with [`DenseMap`].
///
/// Implemented by the simulation id newtypes ([`NodeId`](crate::NodeId),
/// [`GatewayId`](crate::GatewayId), [`MessageId`](crate::MessageId)).
pub trait DenseKey: Copy {
    /// The dense index of this key.
    fn dense_index(self) -> usize;
}

/// A flat `Vec`-backed map for keys that are already dense indices.
///
/// Lookup, insertion and removal are a single bounds-checked array
/// access. The backing vector grows to the largest inserted index and is
/// never shrunk, so steady-state operation performs no allocation; rows
/// exist only up to that index, so a map whose keys arrive in ascending
/// order costs memory in proportion to the keys inserted so far, however
/// much room [`DenseMap::with_capacity`] reserved.
///
/// # Example
///
/// ```
/// use mlora_simcore::{DenseMap, NodeId};
///
/// let mut m: DenseMap<NodeId, &str> = DenseMap::new();
/// m.insert(NodeId::new(3), "bus three");
/// assert_eq!(m.get(NodeId::new(3)), Some(&"bus three"));
/// assert_eq!(m.get(NodeId::new(4)), None);
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DenseMap<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: DenseKey, V> DenseMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Creates an empty map with room reserved for keys below
    /// `capacity`: inserting them never reallocates, and no slot is
    /// written until its key (or a larger one) is inserted.
    pub fn with_capacity(capacity: usize) -> Self {
        DenseMap {
            slots: Vec::with_capacity(capacity),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of slots in existence (occupied or not): one past the
    /// largest index ever inserted.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let index = key.dense_index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let old = self.slots[index].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.dense_index())?.as_ref()
    }

    /// Mutable access to the value at `key`, if present.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slots.get_mut(key.dense_index())?.as_mut()
    }

    /// True if `key` is occupied.
    pub fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let old = self.slots.get_mut(key.dense_index())?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterates `(dense index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (i, v)))
    }

    /// Iterates values in key-index order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().filter_map(|slot| slot.as_ref())
    }
}

impl<K: DenseKey, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        DenseMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn slab_insert_get_remove() {
        let mut slab = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab[a], 10);
        assert_eq!(slab.get(b), Some(&20));
        *slab.get_mut(a).unwrap() = 11;
        assert_eq!(slab.remove(a), Some(11));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slab_recycles_slots_with_new_generation() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        slab.remove(a).unwrap();
        let b = slab.insert("b");
        // Same slot, different generation.
        assert_eq!(a.index(), b.index());
        assert_ne!(a.generation(), b.generation());
        assert_eq!(slab.get(a), None, "stale key must not alias");
        assert_eq!(slab[b], "b");
        // No net growth: one slot serves both lifetimes.
        assert_eq!(slab.entries.len(), 1);
    }

    #[test]
    fn slab_iter_is_index_ordered() {
        let mut slab = Slab::new();
        let keys: Vec<_> = (0..5).map(|i| slab.insert(i * 10)).collect();
        slab.remove(keys[2]).unwrap();
        let got: Vec<i32> = slab.iter().map(|(_, &v)| v).collect();
        assert_eq!(got, vec![0, 10, 30, 40]);
        let idx: Vec<usize> = slab.iter().map(|(k, _)| k.index()).collect();
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn slab_retain_removes_and_recycles() {
        let mut slab = Slab::new();
        for i in 0..6 {
            slab.insert(i);
        }
        slab.retain(|_, v| *v % 2 == 0);
        assert_eq!(slab.len(), 3);
        let got: Vec<i32> = slab.iter().map(|(_, &v)| v).collect();
        assert_eq!(got, vec![0, 2, 4]);
        // Vacated slots are reused before the slab grows.
        let before = slab.entries.len();
        slab.insert(100);
        assert_eq!(slab.entries.len(), before);
    }

    #[test]
    fn from_raw_parts_refuses_a_free_list_that_names_no_distinct_vacant_slot() {
        let mut slab = Slab::new();
        let keys: Vec<_> = (0..3).map(|i| slab.insert(i)).collect();
        slab.remove(keys[1]).unwrap();
        let slots = || -> Vec<(u32, Option<i32>)> {
            slab.raw_slots().map(|(g, v)| (g, v.copied())).collect()
        };
        // Slot 1 twice: the second recycling insert would find it taken.
        assert!(Slab::from_raw_parts(slots(), vec![1, 1]).is_none());
        // An occupied slot, and one past the end.
        assert!(Slab::from_raw_parts(slots(), vec![0]).is_none());
        assert!(Slab::from_raw_parts(slots(), vec![3]).is_none());
        // The captured list rebuilds a slab that hands out the same key.
        let mut rebuilt = Slab::from_raw_parts(slots(), slab.free_list().to_vec()).unwrap();
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt.insert(7), slab.insert(7));
    }

    #[test]
    #[should_panic(expected = "stale or foreign slab key")]
    fn slab_index_panics_on_stale_key() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let _ = slab[a];
    }

    #[test]
    fn dense_map_basics() {
        let mut m: DenseMap<NodeId, u32> = DenseMap::with_capacity(2);
        assert!(m.is_empty());
        assert_eq!(m.insert(NodeId::new(5), 50), None);
        assert_eq!(m.insert(NodeId::new(1), 10), None);
        assert_eq!(m.insert(NodeId::new(5), 55), Some(50));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(NodeId::new(5)), Some(&55));
        assert!(m.contains_key(NodeId::new(1)));
        assert!(!m.contains_key(NodeId::new(0)));
        *m.get_mut(NodeId::new(1)).unwrap() += 1;
        assert_eq!(m.remove(NodeId::new(1)), Some(11));
        assert_eq!(m.remove(NodeId::new(1)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn dense_map_with_capacity_reserves_without_filling() {
        let n = 1_000;
        let mut m: DenseMap<NodeId, u64> = DenseMap::with_capacity(n);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.slot_count(), 0);
        assert!(m.slots.capacity() >= n);
        let base = m.slots.as_ptr();
        for i in 0..n as u32 {
            m.insert(NodeId::new(i), u64::from(i));
            assert_eq!(m.slot_count(), i as usize + 1);
        }
        assert_eq!(m.slots.as_ptr(), base, "reallocated within capacity");
        assert_eq!(m.len(), n);
    }

    #[test]
    fn dense_map_iterates_in_index_order() {
        let mut m: DenseMap<NodeId, &str> = DenseMap::new();
        m.insert(NodeId::new(4), "d");
        m.insert(NodeId::new(0), "a");
        m.insert(NodeId::new(2), "b");
        let got: Vec<(usize, &str)> = m.iter().map(|(i, &v)| (i, v)).collect();
        assert_eq!(got, vec![(0, "a"), (2, "b"), (4, "d")]);
        let vals: Vec<&str> = m.values().copied().collect();
        assert_eq!(vals, vec!["a", "b", "d"]);
    }

    #[test]
    fn slab_key_display() {
        let mut slab = Slab::new();
        let a = slab.insert(());
        assert_eq!(a.to_string(), "slab-0v0");
    }
}
