//! Dense per-device storage.
//!
//! [`DeviceId`]s are allocated densely from zero and never reused, which
//! makes a plain vector the right index for per-device state: one bounds
//! check and one cache line instead of the pointer-chasing `BTreeMap`/
//! `HashMap` lookups that used to sit on every event's path. At 10k+
//! devices the map overhead is what dominated the emulator's memory and
//! event throughput — a `BTreeMap<DeviceId, SimDevice>` walk touches a node
//! chain per lookup, while `DenseMap` is `slots[id.0]`.
//!
//! Iteration order is ascending `DeviceId`, identical to the `BTreeMap`
//! order it replaces — the byte-identity determinism suites pin that order,
//! so it is load-bearing, not cosmetic.

use centralium_topology::DeviceId;
use std::ops::{Index, IndexMut};

/// A map from [`DeviceId`] to `V` backed by a dense slot vector.
///
/// Designed for dense, rarely-removed id spaces: `insert` grows the slot
/// vector to the id, `remove` leaves a `None` hole (decommissions are rare
/// and ids are never reused, so holes never come back to life).
#[derive(Debug, Clone)]
pub struct DenseMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for DenseMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> DenseMap<V> {
    /// Empty map.
    pub fn new() -> Self {
        DenseMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Empty map with room for ids `0..capacity` without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        DenseMap {
            slots: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value for `id`, if present.
    pub fn get(&self, id: DeviceId) -> Option<&V> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// Mutable value for `id`, if present.
    pub fn get_mut(&mut self, id: DeviceId) -> Option<&mut V> {
        self.slots.get_mut(id.0 as usize)?.as_mut()
    }

    /// Disjoint mutable values for `ids` (strictly ascending, or this
    /// panics), one item per id, `None` when absent. Visits only those
    /// slots, so a short job list never walks the whole arena.
    pub(crate) fn get_many_mut(
        &mut self,
        ids: impl IntoIterator<Item = DeviceId>,
    ) -> impl Iterator<Item = Option<&mut V>> {
        let mut rest: &mut [Option<V>] = &mut self.slots;
        let mut base = 0usize;
        ids.into_iter().map(move |id| {
            let idx = id.0 as usize;
            assert!(idx >= base, "ids must be strictly ascending");
            let (slot, tail) = std::mem::take(&mut rest)
                .get_mut(idx - base..)?
                .split_first_mut()?;
            rest = tail;
            base = idx + 1;
            slot.as_mut()
        })
    }

    /// Whether `id` has a value.
    pub fn contains_key(&self, id: DeviceId) -> bool {
        self.get(id).is_some()
    }

    /// Insert `value` for `id`, returning the previous value if any.
    pub fn insert(&mut self, id: DeviceId, value: V) -> Option<V> {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Mutable value for `id`, inserting `default()` first if absent — the
    /// accumulate idiom (`*m.get_or_insert_with(id, || 0.0) += x`).
    pub fn get_or_insert_with(&mut self, id: DeviceId, default: impl FnOnce() -> V) -> &mut V {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].is_none() {
            self.slots[idx] = Some(default());
            self.len += 1;
        }
        self.slots[idx].as_mut().expect("just filled")
    }

    /// Remove and return the value for `id`. The slot stays allocated (ids
    /// are never reused, so the hole is permanent but bounded).
    pub fn remove(&mut self, id: DeviceId) -> Option<V> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        let prev = slot.take();
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Drop every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }

    /// Present ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Present values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Mutable values in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }

    /// `(id, &value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (DeviceId(i as u32), v)))
    }

    /// `(id, &mut value)` pairs in ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (DeviceId, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (DeviceId(i as u32), v)))
    }

    /// Bytes of the slot vector at *capacity* (what the allocator actually
    /// holds), for the quiescence memory gauges. Heap memory owned by the
    /// values themselves is accounted by their own gauges.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.slots.capacity() * std::mem::size_of::<Option<V>>()
    }
}

impl<V> Index<DeviceId> for DenseMap<V> {
    type Output = V;
    fn index(&self, id: DeviceId) -> &V {
        self.get(id).expect("device present in DenseMap")
    }
}

impl<V> IndexMut<DeviceId> for DenseMap<V> {
    fn index_mut(&mut self, id: DeviceId) -> &mut V {
        self.get_mut(id).expect("device present in DenseMap")
    }
}

impl<V> FromIterator<(DeviceId, V)> for DenseMap<V> {
    fn from_iter<I: IntoIterator<Item = (DeviceId, V)>>(iter: I) -> Self {
        let mut map = DenseMap::new();
        for (id, v) in iter {
            map.insert(id, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(DeviceId(3), "c"), None);
        assert_eq!(m.insert(DeviceId(0), "a"), None);
        assert_eq!(m.insert(DeviceId(3), "c2"), Some("c"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(DeviceId(3)), Some(&"c2"));
        assert!(m.contains_key(DeviceId(0)));
        assert!(!m.contains_key(DeviceId(1)));
        assert!(!m.contains_key(DeviceId(999)));
        assert_eq!(m.remove(DeviceId(3)), Some("c2"));
        assert_eq!(m.remove(DeviceId(3)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_ascending_id_order() {
        let mut m = DenseMap::new();
        for id in [7u32, 2, 9, 0, 4] {
            m.insert(DeviceId(id), id);
        }
        m.remove(DeviceId(4));
        let ids: Vec<u32> = m.keys().map(|d| d.0).collect();
        assert_eq!(ids, vec![0, 2, 7, 9]);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, vec![0, 2, 7, 9]);
        let pairs: Vec<(u32, u32)> = m.iter().map(|(d, &v)| (d.0, v)).collect();
        assert_eq!(pairs, vec![(0, 0), (2, 2), (7, 7), (9, 9)]);
    }

    #[test]
    fn index_and_footprint() {
        let mut m = DenseMap::new();
        m.insert(DeviceId(1), 10u64);
        m[DeviceId(1)] += 5;
        assert_eq!(m[DeviceId(1)], 15);
        assert!(m.footprint_bytes() >= 2 * std::mem::size_of::<Option<u64>>());
    }

    #[test]
    fn get_many_mut_yields_one_item_per_id() {
        let mut m: DenseMap<u32> = [0, 2, 5].map(|i| (DeviceId(i), i)).into_iter().collect();
        let got: Vec<_> = m.get_many_mut([0, 1, 5, 9].map(DeviceId)).collect();
        assert_eq!(got, vec![Some(&mut 0), None, Some(&mut 5), None]);
        let unsorted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.get_many_mut([DeviceId(2), DeviceId(0)]).for_each(drop)
        }));
        assert!(unsorted.is_err(), "unsorted ids must panic");
    }

    #[test]
    fn matches_btreemap_order_under_churn() {
        use std::collections::BTreeMap;
        let mut dense = DenseMap::new();
        let mut oracle = BTreeMap::new();
        for i in 0..200u32 {
            let id = DeviceId((i * 37) % 256);
            dense.insert(id, i);
            oracle.insert(id, i);
            if i % 3 == 0 {
                let victim = DeviceId((i * 11) % 256);
                assert_eq!(dense.remove(victim), oracle.remove(&victim));
            }
        }
        let d: Vec<_> = dense.iter().map(|(k, &v)| (k, v)).collect();
        let o: Vec<_> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(d, o, "iteration order must match the BTreeMap it replaced");
    }
}
