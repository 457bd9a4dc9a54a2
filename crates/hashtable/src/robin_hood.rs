//! Open-addressing hash table with Robin-Hood displacement.
//!
//! Robin-Hood hashing bounds probe-length variance by stealing slots from
//! "richer" entries (those closer to their home bucket). It is one of the
//! seven dimensions of Richter et al. \[17\] the paper cites as dramatically
//! affecting performance — i.e. a molecule-level DQO alternative.
//!
//! The layout is [`crate::linear_probing`]'s: a probe array of
//! `(key, group id)` slots — here with each slot's distance from its home
//! bucket — kept at load ≤ 1/8 and checked only when a new key is
//! inserted, and the states dense by group id in first-seen order. The two
//! tables therefore differ only in how they probe.

use crate::groups::{Groups, EMPTY, MIN_SLOTS};
use crate::hash_fn::{HashFn, Murmur3Finalizer};
use crate::table::GroupTable;

/// One probe-array slot; `key == EMPTY` marks a free one.
#[derive(Clone, Copy)]
struct Slot {
    key: u32,
    group: u32,
    /// Distance from the home bucket (DIB — distance to initial bucket).
    dib: u32,
}

const FREE: Slot = Slot {
    key: EMPTY,
    group: 0,
    dib: 0,
};

/// Robin-Hood table from `u32` keys to `V`.
pub struct RobinHoodTable<V, H: HashFn = Murmur3Finalizer> {
    slots: Vec<Slot>,
    groups: Groups<V>,
    hash: H,
}

impl<V> RobinHoodTable<V, Murmur3Finalizer> {
    /// An empty table with the Murmur3 finaliser.
    pub fn new() -> Self {
        Self::with_hasher(Murmur3Finalizer)
    }
}

impl<V> Default for RobinHoodTable<V, Murmur3Finalizer> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, H: HashFn> RobinHoodTable<V, H> {
    /// An empty table with a chosen hash function.
    pub fn with_hasher(hash: H) -> Self {
        RobinHoodTable {
            slots: vec![FREE; MIN_SLOTS],
            groups: Groups::new(),
            hash,
        }
    }

    /// `Ok(group id)` of `key`, or `Err((index, dib))` of the slot a new
    /// `key` takes: a free one, or the first whose occupant is richer.
    /// `key` must not be `EMPTY`.
    #[inline(always)]
    fn find(&self, key: u32) -> Result<u32, (usize, u32)> {
        debug_assert_ne!(key, EMPTY, "the empty-slot key has no slot");
        let mask = self.slots.len() - 1;
        let mut i = (self.hash.hash(key) as usize) & mask;
        let mut dib = 0u32;
        loop {
            let slot = self.slots[i];
            if slot.key == key {
                return Ok(slot.group);
            }
            // Robin-Hood invariant: once we have probed further than the
            // occupant's DIB, the key cannot be in the table.
            if slot.key == EMPTY || slot.dib < dib {
                return Err((i, dib));
            }
            i = (i + 1) & mask;
            dib += 1;
        }
    }

    /// Double the probe array and re-insert every slotted group.
    fn grow(&mut self) {
        let mut slots = vec![FREE; self.slots.len() * 2];
        let mask = slots.len() - 1;
        for (group, key) in self.groups.slotted() {
            let home = (self.hash.hash(key) as usize) & mask;
            place(&mut slots, home, Slot { key, group, dib: 0 });
        }
        self.slots = slots;
    }
}

/// Put `carry` into slot `i` of `slots`, which is free or held by a richer
/// occupant, and push each displaced occupant on to its next slot.
fn place(slots: &mut [Slot], mut i: usize, mut carry: Slot) {
    let mask = slots.len() - 1;
    loop {
        let slot = &mut slots[i];
        if slot.key == EMPTY {
            *slot = carry;
            return;
        }
        if slot.dib < carry.dib {
            // Steal from the rich: swap and keep inserting the displaced
            // occupant.
            std::mem::swap(slot, &mut carry);
        }
        carry.dib += 1;
        i = (i + 1) & mask;
    }
}

impl<V, H: HashFn> GroupTable<V> for RobinHoodTable<V, H> {
    #[inline]
    fn upsert_with(&mut self, key: u32, init: impl FnOnce() -> V) -> &mut V {
        if key == EMPTY {
            return self.groups.upsert_empty_key(init);
        }
        let group = match self.find(key) {
            Ok(group) => group,
            Err((i, dib)) => {
                let group = self.groups.push(key, init());
                place(&mut self.slots, i, Slot { key, group, dib });
                if self.groups.outgrow(self.slots.len()) {
                    self.grow();
                }
                group
            }
        };
        self.groups.state_mut(group)
    }

    fn get(&self, key: u32) -> Option<&V> {
        if key == EMPTY {
            return self.groups.get_empty_key();
        }
        let group = self.find(key).ok()?;
        Some(self.groups.state(group))
    }

    fn len(&self) -> usize {
        self.groups.len()
    }

    fn drain(self) -> Vec<(u32, V)> {
        self.groups.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_fn::Identity;

    #[test]
    fn upsert_and_get() {
        let mut t: RobinHoodTable<u64> = RobinHoodTable::new();
        for k in [5u32, 5, 6, 5, 7] {
            *t.upsert_with(k, || 0) += 1;
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(5), Some(&3));
        assert_eq!(t.get(6), Some(&1));
        assert_eq!(t.get(7), Some(&1));
        assert_eq!(t.get(4), None);
    }

    #[test]
    fn displacement_with_identity_collisions() {
        // Multiples of 64 share a handful of home buckets → lots of
        // displacement.
        let mut t: RobinHoodTable<u32, Identity> = RobinHoodTable::with_hasher(Identity);
        let keys: Vec<u32> = (0..40).map(|i| i * 64).collect();
        for (n, &k) in keys.iter().enumerate() {
            t.upsert_with(k, || n as u32);
        }
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(&(n as u32)), "key {k}");
        }
        assert_eq!(t.len(), 40);
    }

    #[test]
    fn upsert_returns_stable_reference_after_displacement() {
        let mut t: RobinHoodTable<u32, Identity> = RobinHoodTable::with_hasher(Identity);
        // Fill a cluster, then insert a key whose placement displaces others.
        for k in [0u32, 64, 128, 192] {
            t.upsert_with(k, || k);
        }
        let v = t.upsert_with(256, || 999);
        assert_eq!(*v, 999);
        *v = 1000;
        assert_eq!(t.get(256), Some(&1000));
        // Displaced keys still reachable.
        for k in [0u32, 64, 128, 192] {
            assert_eq!(t.get(k), Some(&k));
        }
    }

    #[test]
    fn growth_preserves_entries() {
        let mut t: RobinHoodTable<u32> = RobinHoodTable::new();
        for k in 0..3_000u32 {
            t.upsert_with(k, || k ^ 0xFF);
        }
        assert_eq!(t.len(), 3_000);
        assert!(t.slots.len() >= 3_000 * 8, "load stays at most 1/8");
        for k in (0..3_000u32).step_by(101) {
            assert_eq!(t.get(k), Some(&(k ^ 0xFF)));
        }
    }

    #[test]
    fn early_termination_miss() {
        let mut t: RobinHoodTable<u32, Identity> = RobinHoodTable::with_hasher(Identity);
        t.upsert_with(0, || 1);
        t.upsert_with(16, || 2); // same home bucket in 16 slots: dib 1
        assert_eq!(t.slots.len(), 16);
        // Key 1's home is bucket 1 (occupied by key 16 at dib 1); probing
        // for 1 at dib 0 < occupant dib 1 → keep probing; next is empty →
        // miss. Either way: None.
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn drain_complete() {
        let mut t: RobinHoodTable<u32> = RobinHoodTable::new();
        for k in 0..100u32 {
            t.upsert_with(k, || k);
        }
        assert_eq!(t.drain(), (0..100u32).map(|k| (k, k)).collect::<Vec<_>>());
    }

    #[test]
    fn boundary_keys() {
        let mut t: RobinHoodTable<u8, Identity> = RobinHoodTable::with_hasher(Identity);
        t.upsert_with(0, || 1);
        *t.upsert_with(u32::MAX, || 2) += 1;
        assert_eq!(t.get(u32::MAX), Some(&3));
        assert_eq!(t.get(0), Some(&1));
        assert_eq!(t.drain(), vec![(0, 1), (u32::MAX, 3)]);
    }
}
