//! Chained hash table with per-node heap allocation.
//!
//! This is the deliberate analogue of C++ `std::unordered_map`, which the
//! paper's hash-based grouping (HG) uses: each entry lives in its own
//! heap-allocated node reached through a bucket pointer. That layout is what
//! produces HG's characteristic growth with the number of groups in
//! Figure 4 (unsorted-dense): more live nodes ⇒ more cache misses per
//! probe. The open-addressing tables in this crate exist precisely to
//! ablate that choice.

use crate::hash_fn::{HashFn, Murmur3Finalizer};
use crate::table::GroupTable;

struct Node<V> {
    key: u32,
    value: V,
    next: Option<Box<Node<V>>>,
}

/// Chained hash table from `u32` keys to `V`.
pub struct ChainingTable<V, H: HashFn = Murmur3Finalizer> {
    buckets: Vec<Option<Box<Node<V>>>>,
    len: usize,
    hash: H,
    /// Rehash when `len > buckets * max_load` (libstdc++ default is 1.0).
    max_load: f32,
}

impl<V> ChainingTable<V, Murmur3Finalizer> {
    /// A table with the paper's configuration (Murmur3 finaliser).
    pub fn new() -> Self {
        Self::with_hasher(Murmur3Finalizer)
    }

    /// Pre-size for an expected number of distinct keys.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, Murmur3Finalizer)
    }
}

impl<V> Default for ChainingTable<V, Murmur3Finalizer> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, H: HashFn> ChainingTable<V, H> {
    /// An empty table with a chosen hash function.
    pub fn with_hasher(hash: H) -> Self {
        Self::with_capacity_and_hasher(16, hash)
    }

    /// A table with a chosen hash function — the molecule-level DQO knob.
    pub fn with_capacity_and_hasher(capacity: usize, hash: H) -> Self {
        let buckets = capacity.next_power_of_two().max(16);
        ChainingTable {
            buckets: (0..buckets).map(|_| None).collect(),
            len: 0,
            hash,
            max_load: 1.0,
        }
    }

    #[inline(always)]
    fn bucket_of(&self, key: u32) -> usize {
        (self.hash.hash(key) as usize) & (self.buckets.len() - 1)
    }

    fn grow(&mut self) {
        let new_cap = self.buckets.len() * 2;
        let old: Vec<Option<Box<Node<V>>>> =
            std::mem::replace(&mut self.buckets, (0..new_cap).map(|_| None).collect());
        for mut chain in old.into_iter() {
            while let Some(mut node) = chain {
                chain = node.next.take();
                let idx = (self.hash.hash(node.key) as usize) & (new_cap - 1);
                node.next = self.buckets[idx].take();
                self.buckets[idx] = Some(node);
            }
        }
    }

    /// The link holding `key`'s node in its chain, or the empty link at
    /// the chain's end when the key is absent.
    fn walk(&mut self, key: u32) -> *mut Option<Box<Node<V>>> {
        let idx = self.bucket_of(key);
        let mut slot: *mut Option<Box<Node<V>>> = &mut self.buckets[idx];
        // SAFETY: `slot` always points into a chain owned by `self`, and
        // only one link is borrowed at a time.
        unsafe {
            while let Some(node) = (*slot).as_mut() {
                if node.key == key {
                    break;
                }
                slot = &mut node.next;
            }
        }
        slot
    }

    /// Average chain length over non-empty buckets (diagnostics for the
    /// molecule ablation).
    pub fn avg_chain_length(&self) -> f64 {
        let mut chains = 0usize;
        let mut nodes = 0usize;
        for b in &self.buckets {
            let mut cur = b.as_deref();
            if cur.is_some() {
                chains += 1;
            }
            while let Some(n) = cur {
                nodes += 1;
                cur = n.next.as_deref();
            }
        }
        if chains == 0 {
            0.0
        } else {
            nodes as f64 / chains as f64
        }
    }
}

impl<V, H: HashFn> GroupTable<V> for ChainingTable<V, H> {
    /// Grows only when it inserts, so the table's layout — and its drain
    /// order — depends on the sequence of keys first seen, not on how
    /// often a present key was looked up.
    fn upsert_with(&mut self, key: u32, init: impl FnOnce() -> V) -> &mut V {
        // SAFETY: the chain is traversed through raw pointers because
        // returning a `&mut V` discovered mid-chain is beyond the borrow
        // checker's linked-list analysis (the classic "get-or-insert"
        // limitation). All pointers derive from `&mut self`; at most one
        // reference is returned and no aliasing path survives the call;
        // `grow` runs only between two walks, while no pointer is live.
        unsafe {
            let mut slot = self.walk(key);
            if let Some(node) = (*slot).as_mut() {
                return &mut *std::ptr::addr_of_mut!(node.value);
            }
            if (self.len + 1) as f32 > self.buckets.len() as f32 * self.max_load {
                self.grow();
                slot = self.walk(key);
            }
            *slot = Some(Box::new(Node {
                key,
                value: init(),
                next: None,
            }));
            self.len += 1;
            &mut (*slot).as_mut().expect("just inserted").value
        }
    }

    fn get(&self, key: u32) -> Option<&V> {
        let mut cur = self.buckets[self.bucket_of(key)].as_deref();
        while let Some(node) = cur {
            if node.key == key {
                return Some(&node.value);
            }
            cur = node.next.as_deref();
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn drain(self) -> Vec<(u32, V)> {
        let mut out = Vec::with_capacity(self.len);
        for mut chain in self.buckets.into_iter() {
            while let Some(mut node) = chain {
                chain = node.next.take();
                out.push((node.key, node.value));
            }
        }
        out
    }

    // Bucket order depends on the hash function — output is unordered,
    // which is exactly the §2.1 point about black-box hash tables.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_fn::Identity;

    #[test]
    fn upsert_counts_and_updates() {
        let mut t: ChainingTable<u64> = ChainingTable::new();
        for k in [3u32, 1, 3, 2, 3] {
            *t.upsert_with(k, || 0) += 1;
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(3), Some(&3));
        assert_eq!(t.get(1), Some(&1));
        assert_eq!(t.get(2), Some(&1));
        assert_eq!(t.get(4), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t: ChainingTable<u32> = ChainingTable::with_capacity(16);
        for k in 0..10_000u32 {
            *t.upsert_with(k, || k) += 0;
        }
        assert_eq!(t.len(), 10_000);
        for k in (0..10_000u32).step_by(977) {
            assert_eq!(t.get(k), Some(&k));
        }
    }

    #[test]
    fn layout_depends_only_on_the_keys_first_seen() {
        // 16 keys fill 16 buckets at load 1.0: the next insert grows the
        // table, a lookup of a present key does not.
        let (mut once, mut again): (ChainingTable<u32>, ChainingTable<u32>) =
            (ChainingTable::new(), ChainingTable::new());
        for k in 0..16u32 {
            once.upsert_with(k, || k);
            again.upsert_with(k, || k);
        }
        *again.upsert_with(3, || 0) += 1;
        *again.upsert_with(3, || 0) -= 1;
        assert_eq!(again.buckets.len(), 16);
        assert_eq!(again.drain(), once.drain());
        let mut grown: ChainingTable<u32> = ChainingTable::new();
        for k in 0..17u32 {
            grown.upsert_with(k, || k);
        }
        assert_eq!(grown.buckets.len(), 32);
    }

    #[test]
    fn drain_returns_every_entry_exactly_once() {
        let mut t: ChainingTable<u32> = ChainingTable::new();
        for k in 0..500u32 {
            t.upsert_with(k, || k * 2);
        }
        let mut pairs = t.drain();
        pairs.sort_unstable();
        assert_eq!(pairs.len(), 500);
        for (i, (k, v)) in pairs.iter().enumerate() {
            assert_eq!(*k, i as u32);
            assert_eq!(*v, i as u32 * 2);
        }
    }

    #[test]
    fn collision_chains_with_identity_hash() {
        // Identity hash + power-of-two buckets ⇒ keys 0, 16, 32 … collide
        // in a 16-bucket table, exercising chain traversal.
        let mut t: ChainingTable<u32, Identity> =
            ChainingTable::with_capacity_and_hasher(16, Identity);
        for i in 0..8u32 {
            t.upsert_with(i * 16, || i);
        }
        assert!(t.avg_chain_length() > 1.0);
        for i in 0..8u32 {
            assert_eq!(t.get(i * 16), Some(&i));
        }
    }

    #[test]
    fn empty_table() {
        let t: ChainingTable<u32> = ChainingTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(0), None);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn boundary_keys() {
        let mut t: ChainingTable<&'static str> = ChainingTable::new();
        t.upsert_with(0, || "zero");
        t.upsert_with(u32::MAX, || "max");
        assert_eq!(t.get(0), Some(&"zero"));
        assert_eq!(t.get(u32::MAX), Some(&"max"));
    }
}
