//! Hash functions over `u32` keys.
//!
//! The choice of hash function is a *molecule*-level DQO decision (Table 1).
//! The paper's hash-based grouping uses "the Murmur3 finaliser as hash
//! function" (§4.1); we provide it plus two alternatives with different
//! speed/quality trade-offs for the molecule ablation (E9).

/// A stateless hash function from `u32` keys to `u64` hashes.
///
/// Implementations must be pure: equal keys hash equally across calls.
pub trait HashFn: Copy + Default + Send + Sync + 'static {
    /// Hash a key.
    fn hash(self, key: u32) -> u64;

    /// Human-readable name for plan rendering and benchmarks.
    fn name(self) -> &'static str;
}

/// The 64-bit Murmur3 finaliser (a.k.a. `fmix64`) applied to the
/// zero-extended key — exactly the function the paper's HG uses.
///
/// High quality: every input bit affects every output bit (full avalanche).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Murmur3Finalizer;

impl HashFn for Murmur3Finalizer {
    #[inline(always)]
    fn hash(self, key: u32) -> u64 {
        let mut h = u64::from(key);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }

    fn name(self) -> &'static str {
        "murmur3-finalizer"
    }
}

/// Fibonacci (multiplicative) hashing: multiply by 2^64/φ and keep the
/// product's high half. Cheaper than Murmur3 but weaker on structured keys.
///
/// The tables bucket by `hash & mask`, and the low `b` bits of a product
/// depend only on the key's low `b` bits: keys sharing them (multiples of
/// 4 096, say) would all start in one bucket. Bit 32 and above depend on
/// every key bit, so the high half is what reaches the mask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fibonacci;

impl HashFn for Fibonacci {
    #[inline(always)]
    fn hash(self, key: u32) -> u64 {
        // 2^64 / golden ratio, odd.
        u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
    }

    fn name(self) -> &'static str {
        "fibonacci"
    }
}

/// The identity function. Pathological for clustered keys in tables that use
/// low bits for bucketing, but optimal when keys are already uniform — the
/// degenerate end of the molecule spectrum (and, combined with a dense
/// domain, what SPH exploits structurally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl HashFn for Identity {
    #[inline(always)]
    fn hash(self, key: u32) -> u64 {
        u64::from(key)
    }

    fn name(self) -> &'static str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn murmur3_known_vectors() {
        // fmix64 reference values (computed from the canonical C code).
        let h = Murmur3Finalizer;
        assert_eq!(h.hash(0), 0);
        assert_ne!(h.hash(1), 1);
        // Determinism.
        assert_eq!(h.hash(123_456), h.hash(123_456));
        // Distinct inputs produce distinct outputs in practice.
        assert_ne!(h.hash(1), h.hash(2));
    }

    #[test]
    fn murmur3_avalanche() {
        // Flipping one input bit should flip ~half the output bits.
        let h = Murmur3Finalizer;
        let a = h.hash(0xDEAD_BEEF);
        let b = h.hash(0xDEAD_BEEE); // one bit flipped
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "weak avalanche: {flipped} bits"
        );
    }

    #[test]
    fn fibonacci_spreads_consecutive_keys() {
        let h = Fibonacci;
        // Consecutive keys must land far apart in the low (bucket) bits.
        let a = h.hash(1) & 0xFFFF;
        let b = h.hash(2) & 0xFFFF;
        assert_ne!(a, b);
    }

    /// Distinct buckets of a `slots`-slot table (`hash & mask`) that the
    /// keys `i << 12`, `i < 1024`, start in — keys sharing their low 12
    /// bits, the shape a product's low bits cannot tell apart.
    fn home_buckets(h: impl HashFn, slots: u64) -> usize {
        (0..1024u32)
            .map(|i| h.hash(i << 12) & (slots - 1))
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    #[test]
    fn keys_sharing_their_low_bits_spread_over_the_buckets() {
        // At least half the keys have a home bucket of their own in a
        // 2 048-slot table (before the fix, Fibonacci put all in one).
        assert!(home_buckets(Fibonacci, 2_048) >= 512, "fibonacci");
        assert!(home_buckets(Murmur3Finalizer, 2_048) >= 512, "murmur3");
        assert_eq!(
            home_buckets(Identity, 2_048),
            1,
            "identity keeps the low bits"
        );
    }

    #[test]
    fn identity_is_identity() {
        assert_eq!(Identity.hash(42), 42);
        assert_eq!(Identity.hash(u32::MAX), u64::from(u32::MAX));
    }

    #[test]
    fn names_are_distinct() {
        let names = [Murmur3Finalizer.name(), Fibonacci.name(), Identity.name()];
        assert_eq!(
            names.len(),
            names.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }
}
