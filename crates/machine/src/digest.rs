//! Architectural-state digests for determinism verification.

use std::fmt;

/// A 64-bit FNV-1a state digest.
///
/// Replay correctness is asserted by comparing the digest of the recorded
/// VM's final state with the replayed VM's state at the same instruction
/// count; any divergence in memory, registers, mode, or disk contents
/// changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Digest(pub u64);

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A fresh hasher.
    pub fn new() -> Fnv1a {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a 64-bit value.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorbs bytes word-at-a-time: four interleaved FNV-1a lanes over
    /// little-endian `u64` words, folded back into one state per call. A
    /// *different* stream than [`Fnv1a::update`] — the two must not be mixed
    /// for the same data — but far higher throughput: the per-byte (and
    /// per-word) FNV multiply chain is latency-bound, and four independent
    /// lanes let the multiplier pipeline. This is the per-page hash that
    /// each [`Page`](crate::Page) memoizes: verification digests fold one
    /// such hash per 4 KiB page of guest memory and disk, and rehash a page
    /// only after it was written. Lanes are seeded with
    /// distinct constants so words are position-sensitive across lanes, and
    /// any single-bit difference still changes the digest.
    pub fn update_words(&mut self, bytes: &[u8]) {
        // Only lane 0 carries the incoming state; lanes 1-3 start from fixed
        // distinct seeds every call. Each FNV step and each fold step is then
        // a bijection of lane 0's value, so the map from incoming state to
        // outgoing state is injective for any fixed input — no prior-state
        // information can be destroyed by absorbing more data. (Seeding every
        // lane from `self.state` and XOR-folding loses that property: the
        // fold cancels the state's contribution and repeated calls contract
        // distinct states onto one orbit.)
        let mut lanes = [self.state, 0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f, 0x1656_67b1_9e37_79f9];
        let mut chunks32 = bytes.chunks_exact(32);
        for c in &mut chunks32 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                let w = u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().expect("8-byte word"));
                *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
            }
        }
        let mut state = lanes[0];
        for &lane in &lanes[1..] {
            state = (state ^ lane).wrapping_mul(FNV_PRIME);
        }
        let mut chunks = chunks32.remainder().chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            state = (state ^ w).wrapping_mul(FNV_PRIME);
        }
        for &b in chunks.remainder() {
            state ^= b as u64;
            state = state.wrapping_mul(FNV_PRIME);
        }
        self.state = state;
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> Digest {
        Digest(self.state)
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> Digest {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        assert_eq!(fnv1a(b"a").0, 0xaf63_dc4c_8601_ec8c);
        // FNV-1a("") = offset basis
        assert_eq!(fnv1a(b"").0, FNV_OFFSET);
    }

    #[test]
    fn sensitive_to_every_byte() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"ab"));
    }

    #[test]
    fn word_hash_sensitive_to_every_bit() {
        let mut base = [0u8; 64];
        let mut h0 = Fnv1a::new();
        h0.update_words(&base);
        for bit in 0..512 {
            base[bit / 8] ^= 1 << (bit % 8);
            let mut h = Fnv1a::new();
            h.update_words(&base);
            assert_ne!(h.finish(), h0.finish(), "bit {bit} did not change the digest");
            base[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn word_hash_remainder_covered() {
        let mut a = Fnv1a::new();
        a.update_words(b"0123456789"); // 8-byte word + 2-byte tail
        let mut b = Fnv1a::new();
        b.update_words(b"0123456798");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn word_hash_lane_swap_detected() {
        // Swapping two whole words between lanes of the same 32-byte chunk
        // must change the digest (the lane fold is XOR-based, so this relies
        // on the distinct lane seeds).
        let mut buf = [0u8; 32];
        buf[0..8].copy_from_slice(&1u64.to_le_bytes());
        buf[8..16].copy_from_slice(&2u64.to_le_bytes());
        let mut a = Fnv1a::new();
        a.update_words(&buf);
        buf[0..8].copy_from_slice(&2u64.to_le_bytes());
        buf[8..16].copy_from_slice(&1u64.to_le_bytes());
        let mut b = Fnv1a::new();
        b.update_words(&buf);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn word_hash_preserves_prior_state_through_many_pages() {
        // Regression: the multi-lane fold must be injective in the incoming
        // state, or absorbing thousands of (mostly zero) guest pages
        // contracts distinct CPU-state prefixes onto the same orbit and the
        // digest stops seeing registers at all.
        let zeros = [0u8; 4096];
        let mut a = Fnv1a::new();
        a.update_u64(7);
        let mut b = Fnv1a::new();
        b.update_u64(8);
        for page in 0..4096 {
            a.update_words(&zeros);
            b.update_words(&zeros);
            assert_ne!(a.finish(), b.finish(), "prefix difference lost after page {page}");
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let mut h = Fnv1a::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), fnv1a(b"hello world"));
    }
}
