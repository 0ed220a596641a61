//! Incremental FNV-1a state fingerprinting.
//!
//! `simcheck explore` deduplicates world states by hashing a canonical
//! serialization of every semantic component (kernel mirrors, network
//! queues, interest tables, backend bookkeeping) into one 64-bit
//! fingerprint. The hasher is deliberately tiny and dependency-free:
//! streaming `write_*` helpers, so each subsystem can fold itself in
//! without materializing an intermediate byte buffer, plus the one-shot
//! [`Fnv::digest`] behind probe-snapshot and baseline digests. Not
//! cryptographic; stable across platforms, which is what a checked-in
//! digest needs.
//!
//! Determinism note: callers must feed fields in a fixed, documented
//! order and length-prefix variable-size collections (see
//! [`Fnv::write_len`]) so that distinct states never collide by
//! concatenation ambiguity.

/// Streaming FNV-1a (64-bit) hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

impl Fnv {
    /// A hasher at the standard FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(OFFSET)
    }

    /// FNV-1a of `bytes` in one call.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write_bytes(bytes);
        h.finish()
    }

    /// Folds one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
    }

    /// Folds a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64` (platform-independent digest).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Length prefix for a variable-size collection. Always call this
    /// before folding the elements so `[a] ++ [b]` and `[a, b]` hash
    /// differently.
    pub fn write_len(&mut self, len: usize) {
        self.write_u64(len as u64);
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Known FNV-1a vectors pin cross-platform stability.
        assert_eq!(Fnv::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.write_bytes(b"hello");
        assert_eq!(h.finish(), Fnv::digest(b"hello"));
    }

    #[test]
    fn empty_is_offset_basis() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn length_prefix_disambiguates_concatenation() {
        let mut a = Fnv::new();
        a.write_len(1);
        a.write_u64(7);
        a.write_len(1);
        a.write_u64(9);
        let mut b = Fnv::new();
        b.write_len(2);
        b.write_u64(7);
        b.write_u64(9);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn streaming_order_matters() {
        let mut a = Fnv::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
