//! Shared FNV-1a hashing primitive.
//!
//! Every stable content fingerprint in the workspace (kernels, plans,
//! plan-cache keys) is FNV-1a over a fixed byte serialization — platform-,
//! process- and compiler-independent, so the values are safe to persist.
//! This module is the single definition of the offset/prime constants and
//! the xor-then-multiply byte loop; hand-rolled variations of the mixing
//! are exactly how the runtime's plan-key collision bug happened.

/// Incremental FNV-1a hasher (64-bit).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The standard 64-bit FNV offset basis.
    pub const OFFSET: u64 = 0xcbf29ce484222325;
    /// The standard 64-bit FNV prime.
    pub const PRIME: u64 = 0x100000001b3;

    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Fold one byte (xor, then multiply — FNV-1a order).
    pub fn byte(&mut self, b: u8) -> &mut Self {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
        self
    }

    /// Fold a byte slice.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.byte(b);
        }
        self
    }

    /// Fold a `u64` as its little-endian bytes (8 full rounds — inputs can
    /// never cancel each other the way single-xor folding allows).
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.bytes(&w.to_le_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(Fnv1a::new().finish(), 0xcbf29ce484222325);
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv1a::new().bytes(b"foobar").finish(), 0x85944171f73967e8);
    }

    #[test]
    fn word_equals_byte_loop() {
        let mut a = Fnv1a::new();
        a.word(0x0123456789abcdef);
        let mut b = Fnv1a::new();
        for byte in 0x0123456789abcdefu64.to_le_bytes() {
            b.byte(byte);
        }
        assert_eq!(a.finish(), b.finish());
    }
}
