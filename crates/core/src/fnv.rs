//! The workspace's one hash: 64-bit FNV-1a.

/// Streaming 64-bit FNV-1a. Route-table fingerprints, the simulator's
/// trace digest and state hash, and campaign cell identities are all
/// folds of it, so every pinned value depends on this one definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty fold.
    pub const fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    /// Fold `bytes` in, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of everything folded so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        let hash = |s: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(s);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
        // A split write folds the same bytes.
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), hash(b"foobar"));
    }
}
