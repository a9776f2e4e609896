//! FNV-1a: the workspace's one deterministic hash.

/// 64-bit FNV-1a over `bytes`. Unlike `std::hash::RandomState` it is
/// stable across runs and platforms, so keys built from it never depend
/// on a process's seed and hashes recorded in files stay comparable.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_hashes_are_stable_and_distinct() {
        // The published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar".bytes()), 0x8594_4171_f739_67e8);
        let words = |ws: [u64; 3]| fnv1a(ws.into_iter().flat_map(u64::to_le_bytes));
        assert_eq!(words([1, 2, 3]), words([1, 2, 3]));
        assert_ne!(words([1, 2, 3]), words([3, 2, 1]));
        assert_ne!(fnv1a("fused".bytes()), fnv1a("grid".bytes()));
    }
}
