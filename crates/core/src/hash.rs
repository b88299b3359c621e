//! The crate's two small deterministic hashes, one copy each.
//!
//! Both are part of pinned bit-identity contracts (the cold-object → group
//! map, gossip peer selection, the scenario / predictive / decentralized
//! fingerprints), so the constants may never change.

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output mix, without the counter increment.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 as a counter-based hash: the first output of a generator
/// seeded with `z`.
#[inline]
pub(crate) fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

/// One SplitMix64 generator step: advances `state`, returns the draw.
#[inline]
pub(crate) fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// FNV-1a offset basis — the `hash` a fresh [`fnv1a`] fold starts from.
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into a running FNV-1a `hash`.
pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}
