//! The benchmark's only source of seeded choices. The seed picks the
//! inputs that vary the work: the sweep's grid sample and the gateway's
//! models and job stream. The level apps are the repository's own E1
//! workloads and do not depend on it.

/// SplitMix64 finaliser.
pub fn mix(seed: u64, a: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
