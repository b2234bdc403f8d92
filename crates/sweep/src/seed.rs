//! Deterministic per-job random streams.
//!
//! Every job's generator is seeded by mixing `(root seed, plan
//! fingerprint, job index)` through SplitMix64-style finalizers. The
//! resulting streams are:
//!
//! * **schedule-independent** — no shared generator state, so thread count
//!   and execution order cannot leak into results;
//! * **plan-scoped** — the same root seed drives *different* streams in
//!   different sweeps (no accidental coupling between, say, a diameter
//!   grid and a wafer ensemble);
//! * **decorrelated across jobs** — adjacent indices land far apart in
//!   the generator's state space thanks to the avalanche mixing.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a byte string — the workspace's stable content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Feeds more bytes into an FNV-1a hash: `fnv1a_continue(fnv1a(a), b)`
/// equals `fnv1a(a ++ b)`, so a long input hashes piece by piece without
/// being built.
pub(crate) fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One SplitMix64 finalization round (full avalanche).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 64-bit seed of job `index` under `root_seed` in the plan with the
/// given `fingerprint`.
fn job_seed(root_seed: u64, fingerprint: u64, index: usize) -> u64 {
    let a = mix(root_seed ^ 0x9e37_79b9_7f4a_7c15);
    let b = mix(fingerprint.wrapping_add(0x6a09_e667_f3bc_c909));
    mix(a ^ b.rotate_left(31) ^ (index as u64).wrapping_mul(0xd134_2543_de82_ef95))
}

/// A fresh generator for job `index`, seeded by avalanche-mixing
/// `(root_seed, fingerprint, index)`.
pub fn job_rng(root_seed: u64, fingerprint: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(job_seed(root_seed, fingerprint, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn seeds_are_pure_functions() {
        assert_eq!(job_seed(1, 2, 3), job_seed(1, 2, 3));
        assert_ne!(job_seed(1, 2, 3), job_seed(2, 2, 3));
        assert_ne!(job_seed(1, 2, 3), job_seed(1, 3, 3));
        assert_ne!(job_seed(1, 2, 3), job_seed(1, 2, 4));
    }

    #[test]
    fn adjacent_jobs_get_decorrelated_streams() {
        let mut a = job_rng(42, 7, 0);
        let mut b = job_rng(42, 7, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fnv1a_matches_the_published_fnv_1a_64_vectors() {
        // Cache keys, journal checksums and ring placement all depend on
        // these exact bits.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_continue(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn fnv1a_distinguishes_content() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
