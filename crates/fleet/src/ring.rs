//! Consistent shard-to-owner assignment via rendezvous (HRW) hashing.
//!
//! The sweep disk cache is 256-way sharded by the **high byte** of
//! `Params::content_hash` (`cache_dir/ab/<hash>.json`), so the natural
//! routing unit for a fleet is that same byte: 256 shards, each mapped to
//! exactly one owning instance. [`HashRing`] materializes the full
//! 256-entry table at construction by giving every `(shard, peer)` pair a
//! rendezvous score — `mix(fnv1a(peer_addr ‖ 0 ‖ shard_byte))` — and
//! awarding the shard to the highest scorer. The `mix` finalizer matters:
//! raw FNV-1a's last step perturbs the score by less than 2⁴⁸ per shard
//! byte, so without it whichever peer hashes largest would win *every*
//! shard (a fully degenerate ring).
//!
//! Rendezvous hashing has the two properties a static peer table needs:
//!
//! * **Uniformity** — scores are independent hashes, so the 256 shards
//!   spread evenly across peers without virtual-node tuning.
//! * **Minimal remap** — removing a peer only reassigns the shards that
//!   peer owned (each surviving pair's score is unchanged), so a fleet
//!   that shrinks from N to N−1 instances invalidates ~1/N of the key
//!   space instead of reshuffling everything.
//!
//! Every instance builds the table from the same ordered peer list, so
//! ownership is agreed fleet-wide without any coordination traffic.

use cnt_sweep::seed::fnv1a;

/// SplitMix64 finalizer: full-avalanche bit mix over an FNV-1a hash.
///
/// FNV-1a's incremental multiply leaves the influence of late input bytes
/// concentrated in a narrow band of bits, which rendezvous comparison
/// across peers amplifies into total ownership collapse; three xor-shift
/// multiplies spread every input bit across the whole word.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fixed table mapping each of the 256 cache shards to an owner index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    owners: [u8; 256],
    peers: usize,
}

impl HashRing {
    /// Builds the shard table for an ordered peer list.
    ///
    /// Peers are identified by their listed address string; the table maps
    /// shards to *indices* into that list, so every instance given the
    /// same `--fleet` string derives the same ownership. At most 256 peers
    /// participate (one per shard); empty lists get an empty ring that
    /// owns nothing.
    pub fn new<S: AsRef<str>>(peers: &[S]) -> Self {
        let n = peers.len().min(256);
        let mut owners = [0u8; 256];
        if n == 0 {
            return Self { owners, peers: 0 };
        }
        for (shard, owner) in owners.iter_mut().enumerate() {
            let mut best = (0u64, 0usize);
            for (index, peer) in peers.iter().take(n).enumerate() {
                let mut key = peer.as_ref().as_bytes().to_vec();
                key.push(0);
                key.push(shard as u8);
                let score = mix(fnv1a(&key));
                if score > best.0 || (score == best.0 && index < best.1) {
                    best = (score, index);
                }
            }
            *owner = best.1 as u8;
        }
        Self { owners, peers: n }
    }

    /// The cache shard a content hash lands in: its high byte, matching
    /// the `{:016x}`-prefix directory layout of the sweep disk cache.
    fn shard_of(hash: u64) -> u8 {
        (hash >> 56) as u8
    }

    /// The peer index owning a given shard (`None` on an empty ring).
    fn owner_of_shard(&self, shard: u8) -> Option<usize> {
        (self.peers > 0).then(|| usize::from(self.owners[usize::from(shard)]))
    }

    /// The peer index owning a content hash (`None` on an empty ring).
    pub fn owner_of_hash(&self, hash: u64) -> Option<usize> {
        self.owner_of_shard(Self::shard_of(hash))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    /// Shards owned per peer index — the load-balance profile.
    fn shard_counts(ring: &HashRing) -> Vec<usize> {
        let mut counts = vec![0usize; ring.peers];
        if ring.peers > 0 {
            for &owner in &ring.owners {
                counts[usize::from(owner)] += 1;
            }
        }
        counts
    }

    #[test]
    fn same_peer_list_same_table() {
        let a = HashRing::new(&addrs(5));
        let b = HashRing::new(&addrs(5));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new::<&str>(&[]);
        assert_eq!(ring.peers, 0);
        assert_eq!(ring.owner_of_shard(0), None);
        assert_eq!(ring.owner_of_hash(u64::MAX), None);
        assert!(shard_counts(&ring).is_empty());
    }

    #[test]
    fn single_peer_owns_everything() {
        let ring = HashRing::new(&["127.0.0.1:9000"]);
        for shard in 0..=255u8 {
            assert_eq!(ring.owner_of_shard(shard), Some(0));
        }
        assert_eq!(shard_counts(&ring), vec![256]);
    }

    #[test]
    fn shard_is_the_high_byte_of_the_hash() {
        // Must match the disk cache layout: first two hex chars of
        // format!("{:016x}", hash) name the shard directory.
        assert_eq!(HashRing::shard_of(0xab00_0000_0000_0000), 0xab);
        assert_eq!(HashRing::shard_of(0x0000_0000_0000_00ff), 0x00);
        assert_eq!(HashRing::shard_of(u64::MAX), 0xff);
    }

    #[test]
    fn shards_spread_uniformly_across_peers() {
        for n in [2usize, 3, 4, 5, 8] {
            let ring = HashRing::new(&addrs(n));
            let counts = shard_counts(&ring);
            assert_eq!(counts.iter().sum::<usize>(), 256);
            let expect = 256.0 / n as f64;
            for (peer, &count) in counts.iter().enumerate() {
                // 256 shards over few peers: each peer must land within
                // a generous band around the mean (no starved peer, no
                // hot-spot peer).
                assert!(
                    (count as f64) > expect * 0.45 && (count as f64) < expect * 1.7,
                    "n={n} peer={peer} owns {count} shards (mean {expect:.1})"
                );
            }
        }
    }

    #[test]
    fn removing_a_peer_remaps_only_its_own_shards() {
        let full = addrs(4);
        let ring = HashRing::new(&full);
        // Drop the last peer; surviving indices stay aligned.
        let ring_minus = HashRing::new(&full[..3]);
        let mut remapped = 0usize;
        for shard in 0..=255u8 {
            let before = ring.owner_of_shard(shard).unwrap();
            let after = ring_minus.owner_of_shard(shard).unwrap();
            if before != after {
                // Only shards the removed peer owned may move.
                assert_eq!(before, 3, "shard {shard:#x} moved off a live peer");
                remapped += 1;
            }
        }
        // Exactly the removed peer's share moves: ≤ 1/N of the key space
        // (plus slack for the finite 256-shard table).
        assert_eq!(remapped, shard_counts(&ring)[3]);
        assert!(
            remapped as f64 <= 256.0 / 4.0 * 1.7,
            "remap fraction too large: {remapped}/256"
        );
    }

    #[test]
    fn two_peers_dying_simultaneously_remap_only_their_union() {
        // The health layer can declare two peers Down in the same window;
        // the effective ring is then the 3 survivors of 5. Every shard that
        // moves must have been owned by one of the two dead peers, and
        // every shard they owned must move (it has to — its owner is gone).
        let full = addrs(5);
        let ring = HashRing::new(&full);
        let survivors = HashRing::new(&full[..3]);
        let counts = shard_counts(&ring);
        let mut remapped = 0usize;
        for shard in 0..=255u8 {
            let before = ring.owner_of_shard(shard).unwrap();
            let after = survivors.owner_of_shard(shard).unwrap();
            if before != after {
                assert!(
                    before == 3 || before == 4,
                    "shard {shard:#x} moved off live peer {before}"
                );
                remapped += 1;
            } else {
                assert!(
                    before < 3,
                    "shard {shard:#x} still maps to dead peer {before}"
                );
            }
        }
        // remapped == |shards of peer 3| + |shards of peer 4|: the moved
        // set is exactly the union of the dead peers' shards, ≤ 2/N of
        // the space (with slack for the finite table).
        assert_eq!(remapped, counts[3] + counts[4]);
        assert!(
            remapped as f64 <= 256.0 / 5.0 * 2.0 * 1.7,
            "remap fraction too large: {remapped}/256"
        );
    }
}
