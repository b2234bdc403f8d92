//! `cnt-fleet` — federation decisions for running N `cnt-serve`
//! instances as one logical service. It opens no socket: the peer
//! client that carries these decisions over the wire is
//! `cnt_serve::peer`.
//!
//! The serve layer's caches are per-instance: the LRU body cache and the
//! 256-way sharded sweep disk cache both key on `Params::content_hash`,
//! so N independent instances each warm their own copy of every popular
//! entry. This crate supplies the pieces that turn that duplication
//! into partitioning, without introducing any coordination service:
//!
//! | module | piece | role |
//! |--------|-------|------|
//! | [`ring`] | [`HashRing`] | static rendezvous-hash map from the 256 cache shards to owning instances |
//! | [`health`] | [`FleetHealth`] | Up → Suspect → Down failure detector + jittered backoff re-probe schedule |
//! | [`chaos`] | [`ChaosInjector`] | deterministic seeded fault injection on peer-facing paths |
//! | [`jobs`] | [`JobTable`] | the async `POST /v1/sweeps/{id}` job's lifecycle: bounded, TTL-GC'd table, journal records holding finished bodies, crash recovery |
//! | [`fanout`] | [`ChunkBoard`] | per-chunk dispatch/steal/requeue scoreboard for fleet-wide sweep fan-out |
//! | [`journal`] | [`journal::Journal`] | append-only checksummed record framing under the job journal |
//!
//! Topology is a static ordered peer list (`--fleet "a,b,c" --self-index
//! K`): every instance derives the identical shard table from the same
//! list, so request routing needs no gossip, no leases — only the local
//! failure detector in [`health`]. A dead peer degrades: after
//! `HealthPolicy::down_after` consecutive transport failures the router
//! skips it entirely (local compute, zero added latency) while a
//! background prober re-checks it on exponential backoff and restores
//! it to Up on the first success.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod fanout;
pub mod health;
pub mod jobs;
pub mod journal;
pub mod ring;

pub use chaos::{ChaosConfig, ChaosInjector, Fault};
pub use fanout::{ChunkBoard, ChunkClaim};
pub use health::{FleetHealth, HealthPolicy, PeerState, Transition};
pub use jobs::{ChunkRequest, JobEntry, JobSpec, JobState, JobTable};
pub use ring::HashRing;

use std::time::Duration;

/// How a non-owning instance forwards a run request to the shard owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// Fetch from the owner server-side and relay the response body.
    Proxy,
    /// Answer `307 Temporary Redirect` with the owner's URL and let the
    /// client re-issue the request.
    Redirect,
}

/// Static fleet topology plus the timeouts of intra-fleet hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Ordered peer addresses (`host:port`), identical on every instance.
    pub peers: Vec<String>,
    /// This instance's index into `peers`.
    pub self_index: usize,
    /// What a non-owner does with a request it does not own.
    pub mode: RouteMode,
    /// TCP connect budget for any peer hop.
    pub connect_timeout: Duration,
    /// Read/write budget for a cache-fill probe (cheap, must fail fast).
    pub fill_timeout: Duration,
    /// Read/write budget for a full proxied run (the owner may compute).
    pub proxy_timeout: Duration,
    /// Failure-detector and re-probe tunables.
    pub health: HealthPolicy,
    /// Deterministic fault injection on this instance's outbound peer
    /// hops (`None` in production).
    pub chaos: Option<ChaosConfig>,
}

impl FleetConfig {
    /// A proxy-mode topology with production-shaped timeouts.
    pub fn new(peers: Vec<String>, self_index: usize) -> Self {
        Self {
            peers,
            self_index,
            mode: RouteMode::Proxy,
            connect_timeout: Duration::from_millis(200),
            fill_timeout: Duration::from_millis(500),
            proxy_timeout: Duration::from_secs(10),
            health: HealthPolicy::default(),
            chaos: None,
        }
    }

    /// Checks the topology is internally consistent.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the peer list is empty, has
    /// more members than shards (256), holds an empty or duplicate
    /// address, or `self_index` is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.peers.is_empty() {
            return Err("fleet peer list is empty".to_string());
        }
        if self.peers.len() > 256 {
            return Err(format!(
                "fleet has {} peers but only 256 shards",
                self.peers.len()
            ));
        }
        if let Some(blank) = self.peers.iter().position(|p| p.trim().is_empty()) {
            return Err(format!("fleet peer #{blank} is an empty address"));
        }
        // Duplicate addresses would silently split one instance's shards
        // across two ring slots (and self-probe as a "peer"): reject at
        // startup instead of misrouting at runtime.
        for (i, peer) in self.peers.iter().enumerate() {
            if let Some(j) = self.peers[..i].iter().position(|p| p.trim() == peer.trim()) {
                return Err(format!(
                    "fleet peer #{i} duplicates peer #{j} ('{}') — every --fleet address must be unique",
                    peer.trim()
                ));
            }
        }
        if self.self_index >= self.peers.len() {
            return Err(format!(
                "--self-index {} out of range for {} peers",
                self.self_index,
                self.peers.len()
            ));
        }
        Ok(())
    }

    /// The address of the peer at `index`.
    pub fn peer(&self, index: usize) -> &str {
        &self.peers[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize, self_index: usize) -> FleetConfig {
        FleetConfig::new(
            (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect(),
            self_index,
        )
    }

    #[test]
    fn valid_topologies_pass() {
        assert_eq!(config(3, 0).validate(), Ok(()));
        assert_eq!(config(3, 2).validate(), Ok(()));
        assert_eq!(config(1, 0).validate(), Ok(()));
    }

    #[test]
    fn bad_topologies_name_the_problem() {
        assert!(config(0, 0).validate().unwrap_err().contains("empty"));
        assert!(config(3, 3)
            .validate()
            .unwrap_err()
            .contains("out of range"));
        let mut blank = config(3, 0);
        blank.peers[1] = "  ".to_string();
        assert!(blank.validate().unwrap_err().contains("peer #1"));
        let too_many = config(300, 0);
        assert!(too_many.validate().unwrap_err().contains("256"));
    }

    #[test]
    fn duplicate_peer_addresses_are_rejected() {
        let mut dup = config(3, 0);
        dup.peers[2] = dup.peers[0].clone();
        let err = dup.validate().unwrap_err();
        assert!(err.contains("peer #2"), "{err}");
        assert!(err.contains("duplicates peer #0"), "{err}");
        assert!(err.contains("127.0.0.1:9000"), "{err}");
        // Whitespace variants of the same address are still duplicates.
        let mut padded = config(2, 0);
        padded.peers[1] = format!(" {} ", padded.peers[0]);
        assert!(padded.validate().is_err());
    }
}
