//! Fleet routing: the validated membership with its peer clients and
//! failure detector, the shard-owner route of a run request (cache-fill
//! probe, then proxy or redirect), cross-instance job lookups and trace
//! assembly, and the background prober that brings Down peers back.

use super::{ok_response, static_content_type, RequestScope, Shared, Wake};
use crate::api;
use crate::http::{Request, Response};
use cnt_fleet::{
    ChaosInjector, FleetConfig, FleetHealth, HashRing, PeerClient, PeerError, PeerResponse,
    PeerState, RouteMode, Transition,
};
use cnt_interconnect::experiments::Params;
use cnt_obs::trace_store::{self, id_hex, parse_id};
use cnt_obs::{CounterVec, GaugeVec, MetricRegistry};
use std::sync::Arc;
use std::time::Instant;

/// A validated fleet membership: the shard table, the peer clients (a
/// fast-failing one for cache-fill probes, a patient one for full
/// proxied runs whose owner may have to compute), and the local failure
/// detector feeding the routing health gate.
pub(super) struct FleetState {
    pub(super) config: FleetConfig,
    ring: HashRing,
    fill: PeerClient,
    pub(super) proxy: PeerClient,
    /// Chaos-free, single-shot client the background prober uses — the
    /// backoff schedule in [`FleetHealth`] is its retry loop.
    prober: PeerClient,
    /// Up → Suspect → Down failure detector + re-probe schedule.
    pub(super) health: FleetHealth,
    /// `cnt_fleet_peer_state{peer,state}`: 1 on the current state.
    peer_state: Arc<GaugeVec>,
    /// `cnt_fleet_probe_total{result}`: background probe outcomes.
    probes: Arc<CounterVec>,
    /// `cnt_fleet_peer_transitions_total{to}`: state changes observed.
    transitions: Arc<CounterVec>,
    /// Rung on every transition to Down, so the prober can sleep until
    /// a probe is due.
    wake: Arc<Wake>,
}

impl FleetState {
    /// Builds the membership for a validated topology and registers its
    /// metric families on `registry` (at join time, so a single-instance
    /// scrape stays byte-identical to the pre-fleet exposition). A peer
    /// going Down rings `wake`.
    pub(super) fn new(fleet: FleetConfig, registry: &MetricRegistry, wake: Arc<Wake>) -> Self {
        let chaos = fleet
            .chaos
            .filter(|c| c.is_active())
            .map(|c| Arc::new(ChaosInjector::new(c)));
        let peer_state = registry.gauge_vec(
            "cnt_fleet_peer_state",
            "peer membership state as seen by this instance (1 = current state)",
            &["peer", "state"],
        );
        let probes = registry.counter_vec(
            "cnt_fleet_probe_total",
            "background health probes of Down peers, by outcome",
            "result",
            false,
        );
        let transitions = registry.counter_vec(
            "cnt_fleet_peer_transitions_total",
            "peer state transitions observed by this instance, by new state",
            "to",
            false,
        );
        for result in ["ok", "error"] {
            probes.with(result);
        }
        for state in PeerState::ALL {
            transitions.with(state.label());
        }
        for addr in &fleet.peers {
            for state in PeerState::ALL {
                let seed = if state == PeerState::Up { 1.0 } else { 0.0 };
                peer_state.with(&[addr, state.label()]).set(seed);
            }
        }
        // One connection pool per instance: the fill and proxy clients
        // keep their own deadlines but share parked
        // sockets, so a relayed request leaves one keep-alive connection
        // on the owner — not one per client, each holding a peer thread.
        let fill =
            PeerClient::new(fleet.connect_timeout, fleet.fill_timeout).with_chaos(chaos.clone());
        let proxy = PeerClient::new(fleet.connect_timeout, fleet.proxy_timeout)
            .with_chaos(chaos)
            .sharing_pool_of(&fill);
        Self {
            ring: HashRing::new(&fleet.peers),
            fill,
            proxy,
            // The prober stays chaos-free: chaos models a sick request
            // path, and the prober is the recovery mechanism under test.
            // It closes its connections — a rare off-path probe must not
            // park a socket (and its thread) on a freshly revived peer.
            prober: PeerClient::new(fleet.connect_timeout, fleet.fill_timeout)
                .with_attempts(1)
                .with_connection_close(),
            health: FleetHealth::new(fleet.peers.len(), fleet.self_index, fleet.health),
            peer_state,
            probes,
            transitions,
            wake,
            config: fleet,
        }
    }

    /// Reflects a health transition into the peer-state gauges and the
    /// transition counter, and wakes the prober when a peer went Down.
    fn apply_transition(&self, transition: &Transition) {
        self.transitions.with(transition.to.label()).inc();
        let addr = self.config.peer(transition.peer);
        for state in PeerState::ALL {
            let current = if state == transition.to { 1.0 } else { 0.0 };
            self.peer_state.with(&[addr, state.label()]).set(current);
        }
        if transition.to == PeerState::Down {
            self.wake.ring();
        }
    }

    /// Makes one hot-path call to peer `index` (`call` gets its
    /// address) and feeds the outcome into the failure detector: any
    /// parsed response is a success, a transport error a failure.
    pub(super) fn call_peer(
        &self,
        index: usize,
        call: impl FnOnce(&str) -> core::result::Result<PeerResponse, PeerError>,
    ) -> core::result::Result<PeerResponse, PeerError> {
        let result = call(self.config.peer(index));
        let transition = match &result {
            Ok(_) => self.health.record_success(index),
            Err(e) if e.is_transport() => self.health.record_failure(index, Instant::now()),
            Err(_) => None,
        };
        if let Some(transition) = transition {
            self.apply_transition(&transition);
        }
        result
    }
}

/// Starts the re-probe loop: while any peer is Down, it checks the peer
/// off the hot path on its jittered backoff schedule and restores it to
/// Up on the first healthy answer, until the server stops. Between
/// probes it sleeps until the next one is due, and while no peer is Down
/// until one goes Down. `None` on a single instance.
pub(super) fn spawn_prober(shared: &Arc<Shared>) -> Option<std::thread::JoinHandle<()>> {
    shared.fleet.get()?;
    let shared = Arc::clone(shared);
    Some(std::thread::spawn(move || {
        let fleet = shared.fleet.get().expect("prober spawned with a fleet");
        loop {
            // Read before the schedule, so a peer going Down after this
            // point ends the wait below at once.
            let seen = shared.wake.rings();
            for index in fleet.health.due_probes(Instant::now()) {
                match fleet.prober.get(fleet.config.peer(index), "/v1/healthz") {
                    Ok(response) if response.status == 200 => {
                        fleet.probes.with("ok").inc();
                        if let Some(t) = fleet.health.probe_succeeded(index) {
                            fleet.apply_transition(&t);
                        }
                    }
                    _ => fleet.probes.with("error").inc(),
                }
            }
            if !shared.wake.wait(Some(seen), fleet.health.next_probe_due()) {
                break;
            }
        }
    }))
}

/// A relayed peer response (cache-fill hit or full proxied run).
fn peer_response(peer: &PeerResponse) -> Response {
    Response {
        content_type: static_content_type(&peer.content_type),
        ..Response::json(peer.status, peer.body.clone())
    }
}

/// Decides where a run request is answered when this instance is part of
/// a fleet. `None` means "compute locally" — either because this
/// instance owns the shard, or because the owner is unreachable and the
/// request degrades to single-instance behavior.
pub(super) fn fleet_route(
    key: u64,
    params: &Params,
    request: &Request,
    scope: &RequestScope,
    shared: &Arc<Shared>,
) -> Option<Response> {
    let fleet = shared.fleet.get()?;
    let owner = fleet.ring.owner_of_hash(params.content_hash())?;
    if owner == fleet.config.self_index {
        shared.metrics.route_total.with("local").inc();
        return None;
    }
    // Health gate: a Down owner is skipped without a probe — the request
    // degrades to local compute at zero added latency while the
    // background prober watches for recovery off the hot path.
    if !fleet.health.is_routable(owner) {
        shared.metrics.route_total.with("degraded").inc();
        return None;
    }
    // Context propagation: the owner adopts our trace (we become the
    // parent span) and our request id, so its access log and trace
    // record join this request's.
    let hop_headers = vec![
        ("X-Trace-Id".to_string(), id_hex(scope.trace.trace_id)),
        ("X-Parent-Span".to_string(), id_hex(scope.trace.span_id)),
        ("X-Request-Id".to_string(), scope.request_id.clone()),
    ];
    match fleet.config.mode {
        RouteMode::Redirect => {
            shared.metrics.route_total.with("redirected").inc();
            let target = format!("http://{}{}", fleet.config.peer(owner), request.path);
            Some(Response {
                location: Some(target.clone()),
                ..Response::json(307, format!("{{\"location\":\"{target}\"}}\n"))
            })
        }
        RouteMode::Proxy => {
            // Cheap cache-fill probe first: the owner usually holds hot
            // points already, so most cross-shard requests cost one
            // small GET instead of a full proxied run.
            let fill_path = format!("/v1/_fleet/cache/{key:016x}");
            match fleet.call_peer(owner, |addr| {
                fleet.fill.get_with(addr, &fill_path, &hop_headers)
            }) {
                Ok(peer) if peer.status == 200 => {
                    shared.metrics.peer_fill.with("hit").inc();
                    shared.metrics.route_total.with("proxied").inc();
                    Some(peer_response(&peer))
                }
                Ok(_) => {
                    shared.metrics.peer_fill.with("miss").inc();
                    let body = core::str::from_utf8(&request.body).unwrap_or("");
                    match fleet.call_peer(owner, |addr| {
                        fleet.proxy.post_with(
                            addr,
                            &request.path,
                            "application/json",
                            body,
                            &hop_headers,
                        )
                    }) {
                        Ok(peer) => {
                            shared.metrics.route_total.with("proxied").inc();
                            Some(peer_response(&peer))
                        }
                        Err(_) => {
                            // Owner died between probe and proxy:
                            // degrade to computing locally.
                            shared.metrics.route_total.with("local").inc();
                            None
                        }
                    }
                }
                Err(_) => {
                    // Dead or stalled owner: the fill client already
                    // timed out fast (and closed its sockets); answer
                    // from here like a single instance would.
                    shared.metrics.peer_fill.with("error").inc();
                    shared.metrics.route_total.with("local").inc();
                    None
                }
            }
        }
    }
}

/// `GET /v1/_fleet/cache/{hash}`: this instance's LRU body for a request
/// hash, or `404`. Internal — peers call it as the cache-fill probe; it
/// never computes and never mutates the run counters.
pub(super) fn fleet_cache_route(hash: &str, shared: &Arc<Shared>) -> Response {
    let Ok(key) = u64::from_str_radix(hash, 16) else {
        return Response::json(
            400,
            api::error_json(&format!("bad cache hash '{hash}' (want 16 hex chars)")),
        );
    };
    match shared.cache.lock().expect("cache poisoned").get(key) {
        Some(hit) => ok_response(hit),
        None => Response::json(
            404,
            api::error_json(&format!("no cached body for {key:016x}")),
        ),
    }
}

/// `GET /v1/_fleet/trace/{id}`: this instance's *local* records for one
/// trace, as a flat JSON array. Internal — peers call it while
/// assembling the cross-instance tree; it never fans out further.
pub(super) fn fleet_trace_route(trace_id: u64, shared: &Arc<Shared>) -> Response {
    let records = shared.traces.get(trace_id);
    Response::json(200, trace_store::render_records_json(&records))
}

/// `GET /v1/trace/{id}`: the assembled cross-instance trace tree —
/// local records plus every peer's, linked parent-span → span.
pub(super) fn trace_route(trace_id: u64, shared: &Arc<Shared>) -> Response {
    let mut records = shared.traces.get(trace_id);
    if let Some(fleet) = shared.fleet.get() {
        // Collect the peers' shares with the fast-failing fill client:
        // a dead peer costs one bounded probe, not a hung read.
        let path = format!("/v1/_fleet/trace/{}", id_hex(trace_id));
        for (index, peer) in fleet.config.peers.iter().enumerate() {
            if index == fleet.config.self_index {
                continue;
            }
            if !fleet.health.is_routable(index) {
                continue; // a Down peer would only add a timeout
            }
            if let Ok(response) = fleet.fill.get(peer, &path) {
                if response.status == 200 {
                    records.extend(trace_store::parse_records_json(&response.body));
                }
            }
        }
    }
    if records.is_empty() {
        return Response::json(
            404,
            api::error_json(&format!(
                "no records for trace {} (expired or unknown)",
                id_hex(trace_id)
            )),
        );
    }
    // Chronological order keeps the flat list readable and the tree's
    // sibling order stable regardless of which instance answered.
    records.sort_by(|a, b| {
        a.unix_s
            .partial_cmp(&b.unix_s)
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    Response::json(200, trace_store::render_trace_json(trace_id, &records))
}

/// Answers a trace route: `route` on the trace id the path segment
/// names, or the `400` when it is not one.
pub(super) fn with_trace_id(hex: &str, route: impl FnOnce(u64) -> Response) -> Response {
    match parse_id(hex) {
        Some(trace_id) => route(trace_id),
        None => Response::json(
            400,
            api::error_json(&format!("bad trace id '{hex}' (want 16 hex chars)")),
        ),
    }
}

/// Asks the rest of the fleet for a job this instance does not hold, so
/// any instance can be polled for any job. The status poll rides the
/// fast fill client; the result fetch rides the patient proxy client
/// (bodies can be large, and it carries the chaos injector — result
/// relays are part of the injected fault surface).
pub(super) fn peer_job_lookup(shared: &Arc<Shared>, rid: &str, result: bool) -> Option<Response> {
    let fleet = shared.fleet.get()?;
    let path = if result {
        format!("/v1/_fleet/jobs/{rid}/result")
    } else {
        format!("/v1/_fleet/jobs/{rid}")
    };
    let client = if result { &fleet.proxy } else { &fleet.fill };
    for index in 0..fleet.config.peers.len() {
        if index == fleet.config.self_index || !fleet.health.is_routable(index) {
            continue;
        }
        let answer = fleet.call_peer(index, |addr| client.get(addr, &path));
        if let Some(peer) = answer.ok().filter(|peer| peer.status != 404) {
            return Some(peer_response(&peer));
        }
    }
    None
}
