//! Fault-tolerance acceptance: real multi-instance fleets under peer
//! death and deterministic seeded fault injection. The gate is that the
//! fleet answers **every** client request with a body byte-identical to
//! the direct computation while an instance is dead or lame, marks the
//! peer Down after K consecutive transport failures, stops paying for
//! hot-path probes while it is Down, and heals back to Up through the
//! backoff prober once the instance returns.

mod common;

use cnt_interconnect::experiments;
use cnt_serve::{
    fleet::{ChaosConfig, HashRing, HealthPolicy},
    Config, FleetConfig, RouteMode, Server,
};
use common::{fleet_with, http, post, sample, scrape, spawn, Instance};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Boots one instance on a *specific* address and rejoins the fleet —
/// the restart half of the kill/heal cycle. Only works because the
/// listener binds with `SO_REUSEADDR` (see `cnt_serve::net`).
fn restart_instance(
    addr: &str,
    peers: Vec<String>,
    index: usize,
    tweak: impl Fn(usize, &mut FleetConfig),
) -> Instance {
    let deadline = Instant::now() + Duration::from_secs(5);
    let server = loop {
        match Server::bind(Config {
            addr: addr.to_string(),
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            ..Config::default()
        }) {
            Ok(server) => break server,
            Err(_) if Instant::now() < deadline => {
                // The dying incarnation may not have released the port
                // yet; SO_REUSEADDR only has to beat TIME_WAIT, not a
                // still-open listener.
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("rebind {addr}: {e}"),
        }
    };
    let mut config = FleetConfig::new(peers, index);
    tweak(index, &mut config);
    server.enable_fleet(config).expect("rejoin fleet");
    spawn(server)
}

/// The shard owner of a `table1` point under this fleet.
fn owner_of(peers: &[String], sets: &[(String, String)]) -> usize {
    let (_, ctx) = experiments::resolve_context("table1", None, sets).expect("resolvable point");
    HashRing::new(peers)
        .owner_of_hash(ctx.params.content_hash())
        .expect("non-empty ring")
}

/// The first `count` seeds whose `table1` point the given peer owns.
fn seeds_owned_by(peers: &[String], owner: usize, count: usize) -> Vec<u64> {
    let seeds: Vec<u64> = (0..10_000)
        .filter(|seed| owner_of(peers, &[("seed".to_string(), seed.to_string())]) == owner)
        .take(count)
        .collect();
    assert_eq!(seeds.len(), count, "not enough owned seeds in range");
    seeds
}

/// Drives one `table1` run at `seed` and asserts the body is
/// byte-identical to the direct computation.
fn run_and_check(addr: SocketAddr, seed: u64) {
    let (status, body) = post(
        addr,
        "/v1/experiments/table1/run",
        &format!("{{\"params\": {{\"seed\": {seed}}}}}"),
    );
    assert_eq!(status, 200, "{body}");
    let sets = vec![("seed".to_string(), seed.to_string())];
    let expected = format!(
        "{}\n",
        experiments::run_to_json("table1", None, &sets).unwrap()
    );
    assert_eq!(body, expected, "seed {seed}: body drifted from the CLI");
}

/// A HealthPolicy fast enough for a test: Down after 3 failures, first
/// re-probe within ~50 ms, half-second ceiling, fixed jitter seed.
fn fast_health() -> HealthPolicy {
    HealthPolicy {
        down_after: 3,
        probe_base: Duration::from_millis(50),
        probe_cap: Duration::from_millis(500),
        jitter_seed: 1,
    }
}

/// The main acceptance cycle: kill → K failures → Down → degraded
/// serving with frozen hot-path probes → restart → prober heals → Up →
/// routed traffic resumes. Every client request answers 200 with the
/// exact direct-computation body throughout.
#[test]
fn a_killed_peer_goes_down_serves_degraded_and_heals_after_restart() {
    let tweak = |_: usize, config: &mut FleetConfig| config.health = fast_health();
    let (mut instances, peers) = fleet_with(3, RouteMode::Proxy, tweak);
    let front = 0usize;
    let victim = 1usize;
    let seeds = seeds_owned_by(&peers, victim, 14);
    let victim_series = |state: &str| {
        format!(
            "cnt_fleet_peer_state{{peer=\"{}\",state=\"{state}\"}}",
            peers[victim]
        )
    };

    // Kill the victim before any traffic, then drive K = 3 of its
    // points through the front: each fill fails (one transport failure
    // per request), every answer is still correct.
    let victim_addr = peers[victim].clone();
    instances.remove(victim).stop();
    for &seed in &seeds[..3] {
        run_and_check(instances[front].addr, seed);
    }
    let metrics = scrape(instances[front].addr);
    assert_eq!(
        sample(&metrics, &victim_series("down")),
        1,
        "3 consecutive transport failures must mark the peer Down:\n{metrics}"
    );
    assert_eq!(sample(&metrics, &victim_series("up")), 0, "{metrics}");
    assert!(
        sample(&metrics, "cnt_fleet_peer_transitions_total{to=\"down\"}") >= 1,
        "{metrics}"
    );

    // While Down, routing never touches the hot path: the fill-error
    // count freezes and every owned request degrades to local compute.
    let fill_errors = sample(&metrics, "cnt_fleet_peer_fill_total{result=\"error\"}");
    let degraded_before = sample(&metrics, "cnt_fleet_route_total{outcome=\"degraded\"}");
    for &seed in &seeds[3..13] {
        run_and_check(instances[front].addr, seed);
    }
    // Wait for the background prober to visit the dead peer at least
    // once (first probe is due ~25-50 ms after Down), then check the
    // hot-path counters: the probes must not have touched them.
    let deadline = Instant::now() + Duration::from_secs(5);
    let metrics = loop {
        let metrics = scrape(instances[front].addr);
        if sample(&metrics, "cnt_fleet_probe_total{result=\"error\"}") >= 1 {
            break metrics;
        }
        assert!(
            Instant::now() < deadline,
            "the background prober never probed the dead peer:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(
        sample(&metrics, "cnt_fleet_peer_fill_total{result=\"error\"}"),
        fill_errors,
        "a Down peer must not be probed on the hot path:\n{metrics}"
    );
    assert_eq!(
        sample(&metrics, "cnt_fleet_route_total{outcome=\"degraded\"}"),
        degraded_before + 10,
        "{metrics}"
    );
    assert_eq!(instances[front].runs(), 13, "front computed every request");

    // Restart the victim on its old port (SO_REUSEADDR) and wait for
    // the backoff prober to restore it to Up.
    let revived = restart_instance(&victim_addr, peers.clone(), victim, tweak);
    let deadline = Instant::now() + Duration::from_secs(10);
    let healed = loop {
        let metrics = scrape(instances[front].addr);
        if sample(&metrics, &victim_series("up")) == 1 {
            break metrics;
        }
        assert!(
            Instant::now() < deadline,
            "prober never restored the restarted peer:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        sample(&healed, "cnt_fleet_probe_total{result=\"ok\"}") >= 1,
        "{healed}"
    );
    assert!(
        sample(&healed, "cnt_fleet_peer_transitions_total{to=\"up\"}") >= 1,
        "{healed}"
    );

    // Routed traffic resumes: a fresh owned point proxies to the
    // revived owner and computes there, not on the front.
    let proxied_before = sample(&healed, "cnt_fleet_route_total{outcome=\"proxied\"}");
    run_and_check(instances[front].addr, seeds[13]);
    let metrics = scrape(instances[front].addr);
    assert_eq!(
        sample(&metrics, "cnt_fleet_route_total{outcome=\"proxied\"}"),
        proxied_before + 1,
        "healed peer must take routed traffic again:\n{metrics}"
    );
    assert_eq!(instances[front].runs(), 13, "front must stop computing");
    assert_eq!(revived.runs(), 1, "revived owner must compute");

    revived.stop();
    for instance in instances {
        instance.stop();
    }
}

/// 100 % connection refusal on the front's outbound hops: every request
/// still answers correctly from local compute, nothing is proxied, and
/// the injected failures drive the (actually healthy) peer Down.
#[test]
fn refused_connections_degrade_to_correct_local_answers() {
    let (instances, peers) = fleet_with(2, RouteMode::Proxy, |index, config| {
        config.health = fast_health();
        if index == 0 {
            config.chaos = Some(ChaosConfig::parse("seed=7,refuse=1").unwrap());
        }
    });
    let seeds = seeds_owned_by(&peers, 1, 6);
    for &seed in &seeds {
        run_and_check(instances[0].addr, seed);
    }

    let metrics = scrape(instances[0].addr);
    assert_eq!(instances[0].runs(), 6, "every request computes locally");
    assert_eq!(instances[1].runs(), 0, "no hop ever reached the owner");
    assert_eq!(
        sample(&metrics, "cnt_fleet_route_total{outcome=\"proxied\"}"),
        0,
        "{metrics}"
    );
    assert_eq!(
        sample(&metrics, "cnt_fleet_peer_fill_total{result=\"hit\"}"),
        0,
        "{metrics}"
    );
    // The first K = 3 refusals are consecutive (the chaos-free prober
    // only re-probes *Down* peers, so nothing resets the count early).
    assert!(
        sample(&metrics, "cnt_fleet_peer_transitions_total{to=\"down\"}") >= 1,
        "injected refusals must trip the failure detector:\n{metrics}"
    );

    for instance in instances {
        instance.stop();
    }
}

/// Pure added latency is not a failure: hops slow down but complete,
/// the peer stays Up, and requests still proxy to the owner.
#[test]
fn injected_latency_slows_hops_without_tripping_the_detector() {
    let (instances, peers) = fleet_with(2, RouteMode::Proxy, |index, config| {
        if index == 0 {
            config.chaos = Some(ChaosConfig::parse("seed=11,latency=1,latency_ms=20").unwrap());
        }
    });
    let seeds = seeds_owned_by(&peers, 1, 3);
    for &seed in &seeds {
        run_and_check(instances[0].addr, seed);
    }

    let metrics = scrape(instances[0].addr);
    assert_eq!(instances[0].runs(), 0, "latency alone must not degrade");
    assert_eq!(instances[1].runs(), 3, "owner computes every point");
    assert_eq!(
        sample(&metrics, "cnt_fleet_route_total{outcome=\"proxied\"}"),
        3,
        "{metrics}"
    );
    assert_eq!(
        sample(
            &metrics,
            &format!("cnt_fleet_peer_state{{peer=\"{}\",state=\"up\"}}", peers[1])
        ),
        1,
        "a slow-but-correct peer must stay Up:\n{metrics}"
    );

    for instance in instances {
        instance.stop();
    }
}

/// 100 % response truncation: every hop dies mid-body, the client sees
/// only complete, correct answers from the local fallback.
#[test]
fn truncated_responses_fall_back_to_local_compute() {
    let (instances, peers) = fleet_with(2, RouteMode::Proxy, |index, config| {
        config.health = fast_health();
        if index == 0 {
            config.chaos = Some(ChaosConfig::parse("seed=3,truncate=1").unwrap());
        }
    });
    let seeds = seeds_owned_by(&peers, 1, 3);
    for &seed in &seeds {
        run_and_check(instances[0].addr, seed);
    }
    assert_eq!(instances[0].runs(), 3, "every request computes locally");
    assert_eq!(
        sample(
            &scrape(instances[0].addr),
            "cnt_fleet_route_total{outcome=\"proxied\"}"
        ),
        0,
        "a truncated hop must never count as proxied"
    );

    for instance in instances {
        instance.stop();
    }
}

/// `/v1/healthz` reports the fleet health section — and omits it
/// entirely when the instance is not in a fleet.
#[test]
fn healthz_reports_peer_states_only_in_fleet_mode() {
    let (instances, peers) = fleet_with(2, RouteMode::Proxy, |_, _| {});
    let (status, _, health) = http(instances[0].addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"fleet\":{\"self_index\":0"), "{health}");
    assert!(health.contains("\"mode\":\"proxy\""), "{health}");
    for peer in &peers {
        assert!(health.contains(&format!("\"addr\":\"{peer}\"")), "{health}");
    }
    assert_eq!(health.matches("\"state\":\"up\"").count(), 2, "{health}");
    assert!(health.contains("\"consecutive_failures\":0"), "{health}");
    for instance in instances {
        instance.stop();
    }

    let solo = spawn(
        Server::bind(Config {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..Config::default()
        })
        .expect("bind ephemeral port"),
    );
    let (status, _, health) = http(solo.addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(
        !health.contains("\"fleet\""),
        "solo healthz must omit the fleet section: {health}"
    );
    solo.stop();
}
