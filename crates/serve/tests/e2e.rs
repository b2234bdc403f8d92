//! Socket-level integration: the server is exercised over real TCP with a
//! minimal `TcpStream` client — route shapes, CLI byte-identity for every
//! registry id, coalescing, LRU hot paths, 503 backpressure, determinism
//! across server instances, graceful shutdown draining, and parked
//! keep-alive connections that must not hold up anyone else's work.

mod common;

use cnt_interconnect::experiments::{self, registry};
use cnt_serve::{Config, FleetConfig, Server, ShutdownHandle};
use common::{counter, get, header, http, http_with, job_id, post};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn config() -> Config {
    Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_capacity: 32,
        cache_capacity: 64,
        ..Config::default()
    }
}

fn start(server: Server) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle, thread)
}

#[test]
fn health_catalog_info_and_error_routes_have_canonical_shapes() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    let (status, health) = get(addr, "/v1/healthz");
    assert_eq!(status, 200);
    assert!(health.starts_with("{\"status\":\"ok\""), "{health}");
    assert_eq!(
        counter(&health, "experiments"),
        experiments::catalog().count() as u64
    );

    let (status, catalog) = get(addr, "/v1/experiments");
    assert_eq!(status, 200);
    experiments::format::check_json_stream(&catalog).expect("catalog is valid JSON");
    for id in experiments::catalog() {
        assert!(
            catalog.contains(&format!("\"id\":\"{id}\"")),
            "{id} missing"
        );
    }

    let (status, info) = get(addr, "/v1/experiments/fig12");
    assert_eq!(status, 200);
    assert!(info.contains("\"key\":\"length_um\"") && info.contains("\"name\":\"doped-local\""));

    // Unknown id: 404 with the canonical UnknownExperiment message.
    let (status, missing) = get(addr, "/v1/experiments/fig99");
    assert_eq!(status, 404);
    let expected = cnt_interconnect::Error::UnknownExperiment("fig99".to_string()).to_string();
    assert!(missing.contains(&expected), "{missing}");
    let (status, _) = post(addr, "/v1/experiments/fig99/run", "{}");
    assert_eq!(status, 404);

    // Unknown route vs wrong method.
    let (status, _) = get(addr, "/v2/nope");
    assert_eq!(status, 404);
    let (status, _) = post(addr, "/v1/experiments", "{}");
    assert_eq!(status, 405);

    // Malformed body and invalid overrides are 400s with CLI messages.
    let (status, bad) = post(addr, "/v1/experiments/fig12/run", "{not json");
    assert_eq!(status, 400);
    assert!(bad.contains("invalid JSON"), "{bad}");
    let (status, bad) = post(
        addr,
        "/v1/experiments/fig12/run",
        r#"{"params":{"bogus":1}}"#,
    );
    assert_eq!(status, 400);
    let expected =
        experiments::resolve_context("fig12", None, &[("bogus".to_string(), "1".to_string())])
            .map(|_| ())
            .unwrap_err()
            .to_string();
    assert!(
        bad.contains(&expected.replace('"', "\\\"")) || bad.contains(&expected),
        "{bad}"
    );
    let (status, bad) = post(addr, "/v1/experiments/fig12/run", r#"{"params":{"nc":99}}"#);
    assert_eq!(status, 400);
    assert!(bad.contains("'nc'") && bad.contains("99"), "{bad}");

    // A hostile, deeply nested body is a 400, not a stack overflow that
    // takes the process down: the next request is still answered.
    let (status, bad) = post(addr, "/v1/experiments/fig12/run", &"[".repeat(10_000));
    assert_eq!(status, 400);
    assert!(bad.contains("invalid JSON"), "{bad}");
    let (status, _) = post(addr, "/v1/experiments/table1/run", "{}");
    assert_eq!(status, 200);

    handle.shutdown();
    thread.join().unwrap();
}

/// The router's whole surface as a table of (method, path) → status and
/// body: every route with its method, a wrong method on each, trailing
/// slashes, and paths no route serves. A path that resolves to no route
/// is a `404`; only a routed path with the wrong method is a `405`.
#[test]
fn every_method_and_path_answers_from_the_route_table() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());
    let error = |message: &str| {
        let mut body = "{\"error\":".to_string();
        cnt_obs::json::push_string(message, &mut body);
        body.push_str("}\n");
        body
    };
    let unknown =
        |id: &str| error(&cnt_interconnect::Error::UnknownExperiment(id.to_string()).to_string());
    let no_job = |rid: &str| error(&format!("no such job '{rid}' (expired or never created)"));
    let bad_id = |hex: &str| error(&format!("bad trace id '{hex}' (want 16 hex chars)"));
    // The canonical refusal of one override: the parameter gate, then,
    // for a sweep, the knobs the sweep honours.
    let refused = |id: &str, sweep: bool, key: &str, raw: &str| {
        let sets = [(key.to_string(), raw.to_string())];
        let outcome = experiments::resolve_context(id, None, &sets).and_then(|(_, ctx)| {
            if sweep {
                experiments::check_sweep(id, &ctx)
            } else {
                Ok(())
            }
        });
        error(&outcome.unwrap_err().to_string())
    };
    // Execution settings are not parameters: a client can neither pick
    // the executor width nor name a directory for the server to write.
    let client_dir = std::env::temp_dir()
        .join(format!("cnt-serve-client-dir-{}", std::process::id()))
        .join("x");
    let client_dir_text = client_dir.to_str().expect("UTF-8 temp dir").to_string();
    let cache_dir_body =
        format!("{{\"params\": {{\"cache_dir\": \"{client_dir_text}\", \"trials\": 5}}}}");

    // (method, path, request body, status, expected body or its prefix).
    let served: Vec<(&str, &str, &str, u16, String)> = vec![
        ("GET", "/v1/healthz", "", 200, "{\"status\":\"ok\",".into()),
        ("GET", "/v1/metrics", "", 200, "# HELP ".into()),
        (
            "GET",
            "/v1/metrics/history",
            "",
            200,
            "{\"schema\":1,\"kind\":\"metrics_history\"".into(),
        ),
        (
            "GET",
            "/v1/slo",
            "",
            200,
            "{\"schema\":1,\"kind\":\"slo\"".into(),
        ),
        (
            "GET",
            "/v1/profile",
            "",
            200,
            "{\"schema\":1,\"kind\":\"profile\"".into(),
        ),
        ("GET", "/v1/profile/folded", "", 200, String::new()),
        (
            "GET",
            "/v1/experiments",
            "",
            200,
            "{\"experiments\":[".into(),
        ),
        ("GET", "/v1/experiments/fig99", "", 404, unknown("fig99")),
        (
            "POST",
            "/v1/experiments/fig99/run",
            "{}",
            404,
            unknown("fig99"),
        ),
        ("POST", "/v1/sweeps/fig99", "{}", 404, unknown("fig99")),
        // A sweep refuses a knob it would otherwise drop silently.
        (
            "POST",
            "/v1/sweeps/fig12",
            r#"{"params": {"nc": 6}}"#,
            400,
            error("parameter override 'nc' rejected: the sweep variant of 'fig12' runs at the paper operating point; only trials/seed apply"),
        ),
        (
            "POST",
            "/v1/experiments/fig12/run",
            r#"{"params": {"threads": 2}}"#,
            400,
            refused("fig12", false, "threads", "2"),
        ),
        (
            "POST",
            "/v1/sweeps/fig12",
            r#"{"params": {"threads": 2}}"#,
            400,
            refused("fig12", true, "threads", "2"),
        ),
        (
            "POST",
            "/v1/experiments/variability/run",
            &cache_dir_body,
            400,
            refused("variability", false, "cache_dir", &client_dir_text),
        ),
        (
            "POST",
            "/v1/sweeps/fig12",
            &cache_dir_body,
            400,
            refused("fig12", true, "cache_dir", &client_dir_text),
        ),
        ("GET", "/v1/jobs/nosuch", "", 404, no_job("nosuch")),
        ("GET", "/v1/jobs/nosuch/result", "", 404, no_job("nosuch")),
        ("GET", "/v1/trace/zz", "", 400, bad_id("zz")),
        (
            "GET",
            "/v1/_fleet/cache/zz",
            "",
            400,
            error("bad cache hash 'zz' (want 16 hex chars)"),
        ),
        ("GET", "/v1/_fleet/trace/zz", "", 400, bad_id("zz")),
        (
            "POST",
            "/v1/_fleet/chunk",
            "{}",
            400,
            error("chunk request is missing 'experiment'"),
        ),
        ("GET", "/v1/_fleet/jobs/nosuch", "", 404, no_job("nosuch")),
        (
            "GET",
            "/v1/_fleet/jobs/nosuch/result",
            "",
            404,
            no_job("nosuch"),
        ),
    ];
    let mut table = Vec::new();
    for (method, path, body, status, expected) in &served {
        table.push((*method, *path, *body, *status, expected.clone()));
        let wrong = if *method == "GET" { "POST" } else { "GET" };
        let refusal = error(&format!("method {wrong} not allowed on {path}"));
        table.push((wrong, *path, "{}", 405, refusal));
    }
    let no_route = |path: &str| {
        error(&format!(
            "no such route {path} (see GET /v1/experiments for the catalog)"
        ))
    };
    table.extend([
        // Multi-segment ids: no route serves these paths, whatever the method.
        (
            "POST",
            "/v1/experiments/a/b/run",
            "{}",
            404,
            no_route("/v1/experiments/a/b/run"),
        ),
        (
            "GET",
            "/v1/jobs/a/b/result",
            "",
            404,
            no_route("/v1/jobs/a/b/result"),
        ),
        (
            "GET",
            "/v1/_fleet/jobs/a/b/result",
            "",
            404,
            no_route("/v1/_fleet/jobs/a/b/result"),
        ),
        (
            "GET",
            "/v1/experiments/a/b",
            "",
            404,
            no_route("/v1/experiments/a/b"),
        ),
        ("GET", "/v2/nope", "", 404, no_route("/v2/nope")),
        (
            "DELETE",
            "/v1/jobs/nosuch",
            "",
            405,
            error("method DELETE not allowed on /v1/jobs/nosuch"),
        ),
        // Trailing slashes are trimmed before the route resolves.
        ("GET", "/v1/healthz/", "", 200, "{\"status\":\"ok\",".into()),
        (
            "POST",
            "/v1/experiments/",
            "{}",
            405,
            error("method POST not allowed on /v1/experiments"),
        ),
        ("GET", "/v1/jobs/nosuch/result/", "", 404, no_job("nosuch")),
        (
            "GET",
            "/v1/experiments/a/b/",
            "",
            404,
            no_route("/v1/experiments/a/b"),
        ),
        // An empty id still names the run route.
        ("POST", "/v1/experiments//run", "{}", 404, unknown("")),
        (
            "GET",
            "/v1/experiments//run",
            "",
            405,
            error("method GET not allowed on /v1/experiments//run"),
        ),
    ]);

    for (method, path, body, status, expected) in table {
        let (got_status, _, got) = http(addr, method, path, body);
        assert_eq!(got_status, status, "{method} {path}: {got}");
        if status == 200 {
            assert!(got.starts_with(&expected), "{method} {path}: {got}");
        } else {
            assert_eq!(got, expected, "{method} {path}");
        }
    }
    assert!(
        !client_dir.parent().expect("has a parent").exists(),
        "a client-named directory was created: {}",
        client_dir.display()
    );

    handle.shutdown();
    thread.join().unwrap();
}

/// The acceptance gate: for every registry id, the served default-run JSON
/// body is byte-identical to what `repro <id> --format json` prints, and
/// presets/overrides/CSV behave exactly like their CLI spellings.
#[test]
fn run_bodies_are_byte_identical_to_the_cli_for_every_id() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    for id in experiments::catalog() {
        let (status, body) = post(addr, &format!("/v1/experiments/{id}/run"), "{}");
        assert_eq!(status, 200, "{id}: {body}");
        let cli = format!("{}\n", experiments::run_to_json(id, None, &[]).unwrap());
        assert_eq!(body, cli, "{id} body drifted from the CLI");
    }

    // A preset in the body equals its --preset CLI spelling, overrides win.
    let (status, body) = post(
        addr,
        "/v1/experiments/table1/run",
        r#"{"preset": "projected"}"#,
    );
    assert_eq!(status, 200);
    let cli = format!(
        "{}\n",
        experiments::run_to_json("table1", Some("projected"), &[]).unwrap()
    );
    assert_eq!(body, cli);

    let (status, body) = post(
        addr,
        "/v1/experiments/fig12/run",
        r#"{"params": {"nc": 6, "length_um": 200}}"#,
    );
    assert_eq!(status, 200);
    let sets = vec![
        ("nc".to_string(), "6".to_string()),
        ("length_um".to_string(), "200".to_string()),
    ];
    let cli = format!(
        "{}\n",
        experiments::run_to_json("fig12", None, &sets).unwrap()
    );
    assert_eq!(body, cli);

    // CSV matches the CLI's --format csv stream (print!, no extra newline).
    let (status, headers, body) = http(
        addr,
        "POST",
        "/v1/experiments/table1/run",
        r#"{"format": "csv"}"#,
    );
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v == "text/csv"));
    assert_eq!(body, experiments::run("table1").unwrap().to_csv());

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn concurrent_identical_requests_coalesce_and_hot_repeats_hit_the_cache() {
    // A runner slow enough that parallel identical requests overlap.
    let server = Server::bind_with_runner(config(), |exp, ctx| {
        std::thread::sleep(Duration::from_millis(200));
        exp.run(ctx)
    })
    .unwrap();
    let (addr, handle, thread) = start(server);

    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients));
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let (status, body) =
                        post(addr, "/v1/experiments/table1/run", r#"{"params":{}}"#);
                    assert_eq!(status, 200);
                    body
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "coalesced bodies must be byte-identical");
    }
    let (_, health) = get(addr, "/v1/healthz");
    let runs = counter(&health, "runs");
    assert!(
        runs < clients as u64,
        "coalescing never fired: {runs} runs for {clients} requests ({health})"
    );
    // Every request either ran, attached to an in-flight run, or hit the
    // cache — no request fell through any other path.
    assert_eq!(
        runs + counter(&health, "coalesced") + counter(&health, "cache_hits"),
        clients as u64,
        "{health}"
    );

    // A repeated hot request is served from the LRU without re-running.
    let hits_before = counter(&health, "cache_hits");
    let (status, body) = post(addr, "/v1/experiments/table1/run", r#"{"params":{}}"#);
    assert_eq!(status, 200);
    assert_eq!(body, bodies[0]);
    let (_, health_after) = get(addr, "/v1/healthz");
    assert_eq!(
        counter(&health_after, "runs"),
        runs,
        "hot request re-ran the kernel"
    );
    assert_eq!(counter(&health_after, "cache_hits"), hits_before + 1);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn parallel_mixed_points_are_deterministic_across_server_instances() {
    let points: Vec<(&str, String)> = vec![
        ("table1", "{}".to_string()),
        ("table1", r#"{"params": {"width_nm": 50}}"#.to_string()),
        (
            "fig05",
            r#"{"params": {"sites": 49, "seed": 7}}"#.to_string(),
        ),
        (
            "fig05",
            r#"{"params": {"sites": 49, "seed": 7}}"#.to_string(),
        ),
        ("fig12", r#"{"preset": "doped-local"}"#.to_string()),
        ("fig01", "{}".to_string()),
    ];
    let mut rounds: Vec<Vec<String>> = Vec::new();
    for _ in 0..2 {
        let (addr, handle, thread) = start(Server::bind(config()).unwrap());
        let barrier = Arc::new(Barrier::new(points.len()));
        let bodies: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = points
                .iter()
                .map(|(id, body)| {
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let (status, body) = post(addr, &format!("/v1/experiments/{id}/run"), body);
                        assert_eq!(status, 200, "{id}: {body}");
                        body
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        handle.shutdown();
        thread.join().unwrap();
        rounds.push(bodies);
    }
    assert_eq!(
        rounds[0], rounds[1],
        "served bodies must be identical across server instances"
    );
    // The duplicated fig05 point yields identical bytes within a round;
    // distinct points yield distinct bytes.
    assert_eq!(rounds[0][2], rounds[0][3]);
    assert_ne!(rounds[0][0], rounds[0][1]);
}

#[test]
fn a_full_queue_answers_503_with_retry_after() {
    let server = Server::bind_with_runner(
        Config {
            workers: 1,
            queue_capacity: 1,
            ..config()
        },
        |exp, ctx| {
            std::thread::sleep(Duration::from_millis(400));
            exp.run(ctx)
        },
    )
    .unwrap();
    let (addr, handle, thread) = start(server);

    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients));
    let results: Vec<(u16, Vec<(String, String)>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Distinct parameter points, so nothing coalesces.
                    let body = format!("{{\"params\": {{\"seed\": {}}}}}", 100 + i);
                    let (status, headers, _) =
                        http(addr, "POST", "/v1/experiments/table1/run", &body);
                    (status, headers)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let ok = results.iter().filter(|(s, _)| *s == 200).count();
    let busy: Vec<_> = results.iter().filter(|(s, _)| *s == 503).collect();
    assert!(ok >= 1, "at least the leader must finish");
    assert!(
        !busy.is_empty(),
        "a 1-worker/1-slot server taking 6 parallel requests must shed load: {results:?}"
    );
    for (_, headers) in &busy {
        assert!(
            headers.iter().any(|(n, v)| n == "retry-after" && v == "1"),
            "503 without Retry-After: {headers:?}"
        );
    }
    let (_, health) = get(addr, "/v1/healthz");
    assert!(counter(&health, "rejected") >= busy.len() as u64);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    // One permit and a data dir: the slow run holds the permit, a sweep
    // job queues behind it, and the journal tells afterwards whether the
    // job finished before serve() returned.
    let dir = std::env::temp_dir().join(format!("cnt-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind_with_runner(
        Config {
            workers: 1,
            data_dir: Some(dir.clone()),
            ..config()
        },
        |exp, ctx| {
            std::thread::sleep(Duration::from_millis(300));
            exp.run(ctx)
        },
    )
    .unwrap();
    let (addr, handle, thread) = start(server);

    // An idle keep-alive connection must not hold the drain up.
    let mut parked = park(addr, "GET", "/v1/healthz", "");
    let client = std::thread::spawn(move || post(addr, "/v1/experiments/fig01/run", "{}"));
    // Let the run take the permit, queue a job behind it, then ask the
    // server to stop.
    std::thread::sleep(Duration::from_millis(100));
    let (status, submit) = post(addr, "/v1/sweeps/fig12", r#"{"params": {"trials": 16}}"#);
    assert_eq!(status, 202, "{submit}");
    let rid = job_id(&submit);
    let (_, polled) = get(addr, &format!("/v1/jobs/{rid}"));
    assert!(polled.contains("\"status\":\"queued\""), "{polled}");
    let stopping = std::time::Instant::now();
    handle.shutdown();
    thread.join().expect("serve() must return after shutdown");
    assert!(
        stopping.elapsed() < Duration::from_secs(3),
        "the drain waited out the parked connection: {:?}",
        stopping.elapsed()
    );
    let (status, body) = client.join().expect("client");
    assert_eq!(status, 200, "in-flight work must drain, got: {body}");
    assert_eq!(
        body,
        format!(
            "{}\n",
            experiments::run_to_json("fig01", None, &[]).unwrap()
        )
    );
    // The queued job ran to its end before serve() returned.
    let journal = cnt_serve::fleet::journal::replay(&dir.join("journal.log")).unwrap();
    assert!(
        journal
            .records
            .iter()
            .any(|r| r.contains("\"event\":\"job_done\"") && r.contains(&rid)),
        "queued job never finished: {:?}",
        journal.records
    );
    // The parked connection was closed, not left open.
    let mut rest = String::new();
    assert_eq!(parked.read_to_string(&mut rest).unwrap_or(0), 0, "{rest}");
    let _ = std::fs::remove_dir_all(&dir);
    // The listener is really gone.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT accept can still connect; a request must fail then.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let _ = write!(s, "GET /v1/healthz HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            s.read_to_string(&mut out).map(|n| n == 0).unwrap_or(true)
        }
    );
}

#[test]
fn a_panicking_kernel_answers_500_and_does_not_wedge_the_coalescer() {
    // The runner panics for one specific point and is slow enough that a
    // second identical request attaches to the in-flight leader.
    let server = Server::bind_with_runner(config(), |exp, ctx| {
        std::thread::sleep(Duration::from_millis(150));
        if ctx.u64("seed") == 666 {
            panic!("kernel blew up");
        }
        exp.run(ctx)
    })
    .unwrap();
    let (addr, handle, thread) = start(server);

    let barrier = Arc::new(Barrier::new(2));
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let (status, body) = post(
                        addr,
                        "/v1/experiments/table1/run",
                        r#"{"params": {"seed": 666}}"#,
                    );
                    assert!(body.contains("panicked"), "{body}");
                    status
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(statuses, [500, 500], "leader and waiter both get the 500");

    // The flight was retired and the server still serves: the same point
    // recomputes (and panics again) instead of hanging, and healthy
    // points are untouched.
    let (status, _) = post(
        addr,
        "/v1/experiments/table1/run",
        r#"{"params": {"seed": 666}}"#,
    );
    assert_eq!(status, 500);
    let (status, _) = post(addr, "/v1/experiments/table1/run", "{}");
    assert_eq!(status, 200);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn a_slow_drip_client_is_cut_off_at_the_request_deadline() {
    let server = Server::bind(Config {
        request_deadline: Duration::from_millis(300),
        ..config()
    })
    .unwrap();
    let (addr, handle, thread) = start(server);

    // Send a request head one fragment at a time, slower than the budget.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = std::time::Instant::now();
    let mut cut_off = false;
    for _ in 0..30 {
        if stream.write_all(b"GET /v1/he").is_err() {
            cut_off = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let mut out = String::new();
    let disconnected = cut_off || matches!(stream.read_to_string(&mut out), Ok(0) | Err(_));
    assert!(
        disconnected && out.is_empty(),
        "drip client must be dropped without a response: {out:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "worker was pinned far past the deadline"
    );
    // And the server still answers well-behaved clients afterwards.
    let (status, _) = get(addr, "/v1/healthz");
    assert_eq!(status, 200);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn a_non_utf8_request_head_is_answered_400() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());
    for raw in [
        &b"GET /v1/health\xff HTTP/1.1\r\nHost: t\r\n\r\n"[..],
        &b"GET /v1/healthz HTTP/1.1\r\nHost: \xc3\x28\r\n\r\n"[..],
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(raw).unwrap();
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        let out = String::from_utf8_lossy(&out);
        assert!(out.starts_with("HTTP/1.1 400 "), "{raw:?} answered {out:?}");
    }
    let (status, _) = get(addr, "/v1/healthz");
    assert_eq!(status, 200);

    handle.shutdown();
    thread.join().unwrap();
}

/// Reads one `Content-Length`-framed response off a kept-alive stream.
fn read_framed(reader: &mut std::io::BufReader<TcpStream>) -> (u16, Vec<(String, String)>, String) {
    use std::io::BufRead;
    let mut head = String::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read head") > 0, "EOF");
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .expect("content-length");
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("read body");
    (status, headers, String::from_utf8(body).expect("utf-8"))
}

/// One keep-alive exchange on an open connection.
fn exchange(
    conn: &mut std::io::BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    write!(
        conn.get_mut(),
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    read_framed(conn)
}

/// Opens a connection, serves one keep-alive request on it, and returns
/// it open and idle: a parked keep-alive connection.
fn park(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut conn = std::io::BufReader::new(stream);
    let (status, headers, _) = exchange(&mut conn, method, path, body);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "connection"), Some("keep-alive"));
    conn
}

#[test]
fn parked_keep_alive_connections_do_not_stall_a_cached_run() {
    let server = Server::bind(Config {
        workers: 2,
        ..config()
    })
    .unwrap();
    let (addr, handle, thread) = start(server);

    // As many parked connections as workers: one after a served run
    // (which also caches fig12), one after a probe.
    let run = "/v1/experiments/fig12/run";
    let parked = [
        park(addr, "POST", run, "{}"),
        park(addr, "GET", "/v1/healthz", ""),
    ];
    let started = std::time::Instant::now();
    let (status, body) = post(addr, run, "{}");
    let took = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        took < Duration::from_secs(1),
        "a cached run behind {} parked connections took {took:?}",
        parked.len()
    );

    drop(parked);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn a_job_polled_on_keep_alive_finishes_without_a_server_close() {
    let server = Server::bind(Config {
        workers: 2,
        ..config()
    })
    .unwrap();
    let (addr, handle, thread) = start(server);

    let run = "/v1/experiments/fig12/run";
    let _parked = [
        park(addr, "POST", run, "{}"),
        park(addr, "GET", "/v1/healthz", ""),
    ];
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut conn = std::io::BufReader::new(stream);
    let started = std::time::Instant::now();
    let (status, headers, submit) = exchange(
        &mut conn,
        "POST",
        "/v1/sweeps/fig12",
        r#"{"params": {"trials": 16}}"#,
    );
    assert_eq!(status, 202, "{submit}");
    assert_eq!(header(&headers, "connection"), Some("keep-alive"));
    let result_path = format!("/v1/jobs/{}/result", job_id(&submit));
    let mut polls = 0;
    loop {
        let (status, headers, body) = exchange(&mut conn, "GET", &result_path, "");
        polls += 1;
        assert_eq!(
            header(&headers, "connection"),
            Some("keep-alive"),
            "the server closed the polling connection after {polls} polls"
        );
        match status {
            200 => break,
            202 => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("unexpected result status {other}: {body}"),
        }
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "submit→result took {took:?} ({polls} polls)"
    );

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn two_hundred_parked_connections_leave_an_active_client_fast() {
    let server = Server::bind(Config {
        workers: 2,
        ..config()
    })
    .unwrap();
    let (addr, handle, thread) = start(server);

    let run = "/v1/experiments/fig12/run";
    let mut active = park(addr, "POST", run, "{}");
    let parked: Vec<_> = (0..200)
        .map(|_| park(addr, "GET", "/v1/healthz", ""))
        .collect();
    // Each parked connection is a live thread, exported as a gauge.
    let (_, metrics) = get(addr, "/v1/metrics");
    let live: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("cnt_serve_connections "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no connections gauge in {metrics}"));
    assert!(live > parked.len() as u64, "{live} live connections");

    for i in 0..50 {
        let started = std::time::Instant::now();
        let (status, _, body) = exchange(&mut active, "POST", run, "{}");
        let took = started.elapsed();
        assert_eq!(status, 200, "run {i}: {body}");
        assert!(
            took < Duration::from_secs(1),
            "run {i} behind {} parked connections took {took:?}",
            parked.len()
        );
    }

    drop((active, parked));
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn runs_and_sweep_jobs_share_the_permits() {
    // The runner counts kernels in flight. Eight distinct points and a
    // sweep job arrive at once on a 2-permit server.
    let (now, peak) = (
        Arc::new(std::sync::atomic::AtomicUsize::new(0)),
        Arc::new(std::sync::atomic::AtomicUsize::new(0)),
    );
    let server = {
        let (now, peak) = (Arc::clone(&now), Arc::clone(&peak));
        Server::bind_with_runner(
            Config {
                workers: 2,
                ..config()
            },
            move |exp, ctx| {
                use std::sync::atomic::Ordering::SeqCst;
                peak.fetch_max(now.fetch_add(1, SeqCst) + 1, SeqCst);
                std::thread::sleep(Duration::from_millis(50));
                now.fetch_sub(1, SeqCst);
                exp.run(ctx)
            },
        )
        .unwrap()
    };
    let (addr, handle, thread) = start(server);

    let (status, submit) = post(addr, "/v1/sweeps/fig12", r#"{"params": {"trials": 16}}"#);
    assert_eq!(status, 202, "{submit}");
    let barrier = Arc::new(Barrier::new(8));
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let body = format!("{{\"params\": {{\"seed\": {}}}}}", 400 + i);
                    post(addr, "/v1/experiments/table1/run", &body).0
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(statuses, [200; 8]);
    let rid = job_id(&submit);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (_, polled) = get(addr, &format!("/v1/jobs/{rid}"));
        if polled.contains("\"status\":\"done\"") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job stuck: {polled}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let peak = peak.load(std::sync::atomic::Ordering::SeqCst);
    assert!(peak <= 2, "{peak} kernels ran at once on 2 permits");
    // Every computation took a permit: the 8 run leaders and the job.
    let (_, metrics) = get(addr, "/v1/metrics");
    assert!(
        metrics.contains("cnt_serve_queue_wait_seconds_count 9\n"),
        "{metrics}"
    );

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);

    // 150 requests back-to-back on the same connection: the server sets
    // no per-connection request cap, so all but the last are advertised
    // keep-alive, and only the final Connection: close ends it.
    const ROUNDS: u64 = 150;
    for round in 0..ROUNDS {
        let closing = round == ROUNDS - 1;
        let conn = if closing { "close" } else { "keep-alive" };
        // One write per request: split segments would stall on Nagle
        // and delayed ACK for ~40 ms each round.
        let request = format!("GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: {conn}\r\n\r\n");
        writer.write_all(request.as_bytes()).expect("send");
        let (status, headers, body) = read_framed(&mut reader);
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"status\":\"ok\""), "{body}");
        let advertised = headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| v.as_str())
            .expect("connection header");
        assert_eq!(advertised, if closing { "close" } else { "keep-alive" });
    }
    // After Connection: close the server really hangs up.
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).expect("EOF"), 0);

    // The reuse counter saw every follow-up request.
    let (status, _, metrics) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let reuses = metrics
        .lines()
        .find(|l| l.starts_with("cnt_serve_keepalive_reuses_total "))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("reuse counter");
    assert_eq!(reuses, ROUNDS - 1, "{metrics}");

    handle.shutdown();
    thread.join().unwrap();
}

/// A new connection is accepted the moment it arrives: the accept loop
/// blocks in `accept` rather than sleeping between polls. With a 5 ms
/// accept poll, each back-to-back fresh connection waited out one sleep
/// (≈ 258 ms for 50). The best of three rounds must stay under 100 ms, so
/// a round slowed by the other tests' compute does not decide it.
#[test]
fn fifty_fresh_connections_need_no_accept_poll() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());
    assert_eq!(get(addr, "/v1/healthz").0, 200);
    let best = (0..3)
        .map(|_| {
            let started = std::time::Instant::now();
            for _ in 0..50 {
                assert_eq!(get(addr, "/v1/healthz").0, 200);
            }
            started.elapsed()
        })
        .min()
        .unwrap();
    handle.shutdown();
    thread.join().unwrap();
    assert!(
        best < Duration::from_millis(100),
        "50 fresh connections took {best:?} at best"
    );
}

/// An idle server returns from `serve()` soon after `shutdown()`: its
/// history scraper and fleet prober wait on the server's stop signal,
/// not on a timer. One server is plain, the other a fleet member whose
/// peers are all Up, so its prober has no probe due; both scrape once a
/// minute.
#[test]
fn idle_servers_stop_within_a_second_of_shutdown() {
    let quiet = || Config {
        history_interval: Duration::from_secs(60),
        ..config()
    };
    let plain = Server::bind(quiet()).unwrap();
    let members = [
        Server::bind(quiet()).unwrap(),
        Server::bind(quiet()).unwrap(),
    ];
    let peers: Vec<String> = members.iter().map(|m| m.local_addr().to_string()).collect();
    for (index, member) in members.iter().enumerate() {
        member
            .enable_fleet(FleetConfig::new(peers.clone(), index))
            .unwrap();
    }
    let [member, peer] = members;
    let servers = [("plain", start(plain)), ("fleet member", start(member))];
    let (_, peer_handle, peer_thread) = start(peer);
    // Let both background threads reach their waits.
    std::thread::sleep(Duration::from_millis(200));
    for (name, (addr, handle, thread)) in servers {
        assert_eq!(get(addr, "/v1/healthz").0, 200, "{name}");
        let started = Instant::now();
        handle.shutdown();
        thread.join().unwrap();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "the idle {name} took {took:?} to stop"
        );
    }
    peer_handle.shutdown();
    peer_thread.join().unwrap();
}

/// Files named `*.{ext}` anywhere under `dir` (none when it is missing).
fn files_with_extension(dir: &Path, ext: &str) -> usize {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| {
            let path = entry.path();
            if path.is_dir() {
                files_with_extension(&path, ext)
            } else {
                usize::from(path.extension().is_some_and(|e| e == ext))
            }
        })
        .sum()
}

/// A server that gets no requests still collects expired results: the
/// once-per-history-interval pass drops expired jobs with their spills
/// and evicts chunk tables older than the job TTL.
#[test]
fn a_quiet_server_collects_expired_spills_and_chunk_tables() {
    let dir = std::env::temp_dir().join(format!("cnt-serve-quiet-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle, thread) = start(
        Server::bind(Config {
            job_ttl: Duration::from_secs(1),
            history_interval: Duration::from_millis(100),
            data_dir: Some(dir.clone()),
            ..config()
        })
        .unwrap(),
    );
    let (status, submit) = post(addr, "/v1/sweeps/fig12", r#"{"params": {"trials": 32}}"#);
    assert_eq!(status, 202, "{submit}");
    let rid = job_id(&submit);
    let deadline = Instant::now() + Duration::from_secs(30);
    while get(addr, &format!("/v1/jobs/{rid}/result")).0 != 200 {
        assert!(Instant::now() < deadline, "job {rid} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (jobs, chunks) = (dir.join("jobs"), dir.join("sweep-cache"));
    assert_eq!(files_with_extension(&jobs, "body"), 1, "no spill written");
    assert!(
        files_with_extension(&chunks, "json") > 0,
        "no chunk table written"
    );
    // No request for twice the TTL.
    std::thread::sleep(Duration::from_secs(2));
    assert_eq!(files_with_extension(&jobs, "body"), 0, "spill kept");
    assert_eq!(
        files_with_extension(&chunks, "json"),
        0,
        "chunk tables kept"
    );
    assert_eq!(get(addr, &format!("/v1/jobs/{rid}")).0, 404);
    handle.shutdown();
    thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http10_closes_by_default_and_keeps_alive_on_request() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    // Plain HTTP/1.0: one response, then EOF.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(stream, "GET /v1/healthz HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.contains("Connection: close"), "{raw}");

    // HTTP/1.0 with an explicit keep-alive is honoured.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    write!(
        writer,
        "GET /v1/healthz HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n"
    )
    .unwrap();
    let (status, headers, _) = read_framed(&mut reader);
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "connection" && v == "keep-alive"));
    // A second request still works on the same socket.
    write!(writer, "GET /v1/healthz HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
    let (status, _, _) = read_framed(&mut reader);
    assert_eq!(status, 200);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn metrics_scrape_exposes_cache_and_scheduler_counters() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    // One run = one miss; its repeat = one hit.
    let (status, _) = post(addr, "/v1/experiments/fig01/run", "{}");
    assert_eq!(status, 200);
    let (status, _) = post(addr, "/v1/experiments/fig01/run", "{}");
    assert_eq!(status, 200);

    let (status, headers, metrics) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("text/plain")));
    let sample = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("cnt_serve_{name} ")))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample {name} in {metrics}"))
    };
    assert_eq!(sample("runs_total"), 1);
    assert_eq!(sample("cache_misses_total"), 1);
    assert_eq!(sample("cache_hits_total"), 1);
    assert_eq!(sample("coalesced_total"), 0);
    assert_eq!(sample("cached_bodies"), 1);
    assert_eq!(sample("workers"), 4);
    assert_eq!(sample("experiments"), experiments::catalog().count() as u64);
    assert!(metrics.contains("# TYPE cnt_serve_requests_total counter"));
    assert!(metrics.contains("# TYPE cnt_serve_cached_bodies gauge"));

    // Wrong method on the metrics route is a 405, unknown route a 404.
    let (status, _, _) = http(addr, "POST", "/v1/metrics", "");
    assert_eq!(status, 405);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn registry_snapshot_sanity() {
    // The e2e suite leans on these ids; fail loudly if the registry moves.
    for id in ["table1", "fig01", "fig05", "fig12"] {
        assert!(registry().get(id).is_ok(), "{id} missing from registry");
    }
}

#[test]
fn metrics_scrape_is_validator_clean_and_requests_carry_ids() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    // Drive every response class: a run (200), a missing route (404),
    // and a wrong method (405).
    let (status, headers, _) = http(addr, "POST", "/v1/experiments/table1/run", "{}");
    assert_eq!(status, 200);
    let rid = headers
        .iter()
        .find(|(n, _)| n == "x-request-id")
        .map(|(_, v)| v.clone())
        .expect("200 carries X-Request-Id");
    let (status, headers, _) = http(addr, "GET", "/v1/nosuch", "");
    assert_eq!(status, 404);
    let rid_404 = headers
        .iter()
        .find(|(n, _)| n == "x-request-id")
        .map(|(_, v)| v.clone())
        .expect("404 carries X-Request-Id");
    assert_ne!(rid, rid_404, "request ids are per-request");
    let (status, _, _) = http(addr, "POST", "/v1/metrics", "");
    assert_eq!(status, 405);

    let (status, headers, text) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert!(
        headers.iter().any(|(n, _)| n == "x-request-id"),
        "metrics scrape carries X-Request-Id too"
    );

    // The whole exposition — server registry plus the global cnt-obs
    // registry — passes the Prometheus validator.
    cnt_obs::promcheck::validate(&text)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));

    // PR5's series survive byte-compatibly…
    for name in [
        "cnt_serve_requests_total",
        "cnt_serve_runs_total",
        "cnt_serve_cache_hits_total",
        "cnt_serve_cache_misses_total",
        "cnt_serve_coalesced_total",
        "cnt_serve_rejected_total",
        "cnt_serve_keepalive_reuses_total",
        "cnt_serve_cached_bodies",
        "cnt_serve_workers",
        "cnt_serve_queue_capacity",
        "cnt_serve_experiments",
    ] {
        assert!(
            text.contains(&format!("\n{name} ")) || text.starts_with(&format!("{name} ")),
            "legacy sample '{name}' missing:\n{text}"
        );
    }
    // …and the new families are present: per-status counters (the 404
    // and 405 above are counted), latency histograms, labeled
    // per-experiment runs, and the uptime gauge.
    assert!(
        text.contains("cnt_serve_requests_total{status=\"200\"}"),
        "{text}"
    );
    assert!(
        text.contains("cnt_serve_requests_total{status=\"404\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("cnt_serve_requests_total{status=\"405\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("cnt_serve_experiment_runs_total{id=\"table1\"} 1"),
        "{text}"
    );
    for histogram in [
        "cnt_serve_queue_wait_seconds",
        "cnt_serve_request_seconds",
        "cnt_serve_run_seconds",
        "cnt_serve_serialize_seconds",
        "cnt_serve_write_seconds",
    ] {
        assert!(
            text.contains(&format!("# TYPE {histogram} histogram")),
            "{histogram} missing:\n{text}"
        );
        assert!(text.contains(&format!("{histogram}_bucket{{le=\"+Inf\"}}")));
    }
    assert!(text.contains("cnt_serve_uptime_seconds"), "{text}");
    // The run above performed one computation; its histogram count says so.
    assert!(text.contains("cnt_serve_run_seconds_count 1"), "{text}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn probes_survive_queue_saturation() {
    // 1 worker, 1 queue slot, slow kernel: run requests shed, but
    // /v1/healthz and /v1/metrics never take a compute permit, so
    // operators can still see the overload.
    let server = Server::bind_with_runner(
        Config {
            workers: 1,
            queue_capacity: 1,
            ..config()
        },
        |exp, ctx| {
            std::thread::sleep(Duration::from_millis(600));
            exp.run(ctx)
        },
    )
    .unwrap();
    let (addr, handle, thread) = start(server);

    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients + 1));
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Distinct points, so nothing coalesces.
                    let body = format!("{{\"params\": {{\"seed\": {}}}}}", 200 + i);
                    post(addr, "/v1/experiments/table1/run", &body).0
                })
            })
            .collect();
        barrier.wait();
        // Mid-saturation: the worker is pinned and the queue is full,
        // yet both probes answer 200.
        std::thread::sleep(Duration::from_millis(150));
        let (status, health) = get(addr, "/v1/healthz");
        assert_eq!(status, 200, "healthz must bypass admission: {health}");
        assert!(health.starts_with("{\"status\":\"ok\""), "{health}");
        let (status, metrics) = get(addr, "/v1/metrics");
        assert_eq!(status, 200, "metrics must bypass admission");
        assert!(metrics.contains("cnt_serve_requests_total"), "{metrics}");
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let shed = statuses.iter().filter(|s| **s == 503).count();
    assert!(
        shed >= 1,
        "6 parallel slow runs on a 1-worker/1-slot server must shed: {statuses:?}"
    );
    // Probes answered during saturation are not counted as rejections.
    let (_, health) = get(addr, "/v1/healthz");
    assert_eq!(counter(&health, "rejected"), shed as u64, "{health}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn async_sweep_jobs_run_to_a_byte_identical_result() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    // (id, body, the same point as `repro sweep` --set pairs). fig04's
    // sweep honours its own temp_k knob; every other sweep runs at the
    // paper operating point.
    let cases = [
        (
            "fig12",
            r#"{"params": {"trials": 32}}"#,
            vec![("trials", "32")],
        ),
        (
            "fig04",
            r#"{"params": {"trials": 8, "temp_k": 1000}}"#,
            vec![("trials", "8"), ("temp_k", "1000")],
        ),
    ];
    // Warm the TCP path so the submit latency sample is the route alone.
    let _ = get(addr, "/v1/healthz");
    for (id, body, sets) in &cases {
        let started = std::time::Instant::now();
        let (status, submit) = post(addr, &format!("/v1/sweeps/{id}"), body);
        let elapsed = started.elapsed();
        assert_eq!(status, 202, "{submit}");
        assert!(
            elapsed < Duration::from_millis(100),
            "submission must return immediately, took {elapsed:?}"
        );
        assert!(submit.contains("\"status\":\"queued\""), "{submit}");
        let rid = job_id(&submit);
        assert!(submit.contains(&format!("\"poll\":\"/v1/jobs/{rid}\"")));
        // Poll until the job lands; the result route answers 202 +
        // status while in flight and the finished body afterwards.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let result = loop {
            let (status, body) = get(addr, &format!("/v1/jobs/{rid}/result"));
            match status {
                200 => break body,
                202 => {
                    assert!(
                        body.contains("queued") || body.contains("running"),
                        "{body}"
                    );
                    assert!(
                        std::time::Instant::now() < deadline,
                        "job never finished: {body}"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("unexpected result status {other}: {body}"),
            }
        };

        // The terminal status carries the full sweep progress.
        let (status, polled) = get(addr, &format!("/v1/jobs/{rid}"));
        assert_eq!(status, 200);
        assert!(polled.contains("\"status\":\"done\""), "{polled}");
        assert!(
            polled.contains(&format!("\"experiment\":\"{id}\"")),
            "{polled}"
        );
        let done = counter(&polled, "done");
        assert_eq!(done, counter(&polled, "total"), "{polled}");

        // Byte-identity: the job body equals a local sweep at the same
        // point, rendered the way `repro sweep --format json` prints it.
        let sets: Vec<(String, String)> = sets
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let (_, ctx) = experiments::resolve_context(id, None, &sets).unwrap();
        let sweep = experiments::chunkable_sweep(id, &ctx).unwrap();
        // Progress counts the plan's jobs, chunk by chunk.
        assert_eq!(done, sweep.jobs() as u64, "{polled}");
        let direct = sweep.run_local(None).unwrap();
        assert_eq!(result, format!("{}\n", direct.report.to_json()), "{id}");
    }

    // Lifecycle counters made it to the exposition, validator-clean.
    let (_, metrics) = get(addr, "/v1/metrics");
    cnt_obs::promcheck::validate(&metrics)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    assert!(
        metrics.contains("cnt_serve_jobs_total{status=\"queued\"} 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("cnt_serve_jobs_total{status=\"done\"} 2"),
        "{metrics}"
    );
    assert!(metrics.contains("cnt_serve_jobs_pending 0"), "{metrics}");

    // Error shapes: unknown job, unknown id, and an id with no sweep.
    let (status, missing) = get(addr, "/v1/jobs/nosuchjob");
    assert_eq!(status, 404);
    assert!(missing.contains("no such job"), "{missing}");
    let (status, _) = get(addr, "/v1/jobs/nosuchjob/result");
    assert_eq!(status, 404);
    let (status, _) = post(addr, "/v1/sweeps/fig99", "{}");
    assert_eq!(status, 404);
    let (status, no_sweep) = post(addr, "/v1/sweeps/table1", "{}");
    assert_eq!(status, 400, "{no_sweep}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn a_full_job_table_sheds_with_the_canonical_body() {
    let server = Server::bind(Config {
        jobs_capacity: 0,
        ..config()
    })
    .unwrap();
    let (addr, handle, thread) = start(server);

    let (status, headers, body) = http(addr, "POST", "/v1/sweeps/fig12", "{}");
    assert_eq!(status, 503);
    assert!(
        headers.iter().any(|(n, v)| n == "retry-after" && v == "1"),
        "job-table shed without Retry-After: {headers:?}"
    );
    // Same canonical message shape as the worker-queue shed.
    assert_eq!(
        body,
        "{\"error\":\"server busy: the job table is full, retry shortly\"}\n"
    );

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn responses_carry_trace_ids_and_the_trace_route_assembles_the_tree() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    // A minted trace: every response advertises X-Trace-Id, and a run's
    // id resolves to a stored tree with the serve.request span.
    let (status, headers, _) = http(addr, "POST", "/v1/experiments/table1/run", "{}");
    assert_eq!(status, 200);
    let minted = header(&headers, "x-trace-id").expect("200 carries X-Trace-Id");
    assert_eq!(minted.len(), 16, "{minted}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()), "{minted}");
    let (status, tree) = get(addr, &format!("/v1/trace/{minted}"));
    assert_eq!(status, 200, "{tree}");
    experiments::format::check_json_stream(&tree).expect("trace tree is valid JSON");
    assert!(tree.contains("\"kind\":\"trace\""), "{tree}");
    assert!(tree.contains("POST /v1/experiments/table1/run"), "{tree}");
    assert!(tree.contains("serve.request"), "{tree}");

    // A propagated trace: the caller's ids are adopted and echoed, and
    // the stored record links to the caller's span as its parent.
    let (status, headers, _) = http_with(
        addr,
        "POST",
        "/v1/experiments/fig01/run",
        &[
            ("X-Trace-Id", "00000000deadbeef"),
            ("X-Parent-Span", "00000000cafebabe"),
        ],
        "{}",
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-trace-id"), Some("00000000deadbeef"));
    let (status, tree) = get(addr, "/v1/trace/00000000deadbeef");
    assert_eq!(status, 200);
    assert!(tree.contains("\"parent\":\"00000000cafebabe\""), "{tree}");
    assert!(tree.contains("POST /v1/experiments/fig01/run"), "{tree}");

    // Error shapes: a malformed id is a 400, an unknown one a 404.
    let (status, bad) = get(addr, "/v1/trace/zzz");
    assert_eq!(status, 400, "{bad}");
    let (status, _) = get(addr, "/v1/trace/0123456789abcdef");
    assert_eq!(status, 404);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn async_jobs_attach_to_the_submitting_trace() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    let (status, headers, submit) = http_with(
        addr,
        "POST",
        "/v1/sweeps/fig12",
        &[("X-Trace-Id", "00000000feedc0de")],
        r#"{"params": {"trials": 16}}"#,
    );
    assert_eq!(status, 202, "{submit}");
    assert_eq!(header(&headers, "x-trace-id"), Some("00000000feedc0de"));
    let rid = job_id(&submit);

    // Wait for the job to land, then read the assembled trace: both the
    // submission's serve.request record and the worker's job record are
    // under the one trace id, and the job's sweep.job spans survived the
    // executor's thread hop.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = get(addr, &format!("/v1/jobs/{rid}"));
        assert_eq!(status, 200);
        if body.contains("\"status\":\"done\"") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job stuck: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, tree) = get(addr, "/v1/trace/00000000feedc0de");
    assert_eq!(status, 200);
    experiments::format::check_json_stream(&tree).expect("trace tree is valid JSON");
    assert!(tree.contains("POST /v1/sweeps/fig12"), "{tree}");
    assert!(tree.contains("\"name\":\"job fig12\""), "{tree}");
    assert!(tree.contains("sweep.job"), "{tree}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn metrics_history_scrapes_into_rings_and_renders_valid_json() {
    let server = Server::bind(Config {
        history_interval: Duration::from_millis(50),
        ..config()
    })
    .unwrap();
    let (addr, handle, thread) = start(server);

    let (status, _) = post(addr, "/v1/experiments/table1/run", "{}");
    assert_eq!(status, 200);
    // Let the self-scraper take a few samples.
    std::thread::sleep(Duration::from_millis(400));

    let (status, headers, history) = http(addr, "GET", "/v1/metrics/history", "");
    assert_eq!(status, 200);
    assert!(header(&headers, "content-type").is_some_and(|v| v.starts_with("application/json")));
    assert_eq!(history.lines().count(), 1, "one-line document");
    experiments::format::check_json_stream(&history).expect("history is valid JSON");
    assert!(
        history.contains("\"kind\":\"metrics_history\""),
        "{history}"
    );
    // Counter, gauge, and histogram series all ride along, each with a
    // windowed summary.
    assert!(
        history.contains("\"name\":\"cnt_serve_requests_total\""),
        "{history}"
    );
    assert!(
        history.contains("\"name\":\"cnt_serve_cached_bodies\""),
        "{history}"
    );
    assert!(
        history.contains("\"name\":\"cnt_serve_request_seconds\""),
        "{history}"
    );
    assert!(history.contains("\"window\":{"), "{history}");
    assert!(history.contains("\"rate_per_s\":"), "{history}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn slo_transitions_from_ok_to_page_under_latency_burn() {
    use cnt_obs::{SloKind, SloSpec};
    // A tight latency objective against a deliberately slow runner: the
    // p90 of cnt_serve_request_seconds blows the 1 ms threshold once the
    // slow runs land in the scraped window.
    let server = Server::bind_with_runner(
        Config {
            history_interval: Duration::from_millis(50),
            slos: vec![SloSpec::new(
                "latency-p90",
                SloKind::LatencyQuantile {
                    metric: "cnt_serve_request_seconds".to_string(),
                    q: 0.9,
                    threshold_s: 0.001,
                },
                30.0,
                60.0,
            )],
            ..config()
        },
        |exp, ctx| {
            std::thread::sleep(Duration::from_millis(250));
            exp.run(ctx)
        },
    )
    .unwrap();
    let (addr, handle, thread) = start(server);

    // Before any traffic there is nothing to burn: the objective is ok.
    let (status, slo) = get(addr, "/v1/slo");
    assert_eq!(status, 200);
    experiments::format::check_json_stream(&slo).expect("slo is valid JSON");
    assert!(slo.contains("\"state\":\"ok\""), "{slo}");
    assert!(slo.contains("\"name\":\"latency-p90\""), "{slo}");

    // Inject the burn: three distinct (uncacheable) slow runs, then let
    // the scraper sample the histogram.
    for seed in [301, 302, 303] {
        let body = format!("{{\"params\": {{\"seed\": {seed}}}}}");
        let (status, _) = post(addr, "/v1/experiments/table1/run", &body);
        assert_eq!(status, 200);
    }
    std::thread::sleep(Duration::from_millis(300));

    let (status, slo) = get(addr, "/v1/slo");
    assert_eq!(status, 200);
    assert!(slo.contains("\"state\":\"page\""), "{slo}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn profile_endpoints_fold_request_spans_into_a_cumulative_view() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    for _ in 0..2 {
        let (status, _) = post(addr, "/v1/experiments/table1/run", "{}");
        assert_eq!(status, 200);
    }

    let (status, profile) = get(addr, "/v1/profile");
    assert_eq!(status, 200);
    experiments::format::check_json_stream(&profile).expect("profile is valid JSON");
    assert!(profile.contains("\"kind\":\"profile\""), "{profile}");
    assert!(profile.contains("\"captures\":2"), "{profile}");
    assert!(profile.contains("serve.request"), "{profile}");

    let (status, headers, folded) = http(addr, "GET", "/v1/profile/folded", "");
    assert_eq!(status, 200);
    assert!(header(&headers, "content-type").is_some_and(|v| v.starts_with("text/plain")));
    assert!(
        folded.lines().any(|l| {
            l.starts_with("serve.request")
                && l.rsplit(' ')
                    .next()
                    .is_some_and(|n| n.parse::<u64>().is_ok())
        }),
        "folded stacks malformed: {folded}"
    );

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn healthz_and_metrics_read_the_same_registry() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    let (_, _) = post(addr, "/v1/experiments/table1/run", "{}");
    let (_, _) = post(addr, "/v1/experiments/table1/run", "{}"); // LRU hit

    let (_, health) = get(addr, "/v1/healthz");
    let (_, text) = get(addr, "/v1/metrics");
    // One source of truth: the healthz counters and the Prometheus
    // samples are reads of the same atomics.
    assert_eq!(counter(&health, "runs"), 1);
    assert_eq!(counter(&health, "cache_hits"), 1);
    assert!(text.contains("cnt_serve_runs_total 1\n"), "{text}");
    assert!(text.contains("cnt_serve_cache_hits_total 1\n"), "{text}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn metrics_scrape_exports_library_span_families() {
    let (addr, handle, thread) = start(Server::bind(config()).unwrap());

    // fig08c computes a band structure and two Landauer integrals; fig10
    // runs its field solves; fig11 its circuit transients; fig08a's tubes
    // run as jobs on the sweep pool. Their spans land in the global
    // registry, which the scrape appends to the server's own families.
    for id in ["fig08c", "fig10", "fig11", "fig08a"] {
        let (status, _) = post(addr, &format!("/v1/experiments/{id}/run"), "{}");
        assert_eq!(status, 200, "{id}");
    }
    let (_, text) = get(addr, "/v1/metrics");
    for family in [
        "cnt_span_atomistic_bands_seconds",
        "cnt_span_atomistic_landauer_seconds",
        "cnt_span_fields_solve_seconds",
        "cnt_span_circuit_transient_seconds",
        "cnt_span_sweep_job_seconds",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} histogram")),
            "{family} missing:\n{text}"
        );
    }

    handle.shutdown();
    thread.join().unwrap();
}
