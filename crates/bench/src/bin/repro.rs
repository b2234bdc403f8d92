//! Regenerates the paper's figures and tables from the experiment
//! registry.
//!
//! ```text
//! repro --list            one line per experiment: id, title, [sweep]
//! repro info fig12        title + declared parameters of one experiment
//! repro all               run every experiment at the paper operating point
//! repro fig12 fig08a      run selected experiments
//! repro fig12 --set length_um=200 --set nc=6
//!                         run with typed parameter overrides, validated
//!                         against the experiment's declared ParamSpec
//! repro fig08a --threads 4
//!                         run fig08a's pool on 4 worker threads (the
//!                         output is byte-identical for any width)
//! repro table1 --format json
//!                         machine-readable output (one JSON object per
//!                         line; `csv` emits the data table)
//! repro table1 --preset projected
//!                         run at a named operating point the experiment
//!                         declares (expanded before any --set overrides)
//! repro sweep fig12 --trials 1000 --threads 8 --seed 42
//!                         run the Monte-Carlo sweep variant of an id on
//!                         the cnt-sweep engine (output is byte-identical
//!                         for any --threads value)
//! repro serve --addr 127.0.0.1:8080 --workers 4
//!                         expose the registry as a JSON API (cnt-serve):
//!                         run bodies are byte-identical to
//!                         `repro <id> --format json`; SIGTERM/ctrl-c
//!                         drains in-flight work and exits. With
//!                         --fleet A1,A2 --self-index K the instance
//!                         joins a consistent-hash fleet (cnt-fleet);
//!                         --jobs/--job-ttl size the async job table
//!                         behind POST /v1/sweeps/{id}; --data-dir DIR
//!                         makes jobs crash-durable (append-only journal
//!                         + chunk cache + spilled result bodies, all
//!                         replayed on restart); --chaos SPEC
//!                         (e.g. "seed=7,refuse=0.2,latency=0.1")
//!                         injects deterministic faults on outbound
//!                         peer hops for fault-tolerance testing
//! repro cache gc --max-bytes 10000000
//!                         shrink the on-disk sweep cache by evicting the
//!                         oldest-modified entries of its shard
//!                         directories first
//! repro check-json        validate a JSON stream on stdin (used by CI to
//!                         guard `repro all --format json`)
//! repro check-metrics     validate a Prometheus text exposition on stdin
//!                         (used by CI to guard `GET /v1/metrics`)
//! repro profile fig12 --set nc=6
//!                         run one experiment under a cnt-obs trace and
//!                         print the span timing tree (where the wall
//!                         time went: solves, band structures, sweep jobs)
//! ```
//!
//! Common flags:
//!
//! * `--format F`    output format: `text` (default), `json`, `csv`
//! * `--preset P`    named operating point from the experiment's spec
//! * `--set K=V`     typed parameter override; unknown keys and
//!   out-of-range values are rejected before the experiment runs
//! * `--threads N`   width of fig08a's pool and of every sweep
//!   (variability's plain run included), 0 = all cores (default 0, at
//!   most 4096); the other ids run on the calling thread. Never changes
//!   the output
//!
//! Sweep flags:
//!
//! * `--trials N`    Monte-Carlo trials per cell (default 200)
//! * `--seed S`      root seed (default 42)
//! * `--cache-dir D` on-disk result cache (default `.sweep-cache`)
//! * `--no-cache`    disable the on-disk cache
//!
//! Sweep execution metadata (thread count, cache hit, wall time) goes to
//! stderr so stdout stays a pure function of `(id, params, seed)`.

use cnt_interconnect::experiments::{self, registry, OutputFormat};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;

/// `print!` through [`emit`]. When stdout fails, the enclosing command
/// returns at once with [`stdout_failed`]'s exit code, so nothing after
/// the failed write runs.
macro_rules! out {
    ($($arg:tt)*) => {
        if let Err(e) = emit(&format!($($arg)*)) {
            return stdout_failed(&e);
        }
    };
}

/// `println!` through [`emit`]; see [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// The widest executor `--threads` accepts.
const MAX_THREADS: usize = 4096;

/// The `--history-interval`s `repro serve` accepts: 1 ms to 1 day.
/// Shorter ones spin the scraper (`1e-300` s rounds to a zero
/// `Duration`); longer ones leave the history and the job GC idle for
/// days.
const HISTORY_INTERVALS: std::ops::RangeInclusive<std::time::Duration> =
    std::time::Duration::from_millis(1)..=std::time::Duration::from_secs(86_400);

fn usage() {
    eprintln!(
        "usage: repro [--list] [--format text|json|csv] [--preset NAME] [--set KEY=VALUE]..."
    );
    eprintln!("             [--threads N] [all | <id>...]");
    eprintln!("             (--threads: width of fig08a's pool and of every sweep)");
    eprintln!("       repro info <id>");
    eprintln!("       repro sweep <id> [--trials N] [--threads N] [--seed S] [--set KEY=VALUE]...");
    eprintln!("                        [--cache-dir DIR] [--no-cache] [--format text|json|csv]");
    eprintln!("       repro serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]");
    eprintln!(
        "                   [--fleet A1,A2,... --self-index K [--fleet-mode proxy|redirect]]"
    );
    eprintln!(
        "                   [--chaos seed=S,refuse=P,hang=P,truncate=P,latency=P,latency_ms=N]"
    );
    eprintln!("                   [--jobs N] [--job-ttl SECS] [--data-dir DIR]");
    eprintln!("                   [--access-log text|json] [--history-interval SECS]");
    eprintln!("       repro cache gc [--max-bytes N] [--max-age SECS] [--cache-dir DIR]");
    eprintln!("       repro check-json          (validates a JSON stream on stdin)");
    eprintln!("       repro check-metrics       (validates a Prometheus exposition on stdin)");
    eprintln!(
        "       repro profile <id> [--preset NAME] [--set KEY=VALUE]... [--threads N] [--format text|json]"
    );
    eprintln!("                    [--flame]    (folded stacks for flamegraph tooling)");
    eprintln!("       repro slo --addr HOST:PORT [--format text|json]");
    eprintln!(
        "ids: {}",
        experiments::catalog().collect::<Vec<_>>().join(" ")
    );
    eprintln!(
        "sweep ids: {}",
        experiments::sweep_catalog().collect::<Vec<_>>().join(" ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        return list();
    }
    match args[0].as_str() {
        "sweep" => run_sweep_command(&args[1..]),
        "info" => run_info_command(&args[1..]),
        "serve" => run_serve_command(&args[1..]),
        "cache" => run_cache_command(&args[1..]),
        "check-json" => run_check_json_command(),
        "check-metrics" => run_check_metrics_command(),
        "profile" => run_profile_command(&args[1..]),
        "slo" => run_slo_command(&args[1..]),
        _ => run_experiments_command(&args),
    }
}

/// The registry-driven `--list`: id, title, and a `[sweep]` marker when a
/// Monte-Carlo variant exists.
fn list() -> ExitCode {
    let width = registry().iter().map(|e| e.id().len()).max().unwrap_or(0);
    for exp in registry().iter() {
        let marker = if exp.has_sweep() { " [sweep]" } else { "" };
        outln!("{:<width$}  {}{}", exp.id(), exp.title(), marker);
    }
    ExitCode::SUCCESS
}

/// Parses and runs `repro [flags] [all | <id>...]`.
fn run_experiments_command(args: &[String]) -> ExitCode {
    let parsed = match CommonFlags::parse(args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let ids: Vec<&str> = if parsed.rest.contains(&"all") {
        experiments::catalog().collect()
    } else if parsed.rest.is_empty() {
        return fail("no experiment id given");
    } else {
        parsed.rest.clone()
    };
    if parsed.format == OutputFormat::Csv && ids.len() > 1 {
        // Concatenated tables with differing headers are not one CSV
        // document; JSON-lines is the multi-report stream.
        return fail("--format csv takes exactly one experiment id (use --format json for a multi-report stream)");
    }

    let mut failures = 0usize;
    for id in ids {
        match run_one(id, &parsed, parsed.format) {
            Ok(rendered) => match parsed.format {
                // Text reports end in a newline already; outln keeps the
                // blank separator line the harness has always printed.
                OutputFormat::Text | OutputFormat::Json => outln!("{rendered}"),
                OutputFormat::Csv => out!("{rendered}"),
            },
            Err(e) => {
                eprintln!("experiment '{id}' failed: {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one experiment at the flags' parameter point and executor width,
/// rendered in `format`.
fn run_one(
    id: &str,
    flags: &CommonFlags,
    format: OutputFormat,
) -> Result<String, cnt_interconnect::Error> {
    let (exp, mut ctx) = experiments::resolve_context(id, flags.preset.as_deref(), &flags.sets)?;
    ctx.threads = flags.threads;
    Ok(exp.run(&ctx)?.render_as(format))
}

/// Prints one experiment's declared parameter surface.
fn run_info_command(args: &[String]) -> ExitCode {
    let [id] = args else {
        return fail("info takes exactly one experiment id");
    };
    let exp = match registry().get(id) {
        Ok(exp) => exp,
        Err(e) => return fail(&e.to_string()),
    };
    let marker = if exp.has_sweep() { "  [sweep]" } else { "" };
    outln!("{} — {}{}", exp.id(), exp.title(), marker);
    outln!("parameters (override with --set KEY=VALUE):");
    for def in exp.params().defs() {
        let (min, max) = def.bounds();
        outln!(
            "  {:<12} {:<8} default {}  range [{min}, {max}]  — {}",
            def.key,
            def.default.kind(),
            def.default,
            def.doc
        );
    }
    if !exp.params().presets().is_empty() {
        outln!("presets (apply with --preset NAME):");
        for preset in exp.params().presets() {
            let sets: Vec<String> = preset
                .sets
                .iter()
                .map(|(key, value)| format!("{key} = {value}"))
                .collect();
            outln!(
                "  {:<12} {}  — {}",
                preset.name,
                sets.join(", "),
                preset.doc
            );
        }
    }
    ExitCode::SUCCESS
}

/// Validates a JSON stream on stdin (the `repro all --format json` shape).
fn run_check_json_command() -> ExitCode {
    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        return fail(&format!("reading stdin: {e}"));
    }
    match experiments::format::check_json_stream(&text) {
        Ok(count) => {
            eprintln!("check-json: {count} valid JSON value(s)");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// Validates a Prometheus text exposition on stdin (the `GET /v1/metrics`
/// shape): `# HELP`/`# TYPE` coverage, duplicate series, histogram bucket
/// consistency. CI pipes the scraped endpoint through this the same way
/// JSON bodies go through `check-json`.
fn run_check_metrics_command() -> ExitCode {
    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        return fail(&format!("reading stdin: {e}"));
    }
    match cnt_obs::promcheck::validate(&text) {
        Ok(summary) => {
            eprintln!(
                "check-metrics: {} family(ies), {} sample(s), exposition valid",
                summary.families, summary.samples
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

/// Parses and runs `repro profile <id> [--preset NAME] [--set KEY=VALUE]...
/// [--threads N] [--format text|json] [--flame]`:
/// one experiment run under a [`cnt_obs::Trace`], reported as the span
/// timing tree instead of the experiment's own output. The run itself is
/// the production code path (same registry, same validation), so the tree
/// shows where `repro <id>` actually spends its wall time — solver calls,
/// band-structure builds, serially-executed sweep jobs. With `--flame` the tree
/// prints as folded stacks (`a;b;c <self-µs>` lines), the input format of
/// flamegraph tooling.
fn run_profile_command(args: &[String]) -> ExitCode {
    let flame = args.iter().any(|a| a == "--flame");
    let args: Vec<String> = args.iter().filter(|a| *a != "--flame").cloned().collect();
    let parsed = match CommonFlags::parse(&args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let [id] = parsed.rest[..] else {
        return fail("profile takes exactly one experiment id");
    };
    if parsed.format == OutputFormat::Csv {
        return fail("profile emits text or json (csv is not a profile format)");
    }
    if flame && parsed.format != OutputFormat::Text {
        return fail("--flame prints folded stacks; it does not combine with --format");
    }
    cnt_obs::Trace::begin();
    let started = std::time::Instant::now();
    let result = {
        let _root = cnt_obs::span!("repro.run");
        run_one(id, &parsed, OutputFormat::Json)
    };
    let wall_s = started.elapsed().as_secs_f64();
    let roots = cnt_obs::Trace::end();
    if let Err(e) = result {
        return fail(&format!("experiment '{id}' failed: {e}"));
    }
    if flame {
        // Folded stacks go to stdout unadorned so the output pipes
        // straight into flamegraph.pl / inferno without cleanup.
        out!("{}", cnt_obs::fold_stacks(&roots));
        return ExitCode::SUCCESS;
    }
    match parsed.format {
        OutputFormat::Text => {
            outln!("profile '{id}': wall {}", cnt_obs::span::fmt_secs(wall_s));
            out!("{}", cnt_obs::span::render_tree_text(&roots));
        }
        OutputFormat::Json => {
            let mut out = String::with_capacity(256);
            out.push_str("{\"schema\":1,\"kind\":\"profile\",\"id\":");
            cnt_obs::json::push_string(id, &mut out);
            out.push_str(&format!(",\"wall_s\":{wall_s},\"spans\":["));
            for (i, root) in roots.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                root.push_json(&mut out);
            }
            out.push_str("]}");
            outln!("{out}");
        }
        OutputFormat::Csv => unreachable!("rejected above"),
    }
    ExitCode::SUCCESS
}

/// Parses and runs `repro slo --addr HOST:PORT [--format text|json]`:
/// fetches `GET /v1/slo` from a running `repro serve` instance (through
/// `cnt_serve::PeerClient`, the fleet's own peer client) and
/// reports each objective's state and burn rates. Exit code mirrors the
/// worst state so the command slots into CI and cron checks directly:
/// success while every SLO is `ok` or `warn`, failure once any pages.
fn run_slo_command(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut format = OutputFormat::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return fail("--addr needs a value"),
            },
            "--format" => match it.next().map(|v| v.parse::<OutputFormat>()) {
                Some(Ok(OutputFormat::Csv)) => {
                    return fail("slo emits text or json (csv is not an slo format)")
                }
                Some(Ok(f)) => format = f,
                Some(Err(e)) => return fail(&e.to_string()),
                None => return fail("--format needs a value"),
            },
            other => return fail(&format!("unknown slo flag '{other}'")),
        }
    }
    let Some(addr) = addr else {
        return fail("slo needs --addr HOST:PORT (a running `repro serve` instance)");
    };
    let client = cnt_serve::PeerClient::new(
        std::time::Duration::from_secs(2),
        std::time::Duration::from_secs(5),
    );
    let response = match client.get(&addr, "/v1/slo") {
        Ok(r) => r,
        Err(e) => return fail(&format!("slo: GET {addr}/v1/slo: {e}")),
    };
    if response.status != 200 {
        return fail(&format!(
            "slo: GET {addr}/v1/slo returned {}",
            response.status
        ));
    }
    let doc = match cnt_obs::json::parse(&response.body) {
        Ok(v) => v,
        Err(e) => return fail(&format!("slo: response is not valid JSON: {e}")),
    };
    use cnt_obs::json::JsonValue;
    let Some(worst) = doc.get("state").and_then(JsonValue::as_str) else {
        return fail("slo: response has no top-level \"state\"");
    };
    match format {
        OutputFormat::Json => outln!("{}", response.body.trim_end()),
        OutputFormat::Text => {
            if let Some(JsonValue::Array(slos)) = doc.get("slos") {
                for slo in slos {
                    let name = slo.get("name").and_then(JsonValue::as_str).unwrap_or("?");
                    let state = slo.get("state").and_then(JsonValue::as_str).unwrap_or("?");
                    let burn = |key: &str| match slo.get(key) {
                        Some(JsonValue::Number(n)) => n.as_str(),
                        _ => "?",
                    };
                    outln!(
                        "{name}: {state} (burn fast {}, slow {})",
                        burn("burn_fast"),
                        burn("burn_slow")
                    );
                }
            }
            outln!("slo: overall {worst}");
        }
        OutputFormat::Csv => unreachable!("rejected above"),
    }
    if worst == "page" {
        eprintln!("repro slo: at least one objective is paging");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Parses and runs `repro sweep <id> [flags]`.
fn run_sweep_command(args: &[String]) -> ExitCode {
    let mut id: Option<&str> = None;
    let mut format = OutputFormat::Text;
    let mut threads = 0;
    let mut cache_dir = Some(PathBuf::from(".sweep-cache"));
    // Overrides accumulate in command-line order so the last flag wins,
    // whether it was spelled `--seed` or `--set seed=…`.
    let mut overrides: Vec<(String, String)> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let take = |name: &str, value: Option<&String>| -> Result<String, String> {
            value
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--trials" | "--seed" => {
                let key = arg.trim_start_matches("--").to_string();
                match take(arg, it.next()) {
                    Ok(v) => overrides.push((key, v)),
                    Err(e) => return fail(&e),
                }
            }
            "--threads" => match parse_threads(it.next()) {
                Ok(n) => threads = n,
                Err(e) => return fail(&e),
            },
            "--cache-dir" => match take("--cache-dir", it.next()) {
                Ok(dir) => cache_dir = Some(PathBuf::from(dir)),
                Err(e) => return fail(&e),
            },
            "--no-cache" => cache_dir = None,
            "--format" => match take("--format", it.next()).map(|v| v.parse()) {
                Ok(Ok(f)) => format = f,
                Ok(Err(e)) => return fail(&e.to_string()),
                Err(e) => return fail(&e),
            },
            "--set" => match take("--set", it.next()).map(parse_set) {
                Ok(Ok(pair)) => overrides.push(pair),
                Ok(Err(e)) => return fail(&e),
                Err(e) => return fail(&e),
            },
            other if other.starts_with('-') => {
                return fail(&format!("unknown sweep flag '{other}'"));
            }
            other => {
                if id.replace(other).is_some() {
                    return fail("sweep takes exactly one id");
                }
            }
        }
    }

    let Some(id) = id else {
        return fail("sweep needs an experiment id");
    };
    let sweep = match experiments::resolve_context(id, None, &overrides).and_then(|(_, mut ctx)| {
        ctx.threads = threads;
        experiments::chunkable_sweep(id, &ctx)
    }) {
        Ok(sweep) => sweep,
        Err(e) => return fail(&e.to_string()),
    };

    let started = std::time::Instant::now();
    match sweep.run_local(cache_dir.as_deref()) {
        Ok(run) => {
            match format {
                OutputFormat::Text => outln!("{}", run.report),
                OutputFormat::Json => outln!("{}", run.report.to_json()),
                OutputFormat::Csv => out!("{}", run.report.to_csv()),
            }
            eprintln!(
                "sweep '{id}': {} jobs on {} thread(s) in {:.3} s ({})",
                run.jobs,
                run.threads,
                started.elapsed().as_secs_f64(),
                if run.cache_hit {
                    "cache hit"
                } else {
                    "computed"
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep '{id}' failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses and runs `repro serve [flags]`: the cnt-serve front end.
fn run_serve_command(args: &[String]) -> ExitCode {
    let mut config = cnt_serve::Config {
        watch_signals: true,
        ..cnt_serve::Config::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let take = |name: &str, value: Option<&String>| -> Result<String, String> {
            value
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parse_count = |name: &str, raw: Result<String, String>| -> Result<usize, String> {
            raw.and_then(|v| {
                v.parse::<usize>()
                    .map_err(|e| format!("{name} expects a count, got '{v}' ({e})"))
            })
        };
        match arg.as_str() {
            "--addr" => match take("--addr", it.next()) {
                Ok(addr) => config.addr = addr,
                Err(e) => return fail(&e),
            },
            "--workers" => match parse_count("--workers", take("--workers", it.next())) {
                Ok(n) => config.workers = n,
                Err(e) => return fail(&e),
            },
            "--queue" => match parse_count("--queue", take("--queue", it.next())) {
                Ok(n) => config.queue_capacity = n,
                Err(e) => return fail(&e),
            },
            "--cache" => match parse_count("--cache", take("--cache", it.next())) {
                Ok(n) => config.cache_capacity = n,
                Err(e) => return fail(&e),
            },
            "--access-log" => match it.next().map(String::as_str) {
                Some("text") => config.access_log = Some(cnt_serve::AccessLogFormat::Text),
                Some("json") => config.access_log = Some(cnt_serve::AccessLogFormat::Json),
                Some(other) => {
                    return fail(&format!("--access-log expects text or json, got '{other}'"))
                }
                None => return fail("--access-log needs a value"),
            },
            "--fleet" => match take("--fleet", it.next()) {
                Ok(peers) => {
                    let peers: Vec<String> =
                        peers.split(',').map(|p| p.trim().to_string()).collect();
                    let self_index = config.fleet.as_ref().map_or(0, |f| f.self_index);
                    let mode = config
                        .fleet
                        .as_ref()
                        .map_or(cnt_serve::RouteMode::Proxy, |f| f.mode);
                    let mut fleet = cnt_serve::FleetConfig::new(peers, self_index);
                    fleet.mode = mode;
                    config.fleet = Some(fleet);
                }
                Err(e) => return fail(&e),
            },
            "--self-index" => match parse_count("--self-index", take("--self-index", it.next())) {
                Ok(k) => match config.fleet.as_mut() {
                    Some(fleet) => fleet.self_index = k,
                    None => return fail("--self-index needs --fleet first"),
                },
                Err(e) => return fail(&e),
            },
            "--fleet-mode" => match it.next().map(String::as_str) {
                Some(raw @ ("proxy" | "redirect")) => {
                    let mode = if raw == "proxy" {
                        cnt_serve::RouteMode::Proxy
                    } else {
                        cnt_serve::RouteMode::Redirect
                    };
                    match config.fleet.as_mut() {
                        Some(fleet) => fleet.mode = mode,
                        None => return fail("--fleet-mode needs --fleet first"),
                    }
                }
                Some(other) => {
                    return fail(&format!(
                        "--fleet-mode expects proxy or redirect, got '{other}'"
                    ))
                }
                None => return fail("--fleet-mode needs a value"),
            },
            "--chaos" => match take("--chaos", it.next()) {
                Ok(spec) => match cnt_serve::fleet::ChaosConfig::parse(&spec) {
                    Ok(chaos) => match config.fleet.as_mut() {
                        Some(fleet) => fleet.chaos = Some(chaos),
                        None => return fail("--chaos needs --fleet first"),
                    },
                    Err(e) => return fail(&format!("--chaos: {e}")),
                },
                Err(e) => return fail(&e),
            },
            "--jobs" => match parse_count("--jobs", take("--jobs", it.next())) {
                Ok(n) => config.jobs_capacity = n,
                Err(e) => return fail(&e),
            },
            "--job-ttl" => match parse_count("--job-ttl", take("--job-ttl", it.next())) {
                Ok(secs) => config.job_ttl = std::time::Duration::from_secs(secs as u64),
                Err(e) => return fail(&e),
            },
            "--data-dir" => match take("--data-dir", it.next()) {
                Ok(dir) => config.data_dir = Some(std::path::PathBuf::from(dir)),
                Err(e) => return fail(&e),
            },
            "--history-interval" => match take("--history-interval", it.next()) {
                Ok(raw) => match raw
                    .parse::<f64>()
                    .ok()
                    .and_then(|secs| std::time::Duration::try_from_secs_f64(secs).ok())
                    .filter(|d| HISTORY_INTERVALS.contains(d))
                {
                    Some(interval) => config.history_interval = interval,
                    None => {
                        return fail(&format!(
                            "--history-interval expects seconds from 0.001 to 86400, got '{raw}'"
                        ))
                    }
                },
                Err(e) => return fail(&e),
            },
            other => return fail(&format!("unknown serve flag '{other}'")),
        }
    }
    cnt_serve::signal::install();
    let server = match cnt_serve::Server::bind(config.clone()) {
        Ok(server) => server,
        Err(e) => return fail(&format!("serve: {e}")),
    };
    let fleet_note = config.fleet.as_ref().map_or(String::new(), |fleet| {
        let chaos_note = fleet
            .chaos
            .filter(|c| c.is_active())
            .map_or(String::new(), |c| format!(", CHAOS {}", c.render()));
        format!(
            ", fleet {}/{} ({}){chaos_note}",
            fleet.self_index,
            fleet.peers.len(),
            match fleet.mode {
                cnt_serve::RouteMode::Proxy => "proxy",
                cnt_serve::RouteMode::Redirect => "redirect",
            }
        )
    });
    eprintln!(
        "repro serve: http://{} — {} workers, queue {}, cache {} bodies, {} jobs{} (SIGTERM/ctrl-c drains and exits)",
        server.local_addr(),
        server.workers(),
        config.queue_capacity,
        config.cache_capacity,
        config.jobs_capacity,
        fleet_note
    );
    match server.serve() {
        Ok(()) => {
            eprintln!("repro serve: drained and shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("serve: {e}")),
    }
}

/// Parses and runs
/// `repro cache gc [--max-bytes N] [--max-age SECS] [--cache-dir DIR]`.
/// At least one cap is required; with both, the age pass runs first (drop
/// stale entries), then the size cap trims what is left.
fn run_cache_command(args: &[String]) -> ExitCode {
    let Some(("gc", rest)) = args.split_first().map(|(a, r)| (a.as_str(), r)) else {
        return fail("cache supports one action: gc");
    };
    let mut max_bytes: Option<u64> = None;
    let mut max_age: Option<u64> = None;
    let mut dir = ".sweep-cache".to_string();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-bytes" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => max_bytes = Some(n),
                Some(Err(e)) => return fail(&format!("--max-bytes expects bytes ({e})")),
                None => return fail("--max-bytes needs a value"),
            },
            "--max-age" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => max_age = Some(n),
                Some(Err(e)) => return fail(&format!("--max-age expects seconds ({e})")),
                None => return fail("--max-age needs a value"),
            },
            "--cache-dir" => match it.next() {
                Some(v) => dir = v.clone(),
                None => return fail("--cache-dir needs a value"),
            },
            other => return fail(&format!("unknown cache gc flag '{other}'")),
        }
    }
    if max_bytes.is_none() && max_age.is_none() {
        return fail("cache gc requires --max-bytes N and/or --max-age SECS");
    }
    let path = std::path::Path::new(&dir);
    if let Some(secs) = max_age {
        match cnt_sweep::cache::gc_by_age(path, std::time::Duration::from_secs(secs)) {
            Ok(stats) => eprintln!(
                "cache gc '{dir}': {} entries scanned, {} older than {secs} s evicted, {} -> {} bytes",
                stats.scanned, stats.evicted, stats.bytes_before, stats.bytes_after
            ),
            Err(e) => return fail(&format!("cache gc: {e}")),
        }
    }
    if let Some(cap) = max_bytes {
        match cnt_sweep::cache::gc(path, cap) {
            Ok(stats) => eprintln!(
                "cache gc '{dir}': {} entries scanned, {} evicted, {} -> {} bytes (cap {cap})",
                stats.scanned, stats.evicted, stats.bytes_before, stats.bytes_after
            ),
            Err(e) => return fail(&format!("cache gc: {e}")),
        }
    }
    ExitCode::SUCCESS
}

/// Flags shared by the plain experiment path.
struct CommonFlags<'a> {
    format: OutputFormat,
    preset: Option<String>,
    sets: Vec<(String, String)>,
    threads: usize,
    rest: Vec<&'a str>,
}

impl<'a> CommonFlags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut format = OutputFormat::Text;
        let mut preset = None;
        let mut sets = Vec::new();
        let mut threads = 0;
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--format" => {
                    let value = it.next().ok_or("--format needs a value")?;
                    format = value.parse().map_err(|e| format!("{e}"))?;
                }
                "--preset" => {
                    let value = it.next().ok_or("--preset needs a value")?;
                    preset = Some(value.clone());
                }
                "--set" => {
                    let value = it.next().ok_or("--set needs a value")?;
                    sets.push(parse_set(value.clone())?);
                }
                "--threads" => threads = parse_threads(it.next())?,
                other if other.starts_with('-') => {
                    return Err(format!("unknown flag '{other}'"));
                }
                other => rest.push(other),
            }
        }
        Ok(Self {
            format,
            preset,
            sets,
            threads,
            rest,
        })
    }
}

/// Parses a `--threads N` value: a worker count in `0..=MAX_THREADS`,
/// `0` meaning all cores.
fn parse_threads(value: Option<&String>) -> Result<usize, String> {
    let raw = value.ok_or("--threads needs a value")?;
    match raw.parse::<usize>() {
        Ok(n) if n <= MAX_THREADS => Ok(n),
        _ => Err(format!(
            "--threads expects a worker count in [0, {MAX_THREADS}] (0 = all cores), got '{raw}'"
        )),
    }
}

/// Splits a `KEY=VALUE` override.
fn parse_set(raw: String) -> Result<(String, String), String> {
    match raw.split_once('=') {
        Some((key, value)) if !key.is_empty() => Ok((key.to_string(), value.to_string())),
        _ => Err(format!("--set expects KEY=VALUE, got '{raw}'")),
    }
}

/// Writes `text` to stdout and flushes it: the one path all of `repro`'s
/// stdout takes. Rust ignores `SIGPIPE`, so a reader that went away
/// (`repro all | head -1`) shows up here as a `BrokenPipe` error rather
/// than a panic in `println!`.
fn emit(text: &str) -> std::io::Result<()> {
    let mut stdout = std::io::stdout().lock();
    stdout.write_all(text.as_bytes())?;
    stdout.flush()
}

/// The exit code of a command whose stdout write failed. A reader that
/// went away ends the run quietly with success: the output it read is
/// complete as far as it goes. Any other write error is reported.
fn stdout_failed(e: &std::io::Error) -> ExitCode {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        ExitCode::SUCCESS
    } else {
        fail(&format!("writing stdout: {e}"))
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("repro: {message}");
    usage();
    ExitCode::FAILURE
}
