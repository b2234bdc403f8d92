//! `repro bench` — the machine-readable performance subsystem.
//!
//! A registry of kernel benchmarks spanning every hot layer of the
//! workspace: NEGF transport, the fields CG solver, the thermal SThM and
//! via-stack kernels, the Fig. 12 delay-ratio grid, `cnt-sweep` pool
//! throughput at 1/2/4/8 threads, and an end-to-end `cnt-serve` request
//! round-trip. Each kernel runs a warmup phase followed by `N` timed
//! iterations and reports min/median/p90/mean wall time.
//!
//! Results render as a text table or as one versioned JSON document
//! (`"schema":2`, `"kind":"bench"` — accepted by `repro check-json`),
//! and are written to `BENCH_<unix-seconds>.json` so every PR appends a
//! point to the repository's performance trajectory. Schema 2 added the
//! optional per-kernel `peak_rss_bytes` column (the process `VmHWM`
//! high-water mark sampled after the kernel ran); `repro bench diff`
//! accepts schema 1 and 2 points alike and never gates on memory.
//!
//! Adding a kernel: push a [`Kernel`] in [`kernels`] whose closure calls
//! [`time_iterations`] around the hot call, feeding results into
//! [`core::hint::black_box`] so the work cannot be optimized away. Keep
//! the workload deterministic (fixed seeds, fixed sizes) so numbers are
//! comparable across runs and machines.

use cnt_atomistic::negf::DisorderedChain;
use cnt_fields::grid::Grid3;
use cnt_fields::solver::{SolveWorkspace, SolverOptions, StencilSystem};
use cnt_interconnect::benchmark::{
    delay_ratio_grid, FIG12_CHANNEL_COUNTS, FIG12_DIAMETERS_NM, FIG12_LENGTHS_UM,
};
use cnt_obs::json;
use cnt_thermal::fin::SelfHeatingLine;
use cnt_thermal::sthm::SthmInstrument;
use cnt_thermal::via::ViaStack;
use cnt_units::si::{Area, CurrentDensity, Length, Power};
use core::hint::black_box;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::{Duration, Instant, SystemTime};

/// Schema version stamped into the JSON document (2 added the optional
/// per-kernel `peak_rss_bytes`; readers of schema 1 points still parse).
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// The process peak resident-set size (`VmHWM` in `/proc/self/status`),
/// bytes. Linux-only: `None` on other platforms or when the file is
/// unreadable, and callers must render its absence, not fail on it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Renders a byte count for the table (`-` for `None`).
pub(crate) fn fmt_bytes(bytes: Option<u64>) -> String {
    match bytes {
        Some(b) if b >= 1024 * 1024 => format!("{:.1} MB", b as f64 / (1024.0 * 1024.0)),
        Some(b) => format!("{:.1} kB", b as f64 / 1024.0),
        None => "-".to_string(),
    }
}

/// How a bench run is configured.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// Smaller workloads and fewer iterations (CI smoke mode).
    pub quick: bool,
    /// Run only kernels whose id contains this substring.
    pub filter: Option<String>,
    /// Per-kernel worker-thread override for kernels that spin an
    /// [`cnt_sweep::Executor`] (the `sweep.pool_*` family). Validated in
    /// [`run`] like an experiment parameter.
    pub threads: Option<usize>,
    /// Per-kernel timed-iteration override (warmup is unchanged).
    /// Validated in [`run`] like an experiment parameter.
    pub iters: Option<usize>,
}

/// Per-kernel view of the run configuration, handed to kernel closures.
#[derive(Debug, Clone, Copy)]
pub struct KernelCfg {
    /// Smaller workloads and fewer iterations.
    pub quick: bool,
    /// Worker-thread override for pool-driven kernels.
    pub threads: Option<usize>,
    /// Timed-iteration override.
    pub iters: Option<usize>,
}

/// What a kernel closure hands back: timing samples plus optional
/// workload statistics.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// One wall-time sample per timed iteration.
    pub samples: Vec<Duration>,
    /// Inner solver iterations per solve, for kernels that wrap an
    /// iterative method — makes iteration-count drift visible in the
    /// trajectory, not just the wall times.
    pub solver_iterations: Option<u64>,
}

impl KernelRun {
    fn timed(samples: Vec<Duration>) -> Self {
        Self {
            samples,
            solver_iterations: None,
        }
    }
}

/// Timing summary of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Stable kernel id (`"negf.mean_transmission"`, …).
    pub id: &'static str,
    /// One-line description of the workload.
    pub title: &'static str,
    /// Warmup iterations (not timed).
    pub warmup: usize,
    /// Timed iterations.
    pub iterations: usize,
    /// Fastest iteration, seconds.
    pub min_s: f64,
    /// Lower-median iteration, seconds.
    pub median_s: f64,
    /// 90th-percentile (nearest-rank) iteration, seconds.
    pub p90_s: f64,
    /// Mean iteration, seconds.
    pub mean_s: f64,
    /// Inner solver iterations per solve, when the kernel reports them.
    pub solver_iterations: Option<u64>,
    /// Process peak RSS (`VmHWM`) sampled after the kernel ran, bytes.
    /// Monotone across the registry — the kernel that bumps it is the
    /// one that owns the allocation. `None` off Linux.
    pub peak_rss_bytes: Option<u64>,
}

/// One full bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// The `--threads` override in effect, if any — stamped into the
    /// JSON so an overridden run can never masquerade as a standard
    /// trajectory point.
    pub threads_override: Option<usize>,
    /// The `--iters` override in effect, if any (also stamped).
    pub iters_override: Option<usize>,
    /// The `--filter` in effect, if any — stamped for the same reason:
    /// a filtered point covers only part of the registry and must not
    /// gate as a standard trajectory point.
    pub filter: Option<String>,
    /// `std::thread::available_parallelism` at run time.
    pub threads_available: usize,
    /// Wall-clock time of the run, seconds since the Unix epoch.
    pub unix_time_s: u64,
    /// Per-kernel summaries, registry order.
    pub kernels: Vec<KernelStats>,
}

impl BenchReport {
    /// The versioned single-line JSON document (no trailing newline) —
    /// the shape `repro bench --format json` prints and CI archives.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.kernels.len() * 160);
        out.push_str(&format!(
            "{{\"schema\":{BENCH_SCHEMA_VERSION},\"kind\":\"bench\",\"quick\":{}",
            self.quick
        ));
        if let Some(t) = self.threads_override {
            out.push_str(&format!(",\"threads_override\":{t}"));
        }
        if let Some(n) = self.iters_override {
            out.push_str(&format!(",\"iters_override\":{n}"));
        }
        if let Some(f) = &self.filter {
            out.push_str(",\"filter\":");
            json::push_string(f, &mut out);
        }
        out.push_str(&format!(
            ",\"threads_available\":{},\"unix_time_s\":{},\"kernels\":[",
            self.threads_available, self.unix_time_s
        ));
        for (i, k) in self.kernels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            json::push_string(k.id, &mut out);
            out.push_str(",\"title\":");
            json::push_string(k.title, &mut out);
            out.push_str(&format!(
                ",\"warmup\":{},\"iterations\":{},\"min_s\":{},\"median_s\":{},\"p90_s\":{},\"mean_s\":{}",
                k.warmup, k.iterations, k.min_s, k.median_s, k.p90_s, k.mean_s
            ));
            if let Some(si) = k.solver_iterations {
                out.push_str(&format!(",\"solver_iterations\":{si}"));
            }
            if let Some(rss) = k.peak_rss_bytes {
                out.push_str(&format!(",\"peak_rss_bytes\":{rss}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// The human-readable table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "bench: {} kernel(s), {} mode, {} core(s) available{}{}\n",
            self.kernels.len(),
            if self.quick { "quick" } else { "full" },
            self.threads_available,
            self.threads_override
                .map(|t| format!(", --threads {t}"))
                .unwrap_or_default(),
            self.iters_override
                .map(|n| format!(", --iters {n}"))
                .unwrap_or_default(),
        );
        let with_solver_col = self.kernels.iter().any(|k| k.solver_iterations.is_some());
        let with_rss_col = self.kernels.iter().any(|k| k.peak_rss_bytes.is_some());
        out.push_str(&format!(
            "{:<28} {:>5} {:>12} {:>12} {:>12}",
            "kernel", "iters", "min", "median", "p90"
        ));
        if with_solver_col {
            out.push_str(&format!(" {:>8}", "slv-it"));
        }
        if with_rss_col {
            out.push_str(&format!(" {:>10}", "peak-rss"));
        }
        out.push('\n');
        for k in &self.kernels {
            out.push_str(&format!(
                "{:<28} {:>5} {:>12} {:>12} {:>12}",
                k.id,
                k.iterations,
                fmt_duration(k.min_s),
                fmt_duration(k.median_s),
                fmt_duration(k.p90_s)
            ));
            if with_solver_col {
                match k.solver_iterations {
                    Some(si) => out.push_str(&format!(" {si:>8}")),
                    None => out.push_str(&format!(" {:>8}", "-")),
                }
            }
            if with_rss_col {
                out.push_str(&format!(" {:>10}", fmt_bytes(k.peak_rss_bytes)));
            }
            out.push('\n');
        }
        out
    }
}

pub(crate) fn fmt_duration(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.1} µs", seconds * 1e6)
    }
}

/// Times `work`: `warmup` discarded calls, then `iterations` timed ones.
pub fn time_iterations<F: FnMut()>(warmup: usize, iterations: usize, mut work: F) -> Vec<Duration> {
    for _ in 0..warmup {
        work();
    }
    (0..iterations)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed()
        })
        .collect()
}

/// One registered kernel benchmark.
pub struct Kernel {
    /// Stable id, used by `--filter` and the JSON document.
    pub id: &'static str,
    /// One-line description of the workload.
    pub title: &'static str,
    run: fn(cfg: &KernelCfg) -> KernelRun,
}

/// Warmup/timed-iteration counts for the mode, honouring `--iters`.
fn budget(cfg: &KernelCfg) -> (usize, usize) {
    let (warmup, iters) = if cfg.quick { (1, 5) } else { (3, 15) };
    (warmup, cfg.iters.unwrap_or(iters))
}

fn summarize(kernel: &Kernel, cfg: &KernelCfg, run: KernelRun) -> KernelStats {
    let (warmup, _) = budget(cfg);
    let mut secs: Vec<f64> = run.samples.iter().map(Duration::as_secs_f64).collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let n = secs.len();
    let nearest_rank = |q: f64| secs[(((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1)];
    KernelStats {
        id: kernel.id,
        title: kernel.title,
        warmup,
        iterations: n,
        min_s: secs[0],
        median_s: nearest_rank(0.5),
        p90_s: nearest_rank(0.9),
        mean_s: secs.iter().sum::<f64>() / n as f64,
        solver_iterations: run.solver_iterations,
        // Sampled right after the kernel's iterations: the process
        // high-water mark at this point in registry order.
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// The kernel registry, fixed order. Ids are stable across PRs so the
/// `BENCH_*.json` trajectory stays comparable.
pub fn kernels() -> Vec<Kernel> {
    vec![
        Kernel {
            id: "negf.mean_transmission",
            title: "NEGF ensemble transmission, 400-site chain",
            run: bench_negf_mean_transmission,
        },
        Kernel {
            id: "negf.mfp_vs_disorder",
            title: "NEGF mean-free-path calibration curve",
            run: bench_negf_mfp,
        },
        Kernel {
            id: "fields.cg_small",
            title: "CG stencil solve, 9x9x17 grid",
            run: bench_cg_small,
        },
        Kernel {
            id: "fields.cg_large",
            title: "CG stencil solve, 13x13x33 grid",
            run: bench_cg_large,
        },
        Kernel {
            id: "fields.cg_xl",
            title: "CG stencil solve, 33x33x129 grid",
            run: bench_cg_xl,
        },
        Kernel {
            id: "thermal.sthm_scan",
            title: "SThM probe convolution over a 401-point profile",
            run: bench_sthm_scan,
        },
        Kernel {
            id: "thermal.via_stack",
            title: "via-stack thermal resistance sweep",
            run: bench_via_stack,
        },
        Kernel {
            id: "circuit.delay_ratio_grid",
            title: "fig12 Elmore delay-ratio grid on the pool",
            run: bench_delay_ratio_grid,
        },
        Kernel {
            id: "obs.history_scrape",
            title: "HistoryStore scrape of a loaded registry (64 samples)",
            run: bench_history_scrape,
        },
        Kernel {
            id: "sweep.pool_t1",
            title: "Executor throughput, 32 jobs, 1 thread",
            run: |cfg| bench_pool(cfg, 1),
        },
        Kernel {
            id: "sweep.pool_t2",
            title: "Executor throughput, 32 jobs, 2 threads",
            run: |cfg| bench_pool(cfg, 2),
        },
        Kernel {
            id: "sweep.pool_t4",
            title: "Executor throughput, 32 jobs, 4 threads",
            run: |cfg| bench_pool(cfg, 4),
        },
        Kernel {
            id: "sweep.pool_t8",
            title: "Executor throughput, 32 jobs, 8 threads",
            run: |cfg| bench_pool(cfg, 8),
        },
        Kernel {
            id: "serve.roundtrip",
            title: "cnt-serve keep-alive run round-trip (LRU-hot)",
            run: bench_serve_roundtrip,
        },
        Kernel {
            id: "serve.fleet_roundtrip",
            title: "cnt-fleet non-owner round-trip (peer-fill-hot, 2 instances)",
            run: bench_fleet_roundtrip,
        },
        Kernel {
            id: "serve.fleet_degraded",
            title: "cnt-fleet degraded round-trip (owner Down, local fallback)",
            run: bench_fleet_degraded,
        },
        Kernel {
            id: "serve.sweep_fanout",
            title: "cnt-serve async sweep fan-out, submit→result (chunk-cache-hot, 2 instances)",
            run: bench_sweep_fanout,
        },
    ]
}

/// Every registered kernel id, registry order.
pub fn kernel_ids() -> Vec<&'static str> {
    kernels().iter().map(|k| k.id).collect()
}

/// Validates the `--threads` / `--iters` overrides the same way the
/// experiment registry validates `--set` values: out-of-range knobs are
/// rejected with the canonical
/// [`cnt_interconnect::Error::InvalidOverride`] before anything runs.
fn validate(opts: &BenchOpts) -> Result<(), cnt_interconnect::Error> {
    let check = |key: &str, value: Option<usize>, max: usize| match value {
        Some(v) if v < 1 || v > max => Err(cnt_interconnect::Error::InvalidOverride {
            key: key.to_string(),
            reason: format!("{v} outside [1, {max}]"),
        }),
        _ => Ok(()),
    };
    check("threads", opts.threads, 256)?;
    check("iters", opts.iters, 10_000)
}

/// Runs the registry (honouring the filter and overrides) and summarizes.
///
/// # Errors
///
/// Returns [`cnt_interconnect::Error::InvalidOverride`] when `--threads`
/// or `--iters` is out of range.
pub fn run(opts: &BenchOpts) -> Result<BenchReport, cnt_interconnect::Error> {
    validate(opts)?;
    let cfg = KernelCfg {
        quick: opts.quick,
        threads: opts.threads,
        iters: opts.iters,
    };
    let kernels: Vec<Kernel> = kernels()
        .into_iter()
        .filter(|k| {
            opts.filter
                .as_deref()
                .is_none_or(|needle| k.id.contains(needle))
        })
        .collect();
    let stats = kernels
        .iter()
        .map(|k| summarize(k, &cfg, (k.run)(&cfg)))
        .collect();
    Ok(BenchReport {
        quick: opts.quick,
        threads_override: opts.threads,
        iters_override: opts.iters,
        filter: opts.filter.clone(),
        threads_available: std::thread::available_parallelism().map_or(1, usize::from),
        unix_time_s: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        kernels: stats,
    })
}

// --- kernels ------------------------------------------------------------

fn bench_negf_mean_transmission(cfg: &KernelCfg) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let samples = if cfg.quick { 24 } else { 96 };
    let chain = DisorderedChain::new(400, 2.7, 1.0, Length::from_nanometers(0.25))
        .expect("valid chain parameters");
    KernelRun::timed(time_iterations(warmup, iters, || {
        let mut rng = StdRng::seed_from_u64(42);
        black_box(chain.mean_transmission(0.0, samples, &mut rng));
    }))
}

fn bench_negf_mfp(cfg: &KernelCfg) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let samples = if cfg.quick { 12 } else { 40 };
    KernelRun::timed(time_iterations(warmup, iters, || {
        let mut rng = StdRng::seed_from_u64(7);
        black_box(
            cnt_atomistic::negf::mfp_vs_disorder(
                300,
                2.7,
                Length::from_nanometers(0.25),
                &[0.4, 0.8, 1.6],
                samples,
                &mut rng,
            )
            .expect("valid sweep"),
        );
    }))
}

/// A heterogeneous two-plate stencil system for the CG benchmarks.
fn cg_system(nodes: [usize; 3]) -> StencilSystem {
    let grid = Grid3::new([1.0, 1.0, 2.0], nodes).expect("valid grid");
    let cells = grid.cells();
    let mut coeff = vec![0.0; grid.cell_count()];
    for k in 0..cells[2] {
        for j in 0..cells[1] {
            for i in 0..cells[0] {
                // Layered dielectric with a contrast step mid-stack.
                coeff[grid.cell_index(i, j, k)] = if k < cells[2] / 2 { 1.0 } else { 3.5 };
            }
        }
    }
    let mut dirichlet = vec![None; grid.node_count()];
    let [nx, ny, nz] = grid.nodes();
    for j in 0..ny {
        for i in 0..nx {
            dirichlet[grid.node_index(i, j, 0)] = Some(0.0);
            dirichlet[grid.node_index(i, j, nz - 1)] = Some(1.0);
        }
    }
    StencilSystem::assemble(&grid, &coeff, dirichlet)
}

fn bench_stencil(cfg: &KernelCfg, nodes: [usize; 3]) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let sys = cg_system(nodes);
    let options = SolverOptions::default();
    let mut ws = SolveWorkspace::new();
    // The solve is deterministic, so the iteration count of any timed
    // call doubles as the reported statistic.
    let mut iterations = 0usize;
    let samples = time_iterations(warmup, iters, || {
        let solution = sys.solve_full(&options, &mut ws).expect("converges");
        iterations = solution.iterations;
        black_box(solution.psi);
    });
    KernelRun {
        samples,
        solver_iterations: Some(iterations as u64),
    }
}

fn bench_cg_small(cfg: &KernelCfg) -> KernelRun {
    bench_stencil(cfg, [9, 9, 17])
}

fn bench_cg_large(cfg: &KernelCfg) -> KernelRun {
    bench_stencil(cfg, [13, 13, 33])
}

fn bench_cg_xl(cfg: &KernelCfg) -> KernelRun {
    bench_stencil(cfg, [33, 33, 129])
}

fn bench_sthm_scan(cfg: &KernelCfg) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let truth = SelfHeatingLine::mwcnt(
        Length::from_micrometers(2.0),
        CurrentDensity::from_amps_per_square_centimeter(5e8),
    )
    .analytic_profile(401)
    .expect("valid profile");
    let instrument = SthmInstrument::nanoprobe();
    KernelRun::timed(time_iterations(warmup, iters, || {
        black_box(instrument.scan(&truth, 42).expect("valid scan"));
    }))
}

fn bench_via_stack(cfg: &KernelCfg) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let n = if cfg.quick { 400 } else { 2000 };
    let heat = Power::from_microwatts(10.0);
    KernelRun::timed(time_iterations(warmup, iters, || {
        let mut acc = 0.0;
        for i in 0..n {
            let side = 40.0 + (i % 50) as f64;
            let area = Area::from_square_nanometers(side * side);
            let cu = ViaStack::copper(area).expect("valid stack");
            let cnt = ViaStack::cnt(area).expect("valid stack");
            acc += cu.temperature_drop(heat).kelvin() - cnt.temperature_drop(heat).kelvin();
        }
        black_box(acc);
    }))
}

fn bench_delay_ratio_grid(cfg: &KernelCfg) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let (d, nc, l): (&[f64], &[usize], &[f64]) = if cfg.quick {
        (&FIG12_DIAMETERS_NM[..2], &[2, 6, 10], &[10.0, 100.0, 500.0])
    } else {
        (
            &FIG12_DIAMETERS_NM,
            &FIG12_CHANNEL_COUNTS,
            &FIG12_LENGTHS_UM,
        )
    };
    KernelRun::timed(time_iterations(warmup, iters, || {
        black_box(delay_ratio_grid(d, nc, l, 0).expect("valid grid"));
    }))
}

fn bench_history_scrape(cfg: &KernelCfg) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    // A registry shaped like a busy server's: a few scalar families plus
    // labelled counters and populated histograms, so each scrape pays
    // for snapshotting and ring appends across every series kind.
    let registry = cnt_obs::MetricRegistry::new();
    for i in 0..8 {
        registry
            .counter(&format!("bench_counter_{i}_total"), "bench counter")
            .add(i * 17);
        registry
            .gauge(&format!("bench_gauge_{i}"), "bench gauge")
            .set(i as f64 * 0.25);
        let hist = registry.histogram(&format!("bench_hist_{i}_seconds"), "bench histogram");
        for k in 0..64 {
            hist.record(1e-4 * (1 + (k * 7 + i) % 50) as f64);
        }
        let vec = registry.counter_vec(
            &format!("bench_status_{i}_total"),
            "bench labelled counter",
            "code",
            true,
        );
        for code in ["200", "404", "500"] {
            vec.with(code).add(3);
        }
    }
    let store = cnt_obs::HistoryStore::new(cnt_obs::timeseries::DEFAULT_HISTORY_POINTS);
    KernelRun::timed(time_iterations(warmup, iters, || {
        for _ in 0..64 {
            store.sample(&registry);
        }
        black_box(store.render_json(60.0));
    }))
}

/// Fixed-size arithmetic spin: the deterministic unit of pool work.
fn spin(work: usize) -> f64 {
    let mut x = 1.0f64;
    for i in 0..work {
        x = x * 1.000_000_1 + 1.0 / (i + 1) as f64;
    }
    x
}

fn bench_pool(cfg: &KernelCfg, threads: usize) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let threads = cfg.threads.unwrap_or(threads);
    let work = if cfg.quick { 60_000 } else { 250_000 };
    let jobs: Vec<f64> = (0..32).map(|i| i as f64).collect();
    let plan = cnt_sweep::SweepPlan::new("bench.pool").axis(cnt_sweep::Axis::grid("job", &jobs));
    let executor = cnt_sweep::Executor::new(threads);
    KernelRun::timed(time_iterations(warmup, iters, || {
        let out = executor
            .run(&plan, 0, |_, _| {
                Ok::<_, std::convert::Infallible>(spin(work))
            })
            .expect("spin cannot fail");
        black_box(out);
    }))
}

fn bench_serve_roundtrip(cfg: &KernelCfg) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let server = cnt_serve::Server::bind(cnt_serve::Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        ..cnt_serve::Config::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve().expect("serve"));

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    // One keep-alive connection; warmup computes table1 once, the timed
    // iterations measure the LRU-hot end-to-end round-trip.
    let samples = time_iterations(warmup, iters, move || {
        write!(
            writer,
            "POST /v1/experiments/table1/run HTTP/1.1\r\nHost: bench\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{{}}"
        )
        .expect("send request");
        writer.flush().expect("flush");
        let mut content_length = None;
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read head") > 0);
            if line == "\r\n" || line == "\n" {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = v.parse::<usize>().ok();
            }
        }
        let mut body = vec![0u8; content_length.expect("framed response")];
        reader.read_exact(&mut body).expect("read body");
        black_box(body);
    });
    handle.shutdown();
    serving.join().expect("server thread");
    KernelRun::timed(samples)
}

fn bench_fleet_roundtrip(cfg: &KernelCfg) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let bind = |_| {
        cnt_serve::Server::bind(cnt_serve::Config {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            ..cnt_serve::Config::default()
        })
        .expect("bind ephemeral port")
    };
    let servers: Vec<_> = (0..2).map(bind).collect();
    let peers: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    for (index, server) in servers.iter().enumerate() {
        server
            .enable_fleet(cnt_serve::FleetConfig::new(peers.clone(), index))
            .expect("join fleet");
    }
    // Route through the instance that does NOT own table1's default
    // point, so every timed iteration pays fill probe + relay.
    let (_, ctx) =
        cnt_interconnect::experiments::resolve_context("table1", None, &[]).expect("table1 exists");
    let ring = cnt_serve::fleet::HashRing::new(&peers);
    let owner = ring.owner_of_hash(ctx.params.content_hash()).expect("ring");
    let front = servers[1 - owner].local_addr();

    let mut handles = Vec::new();
    let mut serving = Vec::new();
    for server in servers {
        handles.push(server.handle());
        serving.push(std::thread::spawn(move || {
            server.serve().expect("serve");
        }));
    }

    let stream = std::net::TcpStream::connect(front).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    // One keep-alive connection to the non-owner; warmup computes the
    // point once on the owner, then the timed iterations measure the
    // cross-instance hop (fill probe hitting the owner's LRU).
    let samples = time_iterations(warmup, iters, move || {
        write!(
            writer,
            "POST /v1/experiments/table1/run HTTP/1.1\r\nHost: bench\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{{}}"
        )
        .expect("send request");
        writer.flush().expect("flush");
        let mut content_length = None;
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read head") > 0);
            if line == "\r\n" || line == "\n" {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = v.parse::<usize>().ok();
            }
        }
        let mut body = vec![0u8; content_length.expect("framed response")];
        reader.read_exact(&mut body).expect("read body");
        black_box(body);
    });
    for handle in handles {
        handle.shutdown();
    }
    for thread in serving {
        thread.join().expect("server thread");
    }
    KernelRun::timed(samples)
}

fn bench_fleet_degraded(cfg: &KernelCfg) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let bind = |_| {
        cnt_serve::Server::bind(cnt_serve::Config {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            ..cnt_serve::Config::default()
        })
        .expect("bind ephemeral port")
    };
    let mut servers: Vec<_> = (0..2).map(bind).collect();
    let peers: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let (_, ctx) =
        cnt_interconnect::experiments::resolve_context("table1", None, &[]).expect("table1 exists");
    let ring = cnt_serve::fleet::HashRing::new(&peers);
    let owner = ring.owner_of_hash(ctx.params.content_hash()).expect("ring");

    // Kill the owner of table1's default point before it ever serves —
    // its port refuses connections — and route through the survivor.
    drop(servers.remove(owner));
    let front = servers.pop().expect("survivor");
    front
        .enable_fleet(cnt_serve::FleetConfig::new(peers.clone(), 1 - owner))
        .expect("join fleet");
    let addr = front.local_addr();
    let handle = front.handle();
    let serving = std::thread::spawn(move || {
        front.serve().expect("serve");
    });

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut exchange = move || {
        write!(
            writer,
            "POST /v1/experiments/table1/run HTTP/1.1\r\nHost: bench\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{{}}"
        )
        .expect("send request");
        writer.flush().expect("flush");
        let mut content_length = None;
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read head") > 0);
            if line == "\r\n" || line == "\n" {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = v.parse::<usize>().ok();
            }
        }
        let mut body = vec![0u8; content_length.expect("framed response")];
        reader.read_exact(&mut body).expect("read body");
        black_box(body);
    };
    // Trip the failure detector first: K = 3 consecutive fill failures
    // mark the dead owner Down, so the timed iterations measure the
    // steady degraded state (health gate + local LRU hit) rather than
    // the connect-refused probes on the way there. The companion
    // serve.fleet_roundtrip kernel is the healthy-fleet baseline.
    for _ in 0..3 {
        exchange();
    }
    let samples = time_iterations(warmup, iters, exchange);
    handle.shutdown();
    serving.join().expect("server thread");
    KernelRun::timed(samples)
}

fn bench_sweep_fanout(cfg: &KernelCfg) -> KernelRun {
    let (warmup, iters) = budget(cfg);
    let bind = |_| {
        cnt_serve::Server::bind(cnt_serve::Config {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 64,
            jobs_capacity: 1 << 16,
            ..cnt_serve::Config::default()
        })
        .expect("bind ephemeral port")
    };
    let servers: Vec<_> = (0..2).map(bind).collect();
    let peers: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    for (index, server) in servers.iter().enumerate() {
        server
            .enable_fleet(cnt_serve::FleetConfig::new(peers.clone(), index))
            .expect("join fleet");
    }
    let front = servers[0].local_addr();
    let mut handles = Vec::new();
    let mut serving = Vec::new();
    for server in servers {
        handles.push(server.handle());
        serving.push(std::thread::spawn(move || {
            server.serve().expect("serve");
        }));
    }

    // One keep-alive exchange; returns (status, body). The connection
    // re-dials transparently whenever the server closes it (every
    // request here is safe to retry: polls are idempotent and a closed
    // connection dies *after* the previous response).
    let mut conn: Option<(std::net::TcpStream, BufReader<std::net::TcpStream>)> = None;
    let mut exchange = move |method: &str, path: &str, body: &str| -> (u16, String) {
        loop {
            if conn.is_none() {
                let stream = std::net::TcpStream::connect(front).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");
                stream.set_nodelay(true).expect("nodelay");
                let reader = BufReader::new(stream.try_clone().expect("clone stream"));
                conn = Some((stream, reader));
            }
            let (writer, reader) = conn.as_mut().expect("connected");
            let sent = write!(
                writer,
                "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                body.len()
            )
            .and_then(|()| writer.flush());
            if sent.is_err() {
                conn = None;
                continue;
            }
            let mut status = None;
            let mut content_length = None;
            let mut closing = false;
            let mut eof = false;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).expect("read head") == 0 {
                    eof = true;
                    break;
                }
                if status.is_none() {
                    status = line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok());
                }
                if line == "\r\n" || line == "\n" {
                    break;
                }
                let lower = line.to_ascii_lowercase();
                if let Some(v) = lower.strip_prefix("content-length:").map(str::trim) {
                    content_length = v.parse::<usize>().ok();
                }
                if lower.starts_with("connection:") && lower.contains("close") {
                    closing = true;
                }
            }
            if eof {
                conn = None;
                continue;
            }
            let mut body = vec![0u8; content_length.expect("framed response")];
            reader.read_exact(&mut body).expect("read body");
            if closing {
                conn = None;
            }
            return (
                status.expect("status line"),
                String::from_utf8(body).expect("UTF-8 body"),
            );
        }
    };
    // Each iteration is the full async contract: submit the sweep, then
    // poll the result route until the merged report lands. Without a
    // data dir every job and every chunk request gets a fresh in-memory
    // chunk store, so nothing is recalled: each iteration runs every
    // chunk (16 trials, locally or on the peer) on top of the fan-out
    // coordination (journal-free submit, chunk claims and POSTs, merge +
    // render).
    let submit_body = "{\"params\": {\"trials\": 16}}";
    let samples = time_iterations(warmup.max(1), iters, move || {
        let (status, submit) = exchange("POST", "/v1/sweeps/fig12", submit_body);
        assert_eq!(status, 202, "{submit}");
        let rid = submit
            .split("\"job\":\"")
            .nth(1)
            .and_then(|tail| tail.split('"').next())
            .expect("job id")
            .to_string();
        let path = format!("/v1/jobs/{rid}/result");
        loop {
            let (status, body) = exchange("GET", &path, "");
            match status {
                200 => {
                    black_box(body);
                    break;
                }
                202 => {}
                other => panic!("unexpected result status {other}: {body}"),
            }
        }
    });
    for handle in handles {
        handle.shutdown();
    }
    for thread in serving {
        thread.join().expect("server thread");
    }
    KernelRun::timed(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_cover_the_layers() {
        let ids = kernel_ids();
        assert!(ids.len() >= 8, "bench registry shrank: {ids:?}");
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate kernel id");
        for prefix in [
            "negf.", "fields.", "thermal.", "circuit.", "obs.", "sweep.", "serve.",
        ] {
            assert!(
                ids.iter().any(|id| id.starts_with(prefix)),
                "no {prefix} kernel"
            );
        }
    }

    fn quick_cfg() -> KernelCfg {
        KernelCfg {
            quick: true,
            threads: None,
            iters: None,
        }
    }

    #[test]
    fn summary_statistics_are_ordered() {
        let kernel = &kernels()[0];
        let fake: Vec<Duration> = (1..=10).map(|i| Duration::from_micros(i * 10)).collect();
        let stats = summarize(kernel, &quick_cfg(), KernelRun::timed(fake));
        assert_eq!(stats.iterations, 10);
        assert_eq!(stats.min_s, 10e-6);
        assert!((stats.median_s - 50e-6).abs() < 1e-12);
        assert!((stats.p90_s - 90e-6).abs() < 1e-12);
        assert!(stats.min_s <= stats.median_s && stats.median_s <= stats.p90_s);
        assert_eq!(stats.solver_iterations, None);
    }

    #[test]
    fn json_document_is_schema_valid_and_filter_narrows() {
        // One cheap kernel end to end: the report renders, the JSON
        // parses, and --filter selects by substring.
        let report = run(&BenchOpts {
            quick: true,
            filter: Some("thermal.via_stack".to_string()),
            ..BenchOpts::default()
        })
        .expect("valid opts");
        assert_eq!(report.kernels.len(), 1);
        assert_eq!(report.kernels[0].id, "thermal.via_stack");
        let json = report.to_json();
        assert!(
            json.starts_with("{\"schema\":2,\"kind\":\"bench\""),
            "{json}"
        );
        cnt_interconnect::experiments::format::check_json_stream(&json).expect("valid JSON");
        if cfg!(target_os = "linux") {
            assert!(json.contains("\"peak_rss_bytes\":"), "{json}");
            assert!(report.render_text().contains("peak-rss"));
        }
        let text = report.render_text();
        assert!(text.contains("thermal.via_stack"), "{text}");
        // An unmatched filter runs nothing.
        let none = run(&BenchOpts {
            quick: true,
            filter: Some("no-such-kernel".to_string()),
            ..BenchOpts::default()
        })
        .expect("valid opts");
        assert!(none.kernels.is_empty());
    }

    #[test]
    fn overrides_are_validated_and_applied() {
        // Out-of-range knobs are rejected with the canonical error.
        for (threads, iters) in [(Some(0), None), (None, Some(0)), (None, Some(10_001))] {
            let err = run(&BenchOpts {
                quick: true,
                filter: Some("no-such-kernel".to_string()),
                threads,
                iters,
            })
            .expect_err("out-of-range override must be rejected");
            assert!(matches!(
                err,
                cnt_interconnect::Error::InvalidOverride { .. }
            ));
        }
        // --iters reshapes the sample count of a cheap kernel.
        let report = run(&BenchOpts {
            quick: true,
            filter: Some("thermal.via_stack".to_string()),
            threads: None,
            iters: Some(2),
        })
        .expect("valid opts");
        assert_eq!(report.kernels[0].iterations, 2);
    }

    #[test]
    fn peak_rss_probe_reports_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM readable on linux");
            assert!(rss > 1024 * 1024, "peak RSS {rss} implausibly small");
        }
        assert_eq!(fmt_bytes(None), "-");
        assert_eq!(fmt_bytes(Some(2 * 1024 * 1024)), "2.0 MB");
        assert_eq!(fmt_bytes(Some(512)), "0.5 kB");
    }

    #[test]
    fn solver_iteration_column_reports_cg_iterations() {
        let cfg = KernelCfg {
            quick: true,
            threads: None,
            iters: Some(1),
        };
        // The solve is deterministic: every committed trajectory point
        // records 31 iterations for this system.
        let cg = bench_cg_large(&cfg);
        assert_eq!(cg.solver_iterations, Some(31));
        // And the rendered table carries the column.
        let report = run(&BenchOpts {
            quick: true,
            filter: Some("fields.cg_small".to_string()),
            threads: None,
            iters: Some(1),
        })
        .expect("valid opts");
        assert!(report.render_text().contains("slv-it"));
        assert!(report.to_json().contains("\"solver_iterations\":"));
    }
}
