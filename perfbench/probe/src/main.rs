//! Measuring helper of the end-to-end benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench-probe cli --spec FILE --warmup N --seconds S
//!     timed passes of `repro` processes; each child's wall time, its own
//!     peak RSS (wait4) and whether its stdout equals the reference
//! perfbench-probe warm --addr HOST:PORT
//!     sends the hot set (all 21 ids at their default point) to a server
//! perfbench-probe load --addr HOST:PORT --seconds S --seed N --out FILE
//!                      [--spans STEM]
//!     closed-loop client: hot / cold / sweep operations, one JSON line each
//! perfbench-probe refs --trials T --seed S --dir DIR
//!     montecarlo reference reports, computed in-process at one thread
//! perfbench-probe layers --repro PATH --golden FILE --spans STEM
//!                        [--trials T] [--seed S] [--reps R]
//!     the traced run's in-process layer calls; per-layer metrics as JSON
//! perfbench-probe calib
//!     fixed-work calibration loop, in ms
//! ```

mod cli;
mod layers;
mod load;
mod spans;
mod sys;

use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

/// `--key value` pairs after the subcommand.
pub struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {arg:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Self(map))
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    pub fn num<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got {v:?}")),
        }
    }
}

/// Writes `DIR/<id>.txt` = what `repro sweep <id> --trials T --seed S`
/// prints, computed in-process at one thread (the program promises the
/// same bytes at every thread count).
fn refs(flags: &Flags) -> Result<(), String> {
    let dir = flags.req("dir")?;
    let opts = cnt_interconnect::experiments::SweepOpts {
        trials: flags.num("trials", 4000)?,
        threads: 1,
        seed: flags.num("seed", 42)?,
        cache_dir: None,
    };
    for id in load::SWEEP_IDS {
        let run = cnt_interconnect::experiments::run_sweep(id, &opts)
            .map_err(|e| format!("sweep {id}: {e}"))?;
        let path = format!("{dir}/{id}.txt");
        std::fs::write(&path, format!("{}\n", run.report))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    let ids: Vec<String> = load::SWEEP_IDS
        .iter()
        .map(|id| format!("\"{id}\""))
        .collect();
    println!("{{\"ids\":[{}]}}", ids.join(","));
    Ok(())
}

/// A fixed amount of integer and floating-point work; its wall time
/// tracks how fast this host runs single-threaded code right now.
fn calib() {
    let t = Instant::now();
    let (mut x, mut acc) = (0x2545_F491_4F6C_DD1Du64, 0.0f64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 40) as f64);
    }
    std::hint::black_box((x, acc));
    println!("{{\"calib_ms\":{:.4}}}", t.elapsed().as_secs_f64() * 1e3);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: perfbench-probe cli|warm|load|refs|layers|calib [--flag value]...");
        return ExitCode::FAILURE;
    };
    let result = Flags::parse(rest).and_then(|flags| match cmd.as_str() {
        "cli" => cli::main(&flags),
        "warm" => load::warm(&flags),
        "load" => load::load(&flags),
        "refs" => refs(&flags),
        "layers" => layers::main(&flags),
        "calib" => {
            calib();
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
