//! `cli`: timed passes of `repro` processes.
//!
//! A pass runs every command of the spec file in order; each command's
//! stdout must equal its reference file byte for byte. The first
//! `--warmup` passes are set-up, then passes repeat until `--seconds`
//! have elapsed. One JSON line per pass goes to stdout.

use crate::sys;
use crate::Flags;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

struct Cmd {
    reference: Vec<u8>,
    argv: Vec<String>,
}

/// Spec lines are tab-separated: reference path, program, arguments.
fn read_spec(path: &str) -> Result<Vec<Cmd>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|line| {
            let mut fields = line.split('\t');
            let reference = fields.next().unwrap_or_default();
            let argv: Vec<String> = fields.map(str::to_string).collect();
            if argv.is_empty() {
                return Err(format!("spec line without a command: {line:?}"));
            }
            let reference =
                std::fs::read(reference).map_err(|e| format!("reading {reference}: {e}"))?;
            Ok(Cmd { reference, argv })
        })
        .collect()
}

fn run_cmd(cmd: &Cmd, out: &mut String) -> Result<(), String> {
    let started = Instant::now();
    let mut child = Command::new(&cmd.argv[0])
        .args(&cmd.argv[1..])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", cmd.argv[0]))?;
    let mut stdout = Vec::with_capacity(cmd.reference.len());
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);
    let exit = sys::reap(child.id()).map_err(|e| format!("reaping {}: {e}", cmd.argv[0]))?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let ok = read.is_ok() && exit.status == 0 && stdout == cmd.reference;
    out.push_str(&format!(
        "{{\"ms\":{ms:.4},\"rss_kb\":{},\"cpu_s\":{:.6},\"status\":{},\"ok\":{ok}}}",
        exit.maxrss_kb, exit.cpu_s, exit.status
    ));
    Ok(())
}

/// Jiffies of all CPUs so far (`/proc/stat`): stolen by the hypervisor,
/// and spent running (user, nice, system, irq, softirq).
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    if f.len() < 8 {
        return (0, 0);
    }
    (f[7], f[0] + f[1] + f[2] + f[5] + f[6])
}

fn pass(cmds: &[Cmd], phase: &str) -> Result<String, String> {
    let mut line = format!("{{\"phase\":\"{phase}\",\"cmds\":[");
    let (steal0, busy0) = cpu_jiffies();
    let started = Instant::now();
    for (i, cmd) in cmds.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        run_cmd(cmd, &mut line)?;
    }
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let (steal1, busy1) = cpu_jiffies();
    line.push_str(&format!(
        "],\"ms\":{ms:.4},\"steal\":{},\"busy\":{}}}",
        steal1.saturating_sub(steal0),
        busy1.saturating_sub(busy0)
    ));
    Ok(line)
}

pub fn main(flags: &Flags) -> Result<(), String> {
    let cmds = read_spec(flags.req("spec")?)?;
    let warmup: usize = flags.num("warmup", 1)?;
    let seconds: f64 = flags.num("seconds", 1.0)?;
    let mut stdout = std::io::stdout().lock();
    let mut emit = |line: String| writeln!(stdout, "{line}").map_err(|e| e.to_string());
    for _ in 0..warmup {
        emit(pass(&cmds, "setup")?)?;
    }
    let started = Instant::now();
    loop {
        emit(pass(&cmds, "timed")?)?;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(())
}
