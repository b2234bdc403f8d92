//! `repro serve` refuses a `--history-interval` outside 1 ms to 1 day
//! before it binds: no accepted value spins or panics its scraper.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `repro serve --history-interval <raw>` on an ephemeral port:
/// its exit code, or `None` when it was still serving after 10 s and
/// had to be killed, and its stderr.
fn serve_with_history_interval(raw: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0", "--history-interval", raw])
        .env_remove("RUST_BACKTRACE")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    let code = loop {
        if let Some(status) = child.try_wait().expect("poll repro serve") {
            break status.code();
        }
        if Instant::now() >= deadline {
            child.kill().expect("kill repro serve");
            child.wait().expect("reap repro serve");
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (code, stderr)
}

#[test]
fn out_of_range_history_intervals_exit_1_before_binding() {
    // 1e-300 s rounds to a zero Duration, 1e19 s overflows an Instant,
    // and 1e20 s overflows a Duration.
    for raw in ["1e-300", "1e19", "1e20"] {
        let (code, stderr) = serve_with_history_interval(raw);
        assert_eq!(code, Some(1), "--history-interval {raw}; stderr: {stderr}");
        assert!(
            stderr.contains(&format!(
                "--history-interval expects seconds from 0.001 to 86400, got '{raw}'"
            )),
            "--history-interval {raw}; stderr: {stderr}"
        );
        assert!(
            !stderr.contains("http://"),
            "--history-interval {raw} bound a listener; stderr: {stderr}"
        );
    }
}
