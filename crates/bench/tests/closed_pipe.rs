//! `repro` exits quietly when the reader of its stdout goes away, as in
//! `repro all | head -1`.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn repro_all_ends_with_status_zero_and_no_stderr_when_its_reader_leaves() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .env_remove("RUST_BACKTRACE")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read the first line");
    assert!(first.starts_with("== table1"), "{first:?}");
    // Closing the read end makes every later write fail with EPIPE; the
    // later artefacts take long enough to compute that some write does.
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for repro");
    assert!(status.success(), "{status}; stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
