//! `georep` whose stdout reader has gone away (`georep … | head -1`) ends
//! quietly with exit code 0: a write to the closed pipe must neither panic
//! nor print a backtrace.
#![cfg(unix)]

use std::process::{Command, Output, Stdio};

/// Runs `georep args` with stdout piped and the read end dropped before
/// anything is read.
fn run_with_closed_stdout(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_georep"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("georep starts");
    drop(child.stdout.take());
    child.wait_with_output().expect("georep exits")
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    for command in [
        // The matrix text (≈ 300 KB) is far past the 64 KiB a pipe buffers,
        // so some write hits the closed pipe whenever the reader goes away.
        "topology --nodes 226 --out /dev/stdout",
        "simulate --nodes 80 --dcs 8 --k 3 --duration 20000",
    ] {
        let args: Vec<&str> = command.split_whitespace().collect();
        let output = run_with_closed_stdout(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_ne!(output.status.code(), Some(101), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert!(output.status.success(), "{command}: {stderr}");
    }
}
