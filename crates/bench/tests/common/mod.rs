//! Shared harness for the process-level tests: spawn the package's
//! binaries, find the daemon's ephemeral address, clean up after.
//!
//! Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use lfp_bench::mix::{connect_with_retry, request};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A spawned `vendor-queryd` that is killed on drop (so a failing
/// assert never leaks listeners across test runs).
pub struct Daemon {
    child: Child,
    /// The rest of the daemon's stdout. Held open for the daemon's
    /// lifetime: dropping it would close the pipe under a later write
    /// (the `--metrics-dump` exposition after the drain).
    stdout: BufReader<ChildStdout>,
    /// The readiness line, as printed.
    pub ready: String,
    /// The `host:port` the daemon is listening on.
    pub addr: String,
}

impl Daemon {
    /// Spawn the daemon and wait for its readiness line (pass
    /// `--port 0`: the line carries the ephemeral address).
    pub fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_vendor-queryd"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn vendor-queryd");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut ready = String::new();
        stdout.read_line(&mut ready).expect("read readiness line");
        let addr = ready
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in readiness line: {ready:?}"))
            .to_string();
        Daemon {
            child,
            stdout,
            ready,
            addr,
        }
    }

    /// Send `shutdown`, wait for the drained daemon to exit, and return
    /// everything it printed to stdout after the readiness line.
    pub fn shutdown(mut self) -> String {
        if let Ok(mut conn) = connect_with_retry(&self.addr, Duration::from_secs(2)) {
            let _ = request(&mut conn, "{\"query\":\"shutdown\"}");
        }
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("read daemon stdout");
        let _ = self.child.wait();
        rest
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A no-op once `shutdown` has reaped the child.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory unique to one test binary and tag; removed on
/// drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("lfp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    pub fn dir(&self) -> &Path {
        &self.0
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
