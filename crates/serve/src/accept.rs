//! The acceptor layer: one thin loop between the listener and the
//! shards.
//!
//! The acceptor does exactly four things — poll the listener, accept,
//! configure the socket (nonblocking + `TCP_NODELAY`), and hand the
//! stream to a shard's inbox — and deliberately nothing else: no
//! reads, no protocol, no per-connection state. Distribution is
//! **round-robin by accept order** (connection *k* lands on shard
//! `k mod N`), which keeps shard placement a pure function of arrival
//! order; chaos runs lean on that to make per-shard fault schedules
//! replayable (see the determinism contract in [`crate::policy`]).
//!
//! Admission is bounded by one global gauge: when live connections
//! reach `max_connections` the listener simply stops being polled,
//! parking further clients in the kernel accept queue; shards decrement
//! the gauge on close and nudge the acceptor's wake pipe when a slot
//! frees at the cap, so admission resumes without waiting out a poll
//! timeout.

use crate::policy::IoPolicy;
use crate::server::{drain_wake_pipe, ControlPlane};
use crate::sys::{PollFd, POLLIN};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The acceptor's handle to one shard: the inbox it pushes accepted
/// streams into (the shard adopts them at its next iteration).
pub(crate) struct ShardLink {
    pub inbox: Arc<Mutex<VecDeque<TcpStream>>>,
}

/// Everything the acceptor loop needs.
pub(crate) struct Acceptor {
    pub listener: TcpListener,
    pub wake_rx: UnixStream,
    pub control: Arc<ControlPlane>,
    pub links: Vec<ShardLink>,
    /// Live connections across every shard (shards decrement on close).
    pub conn_gauge: Arc<AtomicUsize>,
    pub max_connections: usize,
    /// Lifetime accepted-connection counter (the `stats` reply and the
    /// merged report read this).
    pub accepted: Arc<AtomicU64>,
    pub policy: Box<dyn IoPolicy>,
}

impl Acceptor {
    /// Run until the control plane stops the server. Returns the number
    /// of faults the acceptor's own policy injected (the accepted count
    /// lives in the shared `accepted` counter).
    pub(crate) fn run(mut self) -> u64 {
        let mut next_shard = 0usize;
        let mut fds: Vec<PollFd> = Vec::with_capacity(2);
        loop {
            if self.control.stopped() {
                break;
            }
            let accepting = self.conn_gauge.load(Ordering::SeqCst) < self.max_connections;
            fds.clear();
            fds.push(PollFd::new(
                self.listener.as_raw_fd(),
                if accepting { POLLIN } else { 0 },
            ));
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            if let Err(error) = self.policy.poll(&mut fds, 200) {
                // A broken poll here means the listener fd is gone;
                // nothing left to accept — stop the server and let the
                // shards drain what they already hold.
                eprintln!("lfp-serve[acceptor]: poll failed: {error}");
                self.control.request_stop();
                break;
            }
            if fds[1].readable() {
                drain_wake_pipe(&self.wake_rx);
            }
            if !accepting || !fds[0].readable() {
                continue;
            }
            while self.conn_gauge.load(Ordering::SeqCst) < self.max_connections {
                match self.policy.accept(&self.listener) {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        stream.set_nodelay(true).ok();
                        self.accepted.fetch_add(1, Ordering::Relaxed);
                        self.conn_gauge.fetch_add(1, Ordering::SeqCst);
                        let shard = next_shard;
                        next_shard = (next_shard + 1) % self.links.len();
                        self.links[shard]
                            .inbox
                            .lock()
                            .expect("shard inbox poisoned")
                            .push_back(stream);
                        self.control.wake_shard(shard);
                    }
                    Err(error) if error.kind() == io::ErrorKind::WouldBlock => break,
                    Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                    Err(error) => {
                        eprintln!("lfp-serve[acceptor]: accept failed: {error}");
                        break;
                    }
                }
            }
        }
        self.policy.counters().total()
    }
}
