//! Per-connection state: one pipelined, order-preserving response
//! assembly line.
//!
//! A connection accumulates raw socket chunks in a
//! [`FrameDecoder`](lfp_query::FrameDecoder), tags each decoded request
//! with a per-connection **sequence number** — the loop answers resident
//! results on the spot and hands the rest to the worker pool — and
//! reassembles the (possibly out-of-order) completions into an in-order
//! byte stream:
//!
//! ```text
//!  socket ──► decoder ──► seq-tagged ──┬─► inline answer (cache hit)
//!                                      └─► workers (misses, any order)
//!                                               │
//!  socket ◄── write_buf ◄── in-order flush ◄── done: BTreeMap<seq, …>
//! ```
//!
//! Backpressure is two bounds: the event loop stops *reading* a
//! connection whose unanswered pipeline reaches `max_inflight`, and a
//! connection whose write buffer outgrows `write_buffer_cap` (a slow or
//! stalled reader) is **evicted** — buffering for it would let one
//! client hold server memory hostage.
//!
//! ## The zero-copy flush path
//!
//! Responses queue as **segments**, not flat bytes. A cache-served
//! answer stays three segments long — the envelope head (small, owned),
//! the rendered result payload (`Arc<str>` straight out of the result
//! cache, never copied), and a static tail+newline — and
//! [`Conn::try_write`] hands the segment run to the I/O policy's
//! `write_vectored` (one `writev(2)` under [`DirectIo`]). The hot path
//! for a hot key therefore copies the payload bytes zero times between
//! the cache and the kernel, at any fan-out.
//!
//! [`DirectIo`]: crate::policy::DirectIo

use crate::obs::ReqTrace;
use crate::policy::IoPolicy;
use lfp_query::FrameDecoder;
use std::collections::{BTreeMap, VecDeque};
use std::io::IoSlice;
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;

/// Read at most this much from one connection per event-loop iteration,
/// so a firehose client cannot starve its neighbours (poll is
/// level-triggered: leftovers surface next iteration).
const READ_BUDGET: usize = 64 * 1024;

/// One response, as the pipeline reassembles it. Control replies and
/// error envelopes are single owned strings; answered queries keep the
/// cache-resident result bytes shared so flushing never copies them.
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    /// A fully rendered line (control acks, errors, sheds).
    Owned(String),
    /// `head ++ body ++ "}"`: the success envelope split around the
    /// cache-resident payload (see `lfp_query::ok_envelope_head`).
    Rendered { head: String, body: Arc<str> },
}

/// One queued wire segment. The enum exists so a segment can borrow
/// nothing: owned envelope fragments, shared cache bytes, and the
/// static tail all coexist in one `VecDeque`.
#[derive(Debug)]
enum Seg {
    Owned(String),
    Shared(Arc<str>),
    Static(&'static [u8]),
}

impl Seg {
    fn bytes(&self) -> &[u8] {
        match self {
            Seg::Owned(s) => s.as_bytes(),
            Seg::Shared(s) => s.as_bytes(),
            Seg::Static(b) => b,
        }
    }
}

/// One outbound segment plus, on a response's **last** segment, the
/// request's trace — popping that segment is the flush event the
/// observability plane records at.
struct OutSeg {
    seg: Seg,
    trace: Option<Box<ReqTrace>>,
}

/// The success-envelope tail plus the line terminator, queued as one
/// static segment.
const RENDERED_TAIL: &[u8] = b"}\n";

/// At most this many segments per gathered write — comfortably under
/// every platform's `IOV_MAX`, and five pipelined cache hits deep.
const MAX_GATHER_SEGS: usize = 16;

/// Why a connection was taken out of the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// EOF/`quit` seen and every accepted request was answered and
    /// flushed.
    Finished,
    /// The write buffer outgrew its cap (stalled/slow reader) or the
    /// drain deadline expired with bytes still pending.
    Evicted,
    /// A read or write on the socket failed outright.
    Error,
}

/// One live connection's state machine.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) decoder: FrameDecoder,
    /// Sequence number the next accepted request will carry.
    next_assign: u64,
    /// Sequence number whose response is the next to enter `write_buf`.
    next_flush: u64,
    /// Completed responses waiting for their turn (keyed by seq), each
    /// with its request trace when it was a data query.
    done: BTreeMap<u64, (Payload, Option<Box<ReqTrace>>)>,
    /// Wire segments ready for the socket, oldest first; the front
    /// segment is already sent up to `front_pos`.
    out: VecDeque<OutSeg>,
    front_pos: usize,
    /// Traces of responses whose last byte was just written; the event
    /// loop drains these each iteration and records them (the flush
    /// stamp happens there, where the clock lives). Deliberately a vec
    /// of boxes: the trace is allocated once at accept and the same box
    /// rides to the recording site without a ~150-byte copy here.
    #[allow(clippy::vec_box)]
    flushed: Vec<Box<ReqTrace>>,
    /// Clock-origin timestamp of the most recent read that produced
    /// bytes (or of adoption) — the arrival time new traces begin at.
    pub(crate) arrived_ns: u64,
    /// Unsent bytes across `out` (the quantity `write_buffer_cap`
    /// bounds), maintained incrementally so the cap check stays O(1).
    out_bytes: usize,
    /// No more requests will be accepted (EOF, `quit`, or a framing
    /// error that ends the conversation). Pending responses still flush.
    pub(crate) read_closed: bool,
    /// The decoder's end-of-stream error has been surfaced (at most
    /// one per connection).
    pub(crate) eof_handled: bool,
    /// The socket failed; drop everything as soon as possible.
    pub(crate) fatal: bool,
    /// Something happened off-poll (a completion landed, or state was
    /// left half-processed): process this connection next iteration
    /// even if the socket reports no readiness. This is what keeps the
    /// loop's per-iteration work proportional to *activity* rather
    /// than to the connection count.
    pub(crate) touched: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, max_frame_bytes: usize, now_ns: u64) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::with_limit(max_frame_bytes),
            next_assign: 0,
            next_flush: 0,
            done: BTreeMap::new(),
            out: VecDeque::new(),
            front_pos: 0,
            flushed: Vec::new(),
            arrived_ns: now_ns,
            out_bytes: 0,
            read_closed: false,
            eof_handled: false,
            fatal: false,
            touched: true,
        }
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Accept one request into the pipeline, returning its sequence
    /// number.
    pub(crate) fn assign_seq(&mut self) -> u64 {
        let seq = self.next_assign;
        self.next_assign += 1;
        seq
    }

    /// Record the response for `seq` (from a worker, or produced on the
    /// loop: inline answers, control queries, sheds, framing errors).
    pub(crate) fn complete(&mut self, seq: u64, payload: Payload) {
        self.done.insert(seq, (payload, None));
    }

    /// [`complete`](Conn::complete), carrying the request's trace so
    /// the flush of its last byte can be observed.
    pub(crate) fn complete_traced(
        &mut self,
        seq: u64,
        payload: Payload,
        trace: Option<Box<ReqTrace>>,
    ) {
        self.done.insert(seq, (payload, trace));
    }

    /// Move the traces of responses fully written since the last call
    /// into `out` (which must be empty). Swapping instead of returning
    /// a fresh `Vec` lets the event loop recycle one scratch buffer's
    /// capacity across all connections and iterations.
    #[allow(clippy::vec_box)]
    pub(crate) fn take_flushed_into(&mut self, out: &mut Vec<Box<ReqTrace>>) {
        debug_assert!(out.is_empty());
        std::mem::swap(&mut self.flushed, out);
    }

    /// Whether any traces await [`Conn::take_flushed_into`].
    pub(crate) fn has_flushed(&self) -> bool {
        !self.flushed.is_empty()
    }

    /// Data responses completed but not yet fully written — what a
    /// closing connection abandons (counted as dropped responses).
    pub(crate) fn unflushed_traces(&self) -> u64 {
        let waiting = self.done.values().filter(|(_, t)| t.is_some()).count();
        let queued = self.out.iter().filter(|s| s.trace.is_some()).count();
        (waiting + queued + self.flushed.len()) as u64
    }

    /// Requests accepted but not yet flushed into the write buffer —
    /// queued, executing, or reordering in `done`. This is the pipeline
    /// depth the read-side backpressure bounds.
    pub(crate) fn inflight(&self) -> usize {
        (self.next_assign - self.next_flush) as usize
    }

    /// Whether the event loop should poll this connection for reads.
    pub(crate) fn wants_read(&self, max_inflight: usize) -> bool {
        !self.read_closed && !self.fatal && self.inflight() < max_inflight
    }

    /// Whether unsent response bytes are pending.
    pub(crate) fn wants_write(&self) -> bool {
        self.out_bytes > 0
    }

    /// Unsent response bytes currently buffered.
    pub(crate) fn buffered_write_bytes(&self) -> usize {
        self.out_bytes
    }

    /// Every accepted request answered and flushed to the socket.
    pub(crate) fn drained(&self) -> bool {
        self.inflight() == 0 && self.done.is_empty() && !self.wants_write()
    }

    /// Read side done *and* fully drained: nothing left to live for.
    pub(crate) fn finished(&self) -> bool {
        self.read_closed && self.decoder.pending() == 0 && self.drained()
    }

    /// Pull whatever the socket has (within the fairness budget) into
    /// the frame decoder, going through the I/O `policy` so chaos runs
    /// can perturb every read. Sets `read_closed` on EOF, `fatal` on
    /// error. Returns (read syscalls, bytes) for the loop's activity
    /// counters.
    pub(crate) fn read_some(
        &mut self,
        id: u64,
        policy: &mut dyn IoPolicy,
        now_ns: u64,
    ) -> (u64, u64) {
        let mut chunk = [0u8; 8192];
        let mut taken = 0usize;
        let mut calls = 0u64;
        loop {
            calls += 1;
            match policy.read(id, &self.stream, &mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return (calls, taken as u64);
                }
                Ok(n) => {
                    self.decoder.feed(&chunk[..n]);
                    self.arrived_ns = now_ns;
                    taken += n;
                    if taken >= READ_BUDGET {
                        return (calls, taken as u64);
                    }
                }
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                    return (calls, taken as u64)
                }
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fatal = true;
                    return (calls, taken as u64);
                }
            }
        }
    }

    /// Move every response whose turn has come from `done` onto the
    /// outbound segment queue, newline-framed. Owned payloads queue as
    /// one segment (the newline folded in); rendered payloads queue as
    /// head / shared body / static tail, so the cache bytes are never
    /// copied. The write-buffer cap is checked by the caller *after*
    /// the socket has had a chance to drain — a healthy reader must
    /// never be evicted for a burst the kernel would have absorbed.
    pub(crate) fn flush_ready(&mut self) {
        while let Some((payload, trace)) = self.done.remove(&self.next_flush) {
            match payload {
                Payload::Owned(mut line) => {
                    line.push('\n');
                    self.out_bytes += line.len();
                    self.out.push_back(OutSeg {
                        seg: Seg::Owned(line),
                        trace,
                    });
                }
                Payload::Rendered { head, body } => {
                    self.out_bytes += head.len() + body.len() + RENDERED_TAIL.len();
                    self.out.push_back(OutSeg {
                        seg: Seg::Owned(head),
                        trace: None,
                    });
                    self.out.push_back(OutSeg {
                        seg: Seg::Shared(body),
                        trace: None,
                    });
                    self.out.push_back(OutSeg {
                        seg: Seg::Static(RENDERED_TAIL),
                        trace,
                    });
                }
            }
            self.next_flush += 1;
        }
    }

    /// Drop `n` accepted bytes off the front of the segment queue. A
    /// fully consumed segment carrying a trace means its response's
    /// last byte just went out: surface the trace for recording.
    fn advance_out(&mut self, mut n: usize) {
        self.out_bytes -= n;
        while n > 0 {
            let front_len = self
                .out
                .front()
                .expect("advance past queue end")
                .seg
                .bytes()
                .len();
            let remaining = front_len - self.front_pos;
            if n < remaining {
                self.front_pos += n;
                return;
            }
            n -= remaining;
            self.front_pos = 0;
            let spent = self.out.pop_front().expect("front exists");
            if let Some(trace) = spent.trace {
                self.flushed.push(trace);
            }
        }
    }

    /// Push queued segments to the socket with gathered writes (through
    /// the I/O `policy`) until it stops accepting them. Sets `fatal` on
    /// error.
    pub(crate) fn try_write(&mut self, id: u64, policy: &mut dyn IoPolicy) {
        while self.wants_write() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_GATHER_SEGS);
            for (index, seg) in self.out.iter().take(MAX_GATHER_SEGS).enumerate() {
                let bytes = seg.seg.bytes();
                let bytes = if index == 0 {
                    &bytes[self.front_pos..]
                } else {
                    bytes
                };
                slices.push(IoSlice::new(bytes));
            }
            match policy.write_vectored(id, &self.stream, &slices) {
                Ok(0) => {
                    self.fatal = true;
                    return;
                }
                Ok(n) => self.advance_out(n),
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fatal = true;
                    return;
                }
            }
        }
    }
}
