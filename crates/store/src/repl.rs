//! Primary/follower epoch replication over the query wire.
//!
//! One process owns ingest (the **primary**); any number of
//! **followers** mirror it by shipping the same epoch machinery the
//! store already has — no second durability format, no new socket
//! protocol. Replication is a handful of extra line-delimited JSON
//! queries multiplexed on the ordinary serving port (a
//! `LineExtension` on the primary answers them ahead of the data
//! path; everything else still reaches the query engine):
//!
//! * `repl_status` — the primary's epoch and snapshot size,
//! * `repl_snapshot` — the sectioned store file, base64, in resumable
//!   chunks (each reply names the epoch it belongs to, so a transfer
//!   torn by a mid-sync ingest is detected and restarted; the section
//!   checksums validate the assembled file before it is trusted),
//! * `repl_segment` — how a follower advances one epoch: the primary's
//!   sealed `.seg` file for epoch `have + 1`, exactly as stored, then
//!   an apply section ([`EpochApply`]: the epoch's vendor map and the
//!   corpus rows its traces encoded to). The reply's header
//!   (`epoch`, `delta_epoch`, `total`, `offset`, `segment`, `fnv`)
//!   precedes one base64 `data` field, so a follower parses the header
//!   and slices the payload without walking it,
//! * `repl_delta` — the serialized [`SnapshotDelta`] alone for epoch
//!   `have + 1`, for clients that ingest it themselves,
//! * `repl_ingest` — operator-driven churn: the primary ingests delta
//!   files from disk, which then fan out to followers.
//!
//! Every payload travels as offset-addressed chunks of at most
//! [`REPL_CHUNK`] raw bytes, sized so one epoch's segment fits in one
//! reply while each reply stays well under the serving layer's
//! write-buffer cap.
//!
//! The follower side is [`ReplClient`]: a blocking line-oriented
//! client (replies carrying base64 payloads routinely exceed the
//! request-side frame cap, so it reads whole lines, never frames) plus
//! [`follow_once`], which pulls every outstanding epoch with one
//! `repl_segment` round trip each and commits it through
//! [`Store::apply_segment`]: nothing is classified or encoded again,
//! the engine swaps exactly as a local ingest's does, and the follower
//! serves every query with the same bytes the primary would at the
//! same epoch. A reply whose `delta_epoch` is the primary's `epoch`
//! ends the poll, so a caught-up follower asks nothing more.

use crate::codec::SnapshotDelta;
use crate::epoch::{IngestReport, Store};
use crate::error::StoreError;
use crate::format::Sealed;
use lfp_analysis::json::{parse, JsonBuilder, JsonValue};
use lfp_query::wire;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Mutex};

#[cfg(doc)]
use crate::codec::EpochApply;

/// Raw bytes per replication chunk, for every transfer. A typical
/// epoch's segment and apply section (~207 KiB at `ingest-stress`) fit
/// in one; base64 inflates by 4/3, so a reply stays under 350 KiB, a
/// third of the serving layer's 1 MiB write-buffer eviction threshold.
pub const REPL_CHUNK: usize = 256 * 1024;

/// Most payloads of each kind (delta files, shipped segments) a
/// [`ReplSource`] keeps in RAM. The store's segment log is the durable
/// tier — a miss here re-reads a sealed file (or re-encodes from the
/// epoch history), so the cache is purely a hot-set accelerator and can
/// stay small no matter how many epochs a long-lived primary
/// accumulates.
pub const DELTA_CACHE_CAP: usize = 8;

/// The follower's read buffer: a chunk reply arrives in a handful of
/// reads rather than dozens.
const REPLY_BUFFER: usize = 64 * 1024;

/// The field a `repl_segment` reply carries its payload in: always the
/// last one, after the header.
const DATA_FIELD: &str = ", \"data\": \"";

/// A tiny LRU keyed by epoch: bounded at [`DELTA_CACHE_CAP`] entries,
/// hit moves to back, insert evicts the front. Linear scans are fine at
/// this capacity.
struct BoundedCache<V> {
    entries: Vec<(u64, V)>,
}

impl<V> Default for BoundedCache<V> {
    fn default() -> Self {
        BoundedCache {
            entries: Vec::new(),
        }
    }
}

impl<V: Clone> BoundedCache<V> {
    fn get(&mut self, epoch: u64) -> Option<V> {
        let index = self.entries.iter().position(|(key, _)| *key == epoch)?;
        let entry = self.entries.remove(index);
        let value = entry.1.clone();
        self.entries.push(entry);
        Some(value)
    }

    fn insert(&mut self, epoch: u64, value: V) {
        self.entries.retain(|(key, _)| *key != epoch);
        if self.entries.len() >= DELTA_CACHE_CAP {
            self.entries.remove(0);
        }
        self.entries.push((epoch, value));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The cached value under `epoch`, or `load`'s, cached. The lock is
/// *not* held across `load`, so a slow disk never serialises concurrent
/// followers.
fn cached<V: Clone>(
    cache: &Mutex<BoundedCache<V>>,
    epoch: u64,
    load: impl FnOnce() -> Option<V>,
) -> Option<V> {
    if let Some(value) = cache.lock().expect("replication cache poisoned").get(epoch) {
        return Some(value);
    }
    let value = load()?;
    cache
        .lock()
        .expect("replication cache poisoned")
        .insert(epoch, value.clone());
    Some(value)
}

/// One epoch as `repl_segment` ships it: the sealed segment file, then
/// the apply section, in one payload.
struct Shipment {
    payload: Vec<u8>,
    /// Length of the segment file at the front of `payload`.
    segment: usize,
    /// The segment file's whole-file FNV.
    fnv: u64,
}

/// The primary's side of replication: answers `repl_*` lines against a
/// shared [`Store`]. Snapshot bytes are cached per epoch (one encode
/// per epoch regardless of follower count); per-epoch payloads are
/// served from the store's segment log with a small bounded LRU in
/// front, so a primary that lives through hundreds of epochs holds a
/// constant amount of replication state in RAM.
pub struct ReplSource {
    store: Arc<Store>,
    snapshot: Mutex<Option<(u64, Arc<Vec<u8>>)>>,
    deltas: Mutex<BoundedCache<Arc<Vec<u8>>>>,
    shipments: Mutex<BoundedCache<Arc<Shipment>>>,
}

impl ReplSource {
    /// Wrap a store as a replication primary.
    pub fn new(store: Arc<Store>) -> ReplSource {
        ReplSource {
            store,
            snapshot: Mutex::new(None),
            deltas: Mutex::default(),
            shipments: Mutex::default(),
        }
    }

    /// Per-epoch payloads currently cached in RAM: delta files plus
    /// shipped segments, each kind bounded by [`DELTA_CACHE_CAP`]
    /// (exposed so tests and operators can hold the bound to account).
    pub fn cached_deltas(&self) -> usize {
        let deltas = self.deltas.lock().expect("replication cache poisoned");
        let shipments = self.shipments.lock().expect("replication cache poisoned");
        deltas.len() + shipments.len()
    }

    /// Answer a replication line, or `None` when the line is not a
    /// replication query at all (it then takes the ordinary data
    /// path). The `repl_` substring check keeps the probe near-free on
    /// the hot path.
    pub fn answer(&self, line: &str) -> Option<String> {
        if !line.contains("repl_") {
            return None;
        }
        let value = parse(line).ok()?;
        let kind = value.get("query").and_then(JsonValue::as_str)?;
        if !kind.starts_with("repl_") {
            return None;
        }
        Some(match kind {
            "repl_status" => self.status(),
            "repl_snapshot" => self.snapshot_chunk(&value),
            "repl_segment" => self.segment_chunk(&value),
            "repl_delta" => self.delta_chunk(&value),
            "repl_ingest" => self.ingest(&value),
            other => wire::error_envelope(&format!("unknown replication query '{other}'")),
        })
    }

    fn status(&self) -> String {
        let (epoch, bytes) = self.snapshot_bytes();
        ok_result(|result| {
            result.integer("epoch", epoch);
            result.integer("snapshot_bytes", bytes.len() as u64);
            result.integer("chunk", REPL_CHUNK as u64);
        })
    }

    fn snapshot_chunk(&self, value: &JsonValue) -> String {
        let offset = value.get("offset").and_then(JsonValue::as_u64).unwrap_or(0);
        let (epoch, bytes) = self.snapshot_bytes();
        let total = bytes.len() as u64;
        if offset > total {
            return bad_offset_envelope("snapshot", offset, total);
        }
        let data = b64::encode(chunk_at(&bytes, offset));
        ok_result(|result| {
            result.integer("epoch", epoch);
            result.integer("total", total);
            result.integer("offset", offset);
            result.string("data", &data);
        })
    }

    /// One chunk of epoch `have + 1`'s shipment. The header is built as
    /// an ordinary result object; the payload is appended after it as
    /// the reply's last field, encoded straight into the reply.
    fn segment_chunk(&self, value: &JsonValue) -> String {
        let Some(have) = value.get("have").and_then(JsonValue::as_u64) else {
            return wire::error_envelope("repl_segment requires 'have': the follower's epoch");
        };
        let offset = value.get("offset").and_then(JsonValue::as_u64).unwrap_or(0);
        let current = self.store.epoch();
        if have > current {
            return format!(
                "{{\"ok\": false, \"error\": \"ahead_of_primary\", \"have\": {have}, \
                 \"epoch\": {current}}}"
            );
        }
        if have == current {
            return ok_result(|result| {
                result.integer("epoch", current);
            });
        }
        let target = have + 1;
        let Some(shipment) = cached(&self.shipments, target, || {
            let (segment, apply) = self.store.shipped_segment(target)?;
            let (fnv, len) = (segment.checksum, segment.bytes.len());
            let mut payload = segment.bytes;
            payload.extend_from_slice(&apply);
            Some(Arc::new(Shipment {
                payload,
                segment: len,
                fnv,
            }))
        }) else {
            return wire::error_envelope(&format!("epoch {target} is not in this primary's log"));
        };
        let total = shipment.payload.len() as u64;
        if offset > total {
            return bad_offset_envelope("segment", offset, total);
        }
        let chunk = chunk_at(&shipment.payload, offset);
        let mut reply = ok_result(|result| {
            result.integer("epoch", current);
            result.integer("delta_epoch", target);
            result.integer("total", total);
            result.integer("offset", offset);
            result.integer("segment", shipment.segment as u64);
            result.string("fnv", &format!("{:016x}", shipment.fnv));
        });
        reply.pop(); // the envelope's closing brace
        reply.reserve(DATA_FIELD.len() + chunk.len().div_ceil(3) * 4 + 2);
        reply.push_str(DATA_FIELD);
        b64::encode_into(chunk, &mut reply);
        reply.push_str("\"}");
        reply
    }

    fn delta_chunk(&self, value: &JsonValue) -> String {
        let Some(have) = value.get("have").and_then(JsonValue::as_u64) else {
            return wire::error_envelope("repl_delta requires 'have': the follower's epoch");
        };
        let offset = value.get("offset").and_then(JsonValue::as_u64).unwrap_or(0);
        let current = self.store.epoch();
        if have >= current {
            // Caught up (or ahead of us — nothing to ship either way).
            return ok_result(|result| {
                result.integer("epoch", current);
            });
        }
        let target = have + 1;
        let Some(bytes) = cached(&self.deltas, target, || {
            self.store.delta_segment(target).map(Arc::new)
        }) else {
            return wire::error_envelope(&format!("epoch {target} is not in this primary's log"));
        };
        let total = bytes.len() as u64;
        if offset > total {
            return bad_offset_envelope("delta", offset, total);
        }
        let data = b64::encode(chunk_at(&bytes, offset));
        ok_result(|result| {
            result.integer("epoch", current);
            result.integer("delta_epoch", target);
            result.integer("total", total);
            result.integer("offset", offset);
            result.string("data", &data);
        })
    }

    fn ingest(&self, value: &JsonValue) -> String {
        let Some(path) = value.get("path").and_then(JsonValue::as_str) else {
            return wire::error_envelope("repl_ingest requires 'path': a delta file or directory");
        };
        match ingest_path(&self.store, Path::new(path)) {
            Ok(report) => ok_result(|result| {
                result.integer("epoch", report.epoch);
                result.integer("ingested", report.sources.len() as u64);
            }),
            Err(error) => wire::error_envelope(&error.to_string()),
        }
    }

    fn snapshot_bytes(&self) -> (u64, Arc<Vec<u8>>) {
        let mut cached = self.snapshot.lock().expect("snapshot cache poisoned");
        let current = self.store.epoch();
        if let Some((epoch, bytes)) = cached.as_ref() {
            if *epoch == current {
                return (*epoch, Arc::clone(bytes));
            }
        }
        let (epoch, bytes) = self.store.snapshot_segment();
        let bytes = Arc::new(bytes);
        *cached = Some((epoch, Arc::clone(&bytes)));
        (epoch, bytes)
    }
}

/// The [`REPL_CHUNK`]-sized window of `bytes` starting at `offset`,
/// clamped so **no offset can panic the worker thread**: anything past
/// the end (including offsets that do not fit in `usize`) yields an
/// empty slice.
fn chunk_at(bytes: &[u8], offset: u64) -> &[u8] {
    let start = usize::try_from(offset)
        .unwrap_or(usize::MAX)
        .min(bytes.len());
    let end = start.saturating_add(REPL_CHUNK).min(bytes.len());
    &bytes[start..end]
}

/// The typed refusal for an out-of-range chunk offset: `error` is the
/// fixed token `bad_offset` (clients dispatch without parsing prose),
/// `kind` names the transfer, and `offset`/`total` carry the numbers a
/// follower needs to log or resync.
fn bad_offset_envelope(kind: &str, offset: u64, total: u64) -> String {
    format!(
        "{{\"ok\": false, \"error\": \"bad_offset\", \"kind\": \"{kind}\", \
         \"offset\": {offset}, \"total\": {total}}}"
    )
}

/// Ingest one `.delta` file — or every `*.delta` in a directory, in
/// name order — into the store. The churn entry point behind
/// `repl_ingest` and `vendor-queryd --ingest`-style flows.
pub fn ingest_path(store: &Store, path: &Path) -> Result<IngestReport, StoreError> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path)? {
            let file = entry?.path();
            if file.extension().is_some_and(|ext| ext == "delta") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    if files.is_empty() {
        return Err(StoreError::Ingest(format!(
            "no .delta files under {}",
            path.display()
        )));
    }
    let mut deltas = Vec::with_capacity(files.len());
    for file in &files {
        deltas.push(SnapshotDelta::from_bytes(&std::fs::read(file)?)?);
    }
    store.ingest_many(deltas)
}

/// The follower's blocking client to a primary's serving port.
///
/// Replies carrying base64 payloads exceed the 64 KiB request frame
/// cap, so the client reads whole lines through a [`BufReader`] — the
/// cap applies only to what clients *send*. The connection is lazy and
/// self-healing: the first request after an I/O error reconnects once.
pub struct ReplClient {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

/// What `repl_status` reports about a primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimaryStatus {
    /// The primary's applied epoch.
    pub epoch: u64,
    /// Size of the primary's current snapshot segment in raw bytes.
    pub snapshot_bytes: u64,
}

/// One epoch as a follower received it from `repl_segment`, ready for
/// [`Store::apply_segment`].
#[derive(Debug, Clone)]
pub struct ShippedSegment {
    /// The primary's epoch when it served the last chunk.
    pub primary_epoch: u64,
    /// The epoch this segment advances a follower to.
    pub epoch: u64,
    /// The primary's sealed segment file, with the whole-file FNV the
    /// reply header carried (verified when the segment is applied).
    pub segment: Sealed,
    /// The apply section.
    pub apply: Vec<u8>,
}

impl ReplClient {
    /// A client for the primary at `addr` (connects lazily).
    pub fn new(addr: impl Into<String>) -> ReplClient {
        ReplClient {
            addr: addr.into(),
            conn: None,
        }
    }

    /// One round trip: the primary's reply line, unparsed.
    fn exchange(&mut self, line: &str) -> Result<String, StoreError> {
        for attempt in 0..2 {
            if self.conn.is_none() {
                let stream = TcpStream::connect(&self.addr)
                    .map_err(|error| StoreError::Io(error.to_string()))?;
                let _ = stream.set_nodelay(true);
                self.conn = Some(BufReader::with_capacity(REPLY_BUFFER, stream));
            }
            let reader = self.conn.as_mut().expect("connection just established");
            let exchange = (|| -> std::io::Result<String> {
                let mut stream = reader.get_ref();
                stream.write_all(line.as_bytes())?;
                stream.write_all(b"\n")?;
                let mut reply = String::new();
                if reader.read_line(&mut reply)? == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "primary closed the connection",
                    ));
                }
                Ok(reply)
            })();
            match exchange {
                Ok(reply) => return Ok(reply),
                Err(error) => {
                    // Stale connection (primary restarted, idle
                    // eviction): reconnect once, then give up.
                    self.conn = None;
                    if attempt == 1 {
                        return Err(StoreError::Io(error.to_string()));
                    }
                }
            }
        }
        unreachable!("request loop returns within two attempts")
    }

    fn request(&mut self, line: &str) -> Result<JsonValue, StoreError> {
        result_of(&self.exchange(line)?)
    }

    /// Ask the primary for its epoch and snapshot size.
    pub fn status(&mut self) -> Result<PrimaryStatus, StoreError> {
        let result = self.request(r#"{"query": "repl_status"}"#)?;
        Ok(PrimaryStatus {
            epoch: field_u64(&result, "epoch")?,
            snapshot_bytes: field_u64(&result, "snapshot_bytes")?,
        })
    }

    /// Fetch the primary's full snapshot segment, resumably: progress
    /// is appended to `scratch` (8-byte epoch header + raw bytes), so
    /// a follower killed mid-sync resumes where it left off. If the
    /// primary's epoch moves mid-transfer, the partial is discarded
    /// and the sync restarts — each chunk names its epoch, which is
    /// what makes a torn transfer *detectable* before the section
    /// checksums would even see it. Returns the validated-length raw
    /// store bytes; the caller decodes them with [`Store::from_bytes`]
    /// (whose checksums are the final integrity gate) and removes
    /// `scratch` once the bytes are trusted.
    pub fn sync_snapshot(&mut self, scratch: &Path) -> Result<Vec<u8>, StoreError> {
        let mut epoch: Option<u64> = None;
        let mut partial: Vec<u8> = Vec::new();
        if let Ok(existing) = std::fs::read(scratch) {
            if existing.len() >= 8 {
                let mut header = [0u8; 8];
                header.copy_from_slice(&existing[..8]);
                epoch = Some(u64::from_le_bytes(header));
                partial = existing[8..].to_vec();
            }
        }
        loop {
            let offset = partial.len() as u64;
            let result = self.request(&format!(
                r#"{{"query": "repl_snapshot", "offset": {offset}}}"#
            ))?;
            let remote = field_u64(&result, "epoch")?;
            if epoch != Some(remote) {
                // Fresh sync, or the primary ingested mid-transfer:
                // restart against the new epoch.
                let restart = !partial.is_empty();
                epoch = Some(remote);
                partial.clear();
                std::fs::write(scratch, remote.to_le_bytes())?;
                if restart {
                    continue;
                }
            }
            let total = field_u64(&result, "total")?;
            let data = result.get("data").and_then(JsonValue::as_str).unwrap_or("");
            let chunk = b64::decode(data).map_err(StoreError::Replication)?;
            if offset + chunk.len() as u64 > total {
                return Err(StoreError::Replication(format!(
                    "snapshot chunk overruns: {offset} + {} > {total}",
                    chunk.len()
                )));
            }
            if !chunk.is_empty() {
                let mut file = std::fs::OpenOptions::new().append(true).open(scratch)?;
                file.write_all(&chunk)?;
            }
            partial.extend_from_slice(&chunk);
            if partial.len() as u64 >= total {
                return Ok(partial);
            }
            if chunk.is_empty() {
                return Err(StoreError::Replication(
                    "snapshot transfer stalled: empty chunk before end".to_string(),
                ));
            }
        }
    }

    /// Fetch the delta that advances a follower past epoch `have`:
    /// `Ok(Some((epoch, bytes)))` with the serialized delta file, or
    /// `Ok(None)` when the primary has nothing newer.
    pub fn fetch_delta(&mut self, have: u64) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        let mut segment: Vec<u8> = Vec::new();
        let mut target: Option<u64> = None;
        loop {
            let offset = segment.len() as u64;
            let result = self.request(&format!(
                r#"{{"query": "repl_delta", "have": {have}, "offset": {offset}}}"#
            ))?;
            let Some(epoch) = result.get("delta_epoch").and_then(JsonValue::as_u64) else {
                return if segment.is_empty() {
                    Ok(None) // caught up
                } else {
                    Err(StoreError::Replication(
                        "primary dropped a delta mid-transfer".to_string(),
                    ))
                };
            };
            match target {
                None => target = Some(epoch),
                Some(expected) if expected != epoch => {
                    return Err(StoreError::Replication(format!(
                        "delta transfer torn: epoch {expected} became {epoch}"
                    )));
                }
                Some(_) => {}
            }
            let total = field_u64(&result, "total")?;
            let data = result.get("data").and_then(JsonValue::as_str).unwrap_or("");
            let chunk = b64::decode(data).map_err(StoreError::Replication)?;
            segment.extend_from_slice(&chunk);
            if segment.len() as u64 >= total {
                return Ok(Some((epoch, segment)));
            }
            if chunk.is_empty() {
                return Err(StoreError::Replication(
                    "delta transfer stalled: empty chunk before end".to_string(),
                ));
            }
        }
    }

    /// Fetch the shipment that advances a follower past epoch `have`
    /// (`Ok(None)` when the primary has nothing newer). A typical epoch
    /// is one round trip; a larger one arrives in offset-addressed
    /// chunks, each of which must describe the same shipment.
    pub fn fetch_segment(&mut self, have: u64) -> Result<Option<ShippedSegment>, StoreError> {
        let mut payload: Vec<u8> = Vec::new();
        let mut shape: Option<[u64; 4]> = None;
        loop {
            let offset = payload.len() as u64;
            let reply = self.exchange(&format!(
                r#"{{"query": "repl_segment", "have": {have}, "offset": {offset}}}"#
            ))?;
            let (result, data) = split_payload(&reply)?;
            let primary_epoch = field_u64(&result, "epoch")?;
            let Some(epoch) = result.get("delta_epoch").and_then(JsonValue::as_u64) else {
                return if payload.is_empty() {
                    Ok(None) // caught up
                } else {
                    Err(StoreError::Replication(
                        "primary dropped a segment mid-transfer".to_string(),
                    ))
                };
            };
            let fnv = result
                .get("fnv")
                .and_then(JsonValue::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| StoreError::Replication("reply missing hex field 'fnv'".into()))?;
            let this = [
                epoch,
                field_u64(&result, "total")?,
                field_u64(&result, "segment")?,
                fnv,
            ];
            if *shape.get_or_insert(this) != this {
                return Err(StoreError::Replication(format!(
                    "segment transfer torn: {:?} became {this:?}",
                    shape.expect("set above")
                )));
            }
            let [_, total, segment, _] = this;
            b64::decode_into(data, &mut payload).map_err(StoreError::Replication)?;
            let received = payload.len() as u64;
            if received > total || segment > total {
                return Err(StoreError::Replication(format!(
                    "segment payload overruns: {received} bytes, segment {segment}, total {total}"
                )));
            }
            if received == total {
                let apply = payload.split_off(segment as usize);
                return Ok(Some(ShippedSegment {
                    primary_epoch,
                    epoch,
                    segment: Sealed {
                        bytes: payload,
                        checksum: fnv,
                    },
                    apply,
                }));
            }
            if data.is_empty() {
                return Err(StoreError::Replication(
                    "segment transfer stalled: empty chunk before end".to_string(),
                ));
            }
        }
    }
}

/// A reply's `result`, moved out, when its `ok` is true; the primary's
/// refusal as an error otherwise.
fn result_of(reply: &str) -> Result<JsonValue, StoreError> {
    let value = parse(reply.trim())
        .map_err(|error| StoreError::Replication(format!("unparseable reply: {error:?}")))?;
    if value.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        let message = value
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown error");
        return Err(StoreError::Replication(format!(
            "primary refused: {message}"
        )));
    }
    value
        .into_field("result")
        .ok_or_else(|| StoreError::Replication("ok reply without a result".to_string()))
}

/// Split a `repl_segment` reply into its parsed header and its base64
/// payload. The payload is the reply's last field and the header holds
/// only numbers and a hex string, so the first [`DATA_FIELD`] is the
/// payload's key: the tree parser sees the header alone. A reply
/// without a payload (caught up, refused) is parsed whole.
fn split_payload(reply: &str) -> Result<(JsonValue, &str), StoreError> {
    let reply = reply.trim_end();
    let Some(at) = reply.find(DATA_FIELD) else {
        return Ok((result_of(reply)?, ""));
    };
    let data = reply[at + DATA_FIELD.len()..]
        .strip_suffix("\"}")
        .ok_or_else(|| StoreError::Replication("unterminated segment payload".to_string()))?;
    Ok((result_of(&format!("{}}}", &reply[..at]))?, data))
}

/// One follower poll step: fetch and apply every epoch the primary has
/// past the store's, one `repl_segment` shipment each, through
/// [`Store::apply_segment`] (checksums and cross-checks → the shared
/// commit → atomic engine swap — byte-identical to a local ingest of
/// the same delta). Returns how many epochs the store advanced.
pub fn follow_once(client: &mut ReplClient, store: &Store) -> Result<u64, StoreError> {
    follow(client, store, None)
}

/// [`follow_once`] with **incremental durability**: after each applied
/// epoch the store is saved into the segmented log at `dir`, which
/// seals exactly one new segment file — the primary's own bytes, as
/// shipped. A follower killed between epochs restarts from the last
/// sealed one and re-fetches only what it missed.
pub fn follow_once_persistent(
    client: &mut ReplClient,
    store: &Store,
    dir: &Path,
) -> Result<u64, StoreError> {
    follow(client, store, Some(dir))
}

/// The step both follower loops run: apply, seal when a log directory
/// is given, and stop once the applied epoch is the primary's.
fn follow(client: &mut ReplClient, store: &Store, dir: Option<&Path>) -> Result<u64, StoreError> {
    let mut advanced = 0;
    while let Some(shipped) = client.fetch_segment(store.epoch())? {
        let report = store.apply_segment(shipped.segment, &shipped.apply)?;
        if report.epoch != shipped.epoch {
            return Err(StoreError::Replication(format!(
                "applied segment landed at epoch {} but primary shipped it as {}",
                report.epoch, shipped.epoch
            )));
        }
        if let Some(dir) = dir {
            store.save_segmented(dir)?;
        }
        advanced += 1;
        if shipped.epoch >= shipped.primary_epoch {
            break;
        }
    }
    Ok(advanced)
}

fn field_u64(value: &JsonValue, key: &str) -> Result<u64, StoreError> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| StoreError::Replication(format!("reply missing u64 field '{key}'")))
}

fn ok_result(build: impl FnOnce(&mut JsonBuilder)) -> String {
    let mut result = JsonBuilder::object();
    build(&mut result);
    format!("{{\"ok\": true, \"result\": {}}}", result.finish())
}

/// Minimal standard-alphabet base64 (std-only; segments must cross the
/// line-delimited JSON wire, so raw bytes need a text armor).
pub mod b64 {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

    /// Encode bytes as padded base64. Every whole 3-byte group becomes
    /// one 4-byte store into a buffer sized up front; a primary encodes
    /// each payload it ships, once per chunk, on its serving threads.
    pub fn encode(bytes: &[u8]) -> String {
        let mut out = String::new();
        encode_into(bytes, &mut out);
        out
    }

    /// [`encode`], appended to `out`.
    pub(crate) fn encode_into(bytes: &[u8], out: &mut String) {
        let quad =
            |triple: u32| [18, 12, 6, 0].map(|shift| ALPHABET[(triple >> shift) as usize & 63]);
        let mut buffer = std::mem::take(out).into_bytes();
        let start = buffer.len();
        buffer.resize(start + bytes.len().div_ceil(3) * 4, 0);
        let encoded = &mut buffer[start..];
        let groups = bytes.chunks_exact(3);
        let tail = groups.remainder();
        for (slot, group) in encoded.chunks_exact_mut(4).zip(groups) {
            let triple = u32::from(group[0]) << 16 | u32::from(group[1]) << 8 | u32::from(group[2]);
            slot.copy_from_slice(&quad(triple));
        }
        if !tail.is_empty() {
            let triple =
                u32::from(tail[0]) << 16 | tail.get(1).map_or(0, |&byte| u32::from(byte) << 8);
            let mut last = quad(triple);
            last[3] = b'=';
            if tail.len() == 1 {
                last[2] = b'=';
            }
            let at = encoded.len() - 4;
            encoded[at..].copy_from_slice(&last);
        }
        *out = String::from_utf8(buffer).expect("the base64 alphabet is ASCII");
    }

    /// Decode padded base64; rejects bad lengths, bytes outside the
    /// alphabet and misplaced padding.
    pub fn decode(text: &str) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        decode_into(text, &mut out)?;
        Ok(out)
    }

    /// [`decode`], appended to `out`.
    pub(crate) fn decode_into(text: &str, out: &mut Vec<u8>) -> Result<(), String> {
        let bytes = text.as_bytes();
        if !bytes.len().is_multiple_of(4) {
            return Err(format!("base64 length {} not a multiple of 4", bytes.len()));
        }
        let quads = bytes.len() / 4;
        out.reserve(quads * 3);
        for (index, quad) in bytes.chunks_exact(4).enumerate() {
            let [a, b, c, d] = [0, 1, 2, 3].map(|at| SEXTETS[usize::from(quad[at])]);
            if (a | b | c | d) & NOT_BASE64 == 0 {
                let triple = u32::from(a) << 18 | u32::from(b) << 12 | u32::from(c) << 6;
                out.extend_from_slice(&(triple | u32::from(d)).to_be_bytes()[1..]);
                continue;
            }
            // Padding, or a byte outside the alphabet.
            let pads = quad.iter().rev().take_while(|&&byte| byte == b'=').count();
            if pads > 2 || (pads > 0 && index + 1 != quads) {
                return Err("misplaced base64 padding".to_string());
            }
            let mut triple = 0u32;
            for &byte in &quad[..4 - pads] {
                let sextet = SEXTETS[usize::from(byte)];
                if sextet == NOT_BASE64 {
                    return Err(format!("byte {byte:#04x} outside the base64 alphabet"));
                }
                triple = triple << 6 | u32::from(sextet);
            }
            triple <<= 6 * pads;
            out.extend_from_slice(&triple.to_be_bytes()[1..4 - pads]);
        }
        Ok(())
    }

    /// [`SEXTETS`] entry of a byte outside the alphabet: a bit no
    /// sextet has, so one test covers a whole quad.
    const NOT_BASE64: u8 = 0x80;

    /// Each byte's value in the alphabet.
    const SEXTETS: [u8; 256] = {
        let mut table = [NOT_BASE64; 256];
        let mut value = 0;
        while value < ALPHABET.len() {
            table[ALPHABET[value] as usize] = value as u8;
            value += 1;
        }
        table
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_round_trips_every_tail_length() {
        for len in 0..64usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let encoded = b64::encode(&bytes);
            assert_eq!(encoded.len() % 4, 0);
            assert_eq!(b64::decode(&encoded).expect("round trip"), bytes);
        }
        // RFC 4648's test vectors pin the wire spelling.
        for (plain, armored) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(b64::encode(plain.as_bytes()), armored);
            assert_eq!(b64::decode(armored).expect("vector"), plain.as_bytes());
        }
    }

    #[test]
    fn delta_cache_stays_bounded_across_a_hundred_epochs() {
        let mut cache = BoundedCache::default();
        for epoch in 1..=100u64 {
            cache.insert(epoch, Arc::new(vec![epoch as u8]));
            assert!(
                cache.len() <= DELTA_CACHE_CAP,
                "cache grew to {} at epoch {epoch}",
                cache.len()
            );
        }
        // LRU shape: the newest CAP epochs are resident, older ones
        // were evicted; a hit refreshes recency.
        assert_eq!(cache.len(), DELTA_CACHE_CAP);
        assert!(cache.get(100 - DELTA_CACHE_CAP as u64).is_none());
        assert!(cache.get(100).is_some());
        assert!(cache.get(93).is_some());
        cache.insert(101, Arc::new(vec![0]));
        assert!(cache.get(93).is_some(), "recently-hit epoch survives");
        assert!(cache.get(94).is_none(), "cold epoch was the evictee");
    }

    #[test]
    fn hostile_chunk_offsets_clamp_instead_of_panicking() {
        let bytes = vec![1u8; 10];
        assert_eq!(chunk_at(&bytes, 0), &bytes[..]);
        assert_eq!(chunk_at(&bytes, 9), &bytes[9..]);
        assert!(chunk_at(&bytes, 10).is_empty());
        assert!(chunk_at(&bytes, 11).is_empty());
        assert!(chunk_at(&bytes, u64::MAX).is_empty());
        let envelope = bad_offset_envelope("delta", u64::MAX, 10);
        assert!(envelope.contains("\"bad_offset\""));
        assert!(envelope.contains(&u64::MAX.to_string()));
    }

    #[test]
    fn base64_rejects_hostile_input() {
        assert!(b64::decode("abc").is_err(), "bad length");
        assert!(b64::decode("ab!d").is_err(), "bad byte");
        assert!(b64::decode("a===").is_err(), "triple padding");
        assert!(b64::decode("ab==cd==").is_err(), "padding mid-stream");
        assert_eq!(b64::decode("").expect("empty ok"), Vec::<u8>::new());
    }
}
