//! The line protocol: one JSON query per line in, one JSON result per
//! line out.
//!
//! ## Request grammar
//!
//! Every request is a single-line JSON object with a `"query"` field
//! naming the question; remaining fields parameterise it. Unknown fields
//! are **rejected** (a typo'd filter silently selecting everything is
//! worse than an error).
//!
//! | `"query"` | fields |
//! |---|---|
//! | `vendor_mix` | `as` *or* `region` (`AF AS EU NA OC SA`); optional `method` (`lfp`\|`snmp`, default `lfp`) |
//! | `path_diversity` | required `src_as`, `dst_as`; optional filters |
//! | `transitions` | optional filters |
//! | `longest_runs` | optional filters |
//! | `catalog` | — |
//!
//! Optional filters on the path queries: `src_as`, `dst_as` (AS
//! numbers), `source` (dataset name from the catalog), `min_hops`,
//! `max_hops` (router-hop bounds), `slice`
//! (`intra-us`\|`inter-us`\|`other`).
//!
//! Every kind additionally accepts an optional `epoch` field (u64): the
//! serving-epoch tag `Query::canonical_at` appends to echoed queries.
//! Requests are always answered at the daemon's current epoch, so the
//! value is validated and otherwise ignored — it exists so an echoed
//! canonical form replays verbatim.
//!
//! `min_epoch` (u64, optional on every kind) is the *fencing* field and
//! is **not** advisory: a daemon whose applied epoch is below
//! `min_epoch` answers `{"ok": false, "error": "stale_epoch",
//! "have": H, "want": W}` instead of silently serving older data. A
//! client that read epoch `E` from one replica can demand
//! `"min_epoch": E` from any other and either gets an answer at least
//! that fresh or a typed refusal it can retry after the replica
//! catches up (see [`stale_epoch_envelope`] / [`stale_epoch_of`]).
//!
//! ## Responses
//!
//! `{"ok": true, "cached": …, "query": <canonical echo>, "result": …}`
//! on success, `{"ok": false, "error": "…"}` otherwise. The echoed
//! canonical form is itself a valid request (and the result-cache key).
//!
//! ## Decoding on the loop
//!
//! Two decoders read the request grammar. [`decode`] / [`decode_value`]
//! parse a [`JsonValue`] tree first and check it field by field; they
//! are the reference, and the only place error messages are worded.
//! [`decode_to_key`] is the serving loop's single pass: it reads the line
//! once, with no tree, and writes the epoch-tagged cache key
//! ([`Query::write_canonical`]) into a reused buffer the cache probe
//! borrows.
//!
//! The single pass **decides** a line only when it is sure the tree
//! would accept it with the same query and `min_epoch`. That means a flat
//! object whose values are all
//!
//! * strings with no `\` escape and no raw control character, or
//! * plain non-negative integers of at most 15 digits with no leading
//!   zero, fraction or exponent — exactly the spellings on which integer
//!   parsing and the tree's `f64` agree,
//!
//! and that passes every rule [`decode_value`] enforces: known field
//! names only, each at most once; the kind's allowed fields; the u32 and
//! u16 ranges; the names of `slice`, `region` and `method`; `as` xor
//! `region`; `path_diversity`'s two endpoints; `min_hops ≤ max_hops`.
//!
//! Everything else is **undecided** and the caller runs the tree decoder
//! on the same line: any escape, any other number spelling, `null`,
//! arrays, and every line either decoder would reject. So the single pass
//! never produces an error itself. An error reply is always worded by the
//! tree decoder, and error bytes cannot differ between the two paths.
//! `tests/line_decoder.rs` checks that every decided line is one the
//! tree accepts with the same query, floor and key.

use crate::engine::Response;
use crate::query::{method_by_name, region_by_abbrev, slice_by_name, Query, Selection};
use lfp_analysis::json::{escape, parse, JsonValue};
use lfp_analysis::path_corpus::LabelSource;
use std::collections::{HashSet, VecDeque};

/// Default upper bound on one request frame. Far above any legal query,
/// far below anything that could pressure memory.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// A typed framing failure. Framing errors are *per frame*: the decoder
/// resynchronises at the next newline, so one hostile line never
/// poisons the frames behind it (callers may still choose to hang up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The line (excluding its terminator) exceeded the decoder limit.
    /// The oversized bytes were discarded, never buffered.
    TooLong {
        /// The decoder's frame limit in bytes.
        limit: usize,
    },
    /// The line is not valid UTF-8.
    InvalidUtf8,
    /// The line contains a NUL byte (valid UTF-8, but no JSON query
    /// ever carries one — a classic smuggling vector).
    NulByte,
    /// End of stream with a partial, unterminated frame buffered.
    Unterminated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            FrameError::InvalidUtf8 => write!(f, "request line is not valid UTF-8"),
            FrameError::NulByte => write!(f, "request line contains a NUL byte"),
            FrameError::Unterminated => write!(f, "connection ended mid-request"),
        }
    }
}

/// An incremental decoder for the newline-delimited request framing.
///
/// The blocking daemon consumed whole `BufRead` lines; an event-driven
/// server sees arbitrary byte chunks instead — half a frame, three
/// frames and a tail, a frame split at every possible boundary. `feed`
/// accepts chunks exactly as they come off the socket and
/// [`next_frame`](FrameDecoder::next_frame) yields complete frames in
/// order, each either a line (terminator stripped) or a typed
/// [`FrameError`].
///
/// **Memory bound:** at most `limit` bytes of one partial frame are ever
/// buffered. An overlong frame flips the decoder into a discard state
/// that drops bytes until the next newline, then reports one
/// [`FrameError::TooLong`] — so a client streaming an endless line costs
/// `limit` bytes, not memory proportional to what it sends.
///
/// **Equivalence:** for a valid byte stream (every line terminated,
/// within the limit, UTF-8, NUL-free) the decoded frames are
/// byte-identical to splitting the whole stream on `\n` — regardless of
/// how the stream is chunked (property-tested in
/// `tests/frame_decoder.rs`).
#[derive(Debug)]
pub struct FrameDecoder {
    /// Bytes of the current, still-unterminated frame (≤ `limit`).
    partial: Vec<u8>,
    /// Complete frames decoded but not yet taken.
    frames: VecDeque<Result<String, FrameError>>,
    limit: usize,
    /// Inside an overlong frame: drop bytes until the next newline.
    discarding: bool,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder with the protocol default frame limit.
    pub fn new() -> FrameDecoder {
        Self::with_limit(MAX_FRAME_BYTES)
    }

    /// A decoder with an explicit frame limit (tests and torture rigs
    /// shrink it to provoke the overflow path cheaply).
    pub fn with_limit(limit: usize) -> FrameDecoder {
        FrameDecoder {
            partial: Vec::new(),
            frames: VecDeque::new(),
            limit,
            discarding: false,
        }
    }

    /// The decoder's frame limit in bytes.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Bytes of partial frame currently buffered (always ≤ `limit`).
    pub fn buffered(&self) -> usize {
        self.partial.len()
    }

    /// Complete frames ready to take.
    pub fn pending(&self) -> usize {
        self.frames.len()
    }

    /// Absorb one chunk exactly as it came off the socket.
    pub fn feed(&mut self, chunk: &[u8]) {
        let mut rest = chunk;
        while let Some(newline) = rest.iter().position(|&byte| byte == b'\n') {
            let (segment, tail) = rest.split_at(newline);
            rest = &tail[1..];
            if self.discarding {
                // The newline ends the oversized frame; report it once
                // and resynchronise.
                self.discarding = false;
                self.frames
                    .push_back(Err(FrameError::TooLong { limit: self.limit }));
                continue;
            }
            if self.partial.len() + segment.len() > self.limit {
                self.partial.clear();
                self.frames
                    .push_back(Err(FrameError::TooLong { limit: self.limit }));
                continue;
            }
            self.partial.extend_from_slice(segment);
            let line = std::mem::take(&mut self.partial);
            self.frames.push_back(Self::validate(line));
        }
        if self.discarding {
            return; // Still inside the oversized frame: drop the tail.
        }
        if self.partial.len() + rest.len() > self.limit {
            // The frame already exceeds the limit with no newline in
            // sight: stop buffering it at all.
            self.partial.clear();
            self.discarding = true;
            return;
        }
        self.partial.extend_from_slice(rest);
    }

    /// Take the next complete frame, if one is ready.
    pub fn next_frame(&mut self) -> Option<Result<String, FrameError>> {
        self.frames.pop_front()
    }

    /// Signal end of stream. A cleanly terminated stream yields `None`;
    /// a buffered partial (or discarded overlong) frame yields its typed
    /// error. Idempotent.
    pub fn finish(&mut self) -> Option<FrameError> {
        if self.discarding {
            self.discarding = false;
            return Some(FrameError::TooLong { limit: self.limit });
        }
        if !self.partial.is_empty() {
            self.partial.clear();
            return Some(FrameError::Unterminated);
        }
        None
    }

    fn validate(line: Vec<u8>) -> Result<String, FrameError> {
        if line.contains(&0) {
            return Err(FrameError::NulByte);
        }
        String::from_utf8(line).map_err(|_| FrameError::InvalidUtf8)
    }
}

/// Decode one protocol line into a query.
pub fn decode(line: &str) -> Result<Query, String> {
    let value = parse(line.trim()).map_err(|error| format!("invalid JSON: {error}"))?;
    decode_value(&value)
}

/// Decode an already-parsed request object.
pub fn decode_value(value: &JsonValue) -> Result<Query, String> {
    let fields = value
        .as_object()
        .ok_or_else(|| "request must be a JSON object".to_string())?;
    // Strictness extends to duplicates: `JsonValue::get` would silently
    // answer from the first occurrence and drop the second. Either way
    // the first repeat in document order is reported.
    if let Some(name) = first_repeat(fields) {
        return Err(format!("duplicate field '{name}'"));
    }
    let kind = value
        .get("query")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing string field \"query\"".to_string())?;
    let allowed = match kind {
        "vendor_mix" => VENDOR_MIX_FIELDS,
        "path_diversity" | "transitions" | "longest_runs" => PATH_FIELDS,
        "catalog" => CATALOG_FIELDS,
        other => {
            return Err(format!(
                "unknown query kind '{other}' (try vendor_mix, path_diversity, transitions, \
                 longest_runs, catalog)"
            ))
        }
    };
    for (name, _) in fields {
        if field_slot(name).is_none_or(|slot| allowed & (1 << slot) == 0) {
            return Err(format!("unknown field '{name}' for query '{kind}'"));
        }
    }
    // The `epoch` field marks which serving epoch an echoed canonical
    // form came from (see `Query::canonical_at`). Replays are answered
    // at the *current* epoch, so the value is validated but not kept.
    if let Some(field) = value.get("epoch") {
        field
            .as_u64()
            .ok_or_else(|| "field 'epoch' must be an epoch id (u64)".to_string())?;
    }
    // `min_epoch` is the fencing floor (see the module docs). Decoding
    // only validates it; enforcement happens in the serving layer,
    // which compares it against the engine actually answering.
    if let Some(field) = value.get("min_epoch") {
        field
            .as_u64()
            .ok_or_else(|| "field 'min_epoch' must be an epoch id (u64)".to_string())?;
    }
    match kind {
        "vendor_mix" => decode_vendor_mix(value),
        "path_diversity" => {
            let selection = decode_selection(value)?;
            if selection.src_as.is_none() || selection.dst_as.is_none() {
                return Err("path_diversity requires both src_as and dst_as".to_string());
            }
            Ok(Query::PathDiversity { selection })
        }
        "transitions" => Ok(Query::Transitions {
            selection: decode_selection(value)?,
        }),
        "longest_runs" => Ok(Query::LongestRuns {
            selection: decode_selection(value)?,
        }),
        "catalog" => Ok(Query::Catalog),
        _ => unreachable!("kind vetted above"),
    }
}

/// The first field name that repeats an earlier one, in document order.
/// One hashed pass, so a frame packed with thousands of fields stays
/// linear on the serving loop.
fn first_repeat(fields: &[(String, JsonValue)]) -> Option<&str> {
    let mut seen = HashSet::with_capacity(fields.len());
    fields
        .iter()
        .map(|(name, _)| name.as_str())
        .find(|name| !seen.insert(*name))
}

fn decode_vendor_mix(value: &JsonValue) -> Result<Query, String> {
    let method = match value.get("method") {
        None => LabelSource::Lfp,
        Some(field) => {
            let name = field
                .as_str()
                .ok_or_else(|| "field 'method' must be a string".to_string())?;
            method_by_name(name).ok_or_else(|| format!("unknown method '{name}' (lfp or snmp)"))?
        }
    };
    match (value.get("as"), value.get("region")) {
        (Some(as_field), None) => Ok(Query::VendorMixAs {
            as_id: decode_as_number(as_field, "as")?,
            method,
        }),
        (None, Some(region_field)) => {
            let abbrev = region_field
                .as_str()
                .ok_or_else(|| "field 'region' must be a string".to_string())?;
            let region = region_by_abbrev(abbrev)
                .ok_or_else(|| format!("unknown region '{abbrev}' (AF AS EU NA OC SA)"))?;
            Ok(Query::VendorMixRegion { region, method })
        }
        (Some(_), Some(_)) => Err("vendor_mix takes 'as' or 'region', not both".to_string()),
        (None, None) => Err("vendor_mix requires 'as' or 'region'".to_string()),
    }
}

fn decode_selection(value: &JsonValue) -> Result<Selection, String> {
    let mut selection = Selection::default();
    if let Some(field) = value.get("src_as") {
        selection.src_as = Some(decode_as_number(field, "src_as")?);
    }
    if let Some(field) = value.get("dst_as") {
        selection.dst_as = Some(decode_as_number(field, "dst_as")?);
    }
    if let Some(field) = value.get("source") {
        selection.source = Some(
            field
                .as_str()
                .ok_or_else(|| "field 'source' must be a string".to_string())?
                .to_string(),
        );
    }
    if let Some(field) = value.get("min_hops") {
        selection.min_hops = Some(decode_hops(field, "min_hops")?);
    }
    if let Some(field) = value.get("max_hops") {
        selection.max_hops = Some(decode_hops(field, "max_hops")?);
    }
    if let (Some(min), Some(max)) = (selection.min_hops, selection.max_hops) {
        if min > max {
            return Err(format!("min_hops {min} exceeds max_hops {max}"));
        }
    }
    if let Some(field) = value.get("slice") {
        let name = field
            .as_str()
            .ok_or_else(|| "field 'slice' must be a string".to_string())?;
        selection.slice = Some(
            slice_by_name(name)
                .ok_or_else(|| format!("unknown slice '{name}' (intra-us, inter-us, other)"))?,
        );
    }
    Ok(selection)
}

fn decode_as_number(field: &JsonValue, name: &str) -> Result<u32, String> {
    field
        .as_u64()
        .filter(|&value| value <= u64::from(u32::MAX))
        .map(|value| value as u32)
        .ok_or_else(|| format!("field '{name}' must be an AS number (u32)"))
}

fn decode_hops(field: &JsonValue, name: &str) -> Result<u16, String> {
    field
        .as_u64()
        .filter(|&value| value <= u64::from(u16::MAX))
        .map(|value| value as u16)
        .ok_or_else(|| format!("field '{name}' must be a hop count (u16)"))
}

/// A request line [`decode_to_key`] decided: what the tree decoder would
/// have returned for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The query ([`decode_value`]'s result).
    pub query: Query,
    /// The fencing floor ([`min_epoch_of`]'s result).
    pub min_epoch: Option<u64>,
}

/// Decode one protocol line in a single pass, and write its cache key
/// into `key` in place of what it held: the query's canonical form at
/// `epoch`, by [`Query::write_canonical`]. `None` means undecided. The
/// caller then runs the tree decoder on the same line, which either
/// accepts it or words the error (see "Decoding on the loop" in the
/// module docs). After `None`, `key` holds unspecified text.
pub fn decode_to_key(line: &str, epoch: u64, key: &mut String) -> Option<Decoded> {
    let decoded = LineFields::scan(line)?.decode()?;
    key.clear();
    decoded.query.write_canonical(Some(epoch), key);
    Some(decoded)
}

/// One field value the single pass accepts.
#[derive(Debug, Clone, Copy)]
enum Scalar<'a> {
    /// A plain integer: 1–15 digits, no leading zero, sign, fraction or
    /// exponent.
    Int(u64),
    /// A string with no escape and no raw control character.
    Str(&'a str),
}

/// Digits a decided integer may have: every integer below 10^15 is
/// exact in the tree decoder's `f64`, so both decoders read one value.
const MAX_DIGITS: usize = 15;

// Field slots, one per name in the request grammar.
const QUERY: usize = 0;
const AS: usize = 1;
const REGION: usize = 2;
const METHOD: usize = 3;
const SRC_AS: usize = 4;
const DST_AS: usize = 5;
const SOURCE: usize = 6;
const MIN_HOPS: usize = 7;
const MAX_HOPS: usize = 8;
const SLICE: usize = 9;
const EPOCH: usize = 10;
const MIN_EPOCH: usize = 11;
const FIELD_SLOTS: usize = 12;

/// The slot of a field name, `None` for a name outside the grammar.
fn field_slot(name: &str) -> Option<usize> {
    Some(match name {
        "query" => QUERY,
        "as" => AS,
        "region" => REGION,
        "method" => METHOD,
        "src_as" => SRC_AS,
        "dst_as" => DST_AS,
        "source" => SOURCE,
        "min_hops" => MIN_HOPS,
        "max_hops" => MAX_HOPS,
        "slice" => SLICE,
        "epoch" => EPOCH,
        "min_epoch" => MIN_EPOCH,
        _ => return None,
    })
}

/// The bit mask with one bit set per slot.
const fn mask(slots: &[usize]) -> u16 {
    let mut bits = 0;
    let mut index = 0;
    while index < slots.len() {
        bits |= 1 << slots[index];
        index += 1;
    }
    bits
}

// The fields each kind allows: the one table both `decode_value` and the
// single pass check field names against.
const CATALOG_FIELDS: u16 = mask(&[QUERY, EPOCH, MIN_EPOCH]);
const VENDOR_MIX_FIELDS: u16 = CATALOG_FIELDS | mask(&[AS, REGION, METHOD]);
const PATH_FIELDS: u16 =
    CATALOG_FIELDS | mask(&[SRC_AS, DST_AS, SOURCE, MIN_HOPS, MAX_HOPS, SLICE]);

/// A request line's fields, read in one pass with no tree. Every method
/// returns `None` for "undecided".
#[derive(Default)]
struct LineFields<'a> {
    slots: [Option<Scalar<'a>>; FIELD_SLOTS],
    /// Bit `slot` is set when that field is present.
    present: u16,
}

impl<'a> LineFields<'a> {
    /// Read a flat object of known, distinct fields with scalar values,
    /// spanning the whole line but for JSON whitespace.
    fn scan(line: &'a str) -> Option<LineFields<'a>> {
        let mut cursor = Cursor { line, pos: 0 };
        let mut fields = LineFields::default();
        cursor.skip_whitespace();
        cursor.eat(b'{')?;
        loop {
            cursor.skip_whitespace();
            let slot = field_slot(cursor.string()?)?;
            cursor.skip_whitespace();
            cursor.eat(b':')?;
            cursor.skip_whitespace();
            let value = cursor.scalar()?;
            if fields.slots[slot].replace(value).is_some() {
                return None;
            }
            fields.present |= 1 << slot;
            cursor.skip_whitespace();
            match cursor.next()? {
                b',' => {}
                b'}' => break,
                _ => return None,
            }
        }
        cursor.skip_whitespace();
        (cursor.pos == line.len()).then_some(fields)
    }

    /// The field at `slot` as an integer of type `T`: `Some(None)` when
    /// absent, `None` when it is a string or out of `T`'s range.
    fn int<T: TryFrom<u64>>(&self, slot: usize) -> Option<Option<T>> {
        match self.slots[slot] {
            None => Some(None),
            Some(Scalar::Int(value)) => T::try_from(value).ok().map(Some),
            Some(Scalar::Str(_)) => None,
        }
    }

    /// The field at `slot` as a string: `Some(None)` when absent, `None`
    /// when it is a number.
    fn text(&self, slot: usize) -> Option<Option<&'a str>> {
        match self.slots[slot] {
            None => Some(None),
            Some(Scalar::Str(text)) => Some(Some(text)),
            Some(Scalar::Int(_)) => None,
        }
    }

    /// [`decode_value`]'s rules, on the scanned fields.
    fn decode(&self) -> Option<Decoded> {
        // Absent and mistyped are both undecided here.
        let kind = self.text(QUERY)??;
        let allowed = match kind {
            "vendor_mix" => VENDOR_MIX_FIELDS,
            "path_diversity" | "transitions" | "longest_runs" => PATH_FIELDS,
            "catalog" => CATALOG_FIELDS,
            _ => return None,
        };
        if self.present & !allowed != 0 {
            return None;
        }
        self.int::<u64>(EPOCH)?;
        let min_epoch = self.int::<u64>(MIN_EPOCH)?;
        let query = match kind {
            "vendor_mix" => {
                let method = match self.text(METHOD)? {
                    None => LabelSource::Lfp,
                    Some(name) => method_by_name(name)?,
                };
                match (self.int::<u32>(AS)?, self.text(REGION)?) {
                    (Some(as_id), None) => Query::VendorMixAs { as_id, method },
                    (None, Some(abbrev)) => Query::VendorMixRegion {
                        region: region_by_abbrev(abbrev)?,
                        method,
                    },
                    _ => return None,
                }
            }
            "catalog" => Query::Catalog,
            path => {
                let selection = self.selection()?;
                match path {
                    "path_diversity" => {
                        if selection.src_as.is_none() || selection.dst_as.is_none() {
                            return None;
                        }
                        Query::PathDiversity { selection }
                    }
                    "transitions" => Query::Transitions { selection },
                    _ => Query::LongestRuns { selection },
                }
            }
        };
        Some(Decoded { query, min_epoch })
    }

    /// [`decode_selection`]'s rules, on the scanned fields.
    fn selection(&self) -> Option<Selection> {
        let min_hops = self.int::<u16>(MIN_HOPS)?;
        let max_hops = self.int::<u16>(MAX_HOPS)?;
        if let (Some(min), Some(max)) = (min_hops, max_hops) {
            if min > max {
                return None;
            }
        }
        let slice = match self.text(SLICE)? {
            None => None,
            Some(name) => Some(slice_by_name(name)?),
        };
        Some(Selection {
            src_as: self.int::<u32>(SRC_AS)?,
            dst_as: self.int::<u32>(DST_AS)?,
            source: self.text(SOURCE)?.map(str::to_string),
            min_hops,
            max_hops,
            slice,
        })
    }
}

/// The single pass's read position in a line.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let byte = self.peek()?;
        self.pos += 1;
        Some(byte)
    }

    fn eat(&mut self, byte: u8) -> Option<()> {
        (self.next()? == byte).then_some(())
    }

    /// JSON whitespace, exactly the set the tree parser skips.
    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// A string with no escape and no raw control character, borrowed
    /// from the line.
    fn string(&mut self) -> Option<&'a str> {
        self.eat(b'"')?;
        let start = self.pos;
        loop {
            match self.next()? {
                b'"' => return Some(&self.line[start..self.pos - 1]),
                b'\\' | 0x00..=0x1f => return None,
                _ => {}
            }
        }
    }

    /// A string or a plain integer. An integer's end is not checked
    /// here: whatever follows it must be whitespace, `,` or `}`, so
    /// `03`, `3.0`, `3e0` and a sixteenth digit all leave the object
    /// unterminated and the line undecided.
    fn scalar(&mut self) -> Option<Scalar<'a>> {
        match self.peek()? {
            b'"' => self.string().map(Scalar::Str),
            b'0' => {
                self.pos += 1;
                Some(Scalar::Int(0))
            }
            b'1'..=b'9' => {
                let start = self.pos;
                let mut value = 0u64;
                while let Some(digit @ b'0'..=b'9') = self.peek() {
                    if self.pos - start == MAX_DIGITS {
                        return None;
                    }
                    value = value * 10 + u64::from(digit - b'0');
                    self.pos += 1;
                }
                Some(Scalar::Int(value))
            }
            _ => None,
        }
    }
}

/// Render the success envelope for an answered query. `canonical` and
/// the response payload are already-rendered JSON and embed raw.
pub fn ok_envelope(canonical: &str, response: &Response) -> String {
    let mut line = ok_envelope_head(canonical, response.cached);
    line.push_str(&response.payload);
    line.push_str(OK_ENVELOPE_TAIL);
    line
}

/// Everything of the success envelope *before* the result payload.
/// A server that already holds the rendered payload as shared bytes
/// (`Arc<str>` out of the result cache) can write
/// `head ++ payload ++ OK_ENVELOPE_TAIL` with one vectored write instead
/// of copying the payload into a fresh `String` — the concatenation is
/// byte-identical to [`ok_envelope`] by construction.
pub fn ok_envelope_head(canonical: &str, cached: bool) -> String {
    const OPEN: &str = "{\"ok\": true, \"cached\": ";
    const QUERY: &str = ", \"query\": ";
    const RESULT: &str = ", \"result\": ";
    let flag = if cached { "true" } else { "false" };
    let mut head = String::with_capacity(
        OPEN.len() + flag.len() + QUERY.len() + canonical.len() + RESULT.len(),
    );
    head.push_str(OPEN);
    head.push_str(flag);
    head.push_str(QUERY);
    head.push_str(canonical);
    head.push_str(RESULT);
    head
}

/// Everything of the success envelope *after* the result payload.
pub const OK_ENVELOPE_TAIL: &str = "}";

/// Render the failure envelope.
pub fn error_envelope(message: &str) -> String {
    format!("{{\"ok\": false, \"error\": \"{}\"}}", escape(message))
}

/// The shared opening of every *typed* error envelope. Both string
/// slots — the error token and any free-text field spliced in after —
/// must go through [`escape`], so a hostile reason can never produce
/// an unparseable line that detection then misses.
fn typed_error_head(error: &str) -> String {
    format!("{{\"ok\": false, \"error\": \"{}\"", escape(error))
}

/// The typed error a server sheds load with. Distinct from
/// [`error_envelope`]: `error` is the fixed token `"overloaded"` (so
/// clients can dispatch on it without parsing prose), `reason` says
/// which guard fired (`"queue"`, `"deadline"`), and `retry_ms` is the
/// server's backoff hint — the client contract is to wait *at least*
/// that long, with jitter, before retrying.
pub fn overloaded_envelope(reason: &str, retry_ms: u64) -> String {
    format!(
        "{}, \"reason\": \"{}\", \"retry_ms\": {retry_ms}}}",
        typed_error_head("overloaded"),
        escape(reason)
    )
}

/// The typed fencing refusal: the daemon's applied epoch `have` is
/// below the request's `min_epoch` floor `want`, so answering would
/// silently serve stale data. Uses the same escaped envelope path as
/// [`overloaded_envelope`].
pub fn stale_epoch_envelope(have: u64, want: u64) -> String {
    format!(
        "{}, \"have\": {have}, \"want\": {want}}}",
        typed_error_head("stale_epoch")
    )
}

/// Extract the fencing floor from an already-decoded request object.
/// Call only after [`decode_value`] succeeded (which validates the
/// field's type), so a missing or malformed field reads as "no floor".
pub fn min_epoch_of(value: &JsonValue) -> Option<u64> {
    value.get("min_epoch").and_then(JsonValue::as_u64)
}

/// Detect the `overloaded` envelope and extract its retry hint.
/// Mirrors the serving loop's control detection: a cheap substring
/// test rejects every ordinary reply, and only candidates pay for a
/// parse that confirms the `error` field exactly. Returns `None` for
/// anything that is not a well-formed overload shed.
pub fn overload_retry_ms(reply: &str) -> Option<u64> {
    if !reply.contains("overloaded") {
        return None;
    }
    let value = parse(reply).ok()?;
    if value.get("error").and_then(JsonValue::as_str) != Some("overloaded") {
        return None;
    }
    Some(
        value
            .get("retry_ms")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
    )
}

/// Detect the `stale_epoch` fencing refusal and extract `(have, want)`.
/// Same shape as [`overload_retry_ms`]: a cheap substring prefilter,
/// then a parse that confirms the `error` token exactly. Returns `None`
/// for anything that is not a well-formed fencing refusal.
pub fn stale_epoch_of(reply: &str) -> Option<(u64, u64)> {
    if !reply.contains("stale_epoch") {
        return None;
    }
    let value = parse(reply).ok()?;
    if value.get("error").and_then(JsonValue::as_str) != Some("stale_epoch") {
        return None;
    }
    let have = value.get("have").and_then(JsonValue::as_u64)?;
    let want = value.get("want").and_then(JsonValue::as_u64)?;
    Some((have, want))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfp_analysis::us_study::UsSlice;
    use lfp_topo::Continent;
    use std::sync::Arc;

    #[test]
    fn decodes_every_query_kind() {
        assert_eq!(
            decode(r#"{"query": "vendor_mix", "as": 7}"#).unwrap(),
            Query::VendorMixAs {
                as_id: 7,
                method: LabelSource::Lfp
            }
        );
        assert_eq!(
            decode(r#"{"query": "vendor_mix", "region": "AS", "method": "snmp"}"#).unwrap(),
            Query::VendorMixRegion {
                region: Continent::Asia,
                method: LabelSource::Snmp
            }
        );
        assert_eq!(
            decode(
                r#"{"query": "path_diversity", "src_as": 1, "dst_as": 2, "min_hops": 3,
                    "max_hops": 9, "source": "RIPE-1", "slice": "inter-us"}"#
            )
            .unwrap(),
            Query::PathDiversity {
                selection: Selection {
                    src_as: Some(1),
                    dst_as: Some(2),
                    source: Some("RIPE-1".to_string()),
                    min_hops: Some(3),
                    max_hops: Some(9),
                    slice: Some(UsSlice::InterUs),
                }
            }
        );
        assert_eq!(
            decode(r#"{"query": "transitions"}"#).unwrap(),
            Query::Transitions {
                selection: Selection::default()
            }
        );
        assert_eq!(
            decode(r#"{"query": "longest_runs", "slice": "other"}"#).unwrap(),
            Query::LongestRuns {
                selection: Selection {
                    slice: Some(UsSlice::Other),
                    ..Selection::default()
                }
            }
        );
        assert_eq!(decode(r#"{"query": "catalog"}"#).unwrap(), Query::Catalog);
    }

    #[test]
    fn canonical_form_is_a_valid_request() {
        let queries = [
            Query::VendorMixAs {
                as_id: 42,
                method: LabelSource::Snmp,
            },
            Query::VendorMixRegion {
                region: Continent::SouthAmerica,
                method: LabelSource::Lfp,
            },
            Query::PathDiversity {
                selection: Selection {
                    src_as: Some(3),
                    dst_as: Some(9),
                    min_hops: Some(2),
                    ..Selection::default()
                },
            },
            Query::Transitions {
                selection: Selection {
                    source: Some("ITDK-derived".to_string()),
                    ..Selection::default()
                },
            },
            Query::LongestRuns {
                selection: Selection {
                    slice: Some(UsSlice::IntraUs),
                    max_hops: Some(30),
                    ..Selection::default()
                },
            },
            Query::Catalog,
        ];
        for query in queries {
            assert_eq!(
                decode(&query.canonical()).unwrap(),
                query,
                "{}",
                query.canonical()
            );
        }
    }

    #[test]
    fn epoch_tagged_canonical_forms_replay_verbatim() {
        // The echo of an answered query carries the serving epoch; that
        // exact line must decode back to the original query at any later
        // epoch (the tag is advisory, never a selector).
        let queries = [
            Query::Catalog,
            Query::VendorMixAs {
                as_id: 9,
                method: LabelSource::Lfp,
            },
            Query::Transitions {
                selection: Selection {
                    min_hops: Some(2),
                    ..Selection::default()
                },
            },
        ];
        for query in queries {
            for epoch in [0u64, 1, 77] {
                assert_eq!(
                    decode(&query.canonical_at(epoch)).unwrap(),
                    query,
                    "{}",
                    query.canonical_at(epoch)
                );
            }
        }
        // A malformed epoch is rejected, not ignored.
        let error = decode(r#"{"query": "catalog", "epoch": "three"}"#).unwrap_err();
        assert!(error.contains("epoch"), "{error}");
        let error = decode(r#"{"query": "catalog", "epoch": -1}"#).unwrap_err();
        assert!(error.contains("epoch"), "{error}");
    }

    #[test]
    fn rejects_malformed_requests_with_useful_errors() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"q": "catalog"}"#, "missing string field"),
            (r#"{"query": "mystery"}"#, "unknown query kind"),
            (r#"{"query": "catalog", "as": 1}"#, "unknown field 'as'"),
            (r#"{"query": "vendor_mix"}"#, "'as' or 'region'"),
            (
                r#"{"query": "vendor_mix", "as": 1, "region": "EU"}"#,
                "not both",
            ),
            (r#"{"query": "vendor_mix", "as": -3}"#, "AS number"),
            (r#"{"query": "vendor_mix", "as": 1.5}"#, "AS number"),
            (
                r#"{"query": "vendor_mix", "region": "ZZ"}"#,
                "unknown region",
            ),
            (
                r#"{"query": "vendor_mix", "as": 1, "method": "banner"}"#,
                "unknown method",
            ),
            (
                r#"{"query": "path_diversity", "src_as": 1}"#,
                "requires both",
            ),
            (
                r#"{"query": "transitions", "min_hops": 9, "max_hops": 2}"#,
                "exceeds",
            ),
            (
                r#"{"query": "transitions", "slice": "lunar"}"#,
                "unknown slice",
            ),
            (
                r#"{"query": "longest_runs", "min_hops": 100000}"#,
                "hop count",
            ),
            (
                r#"{"query": "transitions", "typo_filter": 1}"#,
                "unknown field 'typo_filter'",
            ),
            (
                r#"{"query": "transitions", "min_hops": 2, "min_hops": 9}"#,
                "duplicate field 'min_hops'",
            ),
        ] {
            let error = decode(line).unwrap_err();
            assert!(
                error.contains(needle),
                "{line}: expected {needle:?} in {error:?}"
            );
        }
    }

    /// The single pass on every canonical form over the planner's
    /// selection grid, plus every vendor-mix and catalog shape, bare and
    /// epoch-tagged, with and without a fencing floor: each line the tree
    /// accepts is decided, to the same query and floor, with the key
    /// `canonical_at` writes. The rest of the battery is
    /// `tests/line_decoder.rs`; the grid lives here because `testutil`
    /// is crate-private.
    #[test]
    fn decode_to_key_decides_every_canonical_form_the_tree_accepts() {
        let world = crate::testutil::shared_world();
        let corpus = world.path_corpus();
        let mut queries = vec![Query::Catalog];
        for method in [LabelSource::Lfp, LabelSource::Snmp] {
            for as_id in [0, 7, u32::MAX] {
                queries.push(Query::VendorMixAs { as_id, method });
            }
            for region in Continent::ALL {
                queries.push(Query::VendorMixRegion { region, method });
            }
        }
        for selection in crate::testutil::selection_grid(corpus) {
            queries.push(Query::PathDiversity {
                selection: selection.clone(),
            });
            queries.push(Query::Transitions {
                selection: selection.clone(),
            });
            queries.push(Query::LongestRuns { selection });
        }
        let (mut decided, mut rejected) = (0, 0);
        let mut key = String::new();
        for query in &queries {
            for epoch in [0, 9, 999_999_999_999_999] {
                let bare = query.canonical();
                let fenced = format!("{},\"min_epoch\":{epoch}}}", &bare[..bare.len() - 1]);
                for line in [bare, query.canonical_at(epoch), fenced] {
                    let tree =
                        parse(&line).map(|value| (decode_value(&value), min_epoch_of(&value)));
                    match (decode_to_key(&line, epoch, &mut key), tree) {
                        (Some(decoded), Ok((Ok(query), min_epoch))) => {
                            assert_eq!(decoded, Decoded { query, min_epoch }, "{line}");
                            assert_eq!(key, decoded.query.canonical_at(epoch), "{line}");
                            decided += 1;
                        }
                        // A grid selection with `min_hops > max_hops`, or
                        // a `path_diversity` missing an endpoint.
                        (None, Ok((Err(_), _))) => rejected += 1,
                        (single, tree) => panic!("{line}: single pass {single:?}, tree {tree:?}"),
                    }
                }
            }
        }
        assert!(decided > rejected && rejected > 0, "{decided} / {rejected}");
    }

    #[test]
    fn duplicates_report_the_first_repeat_in_document_order() {
        assert_eq!(
            decode(r#"{"query": "transitions", "b": 1, "a": 1, "a": 2, "b": 2}"#).unwrap_err(),
            "duplicate field 'a'"
        );
        // Duplicates are checked before the kind and the field names.
        assert_eq!(
            decode(r#"{"zz": 1, "query": "nope", "zz": 2}"#).unwrap_err(),
            "duplicate field 'zz'"
        );
    }

    #[test]
    fn a_frame_packed_with_fields_is_rejected_in_linear_time() {
        // A legal-size frame of thousands of distinct fields. The
        // duplicate check used to compare every name with every earlier
        // one: tens of milliseconds on the serving loop per such line.
        let mut line = String::from(r#"{"query": "catalog""#);
        let mut fields = 0;
        while line.len() + 16 < MAX_FRAME_BYTES {
            line.push_str(&format!(",\"f{fields}\":0"));
            fields += 1;
        }
        line.push('}');
        assert!(line.len() <= MAX_FRAME_BYTES && fields > 6_000, "{fields}");
        let repeated = format!("{},\"f0\":1}}", &line[..line.len() - 1]);
        for (line, expected) in [
            (&line, "unknown field 'f0' for query 'catalog'"),
            (&repeated, "duplicate field 'f0'"),
        ] {
            let started = std::time::Instant::now();
            assert_eq!(decode(line).unwrap_err(), expected);
            let elapsed = started.elapsed();
            assert!(
                elapsed < std::time::Duration::from_millis(50),
                "{fields} fields took {elapsed:?}"
            );
        }
    }

    #[test]
    fn envelopes_are_single_line_valid_json() {
        let response = Response {
            payload: Arc::from(r#"{"paths": 3}"#),
            cached: true,
        };
        let ok = ok_envelope("{\"query\":\"catalog\"}", &response);
        let parsed = lfp_analysis::json::parse(&ok).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            parsed.get("result").unwrap().get("paths").unwrap().as_u64(),
            Some(3)
        );
        let error = error_envelope("bad \"thing\"\nhappened\u{2028}");
        assert!(!error.contains('\n'));
        let parsed = lfp_analysis::json::parse(&error).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            parsed.get("error").unwrap().as_str(),
            Some("bad \"thing\"\nhappened\u{2028}")
        );
    }

    #[test]
    fn envelope_head_and_tail_reassemble_byte_identically() {
        for cached in [false, true] {
            let response = Response {
                payload: Arc::from(r#"{"paths": 3, "nested": [1, 2]}"#),
                cached,
            };
            let canonical = "{\"query\":\"catalog\",\"epoch\":7}";
            let assembled = format!(
                "{}{}{}",
                ok_envelope_head(canonical, cached),
                response.payload,
                OK_ENVELOPE_TAIL
            );
            assert_eq!(assembled, ok_envelope(canonical, &response));
        }
    }

    #[test]
    fn overloaded_envelope_round_trips_through_detection() {
        let shed = overloaded_envelope("queue", 25);
        let parsed = lfp_analysis::json::parse(&shed).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("error").unwrap().as_str(), Some("overloaded"));
        assert_eq!(parsed.get("reason").unwrap().as_str(), Some("queue"));
        assert_eq!(overload_retry_ms(&shed), Some(25));

        // Ordinary errors — even ones *mentioning* overload in prose —
        // must not trip the typed detection.
        assert_eq!(overload_retry_ms(&error_envelope("no such query")), None);
        assert_eq!(
            overload_retry_ms(&error_envelope("system felt overloaded")),
            None
        );
        // A success payload containing the word is rejected by the
        // exact check on the `error` field.
        assert_eq!(
            overload_retry_ms("{\"ok\": true, \"result\": \"overloaded\"}"),
            None
        );
        // Missing hint degrades to 0, not to a parse failure.
        assert_eq!(
            overload_retry_ms("{\"ok\": false, \"error\": \"overloaded\"}"),
            Some(0)
        );
    }

    #[test]
    fn hostile_overload_reason_round_trips_escaped() {
        // A reason carrying quotes, backslashes, newlines and JS line
        // separators must still render one line of valid JSON that the
        // typed detection parses — the escaper is load-bearing here.
        let hostile = "queue \"full\"\\deep\nand\u{2028}wide";
        let shed = overloaded_envelope(hostile, 40);
        assert!(!shed.contains('\n'), "envelope must stay single-line");
        let parsed = lfp_analysis::json::parse(&shed).unwrap();
        assert_eq!(parsed.get("error").unwrap().as_str(), Some("overloaded"));
        assert_eq!(parsed.get("reason").unwrap().as_str(), Some(hostile));
        assert_eq!(overload_retry_ms(&shed), Some(40));
    }

    #[test]
    fn stale_epoch_envelope_round_trips_through_detection() {
        let fenced = stale_epoch_envelope(3, 7);
        assert_eq!(
            fenced,
            "{\"ok\": false, \"error\": \"stale_epoch\", \"have\": 3, \"want\": 7}"
        );
        let parsed = lfp_analysis::json::parse(&fenced).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("error").unwrap().as_str(), Some("stale_epoch"));
        assert_eq!(stale_epoch_of(&fenced), Some((3, 7)));

        // Prose mentioning the token, success payloads containing it,
        // and the other typed error all fail the exact check.
        assert_eq!(stale_epoch_of(&error_envelope("stale_epoch-ish")), None);
        assert_eq!(
            stale_epoch_of("{\"ok\": true, \"result\": \"stale_epoch\"}"),
            None
        );
        assert_eq!(stale_epoch_of(&overloaded_envelope("queue", 1)), None);
        // And the two detectors never cross-fire.
        assert_eq!(overload_retry_ms(&fenced), None);
    }

    #[test]
    fn min_epoch_is_accepted_validated_and_extractable() {
        // Every kind accepts the fencing field…
        for line in [
            r#"{"query": "catalog", "min_epoch": 4}"#,
            r#"{"query": "vendor_mix", "as": 7, "min_epoch": 0}"#,
            r#"{"query": "transitions", "min_epoch": 9, "epoch": 2}"#,
        ] {
            decode(line).unwrap_or_else(|error| panic!("{line}: {error}"));
            let value = lfp_analysis::json::parse(line).unwrap();
            decode_value(&value).unwrap();
            assert!(min_epoch_of(&value).is_some(), "{line}");
        }
        // …and rejects malformed floors instead of ignoring them.
        for line in [
            r#"{"query": "catalog", "min_epoch": -1}"#,
            r#"{"query": "catalog", "min_epoch": "four"}"#,
            r#"{"query": "catalog", "min_epoch": 1.5}"#,
        ] {
            let error = decode(line).unwrap_err();
            assert!(error.contains("min_epoch"), "{line}: {error}");
        }
        // Absent floor reads as "no fence".
        let bare = lfp_analysis::json::parse(r#"{"query": "catalog"}"#).unwrap();
        assert_eq!(min_epoch_of(&bare), None);
    }
}
