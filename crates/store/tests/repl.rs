//! Replication protocol battery: the primary's `repl_*` answerer and
//! the follower client, driven over a real loopback socket.
//!
//! The server half here is deliberately tiny (accept, read a line,
//! reply with `ReplSource::answer`) — the production daemons mount the
//! same answerer behind `lfp-serve`'s worker extension seam, so what
//! these tests pin down is the *protocol*: chunked resumable snapshot
//! transfer, per-epoch delta shipping, torn-transfer detection, and a
//! follower converging to byte-identical serving state.

mod util;

use lfp_analysis::json::{parse, JsonValue};
use lfp_query::wire;
use lfp_store::format::Sealed;
use lfp_store::{
    follow_once, follow_once_persistent, repl::b64, EpochApply, ReplClient, ReplSource, Store,
    StoreError, REPL_CHUNK,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Serve `repl_*` lines from a background thread; non-repl lines get a
/// refusal so a protocol bug fails loudly instead of hanging a read.
fn spawn_primary(source: Arc<ReplSource>) -> String {
    spawn_counting_primary(source).0
}

/// [`spawn_primary`], also counting the request lines it answers.
fn spawn_counting_primary(source: Arc<ReplSource>) -> (String, Arc<AtomicU64>) {
    let requests = Arc::new(AtomicU64::new(0));
    let answered = Arc::clone(&requests);
    let addr = spawn_answering(move |line| {
        answered.fetch_add(1, Ordering::Relaxed);
        source
            .answer(line)
            .unwrap_or_else(|| "{\"ok\": false, \"error\": \"not repl\"}".to_string())
    });
    (addr, requests)
}

/// Answer every line of every connection with `reply`, from background
/// threads.
fn spawn_answering(reply: impl Fn(&str) -> String + Send + Sync + 'static) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let reply = Arc::new(reply);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let reply = Arc::clone(&reply);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut stream = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    if writeln!(stream, "{}", reply(line.trim())).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lfp-repl-{tag}-{}-{unique}", std::process::id()))
}

#[test]
fn snapshot_ships_in_chunks_and_reassembles_exactly() {
    let primary = Arc::new(Store::from_world(util::shared_tiny_world()));
    let source = ReplSource::new(Arc::clone(&primary));
    let (epoch, expected) = primary.snapshot_segment();
    assert_eq!(epoch, 0);

    // Drive the chunk protocol by hand, straight through `answer`.
    let status = source
        .answer(r#"{"query": "repl_status"}"#)
        .expect("status answered");
    let status = parse(&status).expect("status parses");
    let result = status.get("result").expect("status result");
    assert_eq!(
        result.get("snapshot_bytes").and_then(JsonValue::as_u64),
        Some(expected.len() as u64)
    );

    let mut assembled: Vec<u8> = Vec::new();
    while assembled.len() < expected.len() {
        let line = format!(
            r#"{{"query": "repl_snapshot", "offset": {}}}"#,
            assembled.len()
        );
        let reply = source.answer(&line).expect("chunk answered");
        let reply = parse(&reply).expect("chunk parses");
        let result = reply.get("result").expect("chunk result");
        assert_eq!(result.get("epoch").and_then(JsonValue::as_u64), Some(0));
        let data = result
            .get("data")
            .and_then(JsonValue::as_str)
            .expect("chunk data");
        let chunk = b64::decode(data).expect("chunk decodes");
        assert!(!chunk.is_empty() && chunk.len() <= REPL_CHUNK);
        assembled.extend_from_slice(&chunk);
    }
    assert_eq!(assembled, expected, "reassembled snapshot differs");
    // The sectioned format is the final integrity gate.
    Store::from_bytes(&assembled).expect("assembled snapshot decodes");

    // Past-the-end and non-repl lines are handled, not hung on.
    let over = source
        .answer(&format!(
            r#"{{"query": "repl_snapshot", "offset": {}}}"#,
            expected.len() + 1
        ))
        .expect("overrun answered");
    assert!(over.contains("\"ok\": false"), "{over}");
    assert!(source.answer(r#"{"query": "catalog"}"#).is_none());
    assert!(source.answer("not json at all").is_none());
}

/// The serving loop answers resident data queries before any line
/// extension sees them, and hands the extension only lines the data
/// grammar rejects. That order is safe because the two grammars are
/// disjoint: the answerer declines every line `wire::decode` accepts —
/// even one carrying `repl_` in a string field — and every replication
/// line fails to decode.
#[test]
fn replication_and_data_grammars_are_disjoint() {
    let primary = Arc::new(Store::from_world(util::shared_tiny_world()));
    let source = ReplSource::new(Arc::clone(&primary));
    let engine = primary.engine();
    let mut data: Vec<String> = util::catalog_mix(&engine)
        .iter()
        .flat_map(|query| [query.canonical(), engine.canonical(query)])
        .collect();
    data.extend([
        r#"{"query": "catalog", "min_epoch": 0}"#.to_string(),
        r#"{"query": "transitions", "source": "repl_status"}"#.to_string(),
        r#"{"query": "longest_runs", "source": "repl_delta", "min_epoch": 3}"#.to_string(),
    ]);
    for line in &data {
        assert!(wire::decode(line).is_ok(), "not a data line: {line}");
        assert!(
            source.answer(line).is_none(),
            "repl took a data line: {line}"
        );
    }
    for line in [
        r#"{"query": "repl_status"}"#,
        r#"{"query": "repl_snapshot", "offset": 0}"#,
        r#"{"query": "repl_delta", "have": 0}"#,
        r#"{"query": "repl_segment", "have": 0}"#,
        r#"{"query": "repl_ingest"}"#,
        r#"{"query": "repl_bogus"}"#,
    ] {
        assert!(wire::decode(line).is_err(), "repl line decodes: {line}");
        assert!(source.answer(line).is_some(), "repl declined: {line}");
    }
}

#[test]
fn hostile_chunk_offsets_get_typed_refusals_over_the_wire() {
    let world = util::shared_tiny_world();
    let primary = Arc::new(Store::from_world(world.clone()));
    primary
        .ingest(util::measure_deltas(&world, 1).remove(0))
        .expect("ingest");
    let (_, snapshot) = primary.snapshot_segment();
    let delta_len = primary.delta_segment(1).expect("delta in log").len();
    let (segment, apply) = primary.shipped_segment(1).expect("epoch 1 ships");
    let shipped_len = segment.bytes.len() + apply.len();
    let addr = spawn_primary(Arc::new(ReplSource::new(Arc::clone(&primary))));

    // A hostile follower can claim any offset it likes: one past the
    // end, far past the end, or u64::MAX (which would overflow naive
    // slice arithmetic). Every one must come back as the typed
    // `bad_offset` envelope carrying the real total — never a panic,
    // never a hang, never a torn chunk.
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: String| -> JsonValue {
        writeln!(writer, "{line}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        parse(reply.trim()).expect("reply parses")
    };
    let hostile_cases: Vec<(String, u64)> = vec![
        (
            format!(
                r#"{{"query": "repl_snapshot", "offset": {}}}"#,
                snapshot.len() + 1
            ),
            snapshot.len() as u64,
        ),
        (
            format!(r#"{{"query": "repl_snapshot", "offset": {}}}"#, u64::MAX),
            snapshot.len() as u64,
        ),
        (
            format!(
                r#"{{"query": "repl_delta", "have": 0, "offset": {}}}"#,
                delta_len + 1
            ),
            delta_len as u64,
        ),
        (
            format!(
                r#"{{"query": "repl_delta", "have": 0, "offset": {}}}"#,
                u64::MAX
            ),
            delta_len as u64,
        ),
        (
            format!(
                r#"{{"query": "repl_segment", "have": 0, "offset": {}}}"#,
                u64::MAX
            ),
            shipped_len as u64,
        ),
    ];
    for (line, total) in hostile_cases {
        let reply = ask(line.clone());
        assert_eq!(
            reply.get("ok").and_then(JsonValue::as_bool),
            Some(false),
            "{line}"
        );
        assert_eq!(
            reply.get("error").and_then(JsonValue::as_str),
            Some("bad_offset"),
            "{line}"
        );
        assert_eq!(
            reply.get("total").and_then(JsonValue::as_u64),
            Some(total),
            "{line}"
        );
        assert!(reply.get("offset").and_then(JsonValue::as_u64).is_some());
    }
    // The exact end-of-stream offset is the legitimate "done" probe —
    // still an answer, not an error (resumable syncs depend on it).
    let done = ask(format!(
        r#"{{"query": "repl_snapshot", "offset": {}}}"#,
        snapshot.len()
    ));
    assert_eq!(done.get("ok").and_then(JsonValue::as_bool), Some(true));
    let data = done
        .get("result")
        .and_then(|result| result.get("data"))
        .and_then(JsonValue::as_str)
        .expect("data field");
    assert!(data.is_empty(), "end-of-stream chunk must be empty");
}

#[test]
fn follower_converges_over_loopback_and_resumes_a_torn_sync() {
    let world = util::shared_tiny_world();
    let primary = Arc::new(Store::from_world(world.clone()));
    let addr = spawn_primary(Arc::new(ReplSource::new(Arc::clone(&primary))));

    // -- bootstrap: full snapshot sync ----------------------------
    let mut client = ReplClient::new(&addr);
    let status = client.status().expect("status");
    assert_eq!(status.epoch, 0);
    let scratch = scratch_path("sync");
    let bytes = client.sync_snapshot(&scratch).expect("snapshot sync");
    assert_eq!(bytes.len() as u64, status.snapshot_bytes);
    let follower = Store::from_bytes(&bytes).expect("synced snapshot decodes");
    let _ = std::fs::remove_file(&scratch);
    assert_eq!(follower.epoch(), 0);

    // -- the primary moves on; the follower catches up -------------
    let deltas = util::measure_deltas(&world, 2);
    for delta in deltas {
        primary.ingest(delta).expect("primary ingest");
    }
    assert_eq!(primary.epoch(), 2);
    let advanced = follow_once(&mut client, &follower).expect("follow");
    assert_eq!(advanced, 2);
    assert_eq!(follower.epoch(), 2);
    // Caught up: another poll is a no-op.
    assert_eq!(follow_once(&mut client, &follower).expect("idle poll"), 0);
    // The tentpole claim, protocol edition: byte-identical replies at
    // equal epochs.
    assert_eq!(
        util::mix_responses(&follower),
        util::mix_responses(&primary)
    );

    // -- resumable sync: a killed transfer picks up mid-file -------
    let (epoch, full) = primary.snapshot_segment();
    assert_eq!(epoch, 2);
    let torn = scratch_path("torn");
    let keep = full.len() / 2;
    let mut partial = epoch.to_le_bytes().to_vec();
    partial.extend_from_slice(&full[..keep]);
    std::fs::write(&torn, &partial).expect("write torn scratch");
    let resumed = client.sync_snapshot(&torn).expect("resumed sync");
    assert_eq!(resumed, full, "resume must complete the same bytes");
    let _ = std::fs::remove_file(&torn);

    // -- epoch-mismatch scratch: restarted, not spliced ------------
    let stale = scratch_path("stale");
    let mut wrong = 7u64.to_le_bytes().to_vec();
    wrong.extend_from_slice(&[0xAB; 1234]);
    std::fs::write(&stale, &wrong).expect("write stale scratch");
    let restarted = client.sync_snapshot(&stale).expect("restarted sync");
    assert_eq!(restarted, full, "stale-epoch partial must be discarded");
    let _ = std::fs::remove_file(&stale);
}

/// A follower applying `repl_segment` shipments over short delta chains
/// ends where a store re-ingesting the same deltas does — equal corpus,
/// byte-identical catalog answers — having sealed the primary's own
/// segment files, at one request per epoch. Chains vary in where they
/// start and how long they are, in whether the primary ships from a
/// segmented log or from RAM, and in whether it ingested one delta at a
/// time or the whole chain in one batch. The cases are hand-sampled at
/// a small count because each one stands up a primary and a follower.
#[test]
fn followers_applying_segments_equal_reingesting_the_deltas() {
    let world = util::shared_tiny_world();
    let pool = util::measure_deltas(&world, 5);
    let mut rng = proptest::new_test_rng("followers_apply_segments");
    let (starts, lengths, flags) = (0usize..3, 1usize..4, any::<bool>());
    for case in 0..4 {
        let start = starts.sample(&mut rng);
        let chain = &pool[start..(start + lengths.sample(&mut rng)).min(pool.len())];
        let (logged, batched) = (flags.sample(&mut rng), flags.sample(&mut rng));
        let context = format!(
            "case {case}: {} deltas from {start}, logged {logged}, batched {batched}",
            chain.len()
        );
        let scratch = scratch_path("chain");
        let (primary_dir, follower_dir) = (scratch.join("primary"), scratch.join("follower"));

        let primary = Arc::new(Store::from_world(Arc::clone(&world)));
        let follower = Store::from_bytes(&primary.to_bytes()).expect("bootstrap");
        follower
            .save_segmented(&follower_dir)
            .expect("follower base");
        if logged {
            primary.save_segmented(&primary_dir).expect("primary base");
        }
        if batched {
            primary.ingest_many(chain.to_vec()).expect("batch ingest");
        } else {
            for delta in chain {
                primary.ingest(delta.clone()).expect("ingest");
            }
        }
        if logged {
            primary.save_segmented(&primary_dir).expect("primary seal");
        }
        let reference = Store::from_world(Arc::clone(&world));
        for delta in chain {
            reference.ingest(delta.clone()).expect("re-ingest");
        }

        let (addr, requests) =
            spawn_counting_primary(Arc::new(ReplSource::new(Arc::clone(&primary))));
        let mut client = ReplClient::new(&addr);
        let epochs = chain.len() as u64;
        let advanced = follow_once_persistent(&mut client, &follower, &follower_dir);
        assert_eq!(advanced.expect("follow"), epochs, "{context}");
        assert_eq!(requests.load(Ordering::Relaxed), epochs, "{context}");

        assert_eq!(
            follower.engine().corpus(),
            reference.engine().corpus(),
            "{context}"
        );
        let answers = util::mix_responses(&reference);
        assert_eq!(util::mix_responses(&follower), answers, "{context}");
        assert_eq!(util::mix_responses(&primary), answers, "{context}");
        for epoch in 1..=epochs {
            let name = lfp_store::segment::segment_file_name(epoch);
            let sealed = std::fs::read(follower_dir.join(&name)).expect("follower sealed it");
            let shipped = if logged {
                std::fs::read(primary_dir.join(&name)).expect("primary sealed it")
            } else {
                primary.shipped_segment(epoch).expect("in history").0.bytes
            };
            assert!(
                sealed == shipped,
                "{context}: epoch {epoch} sealed other bytes"
            );
        }
        // The follower's log reloads (replaying through ingest) to the
        // same corpus.
        let (reloaded, _) = Store::load(&follower_dir).expect("follower log loads");
        assert_eq!(
            reloaded.engine().corpus(),
            reference.engine().corpus(),
            "{context}"
        );
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

/// An edit of a decoded apply section.
type ApplyEdit = dyn Fn(&mut EpochApply);

/// Every way a shipment can be torn, corrupted or inconsistent is a
/// typed error, and the follower stays at its epoch with its corpus
/// untouched; the intact shipment then applies.
#[test]
fn hostile_segments_get_typed_errors_and_leave_the_follower_untouched() {
    let world = util::shared_tiny_world();
    let deltas = util::measure_deltas(&world, 2);
    let primary = Arc::new(Store::from_world(Arc::clone(&world)));
    primary.ingest_many(deltas.clone()).expect("ingest");
    let (segment, apply) = primary.shipped_segment(1).expect("epoch 1 ships");
    let follower = Store::from_world(Arc::clone(&world));
    let refuse = |segment: Sealed, apply: Vec<u8>, case: &str| -> StoreError {
        let error = follower
            .apply_segment(segment, &apply)
            .expect_err("hostile shipment applied");
        assert_eq!(follower.epoch(), 0, "{case}");
        assert_eq!(follower.engine().corpus(), world.path_corpus(), "{case}");
        error
    };
    let edited = |edit: &ApplyEdit| {
        let mut decoded = EpochApply::from_bytes(&apply).expect("own apply section decodes");
        edit(&mut decoded);
        decoded.to_bytes()
    };

    let mut short = segment.clone();
    short.bytes.truncate(short.bytes.len() - 10);
    let error = refuse(short, apply.clone(), "truncated segment");
    assert!(matches!(error, StoreError::Truncated { .. }), "{error:?}");
    let error = refuse(
        segment.clone(),
        apply[..apply.len() / 2].to_vec(),
        "truncated apply",
    );
    assert!(matches!(error, StoreError::Truncated { .. }), "{error:?}");

    let mut flipped = segment.clone();
    let middle = flipped.bytes.len() / 2;
    flipped.bytes[middle] ^= 0x20;
    let error = refuse(flipped, apply.clone(), "flipped segment byte");
    assert!(
        matches!(error, StoreError::ChecksumMismatch { .. }),
        "{error:?}"
    );
    let mut flipped = apply.clone();
    let middle = flipped.len() / 2;
    flipped[middle] ^= 0x20;
    let error = refuse(segment.clone(), flipped, "flipped apply byte");
    assert!(
        matches!(error, StoreError::ChecksumMismatch { .. }),
        "{error:?}"
    );
    let mut misnamed = segment.clone();
    misnamed.checksum ^= 1;
    let error = refuse(misnamed, apply.clone(), "header FNV");
    assert!(matches!(error, StoreError::Replication(_)), "{error:?}");

    let cases: [(&str, &ApplyEdit); 4] = [
        ("row count", &|apply| {
            apply.rows.pop();
        }),
        ("source name", &|apply| {
            apply.source = "RIPE-elsewhere".to_string()
        }),
        ("apply epoch", &|apply| apply.epoch = 2),
        ("vendor code", &|apply| {
            let row = apply.rows.iter_mut().find(|row| !row.runs.is_empty());
            row.expect("a row with hops").runs[0].0 = 200;
        }),
    ];
    for (case, edit) in cases {
        let error = refuse(segment.clone(), edited(edit), case);
        let typed = matches!(error, StoreError::Replication(_) | StoreError::Ingest(_));
        assert!(typed, "{case}: {error:?}");
    }

    // A segment past the follower's next epoch is refused, not applied.
    let (later, later_apply) = primary.shipped_segment(2).expect("epoch 2 ships");
    let error = refuse(later, later_apply, "epoch gap");
    assert!(matches!(error, StoreError::Replication(_)), "{error:?}");

    // A follower claiming an epoch the primary never reached gets the
    // typed refusal, over the wire too.
    let source = Arc::new(ReplSource::new(Arc::clone(&primary)));
    let reply = source
        .answer(r#"{"query": "repl_segment", "have": 9, "offset": 0}"#)
        .expect("answered");
    assert!(reply.contains("\"error\": \"ahead_of_primary\""), "{reply}");
    let mut client = ReplClient::new(spawn_primary(Arc::clone(&source)));
    let error = client.fetch_segment(9).expect_err("ahead of the primary");
    assert!(matches!(error, StoreError::Replication(_)), "{error:?}");

    // Torn transfers: a primary that stops short of its total, or
    // overruns it, fails the fetch.
    for (data, case) in [("", "stalled"), ("AAAAAAAA", "overrun")] {
        let addr = spawn_answering(move |_| {
            format!(
                "{{\"ok\": true, \"result\": {{\"epoch\": 1, \"delta_epoch\": 1, \"total\": 4, \
                 \"offset\": 0, \"segment\": 2, \"fnv\": \"00\"}}, \"data\": \"{data}\"}}"
            )
        });
        let error = ReplClient::new(addr).fetch_segment(0).expect_err(case);
        assert!(
            matches!(error, StoreError::Replication(_)),
            "{case}: {error:?}"
        );
    }

    // The intact shipment applies, to the primary's epoch-1 state.
    follower
        .apply_segment(segment, &apply)
        .expect("intact shipment");
    let reference = Store::from_world(Arc::clone(&world));
    reference.ingest(deltas[0].clone()).expect("ingest");
    assert_eq!(follower.engine().corpus(), reference.engine().corpus());
    assert_eq!(
        util::mix_responses(&follower),
        util::mix_responses(&reference)
    );
}
