//! Domain (de)serialization: measured campaign state ↔ store sections.
//!
//! The store persists exactly the state that is expensive to recreate —
//! collected snapshots, raw scan observations, extracted vectors,
//! SNMPv3 labels, the per-dataset unique-LFP vendor maps (the output of
//! classification), and the full path corpus — and deliberately omits
//! everything that is a cheap, deterministic function of it (the
//! generated Internet, the finalized signature set, corpus indexes,
//! rendered labels). Loading therefore re-runs generation and
//! finalisation but **zero classification**.
//!
//! Encoding is canonical: hash-ordered structures are sorted before
//! writing, so `encode(decode(bytes)) == bytes` (round-trip tested).

use crate::error::StoreError;
use crate::format::{
    FileReader, FileWriter, Reader, Sealed, Writer, APPLY_MAGIC, DELTA_MAGIC, MAGIC, SEGMENT_MAGIC,
};
use crate::segment::segment_payload;
use lfp_analysis::path_corpus::{code_vendor, vendor_code, CorpusParts, EncodedRow, RowFields};
use lfp_analysis::us_study::UsSlice;
use lfp_core::features::{FeatureVector, InitialTtl, IpidClass};
use lfp_core::pipeline::DatasetScan;
use lfp_core::probe::{ProbeReply, ProtoTag, TargetObservation};
use lfp_packet::snmp::EngineId;
use lfp_stack::vendor::Vendor;
use lfp_topo::datasets::{resolve_snapshot_date, ItdkDataset, RipeSnapshot, TraceRecord};
use lfp_topo::Scale;
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

const META_TAG: [u8; 4] = *b"META";
const RIPE_TAG: [u8; 4] = *b"RIPE";
const ITDK_TAG: [u8; 4] = *b"ITDK";
const SCAN_TAG: [u8; 4] = *b"SCAN";
const VMAP_TAG: [u8; 4] = *b"VMAP";
const CORP_TAG: [u8; 4] = *b"CORP";
const EPOC_TAG: [u8; 4] = *b"EPOC";
const DELT_TAG: [u8; 4] = *b"DELT";
const APLY_TAG: [u8; 4] = *b"APLY";

/// The ITDK dataset's fixed synthetic collection date.
const ITDK_DATE: &str = "2022-02-01";

/// One ingestable snapshot delta: a freshly measured RIPE-style
/// snapshot (traces) together with its LFP scan (targets, vectors,
/// SNMPv3 labels). This is the unit `vendor-queryd --ingest` reads from
/// disk and [`Store::ingest`](crate::Store::ingest) folds into a new
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    /// Snapshot name (e.g. `RIPE-3`); becomes the corpus source name.
    pub name: String,
    /// Synthetic collection date.
    pub date: String,
    /// Every traceroute of the snapshot.
    pub traces: Vec<TraceRecord>,
    /// The scanned router population (the snapshot's router IPs).
    pub targets: Vec<Ipv4Addr>,
    /// Extracted feature vectors, index-aligned with `targets`.
    pub vectors: Vec<FeatureVector>,
    /// SNMPv3 labels, index-aligned with `targets`.
    pub labels: Vec<Option<Vendor>>,
}

impl SnapshotDelta {
    /// Package a measured snapshot + its scan as an ingestable delta.
    pub fn from_measurement(snapshot: &RipeSnapshot, scan: &DatasetScan) -> SnapshotDelta {
        SnapshotDelta {
            name: snapshot.name.clone(),
            date: snapshot.date.to_string(),
            traces: snapshot.traces.clone(),
            targets: scan.targets.clone(),
            vectors: scan.vectors.clone(),
            labels: scan.labels.clone(),
        }
    }

    /// Structural sanity: the scan columns must be index-aligned.
    pub fn validate(&self) -> Result<(), StoreError> {
        if self.targets.len() != self.vectors.len() || self.targets.len() != self.labels.len() {
            return Err(StoreError::Ingest(format!(
                "delta '{}' has misaligned scan columns ({} targets, {} vectors, {} labels)",
                self.name,
                self.targets.len(),
                self.vectors.len(),
                self.labels.len()
            )));
        }
        Ok(())
    }

    /// The delta's encoded body: the one section of a delta file, and
    /// what a store file's epoch section holds per ingested epoch.
    pub(crate) fn encode_body(&self) -> Vec<u8> {
        let mut body = Writer::new();
        put_delta(&mut body, self);
        body.into_bytes()
    }

    /// Serialize as a standalone, checksummed delta file.
    pub fn to_bytes(&self) -> Vec<u8> {
        delta_file(&self.encode_body())
    }

    /// Decode a standalone delta file.
    pub fn from_bytes(bytes: &[u8]) -> Result<SnapshotDelta, StoreError> {
        Self::from_file(bytes).map(|(delta, _)| delta)
    }

    /// [`from_bytes`](SnapshotDelta::from_bytes), also returning the
    /// encoded body exactly as the file holds it.
    fn from_file(bytes: &[u8]) -> Result<(SnapshotDelta, &[u8]), StoreError> {
        let file = FileReader::parse(bytes, DELTA_MAGIC)?;
        let mut reader = file.section(DELT_TAG, "delta")?;
        let (delta, body) = reader.spanned(get_delta)?;
        reader.done()?;
        delta.validate()?;
        Ok((delta, body))
    }
}

/// What a replication primary ships beside an epoch's segment: the
/// products of ingesting it — the unique-LFP vendor map its scan
/// classified to, and the corpus rows its traces encoded to — so a
/// follower commits the epoch without classifying or encoding anything.
/// Framed as its own checksummed `LFPA` container.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochApply {
    /// The epoch the segment seals.
    pub epoch: u64,
    /// The corpus source the rows belong to (the delta's name).
    pub source: String,
    /// ip → vendor for unique LFP verdicts over the delta's population.
    pub lfp: HashMap<Ipv4Addr, Vendor>,
    /// One row per trace of the delta, in trace order.
    pub rows: Vec<EncodedRow>,
}

impl EpochApply {
    /// Serialize as an `LFPA` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_apply(self.epoch, &self.source, &self.lfp, &self.rows)
    }

    /// Parse an `LFPA` container: framing, checksums, codes.
    pub fn from_bytes(bytes: &[u8]) -> Result<EpochApply, StoreError> {
        let file = FileReader::parse(bytes, APPLY_MAGIC)?;
        let mut reader = file.section(APLY_TAG, "apply")?;
        let apply = EpochApply {
            epoch: reader.u64()?,
            source: reader.str()?,
            lfp: get_vendor_map(&mut reader)?,
            rows: get_rows(&mut reader)?,
        };
        reader.done()?;
        Ok(apply)
    }
}

/// [`EpochApply::to_bytes`] over borrowed parts.
pub(crate) fn encode_apply(
    epoch: u64,
    source: &str,
    lfp: &HashMap<Ipv4Addr, Vendor>,
    rows: &[EncodedRow],
) -> Vec<u8> {
    let mut file = FileWriter::new(APPLY_MAGIC);
    file.section_with(APLY_TAG, |out| {
        out.u64(epoch);
        out.str(source);
        put_vendor_map(out, lfp);
        put_rows(out, rows);
    });
    file.finish()
}

/// One epoch as a follower received it, checked and decoded: everything
/// a commit needs, none of it recomputed.
pub(crate) struct ShippedEpoch {
    /// The epoch the segment seals.
    pub epoch: u64,
    /// The delta inside the segment.
    pub delta: SnapshotDelta,
    /// Its encoded body, exactly as shipped.
    pub body: Vec<u8>,
    /// The primary's vendor map and corpus rows for it.
    pub apply: EpochApply,
}

/// Check and decode a shipped epoch: `segment` must verify against its
/// whole-file checksum and its section checksums, and the apply section
/// must describe the same epoch, the same source and one row per trace.
pub(crate) fn decode_shipped(segment: &Sealed, apply: &[u8]) -> Result<ShippedEpoch, StoreError> {
    let (file, checksum) = FileReader::parse_hashed(&segment.bytes, SEGMENT_MAGIC)?;
    if checksum != segment.checksum {
        return Err(StoreError::Replication(format!(
            "segment checksum {checksum:016x}, shipped as {:016x}",
            segment.checksum
        )));
    }
    let (epoch, delta_file) = segment_payload(&file)?;
    let (delta, body) = SnapshotDelta::from_file(delta_file)?;
    let apply = EpochApply::from_bytes(apply)?;
    if apply.epoch != epoch || apply.source != delta.name || apply.rows.len() != delta.traces.len()
    {
        return Err(StoreError::Replication(format!(
            "apply section (epoch {}, source '{}', {} rows) does not describe its segment \
             (epoch {epoch}, source '{}', {} traces)",
            apply.epoch,
            apply.source,
            apply.rows.len(),
            delta.name,
            delta.traces.len()
        )));
    }
    Ok(ShippedEpoch {
        epoch,
        body: body.to_vec(),
        delta,
        apply,
    })
}

/// A standalone delta file around a body [`SnapshotDelta::encode_body`]
/// wrote: the bytes [`SnapshotDelta::to_bytes`] returns.
pub(crate) fn delta_file(body: &[u8]) -> Vec<u8> {
    let mut file = FileWriter::new(DELTA_MAGIC);
    file.section_with(DELT_TAG, |out| out.raw(body));
    file.finish()
}

/// Borrowed view of everything a save encodes — the encode-side twin of
/// [`StoredCampaign`], so persisting never deep-copies the measured
/// state (raw observations dominate a world's memory; cloning them per
/// save would double peak residency at large scales).
pub struct CampaignRefs<'a> {
    /// The sizing the campaign ran at.
    pub scale: Scale,
    /// Serving epoch at save time (equals `deltas.len()`).
    pub epoch: u64,
    /// Base RIPE snapshots.
    pub ripe: &'a [RipeSnapshot],
    /// The ITDK dataset.
    pub itdk: &'a ItdkDataset,
    /// Base dataset scans: one per snapshot, ITDK last.
    pub scans: Vec<&'a DatasetScan>,
    /// Unique-LFP vendor maps: base scans (ITDK last), then deltas.
    pub lfp_maps: Vec<&'a HashMap<Ipv4Addr, Vendor>>,
    /// The dumped path corpus.
    pub corpus: &'a CorpusParts,
    /// Ingested snapshot deltas' encoded bodies
    /// (`SnapshotDelta::encode_body`), in epoch order: a save copies
    /// them instead of encoding every epoch again.
    pub deltas: Vec<&'a [u8]>,
}

/// Everything a store file decodes to, before world assembly.
pub struct StoredCampaign {
    /// The sizing the campaign ran at (regenerates the Internet).
    pub scale: Scale,
    /// Serving epoch at save time (equals `deltas.len()`).
    pub epoch: u64,
    /// Base RIPE snapshots.
    pub ripe: Vec<RipeSnapshot>,
    /// The ITDK dataset.
    pub itdk: ItdkDataset,
    /// Base dataset scans: one per snapshot, ITDK last.
    pub scans: Vec<DatasetScan>,
    /// Unique-LFP vendor maps: one per base scan (ITDK last), then one
    /// per ingested delta.
    pub lfp_maps: Vec<HashMap<Ipv4Addr, Vendor>>,
    /// The dumped path corpus (base rows plus every ingested epoch).
    pub corpus: CorpusParts,
    /// Ingested snapshot deltas, in epoch order.
    pub deltas: Vec<SnapshotDelta>,
    /// The encoded body of each delta, exactly as the file holds it.
    pub delta_bodies: Vec<Vec<u8>>,
}

/// Serialize a whole campaign into store-file bytes, with their
/// whole-file checksum. Every section is written straight into
/// `buffer`, which is cleared first.
pub fn encode_campaign(campaign: &CampaignRefs<'_>, buffer: Vec<u8>) -> Sealed {
    let mut file = FileWriter::reusing(MAGIC, buffer);
    file.section_with(META_TAG, |meta| {
        put_scale(meta, &campaign.scale);
        meta.u64(campaign.epoch);
        meta.count(campaign.ripe.len());
        meta.count(campaign.deltas.len());
    });
    file.section_with(RIPE_TAG, |ripe| {
        ripe.count(campaign.ripe.len());
        for snapshot in campaign.ripe {
            put_snapshot(ripe, snapshot);
        }
    });
    file.section_with(ITDK_TAG, |itdk| put_itdk(itdk, campaign.itdk));
    file.section_with(SCAN_TAG, |scans| {
        scans.count(campaign.scans.len());
        for scan in &campaign.scans {
            put_scan(scans, scan);
        }
    });
    file.section_with(VMAP_TAG, |vmaps| {
        vmaps.count(campaign.lfp_maps.len());
        for map in &campaign.lfp_maps {
            put_vendor_map(vmaps, map);
        }
    });
    file.section_with(CORP_TAG, |corpus| put_corpus(corpus, campaign.corpus));
    file.section_with(EPOC_TAG, |deltas| {
        deltas.count(campaign.deltas.len());
        for body in &campaign.deltas {
            deltas.raw(body);
        }
    });
    file.seal()
}

/// Decode store-file bytes back into a campaign, validating framing,
/// checksums, and cross-section consistency.
pub fn decode_campaign(bytes: &[u8]) -> Result<StoredCampaign, StoreError> {
    decode_parsed_campaign(&FileReader::parse(bytes, MAGIC)?)
}

/// [`decode_campaign`] over a store file whose framing and checksums
/// were already verified.
pub(crate) fn decode_parsed_campaign(file: &FileReader<'_>) -> Result<StoredCampaign, StoreError> {
    let mut meta = file.section(META_TAG, "meta")?;
    let scale = get_scale(&mut meta)?;
    let epoch = meta.u64()?;
    let ripe_count = meta.u32()? as usize;
    let delta_count = meta.u32()? as usize;
    meta.done()?;

    let mut ripe_reader = file.section(RIPE_TAG, "snapshots")?;
    let count = ripe_reader.count(1)?;
    if count != ripe_count {
        return Err(StoreError::Corrupt(format!(
            "meta records {ripe_count} snapshots, section holds {count}"
        )));
    }
    let mut ripe = Vec::with_capacity(count);
    for _ in 0..count {
        ripe.push(get_snapshot(&mut ripe_reader)?);
    }
    ripe_reader.done()?;
    if ripe.is_empty() {
        return Err(StoreError::Corrupt("store holds no snapshots".to_string()));
    }

    let mut itdk_reader = file.section(ITDK_TAG, "itdk")?;
    let itdk = get_itdk(&mut itdk_reader)?;
    itdk_reader.done()?;

    let mut scan_reader = file.section(SCAN_TAG, "scans")?;
    let count = scan_reader.count(1)?;
    if count != ripe_count + 1 {
        return Err(StoreError::Corrupt(format!(
            "expected {} scans (snapshots + ITDK), section holds {count}",
            ripe_count + 1
        )));
    }
    let mut scans = Vec::with_capacity(count);
    for _ in 0..count {
        scans.push(get_scan(&mut scan_reader)?);
    }
    scan_reader.done()?;

    let mut vmap_reader = file.section(VMAP_TAG, "vendor maps")?;
    let count = vmap_reader.count(1)?;
    if count != scans.len() + delta_count {
        return Err(StoreError::Corrupt(format!(
            "expected {} vendor maps, section holds {count}",
            scans.len() + delta_count
        )));
    }
    let mut lfp_maps = Vec::with_capacity(count);
    for _ in 0..count {
        lfp_maps.push(get_vendor_map(&mut vmap_reader)?);
    }
    vmap_reader.done()?;

    let mut corpus_reader = file.section(CORP_TAG, "corpus")?;
    let corpus = get_corpus(&mut corpus_reader)?;
    corpus_reader.done()?;

    let mut delta_reader = file.section(EPOC_TAG, "epochs")?;
    let count = delta_reader.count(1)?;
    if count != delta_count {
        return Err(StoreError::Corrupt(format!(
            "meta records {delta_count} epochs, section holds {count}"
        )));
    }
    let mut deltas = Vec::with_capacity(count);
    let mut delta_bodies = Vec::with_capacity(count);
    for _ in 0..count {
        let (delta, body) = delta_reader.spanned(get_delta)?;
        delta
            .validate()
            .map_err(|error| StoreError::Corrupt(error.to_string()))?;
        deltas.push(delta);
        delta_bodies.push(body.to_vec());
    }
    delta_reader.done()?;
    if epoch != deltas.len() as u64 {
        return Err(StoreError::Corrupt(format!(
            "epoch {epoch} disagrees with {} ingested deltas",
            deltas.len()
        )));
    }

    Ok(StoredCampaign {
        scale,
        epoch,
        ripe,
        itdk,
        scans,
        lfp_maps,
        corpus,
        deltas,
        delta_bodies,
    })
}

// -- scale ----------------------------------------------------------

fn put_scale(writer: &mut Writer, scale: &Scale) {
    writer.u64(scale.ases as u64);
    writer.u64(scale.tier1 as u64);
    writer.f64(scale.transit_fraction);
    writer.f64(scale.routers_per_stub);
    writer.f64(scale.routers_per_transit);
    writer.f64(scale.routers_per_tier1);
    writer.u64(scale.vantages as u64);
    writer.u64(scale.dests_per_vantage as u64);
    writer.u64(scale.snapshots as u64);
    writer.f64(scale.snapshot_churn);
    writer.f64(scale.itdk_as_fraction);
    writer.u64(scale.occurrence_threshold as u64);
    writer.u64(scale.seed);
}

fn get_scale(reader: &mut Reader<'_>) -> Result<Scale, StoreError> {
    let usize_of = |value: u64| -> Result<usize, StoreError> {
        usize::try_from(value)
            .map_err(|_| StoreError::Corrupt(format!("scale field {value} exceeds usize")))
    };
    Ok(Scale {
        ases: usize_of(reader.u64()?)?,
        tier1: usize_of(reader.u64()?)?,
        transit_fraction: reader.f64()?,
        routers_per_stub: reader.f64()?,
        routers_per_transit: reader.f64()?,
        routers_per_tier1: reader.f64()?,
        vantages: usize_of(reader.u64()?)?,
        dests_per_vantage: usize_of(reader.u64()?)?,
        snapshots: usize_of(reader.u64()?)?,
        snapshot_churn: reader.f64()?,
        itdk_as_fraction: reader.f64()?,
        occurrence_threshold: usize_of(reader.u64()?)?,
        seed: reader.u64()?,
    })
}

// -- addresses and traces -------------------------------------------

fn put_ip(writer: &mut Writer, ip: Ipv4Addr) {
    writer.u32(u32::from(ip));
}

fn get_ip(reader: &mut Reader<'_>) -> Result<Ipv4Addr, StoreError> {
    Ok(Ipv4Addr::from(reader.u32()?))
}

fn put_trace(writer: &mut Writer, trace: &TraceRecord) {
    writer.u32(trace.src_as);
    writer.u32(trace.dst_as);
    put_ip(writer, trace.src);
    put_ip(writer, trace.dst);
    writer.bool(trace.reached);
    writer.count(trace.hops.len());
    for hop in &trace.hops {
        // 0.0.0.0 is never allocated (reserved space), so it encodes a
        // timeout slot.
        writer.u32(hop.map(u32::from).unwrap_or(0));
    }
}

fn get_trace(reader: &mut Reader<'_>) -> Result<TraceRecord, StoreError> {
    let src_as = reader.u32()?;
    let dst_as = reader.u32()?;
    let src = get_ip(reader)?;
    let dst = get_ip(reader)?;
    let reached = reader.bool()?;
    let count = reader.count(4)?;
    let mut hops = Vec::with_capacity(count);
    for _ in 0..count {
        let raw = reader.u32()?;
        hops.push((raw != 0).then(|| Ipv4Addr::from(raw)));
    }
    Ok(TraceRecord {
        src_as,
        dst_as,
        src,
        dst,
        hops,
        reached,
    })
}

// -- datasets -------------------------------------------------------

fn put_snapshot(writer: &mut Writer, snapshot: &RipeSnapshot) {
    writer.str(&snapshot.name);
    writer.str(snapshot.date);
    writer.count(snapshot.traces.len());
    for trace in &snapshot.traces {
        put_trace(writer, trace);
    }
    // `router_ips` is, by construction, the union of every trace's
    // router hops — recomputed on decode rather than stored.
}

fn get_snapshot(reader: &mut Reader<'_>) -> Result<RipeSnapshot, StoreError> {
    let name = reader.str()?;
    let date = reader.str()?;
    // Snapshot dates always come from the cadence table; anything else
    // is corruption, and silently substituting one would break the
    // canonical `encode(decode(bytes)) == bytes` property.
    let date = resolve_snapshot_date(&date)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown snapshot date '{date}'")))?;
    let count = reader.count(1)?;
    let mut traces = Vec::with_capacity(count);
    for _ in 0..count {
        traces.push(get_trace(reader)?);
    }
    let mut router_ips = BTreeSet::new();
    for trace in &traces {
        router_ips.extend(trace.router_hops());
    }
    Ok(RipeSnapshot {
        name,
        date,
        traces,
        router_ips,
    })
}

fn put_itdk(writer: &mut Writer, itdk: &ItdkDataset) {
    writer.str(&itdk.name);
    writer.count(itdk.router_ips.len());
    for &ip in &itdk.router_ips {
        put_ip(writer, ip);
    }
    writer.count(itdk.alias_sets.len());
    for set in &itdk.alias_sets {
        writer.count(set.len());
        for &ip in set {
            put_ip(writer, ip);
        }
    }
}

fn get_itdk(reader: &mut Reader<'_>) -> Result<ItdkDataset, StoreError> {
    let name = reader.str()?;
    let count = reader.count(4)?;
    let mut router_ips = BTreeSet::new();
    for _ in 0..count {
        router_ips.insert(get_ip(reader)?);
    }
    let set_count = reader.count(4)?;
    let mut alias_sets = Vec::with_capacity(set_count);
    for _ in 0..set_count {
        let len = reader.count(4)?;
        let mut set = Vec::with_capacity(len);
        for _ in 0..len {
            set.push(get_ip(reader)?);
        }
        alias_sets.push(set);
    }
    Ok(ItdkDataset {
        name,
        date: ITDK_DATE,
        router_ips,
        alias_sets,
    })
}

// -- feature vectors ------------------------------------------------

fn ipid_code(class: IpidClass) -> u8 {
    match class {
        IpidClass::Incremental => 0,
        IpidClass::Random => 1,
        IpidClass::Static => 2,
        IpidClass::Zero => 3,
        IpidClass::Duplicate => 4,
    }
}

fn ipid_from_code(code: u8) -> Result<IpidClass, StoreError> {
    Ok(match code {
        0 => IpidClass::Incremental,
        1 => IpidClass::Random,
        2 => IpidClass::Static,
        3 => IpidClass::Zero,
        4 => IpidClass::Duplicate,
        other => return Err(StoreError::Corrupt(format!("invalid IPID class {other}"))),
    })
}

fn ittl_code(ttl: InitialTtl) -> u8 {
    match ttl {
        InitialTtl::T32 => 0,
        InitialTtl::T64 => 1,
        InitialTtl::T128 => 2,
        InitialTtl::T255 => 3,
    }
}

fn ittl_from_code(code: u8) -> Result<InitialTtl, StoreError> {
    Ok(match code {
        0 => InitialTtl::T32,
        1 => InitialTtl::T64,
        2 => InitialTtl::T128,
        3 => InitialTtl::T255,
        other => return Err(StoreError::Corrupt(format!("invalid iTTL code {other}"))),
    })
}

/// Presence-bitmask encoding: bit *i* set ⇔ field *i* is `Some`, then
/// the present payloads in field order.
fn put_vector(writer: &mut Writer, vector: &FeatureVector) {
    let mut mask = 0u16;
    let flags = [
        vector.icmp_ipid_echo.is_some(),
        vector.icmp_ipid.is_some(),
        vector.tcp_ipid.is_some(),
        vector.udp_ipid.is_some(),
        vector.shared_all.is_some(),
        vector.shared_tcp_icmp.is_some(),
        vector.shared_udp_icmp.is_some(),
        vector.shared_tcp_udp.is_some(),
        vector.udp_ittl.is_some(),
        vector.icmp_ittl.is_some(),
        vector.tcp_ittl.is_some(),
        vector.icmp_resp_size.is_some(),
        vector.tcp_resp_size.is_some(),
        vector.udp_resp_size.is_some(),
        vector.tcp_syn_seq_zero.is_some(),
    ];
    for (bit, &present) in flags.iter().enumerate() {
        if present {
            mask |= 1 << bit;
        }
    }
    writer.u16(mask);
    if let Some(value) = vector.icmp_ipid_echo {
        writer.bool(value);
    }
    for class in [vector.icmp_ipid, vector.tcp_ipid, vector.udp_ipid]
        .into_iter()
        .flatten()
    {
        writer.u8(ipid_code(class));
    }
    for shared in [
        vector.shared_all,
        vector.shared_tcp_icmp,
        vector.shared_udp_icmp,
        vector.shared_tcp_udp,
    ]
    .into_iter()
    .flatten()
    {
        writer.bool(shared);
    }
    for ttl in [vector.udp_ittl, vector.icmp_ittl, vector.tcp_ittl]
        .into_iter()
        .flatten()
    {
        writer.u8(ittl_code(ttl));
    }
    for size in [
        vector.icmp_resp_size,
        vector.tcp_resp_size,
        vector.udp_resp_size,
    ]
    .into_iter()
    .flatten()
    {
        writer.u16(size);
    }
    if let Some(value) = vector.tcp_syn_seq_zero {
        writer.bool(value);
    }
}

fn get_vector(reader: &mut Reader<'_>) -> Result<FeatureVector, StoreError> {
    let mask = reader.u16()?;
    if mask >> 15 != 0 {
        return Err(StoreError::Corrupt(format!(
            "feature mask {mask:#x} sets unknown bits"
        )));
    }
    let present = |bit: usize| mask & (1 << bit) != 0;
    let mut vector = FeatureVector::default();
    if present(0) {
        vector.icmp_ipid_echo = Some(reader.bool()?);
    }
    if present(1) {
        vector.icmp_ipid = Some(ipid_from_code(reader.u8()?)?);
    }
    if present(2) {
        vector.tcp_ipid = Some(ipid_from_code(reader.u8()?)?);
    }
    if present(3) {
        vector.udp_ipid = Some(ipid_from_code(reader.u8()?)?);
    }
    if present(4) {
        vector.shared_all = Some(reader.bool()?);
    }
    if present(5) {
        vector.shared_tcp_icmp = Some(reader.bool()?);
    }
    if present(6) {
        vector.shared_udp_icmp = Some(reader.bool()?);
    }
    if present(7) {
        vector.shared_tcp_udp = Some(reader.bool()?);
    }
    if present(8) {
        vector.udp_ittl = Some(ittl_from_code(reader.u8()?)?);
    }
    if present(9) {
        vector.icmp_ittl = Some(ittl_from_code(reader.u8()?)?);
    }
    if present(10) {
        vector.tcp_ittl = Some(ittl_from_code(reader.u8()?)?);
    }
    if present(11) {
        vector.icmp_resp_size = Some(reader.u16()?);
    }
    if present(12) {
        vector.tcp_resp_size = Some(reader.u16()?);
    }
    if present(13) {
        vector.udp_resp_size = Some(reader.u16()?);
    }
    if present(14) {
        vector.tcp_syn_seq_zero = Some(reader.bool()?);
    }
    Ok(vector)
}

// -- observations ---------------------------------------------------

fn put_reply(writer: &mut Writer, reply: &ProbeReply) {
    writer.f64(reply.at);
    writer.u16(reply.ipid);
    writer.u8(reply.ttl);
    writer.u16(reply.total_len);
}

fn get_reply(reader: &mut Reader<'_>) -> Result<ProbeReply, StoreError> {
    Ok(ProbeReply {
        at: reader.f64()?,
        ipid: reader.u16()?,
        ttl: reader.u8()?,
        total_len: reader.u16()?,
    })
}

fn proto_code(tag: ProtoTag) -> u8 {
    match tag {
        ProtoTag::Icmp => 0,
        ProtoTag::Tcp => 1,
        ProtoTag::Udp => 2,
    }
}

fn proto_from_code(code: u8) -> Result<ProtoTag, StoreError> {
    Ok(match code {
        0 => ProtoTag::Icmp,
        1 => ProtoTag::Tcp,
        2 => ProtoTag::Udp,
        other => return Err(StoreError::Corrupt(format!("invalid protocol tag {other}"))),
    })
}

fn put_observation(writer: &mut Writer, observation: &TargetObservation) {
    writer.u32(observation.target.map(u32::from).unwrap_or(0));
    writer.count(observation.icmp.len());
    for reply in &observation.icmp {
        put_reply(writer, reply);
    }
    writer.count(observation.icmp_echo_match.len());
    for &matched in &observation.icmp_echo_match {
        writer.bool(matched);
    }
    writer.count(observation.tcp.len());
    for reply in &observation.tcp {
        put_reply(writer, reply);
    }
    match observation.syn_rst_seq {
        Some(seq) => {
            writer.bool(true);
            writer.u32(seq);
        }
        None => writer.bool(false),
    }
    writer.count(observation.udp.len());
    for reply in &observation.udp {
        put_reply(writer, reply);
    }
    match &observation.snmp_engine {
        Some(engine) => {
            writer.bool(true);
            writer.u32(engine.pen);
            writer.u8(engine.format);
            writer.bytes(&engine.data);
        }
        None => writer.bool(false),
    }
    writer.count(observation.timeline.len());
    for &(tag, at, ipid) in &observation.timeline {
        writer.u8(proto_code(tag));
        writer.f64(at);
        writer.u16(ipid);
    }
}

fn get_observation(reader: &mut Reader<'_>) -> Result<TargetObservation, StoreError> {
    let raw_target = reader.u32()?;
    let target = (raw_target != 0).then(|| Ipv4Addr::from(raw_target));
    let reply_list = |reader: &mut Reader<'_>| -> Result<Vec<ProbeReply>, StoreError> {
        let count = reader.count(13)?;
        (0..count).map(|_| get_reply(reader)).collect()
    };
    let icmp = reply_list(reader)?;
    let match_count = reader.count(1)?;
    let icmp_echo_match = (0..match_count)
        .map(|_| reader.bool())
        .collect::<Result<_, _>>()?;
    let tcp = reply_list(reader)?;
    let syn_rst_seq = if reader.bool()? {
        Some(reader.u32()?)
    } else {
        None
    };
    let udp = reply_list(reader)?;
    let snmp_engine = if reader.bool()? {
        Some(EngineId {
            pen: reader.u32()?,
            format: reader.u8()?,
            data: reader.bytes()?,
        })
    } else {
        None
    };
    let timeline_count = reader.count(11)?;
    let mut timeline = Vec::with_capacity(timeline_count);
    for _ in 0..timeline_count {
        let tag = proto_from_code(reader.u8()?)?;
        let at = reader.f64()?;
        let ipid = reader.u16()?;
        timeline.push((tag, at, ipid));
    }
    Ok(TargetObservation {
        target,
        icmp,
        icmp_echo_match,
        tcp,
        syn_rst_seq,
        udp,
        snmp_engine,
        timeline,
    })
}

// -- scans ----------------------------------------------------------

fn put_vendor_option(writer: &mut Writer, vendor: Option<Vendor>) {
    match vendor {
        Some(vendor) => writer.u8(vendor_code(vendor)),
        None => writer.u8(u8::MAX),
    }
}

fn get_vendor_option(reader: &mut Reader<'_>) -> Result<Option<Vendor>, StoreError> {
    let code = reader.u8()?;
    if code == u8::MAX {
        return Ok(None);
    }
    code_vendor(code)
        .map(Some)
        .ok_or_else(|| StoreError::Corrupt(format!("invalid vendor code {code}")))
}

fn put_scan(writer: &mut Writer, scan: &DatasetScan) {
    writer.str(&scan.name);
    writer.count(scan.targets.len());
    for &ip in &scan.targets {
        put_ip(writer, ip);
    }
    writer.count(scan.observations.len());
    for observation in &scan.observations {
        put_observation(writer, observation);
    }
    writer.count(scan.vectors.len());
    for vector in &scan.vectors {
        put_vector(writer, vector);
    }
    writer.count(scan.labels.len());
    for &label in &scan.labels {
        put_vendor_option(writer, label);
    }
}

fn get_scan(reader: &mut Reader<'_>) -> Result<DatasetScan, StoreError> {
    let name = reader.str()?;
    let target_count = reader.count(4)?;
    let mut targets = Vec::with_capacity(target_count);
    for _ in 0..target_count {
        targets.push(get_ip(reader)?);
    }
    let observation_count = reader.count(1)?;
    let mut observations = Vec::with_capacity(observation_count);
    for _ in 0..observation_count {
        observations.push(get_observation(reader)?);
    }
    let vector_count = reader.count(2)?;
    let mut vectors = Vec::with_capacity(vector_count);
    for _ in 0..vector_count {
        vectors.push(get_vector(reader)?);
    }
    let label_count = reader.count(1)?;
    let mut labels = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        labels.push(get_vendor_option(reader)?);
    }
    if targets.len() != observations.len()
        || targets.len() != vectors.len()
        || targets.len() != labels.len()
    {
        return Err(StoreError::Corrupt(format!(
            "scan '{name}' columns misaligned"
        )));
    }
    Ok(DatasetScan {
        name,
        targets,
        observations,
        vectors,
        labels,
    })
}

// -- vendor maps ----------------------------------------------------

fn put_vendor_map(writer: &mut Writer, map: &HashMap<Ipv4Addr, Vendor>) {
    let mut entries: Vec<(Ipv4Addr, Vendor)> = map.iter().map(|(&ip, &v)| (ip, v)).collect();
    entries.sort_unstable_by_key(|&(ip, _)| ip);
    writer.count(entries.len());
    for (ip, vendor) in entries {
        put_ip(writer, ip);
        writer.u8(vendor_code(vendor));
    }
}

fn get_vendor_map(reader: &mut Reader<'_>) -> Result<HashMap<Ipv4Addr, Vendor>, StoreError> {
    let count = reader.count(5)?;
    let mut map = HashMap::with_capacity(count);
    for _ in 0..count {
        let ip = get_ip(reader)?;
        let code = reader.u8()?;
        let vendor = code_vendor(code)
            .ok_or_else(|| StoreError::Corrupt(format!("invalid vendor code {code}")))?;
        map.insert(ip, vendor);
    }
    Ok(map)
}

// -- corpus ---------------------------------------------------------

fn put_corpus(writer: &mut Writer, parts: &CorpusParts) {
    writer.count(parts.sources.len());
    for source in &parts.sources {
        writer.str(source);
    }
    writer.u32(parts.ripe_source_count);
    writer.u32(parts.latest_ripe);
    writer.count(parts.source.len());
    writer.u16s(&parts.source);
    for column in [&parts.src_as, &parts.dst_as, &parts.set_id, &parts.seq_id] {
        writer.u32s(column);
    }
    for column in [
        &parts.effective_len,
        &parts.snmp_identified,
        &parts.as_segments,
    ] {
        writer.u16s(column);
    }
    for column in [&parts.slice, &parts.edge_vendors, &parts.core_vendors] {
        writer.raw(column);
    }
    writer.count(parts.runs.len());
    for &(code, len) in &parts.runs {
        writer.u8(code);
        writer.u16(len);
    }
    writer.count(parts.seq_spans.len());
    for &(offset, len) in &parts.seq_spans {
        writer.u32(offset);
        writer.u32(len);
    }
    writer.count(parts.sets.len());
    for set in &parts.sets {
        writer.bytes(set);
    }
}

fn get_corpus(reader: &mut Reader<'_>) -> Result<CorpusParts, StoreError> {
    let source_count = reader.count(4)?;
    let mut sources = Vec::with_capacity(source_count);
    for _ in 0..source_count {
        sources.push(reader.str()?);
    }
    let ripe_source_count = reader.u32()?;
    let latest_ripe = reader.u32()?;
    // Row-aligned columns share one count; validate the combined byte
    // budget (2 + 4·4 + 3·2 + 3·1 = 27 bytes per row) up front.
    let rows = reader.count(27)?;
    let u16_column = |reader: &mut Reader<'_>| -> Result<Vec<u16>, StoreError> {
        (0..rows).map(|_| reader.u16()).collect()
    };
    let u32_column = |reader: &mut Reader<'_>| -> Result<Vec<u32>, StoreError> {
        (0..rows).map(|_| reader.u32()).collect()
    };
    let u8_column = |reader: &mut Reader<'_>| -> Result<Vec<u8>, StoreError> {
        (0..rows).map(|_| reader.u8()).collect()
    };
    let source = u16_column(reader)?;
    let src_as = u32_column(reader)?;
    let dst_as = u32_column(reader)?;
    let set_id = u32_column(reader)?;
    let seq_id = u32_column(reader)?;
    let effective_len = u16_column(reader)?;
    let snmp_identified = u16_column(reader)?;
    let as_segments = u16_column(reader)?;
    let slice = u8_column(reader)?;
    let edge_vendors = u8_column(reader)?;
    let core_vendors = u8_column(reader)?;
    let run_count = reader.count(3)?;
    let mut runs = Vec::with_capacity(run_count);
    for _ in 0..run_count {
        let code = reader.u8()?;
        let len = reader.u16()?;
        runs.push((code, len));
    }
    let span_count = reader.count(8)?;
    let mut seq_spans = Vec::with_capacity(span_count);
    for _ in 0..span_count {
        let offset = reader.u32()?;
        let len = reader.u32()?;
        seq_spans.push((offset, len));
    }
    let set_count = reader.count(4)?;
    let mut sets = Vec::with_capacity(set_count);
    for _ in 0..set_count {
        sets.push(reader.bytes()?);
    }
    Ok(CorpusParts {
        sources,
        ripe_source_count,
        latest_ripe,
        source,
        src_as,
        dst_as,
        effective_len,
        snmp_identified,
        slice,
        set_id,
        seq_id,
        edge_vendors,
        core_vendors,
        as_segments,
        runs,
        seq_spans,
        sets,
    })
}

// -- encoded corpus rows --------------------------------------------

/// Fixed columns first, then each row's runs behind its own count.
fn put_rows(writer: &mut Writer, rows: &[EncodedRow]) {
    writer.count(rows.len());
    let fields = || rows.iter().map(|row| &row.fields);
    writer.u32s(&fields().map(|row| row.src_as).collect::<Vec<_>>());
    writer.u32s(&fields().map(|row| row.dst_as).collect::<Vec<_>>());
    writer.u16s(&fields().map(|row| row.effective_len).collect::<Vec<_>>());
    writer.u16s(&fields().map(|row| row.snmp_identified).collect::<Vec<_>>());
    writer.u16s(&fields().map(|row| row.as_segments).collect::<Vec<_>>());
    writer.raw(&fields().map(|row| row.slice.code()).collect::<Vec<_>>());
    writer.raw(&fields().map(|row| row.edge_vendors).collect::<Vec<_>>());
    writer.raw(&fields().map(|row| row.core_vendors).collect::<Vec<_>>());
    for row in rows {
        writer.count(row.runs.len());
        for &(code, len) in &row.runs {
            writer.u8(code);
            writer.u16(len);
        }
    }
}

fn get_rows(reader: &mut Reader<'_>) -> Result<Vec<EncodedRow>, StoreError> {
    // 2·4 + 3·2 + 3·1 column bytes plus a 4-byte run count per row.
    let count = reader.count(21)?;
    let u32_column = |reader: &mut Reader<'_>| -> Result<Vec<u32>, StoreError> {
        (0..count).map(|_| reader.u32()).collect()
    };
    let (src_as, dst_as) = (u32_column(reader)?, u32_column(reader)?);
    let u16_column = |reader: &mut Reader<'_>| -> Result<Vec<u16>, StoreError> {
        (0..count).map(|_| reader.u16()).collect()
    };
    let effective_len = u16_column(reader)?;
    let snmp_identified = u16_column(reader)?;
    let as_segments = u16_column(reader)?;
    let slices = (0..count)
        .map(|_| {
            let code = reader.u8()?;
            UsSlice::from_code(code)
                .ok_or_else(|| StoreError::Corrupt(format!("invalid slice code {code}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let u8_column = |reader: &mut Reader<'_>| -> Result<Vec<u8>, StoreError> {
        (0..count).map(|_| reader.u8()).collect()
    };
    let (edge_vendors, core_vendors) = (u8_column(reader)?, u8_column(reader)?);
    let mut rows = Vec::with_capacity(count);
    for index in 0..count {
        let count = reader.count(3)?;
        let mut runs = Vec::with_capacity(count);
        for _ in 0..count {
            runs.push((reader.u8()?, reader.u16()?));
        }
        rows.push(EncodedRow {
            fields: RowFields {
                src_as: src_as[index],
                dst_as: dst_as[index],
                effective_len: effective_len[index],
                snmp_identified: snmp_identified[index],
                slice: slices[index],
                edge_vendors: edge_vendors[index],
                core_vendors: core_vendors[index],
                as_segments: as_segments[index],
            },
            runs,
        });
    }
    Ok(rows)
}

// -- deltas ---------------------------------------------------------

fn put_delta(writer: &mut Writer, delta: &SnapshotDelta) {
    writer.str(&delta.name);
    writer.str(&delta.date);
    writer.count(delta.traces.len());
    for trace in &delta.traces {
        put_trace(writer, trace);
    }
    writer.count(delta.targets.len());
    for &ip in &delta.targets {
        put_ip(writer, ip);
    }
    writer.count(delta.vectors.len());
    for vector in &delta.vectors {
        put_vector(writer, vector);
    }
    writer.count(delta.labels.len());
    for &label in &delta.labels {
        put_vendor_option(writer, label);
    }
}

fn get_delta(reader: &mut Reader<'_>) -> Result<SnapshotDelta, StoreError> {
    let name = reader.str()?;
    let date = reader.str()?;
    let trace_count = reader.count(17)?;
    let mut traces = Vec::with_capacity(trace_count);
    for _ in 0..trace_count {
        traces.push(get_trace(reader)?);
    }
    let target_count = reader.count(4)?;
    let mut targets = Vec::with_capacity(target_count);
    for _ in 0..target_count {
        targets.push(get_ip(reader)?);
    }
    let vector_count = reader.count(2)?;
    let mut vectors = Vec::with_capacity(vector_count);
    for _ in 0..vector_count {
        vectors.push(get_vector(reader)?);
    }
    let label_count = reader.count(1)?;
    let mut labels = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        labels.push(get_vendor_option(reader)?);
    }
    Ok(SnapshotDelta {
        name,
        date,
        traces,
        targets,
        vectors,
        labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vector() -> FeatureVector {
        FeatureVector {
            icmp_ipid_echo: Some(false),
            icmp_ipid: Some(IpidClass::Random),
            tcp_ipid: Some(IpidClass::Incremental),
            udp_ipid: None,
            shared_all: None,
            shared_tcp_icmp: Some(true),
            shared_udp_icmp: None,
            shared_tcp_udp: None,
            udp_ittl: None,
            icmp_ittl: Some(InitialTtl::T255),
            tcp_ittl: Some(InitialTtl::T64),
            icmp_resp_size: Some(84),
            tcp_resp_size: Some(40),
            udp_resp_size: None,
            tcp_syn_seq_zero: Some(true),
        }
    }

    #[test]
    fn vectors_round_trip_bit_exactly() {
        for vector in [
            sample_vector(),
            FeatureVector::default(),
            FeatureVector {
                udp_ipid: Some(IpidClass::Duplicate),
                udp_ittl: Some(InitialTtl::T32),
                udp_resp_size: Some(56),
                ..FeatureVector::default()
            },
        ] {
            let mut writer = Writer::new();
            put_vector(&mut writer, &vector);
            let bytes = writer.into_bytes();
            let mut reader = Reader::new(&bytes, "vector");
            assert_eq!(get_vector(&mut reader).unwrap(), vector);
            reader.done().unwrap();
        }
    }

    #[test]
    fn traces_round_trip_with_timeout_slots() {
        let trace = TraceRecord {
            src_as: 3,
            dst_as: u32::MAX,
            src: Ipv4Addr::new(1, 0, 0, 1),
            dst: Ipv4Addr::new(9, 8, 7, 6),
            hops: vec![
                Some(Ipv4Addr::new(2, 0, 0, 1)),
                None,
                Some(Ipv4Addr::new(9, 8, 7, 6)),
            ],
            reached: true,
        };
        let mut writer = Writer::new();
        put_trace(&mut writer, &trace);
        let bytes = writer.into_bytes();
        let mut reader = Reader::new(&bytes, "trace");
        let decoded = get_trace(&mut reader).unwrap();
        reader.done().unwrap();
        assert_eq!(decoded.hops, trace.hops);
        assert_eq!(decoded.dst_as, u32::MAX);
        assert_eq!(decoded.reached, trace.reached);
    }

    #[test]
    fn deltas_round_trip_through_standalone_files() {
        let delta = SnapshotDelta {
            name: "RIPE-9".to_string(),
            date: "2023-01-15".to_string(),
            traces: vec![TraceRecord {
                src_as: 1,
                dst_as: 2,
                src: Ipv4Addr::new(1, 0, 0, 1),
                dst: Ipv4Addr::new(2, 0, 0, 1),
                hops: vec![Some(Ipv4Addr::new(3, 0, 0, 1))],
                reached: false,
            }],
            targets: vec![Ipv4Addr::new(3, 0, 0, 1)],
            vectors: vec![sample_vector()],
            labels: vec![Some(Vendor::Cisco)],
        };
        let bytes = delta.to_bytes();
        assert_eq!(SnapshotDelta::from_bytes(&bytes).unwrap(), delta);
        // A store file is not a delta file.
        assert_eq!(
            SnapshotDelta::from_bytes(&[0u8; 32]).unwrap_err(),
            StoreError::BadMagic
        );
        // Misaligned columns are rejected at decode time.
        let mut misaligned = delta;
        misaligned.labels.clear();
        assert!(matches!(
            SnapshotDelta::from_bytes(&misaligned.to_bytes()).unwrap_err(),
            StoreError::Ingest(_)
        ));
    }

    #[test]
    fn vendor_maps_encode_canonically() {
        let mut map = HashMap::new();
        map.insert(Ipv4Addr::new(9, 0, 0, 1), Vendor::Cisco);
        map.insert(Ipv4Addr::new(1, 0, 0, 1), Vendor::Juniper);
        map.insert(Ipv4Addr::new(5, 0, 0, 1), Vendor::Huawei);
        let encode = |map: &HashMap<Ipv4Addr, Vendor>| {
            let mut writer = Writer::new();
            put_vendor_map(&mut writer, map);
            writer.into_bytes()
        };
        let bytes = encode(&map);
        let mut reader = Reader::new(&bytes, "vmap");
        let decoded = get_vendor_map(&mut reader).unwrap();
        reader.done().unwrap();
        assert_eq!(decoded, map);
        // Canonical: re-encoding the decoded map is byte-identical.
        assert_eq!(encode(&decoded), bytes);
    }
}
