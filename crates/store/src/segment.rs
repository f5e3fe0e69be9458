//! The segmented epoch log: one sealed file per ingested epoch, a
//! checksummed manifest as the single atomic publish point.
//!
//! Layout of a log directory:
//!
//! ```text
//! <dir>/MANIFEST            LFPM container, one MNFS section
//! <dir>/base-00000003.lfps  full store file (LFPW) sealed at epoch 3
//! <dir>/epoch-00000004.seg  LFPS container: epoch 4's delta segment
//! <dir>/epoch-00000005.seg  …one per epoch past the base
//! ```
//!
//! Every file — and the monolithic [`Store::save`](crate::Store::save)
//! image, which is sealed by the same `write_sealed` — is written
//! with one crash discipline: chunked writes into a `.tmp` sibling,
//! `fsync`, rename into place, `fsync` the directory. Nothing
//! a reader trusts is ever updated in place, and nothing becomes
//! *reachable* until the manifest rename lands: a crash at any write
//! boundary leaves the previous manifest — and therefore the previous
//! fully-sealed state — exactly as it was. Files a crash orphans
//! (unreferenced bases, segments, `.tmp` partials) are invisible to
//! [`Manifest`]-driven loads and swept by [`EpochLog::prune`] on the
//! next successful publish.
//!
//! The manifest records `{epoch, file, checksum, bytes}` per entry;
//! the checksum is [`fnv1a64`] over the *whole file*, an outer
//! integrity gate on top of the per-section checksums inside each
//! container. Segment epochs must be contiguous from the base's epoch,
//! so a manifest can never describe a log with a hole in its history.

use crate::error::StoreError;
use crate::format::{
    fnv1a64, FileReader, FileWriter, Sealed, Writer, MANIFEST_MAGIC, SEGMENT_MAGIC,
};
use std::path::{Path, PathBuf};

/// File name of the manifest inside a log directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Section tag of the manifest payload.
const MANIFEST_TAG: [u8; 4] = *b"MNFS";
/// Section tag of a segment payload.
const SEGMENT_TAG: [u8; 4] = *b"SEGM";

/// Write granularity of every sealed file: each boundary between
/// chunks is a spot a crash can land, and the crash-injection tests
/// enumerate exactly these boundaries. Small enough that even the
/// tiny-scale test stores cross several boundaries.
pub const SAVE_CHUNK: usize = 64 * 1024;

/// The crash seam for every durable write: called before each chunk
/// and once before each rename. Returning an error simulates the
/// process dying at precisely that point — the write sequence stops,
/// leaving the temp file truncated at a recorded boundary (or, at the
/// seal, complete but unrenamed). The file name disambiguates which
/// write is in flight — segment files, base snapshots, the `MANIFEST`
/// and a monolithic store image all pass through here, so a crash test
/// can aim at any boundary of any file (a log's `MANIFEST` seal and a
/// monolithic image's own seal are the atomic publish points;
/// everything before them is invisible to readers).
pub trait LogFaults {
    /// About to write `len` bytes at `offset` into `file`'s temp.
    fn on_chunk(&mut self, _file: &str, _offset: usize, _len: usize) -> Result<(), StoreError> {
        Ok(())
    }

    /// `file`'s temp is complete and fsynced; about to rename it into
    /// place.
    fn on_seal(&mut self, _file: &str) -> Result<(), StoreError> {
        Ok(())
    }
}

/// The production shim: never interferes.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableLog;

impl LogFaults for DurableLog {}

/// One manifest entry: a sealed file and what it claims to hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Epoch this file seals (for the base: the epoch it was encoded
    /// at; for a segment: the epoch its delta advances the store to).
    pub epoch: u64,
    /// File name inside the log directory (never a path).
    pub file: String,
    /// [`fnv1a64`] over the whole file.
    pub checksum: u64,
    /// File length in bytes.
    pub bytes: u64,
}

impl SegmentMeta {
    /// Meta describing `sealed` about to be written as `file` at
    /// `epoch`; the checksum is the one its writer computed, so nothing
    /// re-reads the bytes.
    pub fn sealed(epoch: u64, file: String, sealed: &Sealed) -> SegmentMeta {
        SegmentMeta {
            epoch,
            file,
            checksum: sealed.checksum,
            bytes: sealed.bytes.len() as u64,
        }
    }

    fn encode(&self, out: &mut Writer) {
        out.u64(self.epoch);
        out.str(&self.file);
        out.u64(self.checksum);
        out.u64(self.bytes);
    }

    fn decode(reader: &mut crate::format::Reader<'_>) -> Result<SegmentMeta, StoreError> {
        let epoch = reader.u64()?;
        let file = reader.str()?;
        if file.is_empty() || file.contains('/') || file.contains('\\') || file.contains("..") {
            return Err(StoreError::Log(format!(
                "manifest entry names a non-local file {file:?}"
            )));
        }
        Ok(SegmentMeta {
            epoch,
            file,
            checksum: reader.u64()?,
            bytes: reader.u64()?,
        })
    }
}

/// The log's table of contents: one base plus its trailing segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The sealed full-store snapshot everything replays on top of.
    pub base: SegmentMeta,
    /// Per-epoch delta segments, contiguous from `base.epoch + 1`.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// The highest epoch this manifest reaches.
    pub fn covered(&self) -> u64 {
        self.base.epoch + self.segments.len() as u64
    }

    /// Total bytes across the segment files (the compaction policy's
    /// numerator; the base's `bytes` is its denominator).
    pub fn segment_bytes(&self) -> u64 {
        self.segments.iter().map(|meta| meta.bytes).sum()
    }

    /// Serialize as an `LFPM` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Writer::new();
        self.base.encode(&mut payload);
        payload.count(self.segments.len());
        for segment in &self.segments {
            segment.encode(&mut payload);
        }
        let mut file = FileWriter::new(MANIFEST_MAGIC);
        file.section(MANIFEST_TAG, payload);
        file.finish()
    }

    /// Parse and validate an `LFPM` container: framing, checksums,
    /// local file names, and segment contiguity from the base epoch.
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, StoreError> {
        let file = FileReader::parse(bytes, MANIFEST_MAGIC)?;
        let mut reader = file.section(MANIFEST_TAG, "manifest")?;
        let base = SegmentMeta::decode(&mut reader)?;
        // Each entry is ≥ 8+4+8+8 bytes on the wire.
        let count = reader.count(28)?;
        let mut segments = Vec::with_capacity(count);
        for index in 0..count {
            let segment = SegmentMeta::decode(&mut reader)?;
            let expected = base.epoch + 1 + index as u64;
            if segment.epoch != expected {
                return Err(StoreError::Log(format!(
                    "segment {index} seals epoch {} where {expected} was required",
                    segment.epoch
                )));
            }
            segments.push(segment);
        }
        reader.done()?;
        Ok(Manifest { base, segments })
    }
}

/// Canonical base file name for a given epoch.
pub fn base_file_name(epoch: u64) -> String {
    format!("base-{epoch:08}.lfps")
}

/// Canonical segment file name for a given epoch.
pub fn segment_file_name(epoch: u64) -> String {
    format!("epoch-{epoch:08}.seg")
}

/// Wrap a serialized [`SnapshotDelta`](crate::SnapshotDelta) as an
/// `LFPS` segment container sealed at `epoch`.
pub fn encode_segment(epoch: u64, delta: &[u8]) -> Sealed {
    let mut payload = Writer::new();
    payload.u64(epoch);
    payload.bytes(delta);
    let mut file = FileWriter::new(SEGMENT_MAGIC);
    file.section(SEGMENT_TAG, payload);
    file.seal()
}

/// Unwrap a parsed `LFPS` segment: the epoch it seals plus the delta
/// bytes (still their own checksummed `LFPD` container).
pub(crate) fn segment_payload<'a>(file: &FileReader<'a>) -> Result<(u64, &'a [u8]), StoreError> {
    let mut reader = file.section(SEGMENT_TAG, "segment")?;
    let epoch = reader.u64()?;
    let delta = reader.slice()?;
    reader.done()?;
    Ok((epoch, delta))
}

/// Seal `bytes` as the file `target`: chunked writes into
/// `<target>.tmp` through the fault seam, fsync, rename, fsync the
/// parent directory. On return the file is durable under its final
/// name; on an error `target` still holds whatever it held before.
pub(crate) fn write_sealed(
    target: &Path,
    bytes: &[u8],
    faults: &mut dyn LogFaults,
) -> Result<(), StoreError> {
    let name = target
        .file_name()
        .map(|name| name.to_string_lossy())
        .unwrap_or_default();
    let mut temporary = target.as_os_str().to_owned();
    temporary.push(".tmp");
    {
        let mut file = std::fs::File::create(&temporary)?;
        let mut offset = 0usize;
        for chunk in bytes.chunks(SAVE_CHUNK) {
            faults.on_chunk(&name, offset, chunk.len())?;
            std::io::Write::write_all(&mut file, chunk)?;
            offset += chunk.len();
        }
        if bytes.is_empty() {
            faults.on_chunk(&name, 0, 0)?;
        }
        // Contents must be on stable storage *before* the rename can
        // publish them: rename-then-crash with dirty pages is exactly
        // the torn-file case.
        file.sync_all()?;
    }
    faults.on_seal(&name)?;
    std::fs::rename(&temporary, target)?;
    // The rename itself lives in the directory; fsync it so the
    // publish survives power loss too (otherwise the directory entry
    // may still point at the old inode after recovery — consistent,
    // but silently stale). A bare file name's parent is empty: ".".
    let parent = match target.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()?;
    Ok(())
}

/// The manifest published in `dir`, or `None` when there is none yet.
fn read_published(dir: &Path) -> Result<Option<Manifest>, StoreError> {
    let path = dir.join(MANIFEST_FILE);
    if !path.is_file() {
        return Ok(None);
    }
    Manifest::from_bytes(&std::fs::read(path)?).map(Some)
}

/// A segmented log directory: sealed-file writes, verified reads, the
/// manifest publish point, and orphan sweeping. Pure I/O — epoch
/// semantics (what to write, when to fold) live on
/// [`Store`](crate::Store).
///
/// The log is its directory's only writer, so it reads the published
/// manifest once, when it is opened, and keeps it in memory from then
/// on, replacing it at every [`publish`](EpochLog::publish).
#[derive(Debug)]
pub struct EpochLog {
    dir: PathBuf,
    manifest: Option<Manifest>,
    /// A file being sealed while the log is not locked (a compaction's
    /// new base): [`prune`](EpochLog::prune) spares it and its `.tmp`.
    in_flight: Option<String>,
}

impl EpochLog {
    /// Open (creating if needed) a log directory. An unreadable
    /// manifest counts as none: the next save writes a fresh base.
    pub fn create(dir: &Path) -> Result<EpochLog, StoreError> {
        std::fs::create_dir_all(dir)?;
        Ok(EpochLog {
            dir: dir.to_path_buf(),
            manifest: read_published(dir).unwrap_or(None),
            in_flight: None,
        })
    }

    /// Wrap an existing log directory; a manifest that is there but
    /// does not parse is an error.
    pub fn open(dir: &Path) -> Result<EpochLog, StoreError> {
        if !dir.is_dir() {
            return Err(StoreError::Log(format!(
                "{} is not a log directory",
                dir.display()
            )));
        }
        Ok(EpochLog {
            dir: dir.to_path_buf(),
            manifest: read_published(dir)?,
            in_flight: None,
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The published manifest, or `None` before the first publish.
    pub fn manifest(&self) -> Option<&Manifest> {
        self.manifest.as_ref()
    }

    /// Read a listed file, checking its recorded length.
    pub(crate) fn read_listed(&self, meta: &SegmentMeta) -> Result<Vec<u8>, StoreError> {
        let bytes = std::fs::read(self.dir.join(&meta.file))?;
        if bytes.len() as u64 != meta.bytes {
            return Err(StoreError::Log(format!(
                "{} holds {} bytes, manifest records {}",
                meta.file,
                bytes.len(),
                meta.bytes
            )));
        }
        Ok(bytes)
    }

    /// Parse `bytes`, read for `meta`, as a `magic` container: every
    /// section checksum and the manifest's whole-file checksum are
    /// verified in one pass before a byte of it is trusted. A file
    /// failing both reports the whole-file mismatch.
    pub(crate) fn verify<'a>(
        meta: &SegmentMeta,
        bytes: &'a [u8],
        magic: [u8; 4],
    ) -> Result<FileReader<'a>, StoreError> {
        let mismatch = || StoreError::Log(format!("{} fails its manifest checksum", meta.file));
        match FileReader::parse_hashed(bytes, magic) {
            Ok((file, checksum)) if checksum == meta.checksum => Ok(file),
            Ok(_) => Err(mismatch()),
            Err(_) if fnv1a64(bytes) != meta.checksum => Err(mismatch()),
            Err(error) => Err(error),
        }
    }

    /// Read and verify a listed segment file: the delta bytes it seals,
    /// which must be for the epoch the manifest lists it at.
    pub fn read_segment(&self, meta: &SegmentMeta) -> Result<Vec<u8>, StoreError> {
        let bytes = self.read_listed(meta)?;
        Ok(Self::listed_payload(meta, &bytes)?.to_vec())
    }

    /// [`read_segment`](EpochLog::read_segment), returning the whole
    /// sealed file as stored instead of the delta inside it.
    pub(crate) fn read_sealed(&self, meta: &SegmentMeta) -> Result<Sealed, StoreError> {
        let bytes = self.read_listed(meta)?;
        Self::listed_payload(meta, &bytes)?;
        Ok(Sealed {
            bytes,
            checksum: meta.checksum,
        })
    }

    /// Verify a segment file read for `meta`: the delta bytes it seals.
    fn listed_payload<'a>(meta: &SegmentMeta, bytes: &'a [u8]) -> Result<&'a [u8], StoreError> {
        let (epoch, delta) = segment_payload(&Self::verify(meta, bytes, SEGMENT_MAGIC)?)?;
        if epoch != meta.epoch {
            return Err(StoreError::Log(format!(
                "{} seals epoch {epoch} but the manifest lists it as {}",
                meta.file, meta.epoch
            )));
        }
        Ok(delta)
    }

    /// Seal `bytes` as `<dir>/<name>`, durably, through the module's
    /// one sealed-write sequence.
    pub fn write_sealed(
        &self,
        name: &str,
        bytes: &[u8],
        faults: &mut dyn LogFaults,
    ) -> Result<(), StoreError> {
        write_sealed(&self.dir.join(name), bytes, faults)
    }

    /// Atomically publish `manifest`: seal it as `MANIFEST`. Readers
    /// switch from the old log state to the new one at the rename. If
    /// the seal fails, the in-memory manifest is re-read from disk, so
    /// it stays whatever a load would see.
    pub fn publish(
        &mut self,
        manifest: Manifest,
        faults: &mut dyn LogFaults,
    ) -> Result<(), StoreError> {
        match self.write_sealed(MANIFEST_FILE, &manifest.to_bytes(), faults) {
            Ok(()) => {
                self.manifest = Some(manifest);
                Ok(())
            }
            Err(error) => {
                self.manifest = read_published(&self.dir).unwrap_or(None);
                Err(error)
            }
        }
    }

    /// Mark `file` as being sealed while the log is unlocked, so
    /// [`prune`](EpochLog::prune) spares it. At most one file is in
    /// flight: returns `false` (and marks nothing) when another is.
    pub(crate) fn reserve(&mut self, file: &str) -> bool {
        if self.in_flight.is_some() {
            return false;
        }
        self.in_flight = Some(file.to_string());
        true
    }

    /// Clear the [`reserve`](EpochLog::reserve) mark.
    pub(crate) fn release(&mut self) {
        self.in_flight = None;
    }

    /// Best-effort sweep of files the published manifest does not
    /// reference — superseded bases, folded segments, `.tmp` partials a
    /// crash left behind — sparing the reserved file and its `.tmp`.
    /// Failures are ignored: an unswept orphan is invisible to loads
    /// and gets another chance next publish.
    pub fn prune(&self) {
        let Some(manifest) = &self.manifest else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let in_flight = self.in_flight.as_deref();
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|name| name.to_str()) else {
                continue;
            };
            if name == MANIFEST_FILE
                || name == manifest.base.file
                || manifest.segments.iter().any(|meta| meta.file == name)
                || in_flight.is_some_and(|file| name.strip_suffix(".tmp").unwrap_or(name) == file)
            {
                continue;
            }
            let sweepable =
                name.ends_with(".tmp") || name.ends_with(".seg") || name.ends_with(".lfps");
            if sweepable {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::VERSION;

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("lfp-seg-{tag}-{}-{unique}", std::process::id()))
    }

    fn sample_manifest() -> Manifest {
        Manifest {
            base: SegmentMeta {
                epoch: 2,
                file: base_file_name(2),
                checksum: 0xDEAD,
                bytes: 100,
            },
            segments: vec![
                SegmentMeta {
                    epoch: 3,
                    file: segment_file_name(3),
                    checksum: 1,
                    bytes: 10,
                },
                SegmentMeta {
                    epoch: 4,
                    file: segment_file_name(4),
                    checksum: 2,
                    bytes: 20,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips_and_reports_coverage() {
        let manifest = sample_manifest();
        let decoded = Manifest::from_bytes(&manifest.to_bytes()).expect("round trip");
        assert_eq!(decoded, manifest);
        assert_eq!(decoded.covered(), 4);
        assert_eq!(decoded.segment_bytes(), 30);
    }

    #[test]
    fn manifest_rejects_holes_and_hostile_names() {
        let mut gapped = sample_manifest();
        gapped.segments[1].epoch = 9;
        assert!(matches!(
            Manifest::from_bytes(&gapped.to_bytes()),
            Err(StoreError::Log(_))
        ));

        let mut escape = sample_manifest();
        escape.segments[0].file = "../outside.seg".to_string();
        assert!(matches!(
            Manifest::from_bytes(&escape.to_bytes()),
            Err(StoreError::Log(_))
        ));

        // A valid header whose body stops short is a truncation…
        let short = [&MANIFEST_MAGIC[..], &VERSION.to_le_bytes(), b"MNFS\x05"].concat();
        assert!(matches!(
            Manifest::from_bytes(&short),
            Err(StoreError::Truncated { .. })
        ));
        // …while junk after the magic is read as the version first.
        assert!(matches!(
            Manifest::from_bytes(b"LFPM junk"),
            Err(StoreError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn segment_container_round_trips() {
        let delta = vec![7u8; 1000];
        let sealed = encode_segment(42, &delta);
        assert_eq!(sealed.checksum, fnv1a64(&sealed.bytes));
        let bytes = sealed.bytes;
        let parsed = FileReader::parse(&bytes, SEGMENT_MAGIC).expect("round trip");
        let (epoch, decoded) = segment_payload(&parsed).expect("round trip");
        assert_eq!(epoch, 42);
        assert_eq!(decoded, delta);
        assert!(FileReader::parse(&bytes[..bytes.len() - 3], SEGMENT_MAGIC).is_err());
    }

    #[test]
    fn sealed_writes_verify_and_prune_sweeps_orphans() {
        let dir = scratch("log");
        let mut log = EpochLog::create(&dir).expect("create");
        assert!(log.manifest().is_none());
        let name = segment_file_name(3);
        let payload = vec![9u8; 3000];
        let sealed = encode_segment(3, &payload);
        log.write_sealed(&name, &sealed.bytes, &mut DurableLog)
            .expect("seal");
        let meta = SegmentMeta::sealed(3, name, &sealed);
        assert_eq!(log.read_segment(&meta).expect("verified read"), payload);

        // A wrong whole-file checksum, or a wrong epoch, is refused.
        let mut flipped = meta.clone();
        flipped.checksum ^= 1;
        assert!(matches!(
            log.read_segment(&flipped),
            Err(StoreError::Log(_))
        ));
        let mut misplaced = meta.clone();
        misplaced.epoch = 4;
        assert!(matches!(
            log.read_segment(&misplaced),
            Err(StoreError::Log(_))
        ));
        // A flipped payload byte fails both checksums; the manifest's is
        // the one reported.
        let mut torn = sealed.bytes.clone();
        torn[40] ^= 1;
        assert_eq!(
            EpochLog::verify(&meta, &torn, SEGMENT_MAGIC).unwrap_err(),
            StoreError::Log(format!("{} fails its manifest checksum", meta.file))
        );

        // Orphans: a stale tmp and an unreferenced segment; the reserved
        // base and its tmp survive the sweep until released.
        std::fs::write(dir.join("epoch-00000009.seg.tmp"), b"torn").expect("tmp");
        std::fs::write(dir.join("epoch-00000008.seg"), b"orphan").expect("orphan");
        std::fs::write(dir.join("notes.txt"), b"keep me").expect("notes");
        std::fs::write(dir.join("base-00000005.lfps.tmp"), b"folding").expect("fold tmp");
        assert!(log.reserve(&base_file_name(5)));
        assert!(!log.reserve(&base_file_name(6)), "one file in flight");
        let manifest = Manifest {
            base: SegmentMeta {
                epoch: 2,
                file: base_file_name(2),
                checksum: 0,
                bytes: 0,
            },
            segments: vec![meta],
        };
        log.publish(manifest.clone(), &mut DurableLog)
            .expect("publish");
        log.prune();
        assert!(!dir.join("epoch-00000009.seg.tmp").exists());
        assert!(!dir.join("epoch-00000008.seg").exists());
        assert!(dir.join("epoch-00000003.seg").exists());
        assert!(dir.join("base-00000005.lfps.tmp").exists());
        assert!(
            dir.join("notes.txt").exists(),
            "non-log files are not swept"
        );
        log.release();
        log.prune();
        assert!(!dir.join("base-00000005.lfps.tmp").exists());

        // The published manifest is what the log holds and what a fresh
        // open reads back.
        assert_eq!(log.manifest(), Some(&manifest));
        let reopened = EpochLog::open(&dir).expect("open");
        assert_eq!(reopened.manifest(), Some(&manifest));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
