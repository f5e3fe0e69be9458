//! The binary container: a versioned, checksummed sequence of
//! length-prefixed sections.
//!
//! ```text
//! file   := magic(4) version(u32) section* end-section
//! section:= tag(4) len(u64) payload(len bytes) fnv1a64(payload)(u64)
//! ```
//!
//! All integers are little-endian. The terminating `END!` section's
//! payload is the number of preceding sections, so a file cut *between*
//! sections (where every framed section would still verify) is detected
//! too. Unknown tags are checksum-verified and skipped, which is the
//! forward-compatibility seam: a newer writer may append sections without
//! bumping the version, and this decoder ignores them.
//!
//! The [`Reader`] is the defensive half: every primitive read checks the
//! remaining byte count first, and collection counts are validated
//! against a per-element minimum size *before* any allocation — a
//! corrupted count of four billion elements fails with
//! [`StoreError::Truncated`] instead of attempting a 16 GB `Vec`.

use crate::error::StoreError;

/// Store-file magic: "LFPW" (LFP World).
pub const MAGIC: [u8; 4] = *b"LFPW";
/// Snapshot-delta magic: "LFPD" (LFP Delta).
pub const DELTA_MAGIC: [u8; 4] = *b"LFPD";
/// Epoch-segment magic: "LFPS" (LFP Segment) — one sealed segment file
/// of the segmented epoch log.
pub const SEGMENT_MAGIC: [u8; 4] = *b"LFPS";
/// Log-manifest magic: "LFPM" (LFP Manifest) — the segmented log's
/// atomically-published table of contents.
pub const MANIFEST_MAGIC: [u8; 4] = *b"LFPM";
/// Apply-section magic: "LFPA" (LFP Apply) — what a replication primary
/// ships beside a segment so a follower commits the epoch without
/// classifying or encoding it again. Never written to disk.
pub const APPLY_MAGIC: [u8; 4] = *b"LFPA";
/// Current format version.
pub const VERSION: u32 = 1;
/// Tag of the mandatory terminating section.
pub const END_TAG: [u8; 4] = *b"END!";

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit — the per-section payload checksum, and (over the
/// whole file) the manifest's outer checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv_extend(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash over more bytes.
fn fnv_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hash a section payload on its own and continue the whole-file hash
/// over it, in one pass: the two multiply chains are independent, so
/// the second costs next to nothing beside the first.
fn fnv_section(file: u64, payload: &[u8]) -> (u64, u64) {
    let (mut section, mut file) = (FNV_OFFSET, file);
    for &byte in payload {
        section = (section ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        file = (file ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    (section, file)
}

/// A finished container and its whole-file [`fnv1a64`], computed while
/// the sections were framed.
#[derive(Debug, Clone)]
pub struct Sealed {
    /// The file bytes.
    pub bytes: Vec<u8>,
    /// [`fnv1a64`] over `bytes`.
    pub checksum: u64,
}

/// An append-only little-endian byte sink for one section payload.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty payload.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, value: bool) {
        self.buf.push(u8::from(value));
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Append an f64 as its IEEE-754 bit pattern (exact round trip).
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// Append a collection count (u32; the format's universal prefix).
    pub fn count(&mut self, value: usize) {
        debug_assert!(value <= u32::MAX as usize, "count exceeds u32");
        self.u32(value as u32);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, value: &str) {
        self.count(value.len());
        self.buf.extend_from_slice(value.as_bytes());
    }

    /// Append length-prefixed raw bytes.
    pub fn bytes(&mut self, value: &[u8]) {
        self.count(value.len());
        self.buf.extend_from_slice(value);
    }

    /// Append bytes already encoded, with no prefix.
    pub(crate) fn raw(&mut self, value: &[u8]) {
        self.buf.extend_from_slice(value);
    }

    /// Append a column of little-endian u16s in one step.
    pub(crate) fn u16s(&mut self, values: &[u16]) {
        self.column(values, |value, out: &mut [u8; 2]| {
            *out = value.to_le_bytes()
        });
    }

    /// Append a column of little-endian u32s in one step.
    pub(crate) fn u32s(&mut self, values: &[u32]) {
        self.column(values, |value, out: &mut [u8; 4]| {
            *out = value.to_le_bytes()
        });
    }

    /// Grow once, then fill `N` bytes per value: no per-value capacity
    /// check, so the loop vectorises.
    fn column<T: Copy, const N: usize>(&mut self, values: &[T], put: impl Fn(T, &mut [u8; N])) {
        let start = self.buf.len();
        self.buf.resize(start + values.len() * N, 0);
        for (out, &value) in self.buf[start..].chunks_exact_mut(N).zip(values) {
            put(value, out.try_into().expect("N bytes"));
        }
    }
}

/// Writes a whole store file: header once, then framed sections. The
/// whole-file checksum runs alongside, so sealing never re-reads the
/// bytes.
pub struct FileWriter {
    buf: Vec<u8>,
    sections: u64,
    checksum: u64,
}

impl FileWriter {
    /// Start a file with the given magic at the current version.
    pub fn new(magic: [u8; 4]) -> FileWriter {
        Self::reusing(magic, Vec::new())
    }

    /// [`new`](FileWriter::new), writing into `buffer` (cleared first):
    /// a writer sealing file after file can hand each one's buffer to
    /// the next, whose pages are then already mapped.
    pub(crate) fn reusing(magic: [u8; 4], mut buffer: Vec<u8>) -> FileWriter {
        buffer.clear();
        let mut file = FileWriter {
            buf: buffer,
            sections: 0,
            checksum: FNV_OFFSET,
        };
        file.append(&magic);
        file.append(&VERSION.to_le_bytes());
        file
    }

    fn append(&mut self, bytes: &[u8]) {
        self.checksum = fnv_extend(self.checksum, bytes);
        self.buf.extend_from_slice(bytes);
    }

    /// Append one framed, checksummed section.
    pub fn section(&mut self, tag: [u8; 4], payload: Writer) {
        self.section_with(tag, |writer| writer.raw(&payload.buf));
    }

    /// Append one framed, checksummed section whose payload `body`
    /// writes straight into the file: no payload buffer, no copy. The
    /// length is patched in afterwards, and both checksums then run
    /// over the payload in one pass.
    pub(crate) fn section_with(&mut self, tag: [u8; 4], body: impl FnOnce(&mut Writer)) {
        self.append(&tag);
        let at = self.buf.len();
        let mut writer = Writer {
            buf: std::mem::take(&mut self.buf),
        };
        writer.u64(0);
        body(&mut writer);
        self.buf = writer.buf;
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        let file = fnv_extend(self.checksum, &self.buf[at..at + 8]);
        let (section, file) = fnv_section(file, &self.buf[at + 8..]);
        self.checksum = file;
        self.append(&section.to_le_bytes());
        self.sections += 1;
    }

    /// Append the terminating section and return the file bytes with
    /// their whole-file checksum.
    pub fn seal(mut self) -> Sealed {
        let sections = self.sections;
        self.section_with(END_TAG, |end| end.u64(sections));
        Sealed {
            bytes: self.buf,
            checksum: self.checksum,
        }
    }

    /// Append the terminating section and return the file bytes.
    pub fn finish(self) -> Vec<u8> {
        self.seal().bytes
    }
}

/// A bounds-checked little-endian cursor over one section payload.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// Wrap a payload; `context` names it in truncation errors.
    pub fn new(data: &'a [u8], context: &'static str) -> Reader<'a> {
        Reader {
            data,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], StoreError> {
        if len > self.remaining() {
            return Err(StoreError::Truncated {
                context: self.context,
            });
        }
        let slice = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Read a strict 0/1 bool.
    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Corrupt(format!(
                "invalid bool byte {other} in {}",
                self.context
            ))),
        }
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a collection count and pre-validate it: `count * min_elem`
    /// must not exceed the remaining payload, so a hostile count can
    /// never drive an allocation larger than the input itself.
    pub fn count(&mut self, min_elem: usize) -> Result<usize, StoreError> {
        let count = self.u32()? as usize;
        if count
            .checked_mul(min_elem.max(1))
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(StoreError::Truncated {
                context: self.context,
            });
        }
        Ok(count)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("invalid UTF-8 in {}", self.context)))
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        self.slice().map(<[u8]>::to_vec)
    }

    /// Read length-prefixed raw bytes, borrowed from the payload.
    pub(crate) fn slice(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.count(1)?;
        self.take(len)
    }

    /// Run `read`, returning its value and the bytes it consumed.
    pub(crate) fn spanned<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, StoreError>,
    ) -> Result<(T, &'a [u8]), StoreError> {
        let start = self.pos;
        let value = read(self)?;
        Ok((value, &self.data[start..self.pos]))
    }

    /// Assert the payload was consumed exactly (catches framing drift).
    pub fn done(&self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after {}",
                self.remaining(),
                self.context
            )));
        }
        Ok(())
    }
}

/// A parsed store file: checksum-verified sections by tag.
#[derive(Debug)]
pub struct FileReader<'a> {
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> FileReader<'a> {
    /// Parse and verify the container framing: magic, version, every
    /// section checksum, and the terminating section count.
    pub fn parse(data: &'a [u8], magic: [u8; 4]) -> Result<FileReader<'a>, StoreError> {
        Self::parse_hashed(data, magic).map(|(file, _)| file)
    }

    /// [`parse`](FileReader::parse), also returning [`fnv1a64`] over the
    /// whole file, computed in the same pass that verifies the sections.
    pub(crate) fn parse_hashed(
        data: &'a [u8],
        magic: [u8; 4],
    ) -> Result<(FileReader<'a>, u64), StoreError> {
        if data.len() < 8 {
            return Err(StoreError::Truncated { context: "header" });
        }
        if data[..4] != magic {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let mut sections: Vec<([u8; 4], &[u8])> = Vec::new();
        let mut whole = fnv1a64(&data[..8]);
        let mut pos = 8usize;
        loop {
            if data.len() - pos < 12 {
                return Err(StoreError::Truncated {
                    context: "section header",
                });
            }
            let tag: [u8; 4] = data[pos..pos + 4].try_into().expect("4 bytes");
            let len = u64::from_le_bytes(data[pos + 4..pos + 12].try_into().expect("8 bytes"));
            whole = fnv_extend(whole, &data[pos..pos + 12]);
            pos += 12;
            let len = usize::try_from(len).map_err(|_| StoreError::Truncated {
                context: "section length",
            })?;
            // `len` came straight off the wire; `len + 8` must not be
            // allowed to overflow into a passing bounds check.
            let framed = len.checked_add(8).ok_or(StoreError::Truncated {
                context: "section length",
            })?;
            if data.len() - pos < framed {
                return Err(StoreError::Truncated {
                    context: "section payload",
                });
            }
            let payload = &data[pos..pos + len];
            let (section, next) = fnv_section(whole, payload);
            pos += len;
            let recorded = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("8 bytes"));
            whole = fnv_extend(next, &data[pos..pos + 8]);
            pos += 8;
            if section != recorded {
                return Err(StoreError::ChecksumMismatch {
                    section: String::from_utf8_lossy(&tag).into_owned(),
                });
            }
            if tag == END_TAG {
                let mut end = Reader::new(payload, "end section");
                let recorded_sections = end.u64()?;
                end.done()?;
                if recorded_sections != sections.len() as u64 {
                    return Err(StoreError::Corrupt(format!(
                        "end section records {recorded_sections} sections, found {}",
                        sections.len()
                    )));
                }
                if pos != data.len() {
                    return Err(StoreError::Corrupt(format!(
                        "{} trailing bytes after end section",
                        data.len() - pos
                    )));
                }
                return Ok((FileReader { sections }, whole));
            }
            sections.push((tag, payload));
        }
    }

    /// The payload of a mandatory section.
    pub fn section(&self, tag: [u8; 4], context: &'static str) -> Result<Reader<'a>, StoreError> {
        self.sections
            .iter()
            .find(|(candidate, _)| *candidate == tag)
            .map(|(_, payload)| Reader::new(payload, context))
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "missing section '{}'",
                    String::from_utf8_lossy(&tag)
                ))
            })
    }

    /// (tag, payload length) of every non-end section, in file order —
    /// the corruption tests use this to aim their mutations.
    pub fn section_summaries(&self) -> Vec<(String, usize)> {
        self.sections
            .iter()
            .map(|(tag, payload)| (String::from_utf8_lossy(tag).into_owned(), payload.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> Vec<u8> {
        let mut file = FileWriter::new(MAGIC);
        let mut a = Writer::new();
        a.u32(7);
        a.str("hello");
        file.section(*b"AAAA", a);
        let mut b = Writer::new();
        b.f64(1.5);
        b.bool(true);
        file.section(*b"BBBB", b);
        file.finish()
    }

    #[test]
    fn round_trips_sections_and_values() {
        let bytes = sample_file();
        let file = FileReader::parse(&bytes, MAGIC).unwrap();
        let mut a = file.section(*b"AAAA", "a").unwrap();
        assert_eq!(a.u32().unwrap(), 7);
        assert_eq!(a.str().unwrap(), "hello");
        a.done().unwrap();
        let mut b = file.section(*b"BBBB", "b").unwrap();
        assert_eq!(b.f64().unwrap(), 1.5);
        assert!(b.bool().unwrap());
        b.done().unwrap();
        assert_eq!(
            file.section_summaries().len(),
            2,
            "end section is framing, not content"
        );
    }

    #[test]
    fn the_whole_file_checksum_rides_along_both_ways() {
        let mut file = FileWriter::new(MAGIC);
        let mut a = Writer::new();
        a.str("one pass");
        file.section(*b"AAAA", a);
        file.section(*b"EMPT", Writer::new());
        let sealed = file.seal();
        assert_eq!(sealed.checksum, fnv1a64(&sealed.bytes));
        let (_, parsed) = FileReader::parse_hashed(&sealed.bytes, MAGIC).unwrap();
        assert_eq!(parsed, sealed.checksum);
    }

    #[test]
    fn header_failures_are_typed() {
        assert_eq!(
            FileReader::parse(b"nope", MAGIC).unwrap_err(),
            StoreError::Truncated { context: "header" }
        );
        assert_eq!(
            FileReader::parse(b"XXXXxxxxxxxx", MAGIC).unwrap_err(),
            StoreError::BadMagic
        );
        let mut bytes = sample_file();
        bytes[4] = 99; // version
        assert_eq!(
            FileReader::parse(&bytes, MAGIC).unwrap_err(),
            StoreError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let clean = sample_file();
        // Flip one payload byte of the first section (header is 8, frame
        // is 12, so payload starts at 20).
        let mut bytes = clean.clone();
        bytes[21] ^= 0x40;
        match FileReader::parse(&bytes, MAGIC).unwrap_err() {
            StoreError::ChecksumMismatch { section } => assert_eq!(section, "AAAA"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let bytes = sample_file();
        for cut in 0..bytes.len() {
            let err = FileReader::parse(&bytes[..cut], MAGIC).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. } | StoreError::BadMagic | StoreError::Corrupt(_)
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_garbage_after_end_is_rejected() {
        let mut bytes = sample_file();
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            FileReader::parse(&bytes, MAGIC).unwrap_err(),
            StoreError::Corrupt(_)
        ));
    }

    #[test]
    fn near_max_section_lengths_cannot_overflow_the_bounds_check() {
        // A section length of u64::MAX - 7 would make `len + 8` wrap to 1
        // on 64-bit if unchecked, passing the bounds check and panicking
        // on the payload slice. It must be a typed truncation error.
        for hostile in [u64::MAX, u64::MAX - 7, u64::MAX - 8] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            bytes.extend_from_slice(b"EVIL");
            bytes.extend_from_slice(&hostile.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 32]);
            assert!(
                matches!(
                    FileReader::parse(&bytes, MAGIC).unwrap_err(),
                    StoreError::Truncated { .. }
                ),
                "length {hostile} not rejected"
            );
        }
    }

    #[test]
    fn hostile_counts_never_allocate_past_the_input() {
        // A payload claiming u32::MAX strings must fail fast.
        let mut writer = Writer::new();
        writer.u32(u32::MAX);
        let payload = writer.into_bytes();
        let mut reader = Reader::new(&payload, "hostile");
        assert_eq!(
            reader.count(1).unwrap_err(),
            StoreError::Truncated { context: "hostile" }
        );
        // Same through the string path.
        let mut reader = Reader::new(&payload, "hostile");
        assert!(reader.str().is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
