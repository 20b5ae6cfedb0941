//! Versioned, checksummed binary snapshot codec for crash-safe durability.
//!
//! Every piece of persistent simulator state — full-machine checkpoints
//! written by `bows-run --checkpoint-every`, and the append-only result
//! store behind `bows-serve --state-dir` — goes through this crate. The
//! format is deliberately boring:
//!
//! * a fixed envelope: magic `b"BSNP"`, a format version, the body length,
//!   and an FNV-1a checksum over the body;
//! * little-endian primitive fields appended by [`SnapWriter`] and read
//!   back by [`SnapReader`] with bounds checks on every access.
//!
//! The whole-body checksum is the crash-safety contract: any truncation,
//! torn write, or bit flip of a stored snapshot fails [`decode_envelope`]
//! with a structured [`SnapshotError`] *before* a single field is decoded,
//! so a corrupt file can never partially mutate simulator state. On top of
//! that, [`SnapReader`] never trusts embedded lengths: collection sizes
//! are capped by the bytes actually remaining, so even a maliciously
//! crafted body that passes the checksum cannot drive allocations past the
//! input size.
//!
//! [`atomic_write`] implements the write-side protocol: temp file in the
//! target directory, `fsync`, rename over the destination. A crash at any
//! point leaves either the old complete file or the new complete file.
//!
//! What goes *inside* a body is defined once, by the [`Snap`] trait and the
//! field-list macros in [`codec`]: every type that persists lists its
//! fields in one place and both directions are generated from that list.

pub mod codec;

pub use codec::{assert_snap_laws, encode, min_of, Snap};

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// First four bytes of every snapshot envelope.
pub const MAGIC: [u8; 4] = *b"BSNP";

/// Current snapshot format version. Bump on any incompatible layout
/// change; readers reject other versions with
/// [`SnapshotError::UnsupportedVersion`].
pub const VERSION: u32 = 2;

/// Envelope size: magic (4) + version (4) + body length (8) + checksum (8).
pub const ENVELOPE_BYTES: usize = 24;

/// FNV-1a over a byte slice — the body checksum. Stable, dependency-free,
/// and plenty for corruption *detection* (this is not an integrity MAC;
/// snapshots are trusted local files).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Structured decode/IO failure. Every corrupt or hostile input must land
/// on one of these — never a panic.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Input ended before the envelope or body was complete.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first four bytes were not `b"BSNP"`.
    BadMagic,
    /// Envelope version this reader does not understand.
    UnsupportedVersion {
        /// Version found in the envelope.
        found: u32,
    },
    /// Body checksum did not match the envelope.
    ChecksumMismatch {
        /// Checksum stored in the envelope.
        expected: u64,
        /// Checksum computed over the body as read.
        actual: u64,
    },
    /// The body passed the checksum but a field failed validation
    /// (impossible discriminant, inconsistent lengths, …).
    Malformed {
        /// What was being decoded when the inconsistency was found.
        what: String,
    },
    /// Underlying filesystem failure while reading or writing.
    Io {
        /// The operation that failed (for the error message).
        what: String,
        /// OS error kind (the `io::Error` itself is not `Clone`/`PartialEq`).
        kind: io::ErrorKind,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads {VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: expected {expected:#018x}, got {actual:#018x}"
            ),
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
            SnapshotError::Io { what, kind } => write!(f, "snapshot io error: {what}: {kind}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    /// Shorthand for [`SnapshotError::Malformed`].
    pub fn malformed(what: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed { what: what.into() }
    }

    fn io(what: impl Into<String>, e: &io::Error) -> SnapshotError {
        SnapshotError::Io {
            what: what.into(),
            kind: e.kind(),
        }
    }
}

/// Append-only little-endian field writer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Fresh empty body.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Finished body bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a usize as u64 (platform-independent encoding).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an f64 by bit pattern (exact round-trip, NaN-safe).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append whatever `f` writes as one length-prefixed blob, so a reader
    /// that misjudges the nested encoding cannot desynchronize what follows.
    pub fn nested(&mut self, f: impl FnOnce(&mut SnapWriter)) {
        let mut inner = SnapWriter::new();
        f(&mut inner);
        self.bytes(&inner.buf);
    }
}

/// Bounds-checked little-endian field reader over a decoded body.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail unless the reader consumed the body exactly.
    pub fn expect_exhausted(&self) -> Result<(), SnapshotError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(SnapshotError::malformed(format!(
                "{} trailing bytes after last field",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::malformed(format!("bool byte {b}"))),
        }
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Read a u64-encoded usize, rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::malformed(format!("usize overflow: {v}")))
    }

    /// Read an f64 by bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read an embedded collection length, capped so that `len * min_elem_bytes`
    /// can never exceed the bytes remaining. This is the allocation guard:
    /// even a checksum-valid but hostile body cannot make a decoder reserve
    /// more memory than the input it arrived in.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        let cap = self.remaining() / min_elem_bytes.max(1);
        if n > cap {
            return Err(SnapshotError::malformed(format!(
                "length {n} exceeds remaining input (cap {cap})"
            )));
        }
        Ok(n)
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapshotError::malformed("string is not UTF-8"))
    }

    /// Read a blob written by [`SnapWriter::nested`]: `f` decodes from a
    /// reader confined to the blob and must consume it exactly.
    pub fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut SnapReader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let mut inner = SnapReader::new(self.bytes()?);
        let v = f(&mut inner)?;
        inner.expect_exhausted()?;
        Ok(v)
    }
}

/// Wrap a body in the magic/version/length/checksum envelope.
pub fn encode_envelope(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_BYTES + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Validate the envelope and return the body slice. Fails — without having
/// produced any partial result — on truncation, wrong magic, unknown
/// version, length mismatch, or checksum mismatch.
pub fn decode_envelope(data: &[u8]) -> Result<&[u8], SnapshotError> {
    if data.len() < ENVELOPE_BYTES {
        return Err(SnapshotError::Truncated {
            needed: ENVELOPE_BYTES,
            have: data.len(),
        });
    }
    if data[0..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let body_len = u64::from_le_bytes([
        data[8], data[9], data[10], data[11], data[12], data[13], data[14], data[15],
    ]);
    let body_len = usize::try_from(body_len)
        .map_err(|_| SnapshotError::malformed(format!("body length overflow: {body_len}")))?;
    let avail = data.len() - ENVELOPE_BYTES;
    if body_len != avail {
        // Longer-than-declared is torn/garbage-appended; shorter is truncated.
        if body_len > avail {
            return Err(SnapshotError::Truncated {
                needed: ENVELOPE_BYTES + body_len,
                have: data.len(),
            });
        }
        return Err(SnapshotError::malformed(format!(
            "body length {body_len} disagrees with file size {avail}"
        )));
    }
    let expected = u64::from_le_bytes([
        data[16], data[17], data[18], data[19], data[20], data[21], data[22], data[23],
    ]);
    let body = &data[ENVELOPE_BYTES..];
    let actual = fnv1a(body);
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    Ok(body)
}

/// Write `data` to `path` atomically: a unique temp file in the same
/// directory, flushed and fsynced, then renamed over the destination. The
/// directory is fsynced afterwards so the rename itself is durable. A
/// crash at any point leaves `path` either absent, the old version, or the
/// new version — never a torn mix.
pub fn atomic_write(path: &Path, data: &[u8]) -> Result<(), SnapshotError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| SnapshotError::malformed(format!("no file name in {}", path.display())))?;
    let mut tmp: PathBuf = dir.map(Path::to_path_buf).unwrap_or_default();
    // Uniquify with the pid so concurrent writers in the same directory
    // never stomp each other's temp file.
    tmp.push(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut f = fs::File::create(&tmp)
            .map_err(|e| SnapshotError::io(format!("create {}", tmp.display()), &e))?;
        f.write_all(data)
            .map_err(|e| SnapshotError::io(format!("write {}", tmp.display()), &e))?;
        f.sync_all()
            .map_err(|e| SnapshotError::io(format!("fsync {}", tmp.display()), &e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| {
            SnapshotError::io(
                format!("rename {} -> {}", tmp.display(), path.display()),
                &e,
            )
        })?;
        if let Some(d) = dir {
            // Make the rename durable. Failure here is reported: the data
            // is correct but not guaranteed on disk yet.
            let df = fs::File::open(d)
                .map_err(|e| SnapshotError::io(format!("open dir {}", d.display()), &e))?;
            df.sync_all()
                .map_err(|e| SnapshotError::io(format!("fsync dir {}", d.display()), &e))?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Read a whole snapshot file.
pub fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    fs::read(path).map_err(|e| SnapshotError::io(format!("read {}", path.display()), &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.usize(123_456);
        w.f64(-0.5);
        w.f64(f64::NAN);
        w.bytes(b"hello");
        w.str("wörld");
        let body = w.into_bytes();
        let mut r = SnapReader::new(&body);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "wörld");
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn envelope_round_trip() {
        let body = b"some body bytes".to_vec();
        let enc = encode_envelope(&body);
        assert_eq!(decode_envelope(&enc).unwrap(), &body[..]);
    }

    #[test]
    fn every_truncation_is_structured() {
        let enc = encode_envelope(b"0123456789abcdef");
        for n in 0..enc.len() {
            let err = decode_envelope(&enc[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::Malformed { .. }
                ),
                "truncation to {n} gave {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let enc = encode_envelope(b"payload under test");
        for byte in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_envelope(&bad).is_err(),
                    "flip of byte {byte} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn hostile_length_cannot_over_allocate() {
        // A checksum-valid body claiming a 2^60-element vector must fail
        // the remaining-bytes cap, not reserve memory.
        let mut w = SnapWriter::new();
        w.u64(1 << 60);
        let body = w.into_bytes();
        let mut r = SnapReader::new(&body);
        assert!(matches!(r.len(8), Err(SnapshotError::Malformed { .. })));
        let mut r2 = SnapReader::new(&body);
        assert!(r2.bytes().is_err());
    }

    #[test]
    fn bad_magic_and_version() {
        let mut enc = encode_envelope(b"x");
        enc[0] = b'X';
        assert!(matches!(
            decode_envelope(&enc),
            Err(SnapshotError::BadMagic)
        ));
        let mut enc2 = encode_envelope(b"x");
        enc2[4] = 99;
        assert!(matches!(
            decode_envelope(&enc2),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn atomic_write_round_trip_and_overwrite() {
        let dir = std::env::temp_dir().join(format!("simt-snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer payload");
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
