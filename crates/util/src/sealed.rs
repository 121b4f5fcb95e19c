//! Sealed files: the workspace's one on-disk framing, commit protocol and
//! discovery scan.
//!
//! Every persistent format (round journals, shard manifests, parameter
//! checkpoints, serving snapshots) is framed the same way:
//!
//! ```text
//! magic (8 bytes) | body | u64 little-endian FNV-1a 64 digest of the body
//! ```
//!
//! [`unseal`] checks the magic and the length and verifies the digest
//! *before* a format parses a single body byte, so a torn write or a
//! flipped bit anywhere in the file is a typed [`SealError::Corrupt`],
//! never a panic or silently wrong state. [`write_atomic`] is the only
//! commit protocol: a `<name>.tmp` sibling is written and fsynced, renamed
//! over the committed name, and the parent directory is fsynced so the
//! rename itself survives a power cut. [`newest_valid`] is the only
//! discovery scan: it walks `<prefix>-<round>.<ext>` files newest-first
//! and returns the first one that opens cleanly, so one bad file degrades
//! recovery to the previous round instead of failing it — and a `.tmp`
//! staging file is never even a candidate.

use crate::{read_f32_section, Checksum};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Length of the magic every sealed file starts with.
const MAGIC_LEN: usize = 8;

/// Length of the digest trailer every sealed file ends with.
const TRAILER_LEN: usize = 8;

/// Why a sealed file could not be read, written or parsed.
#[derive(Debug)]
pub enum SealError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a valid file of the expected format: wrong magic,
    /// truncation, digest mismatch, or a malformed body.
    Corrupt(String),
}

impl From<io::Error> for SealError {
    fn from(e: io::Error) -> Self {
        SealError::Io(e)
    }
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::Io(e) => write!(f, "I/O error: {e}"),
            SealError::Corrupt(m) => write!(f, "corrupt file: {m}"),
        }
    }
}

impl std::error::Error for SealError {}

/// Frames a body: `magic`, whatever `encode` appends, then the digest of
/// everything `encode` appended. The body is encoded in place, never copied.
pub fn seal<E>(
    magic: &[u8; MAGIC_LEN],
    encode: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
) -> Result<Vec<u8>, E> {
    let mut bytes = magic.to_vec();
    encode(&mut bytes)?;
    let digest = Checksum::of(&bytes[MAGIC_LEN..]);
    bytes.extend_from_slice(&digest.to_le_bytes());
    Ok(bytes)
}

/// Returns the body of a sealed file after checking its length and magic
/// and verifying its digest.
pub fn unseal<'a>(magic: &[u8; MAGIC_LEN], bytes: &'a [u8]) -> Result<&'a [u8], SealError> {
    let name = String::from_utf8_lossy(magic);
    if bytes.len() < MAGIC_LEN + TRAILER_LEN {
        return Err(SealError::Corrupt(format!(
            "{name}: truncated to {} bytes (a sealed file has at least {})",
            bytes.len(),
            MAGIC_LEN + TRAILER_LEN
        )));
    }
    if &bytes[..MAGIC_LEN] != magic {
        return Err(SealError::Corrupt(format!(
            "bad magic {:?} (expected {name})",
            String::from_utf8_lossy(&bytes[..MAGIC_LEN])
        )));
    }
    let (body, trailer) = bytes[MAGIC_LEN..].split_at(bytes.len() - MAGIC_LEN - TRAILER_LEN);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = Checksum::of(body);
    if stored != computed {
        return Err(SealError::Corrupt(format!(
            "{name}: checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(body)
}

/// Reads a file and [`unseal`]s it, returning the verified body.
pub fn read_verified(magic: &[u8; MAGIC_LEN], path: &Path) -> Result<Vec<u8>, SealError> {
    let bytes = fs::read(path)?;
    Ok(unseal(magic, &bytes)?.to_vec())
}

/// The staging sibling of `path`: its file name with `.tmp` appended.
///
/// Appended, never substituted for the extension, so two committed names
/// can never share a staging file, and no `.tmp` name is ever a discovery
/// candidate.
pub fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Commits `bytes` to `path` durably and atomically.
///
/// The bytes go to [`staging_path`], which is fsynced and renamed over
/// `path`; the parent directory (created if missing) is fsynced last, so
/// the new directory entry is durable too. A crash at any point leaves
/// either the previous file at `path` or the complete new one — at worst
/// plus a stale `.tmp` sibling that discovery ignores.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    let tmp = staging_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    File::open(dir)?.sync_all()
}

/// The round of a committed `<prefix>-<digits>.<ext>` file name, or `None`
/// for any other name (staging files included).
fn round_of(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_prefix('-')?;
    let digits = digits.strip_suffix(ext)?.strip_suffix('.')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Finds the newest file in `dir` named `<prefix>-<round>.<ext>` that
/// `open` accepts, scanning in descending round order.
///
/// Each candidate `open` rejects is reported to `skipped` and passed over,
/// so a torn or corrupt newest file falls back to the next-newest. Returns
/// `Ok(None)` for an absent directory, one with no candidates, or one whose
/// every candidate is rejected; only a failure to list `dir` is an error.
pub fn newest_valid<T, E>(
    dir: &Path,
    prefix: &str,
    ext: &str,
    mut open: impl FnMut(&Path) -> Result<T, E>,
    mut skipped: impl FnMut(&Path, E),
) -> io::Result<Option<(PathBuf, T)>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut candidates = Vec::new();
    for entry in entries {
        let path = entry?.path();
        let round =
            path.file_name().and_then(|n| n.to_str()).and_then(|n| round_of(n, prefix, ext));
        if let Some(round) = round {
            candidates.push((round, path));
        }
    }
    candidates.sort();
    for (_, path) in candidates.into_iter().rev() {
        match open(&path) {
            Ok(value) => return Ok(Some((path, value))),
            Err(e) => skipped(&path, e),
        }
    }
    Ok(None)
}

/// Bounds-checked little-endian reader over a verified body.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// The next `n` bytes, or `Corrupt` if fewer remain.
    fn take(&mut self, n: usize) -> Result<&'a [u8], SealError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            SealError::Corrupt(format!("truncated body at offset {} (+{n})", self.pos))
        })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SealError> {
        Ok(self.take(N)?.try_into().expect("take returns exactly N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SealError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SealError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SealError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, SealError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, SealError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads `n` little-endian `f32`s as one block.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, SealError> {
        let len = n
            .checked_mul(4)
            .ok_or_else(|| SealError::Corrupt(format!("f32 section of {n} values overflows")))?;
        Ok(read_f32_section(self.take(len)?, n)?)
    }

    /// Reads a `u32` length, at most `max`, then that many UTF-8 bytes.
    pub fn str(&mut self, max: usize) -> Result<String, SealError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(SealError::Corrupt(format!("string of {len} bytes exceeds {max}")));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| SealError::Corrupt("string is not UTF-8".into()))
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Succeeds only if every byte was read.
    pub fn finish(self) -> Result<(), SealError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SealError::Corrupt(format!("{n} trailing bytes after the body"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"MAMDRTS1";

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mamdr-sealed-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sealed(body: &[u8]) -> Vec<u8> {
        seal::<()>(MAGIC, |b| {
            b.extend_from_slice(body);
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn seal_layout_is_magic_body_digest() {
        let bytes = sealed(b"hello");
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(&bytes[8..13], b"hello");
        assert_eq!(bytes[13..], Checksum::of(b"hello").to_le_bytes());
        assert_eq!(unseal(MAGIC, &bytes).unwrap(), b"hello");
        // An empty body is a valid 16-byte file.
        assert_eq!(unseal(MAGIC, &sealed(b"")).unwrap(), b"");
    }

    #[test]
    fn unseal_names_each_failure() {
        let bytes = sealed(b"payload");
        let err = |b: &[u8]| unseal(MAGIC, b).unwrap_err().to_string();
        assert!(err(&bytes[..15]).contains("truncated"), "{}", err(&bytes[..15]));
        assert!(err(b"MAMDRXX1\0\0\0\0\0\0\0\0").contains("bad magic"));
        let mut flipped = bytes.clone();
        flipped[9] ^= 0x01;
        assert!(err(&flipped).contains("checksum mismatch"), "{}", err(&flipped));
    }

    #[test]
    fn write_atomic_commits_overwrites_and_leaves_no_staging_file() {
        let dir = tmp_dir("atomic");
        let path = dir.join("x-0000000001.bin");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!staging_path(&path).exists());
        assert_eq!(staging_path(&path), dir.join("x-0000000001.bin.tmp"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_of_accepts_only_committed_names() {
        assert_eq!(round_of("snapshot-0000000012.mamdrsv", "snapshot", "mamdrsv"), Some(12));
        assert_eq!(round_of("snapshot-0000000012.mamdrsv.tmp", "snapshot", "mamdrsv"), None);
        assert_eq!(round_of("snapshot-00000000xx.mamdrsv", "snapshot", "mamdrsv"), None);
        assert_eq!(round_of("snapshot-.mamdrsv", "snapshot", "mamdrsv"), None);
        assert_eq!(round_of("journal-0000000012.mamdrj", "snapshot", "mamdrsv"), None);
        assert_eq!(round_of("snapshotx-0000000012.mamdrsv", "snapshot", "mamdrsv"), None);
    }

    #[test]
    fn newest_valid_scans_newest_first_and_reports_skips() {
        let dir = tmp_dir("scan");
        let open = |p: &Path| read_verified(MAGIC, p);
        assert!(newest_valid(&dir, "f", "bin", open, |_, _| {}).unwrap().is_none());
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("f-0000000003.bin"), sealed(b"three")).unwrap();
        fs::write(dir.join("f-0000000011.bin"), sealed(b"eleven")).unwrap();
        // Distractors: a valid file under a staging name, foreign names.
        fs::write(dir.join("f-0000000099.bin.tmp"), sealed(b"staged")).unwrap();
        fs::write(dir.join("notes.txt"), b"x").unwrap();
        fs::write(dir.join("g-0000000050.bin"), sealed(b"other")).unwrap();
        let (path, body) = newest_valid(&dir, "f", "bin", open, |_, _| {}).unwrap().unwrap();
        assert_eq!(
            (path.file_name().unwrap().to_str().unwrap(), body.as_slice()),
            ("f-0000000011.bin", &b"eleven"[..])
        );
        // Tear the newest: it is reported and the scan falls back.
        fs::write(dir.join("f-0000000011.bin"), &sealed(b"eleven")[..10]).unwrap();
        let mut skips = Vec::new();
        let (_, body) = newest_valid(&dir, "f", "bin", open, |p, e: SealError| {
            skips.push((p.to_path_buf(), e.to_string()))
        })
        .unwrap()
        .unwrap();
        assert_eq!(body, b"three");
        assert_eq!(skips.len(), 1);
        assert!(skips[0].0.ends_with("f-0000000011.bin"));
        assert!(skips[0].1.contains("truncated"), "{}", skips[0].1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cursor_is_bounds_checked() {
        let mut body = Vec::new();
        body.push(7u8);
        body.extend_from_slice(&9u32.to_le_bytes());
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        body.extend_from_slice(&1.5f64.to_le_bytes());
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(b"ok");
        body.extend_from_slice(&(-0.25f32).to_le_bytes());
        body.extend_from_slice(&0.5f32.to_le_bytes());
        let mut cur = Cursor::new(&body);
        assert_eq!(cur.u8().unwrap(), 7);
        assert_eq!(cur.u32().unwrap(), 9);
        assert_eq!(cur.u64().unwrap(), u64::MAX);
        assert_eq!(cur.f64().unwrap(), 1.5);
        assert_eq!(cur.str(16).unwrap(), "ok");
        assert_eq!(cur.f32().unwrap(), -0.25);
        assert_eq!(cur.remaining(), 4);
        assert!(cur.f32s(2).is_err(), "reading past the end must fail");
        assert!(cur.f32s(usize::MAX).is_err(), "overflowing lengths must fail");
        assert_eq!(cur.f32s(1).unwrap(), vec![0.5]);
        cur.finish().unwrap();
        let mut cur = Cursor::new(&body);
        cur.u8().unwrap();
        assert!(cur.finish().is_err(), "unread bytes must fail finish");
        let mut cur = Cursor::new(&body[5..]);
        cur.u64().unwrap();
        cur.f64().unwrap();
        assert!(cur.str(1).is_err(), "over-long strings must fail");
    }
}
