//! # mamdr-util
//!
//! The one home of the workspace's binary-format primitives. The on-disk
//! formats (round journals, shard manifests, parameter checkpoints and
//! serving snapshots) and the `mamdr-rpc` frame protocol share the same
//! integrity and payload conventions, so they live here once and everyone
//! delegates.
//!
//! * [`Checksum`] — incremental FNV-1a 64-bit digest.
//! * [`write_f32_section`] / [`read_f32_section`] — little-endian f32
//!   payload sections, moved as one block copy on little-endian targets
//!   (no per-element conversion loop on the hot framing path).
//! * [`sealed`] — the one file framing (magic, body, digest), the one
//!   durable atomic commit, and the one newest-valid-file discovery scan.

use std::io::{self, Read, Write};

pub mod sealed;

/// Incremental FNV-1a 64-bit hasher over serialized bytes.
///
/// Snapshot and frame formats append the digest after their payload so a
/// flipped bit anywhere surfaces as a load/decode error instead of silently
/// corrupted parameters. FNV-1a is not cryptographic — it guards against
/// storage/transfer corruption, not adversaries.
#[derive(Debug, Clone)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

impl Checksum {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Checksum(Self::OFFSET)
    }

    /// Feeds bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }

    /// One-shot digest of a byte slice.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut c = Checksum::new();
        c.update(bytes);
        c.digest()
    }
}

/// Views an f32 slice as its raw bytes (alignment of u8 is 1, so this is
/// always valid; byte order is the host's, which callers must gate on).
#[cfg(target_endian = "little")]
fn as_bytes(values: &[f32]) -> &[u8] {
    // SAFETY: f32 has no padding or invalid bit patterns as bytes, and the
    // length arithmetic cannot overflow (the slice already fits in memory).
    unsafe { std::slice::from_raw_parts(values.as_ptr() as *const u8, values.len() * 4) }
}

#[cfg(target_endian = "little")]
fn as_bytes_mut(values: &mut [f32]) -> &mut [u8] {
    // SAFETY: as above; exclusive access is inherited from the &mut slice.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr() as *mut u8, values.len() * 4) }
}

/// Writes a little-endian f32 section (values only, caller frames lengths).
///
/// On little-endian hosts the slice is written as one block with no
/// per-element conversion — the wire order *is* the memory order.
pub fn write_f32_section(mut w: impl Write, values: &[f32]) -> io::Result<()> {
    #[cfg(target_endian = "little")]
    {
        w.write_all(as_bytes(values))
    }
    #[cfg(not(target_endian = "little"))]
    {
        for &v in values {
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }
}

/// Reads `n` little-endian f32 values written by [`write_f32_section`].
///
/// Allocates `4 * n` bytes up front: callers decoding untrusted input must
/// cap `n` from their framing *before* calling (the rpc frame codec and the
/// snapshot readers both do).
pub fn read_f32_section(mut r: impl Read, n: usize) -> io::Result<Vec<f32>> {
    let mut values = vec![0.0f32; n];
    read_f32_into(&mut r, &mut values)?;
    Ok(values)
}

/// Reads little-endian f32 values directly into `out` (no intermediate
/// buffer on little-endian hosts).
pub fn read_f32_into(mut r: impl Read, out: &mut [f32]) -> io::Result<()> {
    #[cfg(target_endian = "little")]
    {
        r.read_exact(as_bytes_mut(out))
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut b = [0u8; 4];
        for v in out.iter_mut() {
            r.read_exact(&mut b)?;
            *v = f32::from_le_bytes(b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_matches_known_fnv1a_vectors() {
        // Empty input hashes to the offset basis.
        assert_eq!(Checksum::of(b""), 0xcbf2_9ce4_8422_2325);
        // Published FNV-1a 64 test vector.
        assert_eq!(Checksum::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(Checksum::of(b"ab"), Checksum::of(b"ba"));
    }

    #[test]
    fn checksum_is_incremental() {
        let mut inc = Checksum::new();
        inc.update(b"hel");
        inc.update(b"lo");
        assert_eq!(inc.digest(), Checksum::of(b"hello"));
    }

    #[test]
    fn f32_section_roundtrip_is_bit_exact() {
        let values = vec![0.0f32, -1.5, f32::MIN_POSITIVE, 3.25e7, -0.0, f32::NAN];
        let mut buf = Vec::new();
        write_f32_section(&mut buf, &values).unwrap();
        assert_eq!(buf.len(), 4 * values.len());
        let back = read_f32_section(buf.as_slice(), values.len()).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
    }

    #[test]
    fn f32_section_bytes_are_little_endian() {
        let mut buf = Vec::new();
        write_f32_section(&mut buf, &[1.0f32]).unwrap();
        assert_eq!(buf, 1.0f32.to_le_bytes());
    }

    #[test]
    fn truncated_section_errors() {
        let mut buf = Vec::new();
        write_f32_section(&mut buf, &[1.0, 2.0]).unwrap();
        assert!(read_f32_section(buf.as_slice(), 3).is_err());
        let mut out = [0.0f32; 3];
        assert!(read_f32_into(buf.as_slice(), &mut out).is_err());
    }
}
