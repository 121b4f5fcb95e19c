//! Parameter-server checkpointing.
//!
//! The production system snapshots the parameter server so training can
//! resume after worker or server failures. The simulation mirrors that
//! with a compact binary dump of every row (and its Adagrad accumulator
//! state is deliberately *not* saved — matching the common deployment
//! choice of cold-starting optimizer state after recovery; the round
//! journal carries the accumulators when a resume must be bit-identical).
//!
//! A checkpoint is a sealed file ([`mamdr_util::sealed`]), body
//! little-endian:
//!
//! ```text
//! magic "MAMDRPS2" | u32 dim | u64 n_rows | n_rows × (u32 table, u32 row, dim × f32) | u64 FNV-1a
//! ```

use crate::kv::{ParamKey, ParameterServer};
use mamdr_obs::{EventLog, Value};
use mamdr_util::sealed::{self, Cursor, SealError};
use mamdr_util::write_f32_section;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MAMDRPS2";

/// File extension of on-disk parameter-server checkpoints.
pub const CHECKPOINT_EXT: &str = "mamdrps";

/// Serializes every row of the server.
///
/// Rows are written in a deterministic order (sorted by key) so identical
/// server states produce byte-identical checkpoints.
pub fn save(ps: &ParameterServer, dim: usize, mut w: impl Write) -> Result<(), SealError> {
    w.write_all(&encode(ps, dim)?)?;
    Ok(())
}

/// The sealed bytes of a checkpoint of `ps`.
fn encode(ps: &ParameterServer, dim: usize) -> Result<Vec<u8>, SealError> {
    let mut rows = ps.dump_rows();
    rows.sort_by_key(|(k, _)| (k.table, k.row));
    sealed::seal(MAGIC, |b| {
        b.reserve(12 + rows.len() * (8 + 4 * dim));
        b.extend_from_slice(&(dim as u32).to_le_bytes());
        b.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for (key, value) in &rows {
            if value.len() != dim {
                return Err(SealError::Corrupt(format!(
                    "row {key:?} has width {} (expected {dim})",
                    value.len()
                )));
            }
            b.extend_from_slice(&key.table.to_le_bytes());
            b.extend_from_slice(&key.row.to_le_bytes());
            write_f32_section(&mut *b, value)?;
        }
        Ok(())
    })
}

fn decode(body: &[u8], n_shards: usize) -> Result<ParameterServer, SealError> {
    let mut cur = Cursor::new(body);
    let dim = cur.u32()? as usize;
    let n_rows = cur.u64()? as usize;
    if n_rows.checked_mul(8 + 4 * dim).is_none_or(|b| b != cur.remaining()) {
        return Err(SealError::Corrupt(format!(
            "{n_rows} rows × dim {dim} do not fill the {}-byte row section",
            cur.remaining()
        )));
    }
    let ps = ParameterServer::new(n_shards, dim);
    for _ in 0..n_rows {
        let key = ParamKey::new(cur.u32()?, cur.u32()?);
        ps.init_row(key, cur.f32s(dim)?);
    }
    cur.finish()?;
    Ok(ps)
}

/// Commits a checkpoint to `dir/ckpt-<round>.mamdrps` (atomically and
/// durably, see [`sealed::write_atomic`]) and returns the path.
pub fn save_to_dir(
    ps: &ParameterServer,
    dim: usize,
    dir: &Path,
    round: u64,
) -> Result<PathBuf, SealError> {
    let path = dir.join(format!("ckpt-{round:010}.{CHECKPOINT_EXT}"));
    sealed::write_atomic(&path, &encode(ps, dim)?)?;
    Ok(path)
}

/// Loads a checkpoint file into a fresh server with `n_shards` shards. The
/// digest is verified before any row is parsed.
pub fn load_from_path(path: &Path, n_shards: usize) -> Result<ParameterServer, SealError> {
    decode(&sealed::read_verified(MAGIC, path)?, n_shards)
}

/// [`sealed::newest_valid`] over `<prefix>-<round>.<ext>` files in `dir`,
/// emitting a `skip_event` (with the path and the error) into `log` for
/// every candidate `open` rejects. The one discovery path of every
/// persistent format this crate writes.
pub(crate) fn newest_valid<T>(
    dir: &Path,
    prefix: &str,
    ext: &str,
    open: impl FnMut(&Path) -> Result<T, SealError>,
    log: Option<&EventLog>,
    skip_event: &str,
) -> Result<Option<(PathBuf, T)>, SealError> {
    let skipped = |path: &Path, e: SealError| {
        if let Some(log) = log {
            log.emit(
                skip_event,
                &[
                    ("path", Value::from(path.to_string_lossy().into_owned())),
                    ("error", Value::from(e.to_string())),
                ],
            );
        }
    };
    Ok(sealed::newest_valid(dir, prefix, ext, open, skipped)?)
}

/// Finds the newest checkpoint in `dir` whose digest verifies: candidates
/// (`ckpt-<round>.mamdrps`) are scanned newest-first, and a corrupt or
/// truncated file is skipped — with a `checkpoint_skipped` event when
/// `log` is given — falling back to the next-newest instead of failing the
/// whole discovery.
///
/// Serving (`mamdr-serve` building a snapshot from the most recent
/// training state) discovers through here. Returns `Ok(None)` for an empty
/// or absent directory, or when every candidate is corrupt; non-checkpoint
/// files are ignored.
pub fn latest_checkpoint(dir: &Path, log: Option<&EventLog>) -> Result<Option<PathBuf>, SealError> {
    let open = |p: &Path| sealed::read_verified(MAGIC, p).map(drop);
    Ok(newest_valid(dir, "ckpt", CHECKPOINT_EXT, open, log, "checkpoint_skipped")?.map(|(p, ())| p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(bytes: &[u8], n_shards: usize) -> ParameterServer {
        decode(sealed::unseal(MAGIC, bytes).unwrap(), n_shards).unwrap()
    }

    fn sample_server() -> ParameterServer {
        let ps = ParameterServer::new(4, 3);
        for t in 0..2u32 {
            for r in 0..5u32 {
                ps.init_row(
                    ParamKey::new(t, r),
                    vec![t as f32, r as f32, t as f32 * 10.0 + r as f32],
                );
            }
        }
        ps
    }

    #[test]
    fn roundtrip_preserves_every_row() {
        let ps = sample_server();
        let mut buf = Vec::new();
        save(&ps, 3, &mut buf).unwrap();
        let restored = load(&buf, 2);
        assert_eq!(restored.n_rows(), ps.n_rows());
        for t in 0..2u32 {
            for r in 0..5u32 {
                let key = ParamKey::new(t, r);
                assert_eq!(restored.read_silent(key), ps.read_silent(key));
            }
        }
    }

    #[test]
    fn checkpoints_are_deterministic() {
        let mut a = Vec::new();
        save(&sample_server(), 3, &mut a).unwrap();
        let mut b = Vec::new();
        save(&sample_server(), 3, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn latest_checkpoint_finds_highest_round() {
        let dir = std::env::temp_dir().join(format!("mamdr-ckpt-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // Absent directory: no checkpoint, no error.
        assert!(latest_checkpoint(&dir, None).unwrap().is_none());

        let ps = sample_server();
        let p3 = save_to_dir(&ps, 3, &dir, 3).unwrap();
        let p12 = save_to_dir(&ps, 3, &dir, 12).unwrap();
        assert_ne!(p3, p12);
        // Distractors that must be ignored by discovery.
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        std::fs::write(dir.join("ckpt-9999999999.tmp"), "x").unwrap();
        let found = latest_checkpoint(&dir, None).unwrap().expect("checkpoint present");
        assert_eq!(found, p12, "round 12 must shadow round 3");

        // The discovered file round-trips into a working server.
        let restored = load_from_path(&found, 2).unwrap();
        assert_eq!(restored.n_rows(), ps.n_rows());
        assert_eq!(restored.value_dim(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_checkpoint_skips_corrupt_files_and_logs() {
        let dir = std::env::temp_dir().join(format!("mamdr-ckpt-skip-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ps = sample_server();
        let good = save_to_dir(&ps, 3, &dir, 4).unwrap();
        let newer = save_to_dir(&ps, 3, &dir, 9).unwrap();

        // Truncate the newest: discovery must fall back to round 4 and log.
        let bytes = std::fs::read(&newer).unwrap();
        std::fs::write(&newer, &bytes[..bytes.len() - 3]).unwrap();
        let log = mamdr_obs::EventLog::in_memory();
        let found = latest_checkpoint(&dir, Some(&log)).unwrap().expect("fallback present");
        assert_eq!(found, good);
        let lines = log.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("checkpoint_skipped"), "{}", lines[0]);
        assert!(lines[0].contains("ckpt-0000000009"), "{}", lines[0]);

        // Bad magic on the fallback too: nothing valid remains.
        std::fs::write(&good, b"NOTMAGIC________________").unwrap();
        assert!(latest_checkpoint(&dir, None).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restored_server_continues_training() {
        let ps = sample_server();
        let mut buf = Vec::new();
        save(&ps, 3, &mut buf).unwrap();
        let restored = load(&buf, 4);
        let key = ParamKey::new(0, 0);
        restored.push_delta(key, &[1.0, 1.0, 1.0]);
        let v = restored.read_silent(key).unwrap();
        assert_eq!(v, vec![1.0, 1.0, 1.0]);
    }
}
