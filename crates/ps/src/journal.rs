//! The round journal: everything a restarted driver needs to resume a
//! half-finished distributed run *bit-identically*.
//!
//! A parameter checkpoint (`ckpt-*.mamdrps`) alone cannot resume a run:
//! it deliberately omits the Adagrad accumulators (cold-starting them
//! rescales every subsequent update), and the final [`crate::
//! DistributedReport`] aggregates per-round losses, cache counters, and
//! traffic from round zero. The journal closes that gap. Every
//! `checkpoint_every` rounds each parameter-server shard writes one sealed
//! `journal-<round>.mamdrj` ([`mamdr_util::sealed`]) next to its
//! checkpoint, holding:
//!
//! * the number of completed rounds (the RNG cursor: every stream this
//!   workspace uses is derived statelessly from `(seed, round, worker)`,
//!   so the round index *is* the full RNG position),
//! * the file name of the shard's parameter checkpoint,
//! * the report aggregates so far (losses, cache hits/misses, staleness,
//!   guard counters, and this shard's traffic),
//! * the shard's complete Adagrad accumulator state,
//!
//! all behind the sealed file's FNV-1a digest, so a torn write surfaces as
//! [`SealError::Corrupt`]. A journal is not a commit point on its own: the
//! [`crate::ShardManifest`] that names it (with its digest) is, and
//! discovery falls back past any manifest whose journal fails to verify.

use crate::cache::CacheStats;
use crate::kv::ParamKey;
use mamdr_util::sealed::{self, Cursor, SealError};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MAMDRJN1";

/// File extension of on-disk round journals.
pub const JOURNAL_EXT: &str = "mamdrj";

/// One resumable round boundary: the aggregates of every completed round
/// plus the optimizer state the checkpoint format does not carry.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundJournal {
    /// Rounds fully applied before this journal was written; resume
    /// continues at this round index.
    pub rounds_done: u64,
    /// File *name* (not path — directories move between hosts) of the
    /// parameter checkpoint holding the values at this boundary.
    pub checkpoint_file: String,
    /// Combined worker cache counters over the completed rounds.
    pub cache: CacheStats,
    /// Worst observed staleness over the completed rounds.
    pub max_staleness: u64,
    /// Server traffic over the completed rounds:
    /// `(pulls, pushes, bytes_pulled, bytes_pushed)`.
    pub traffic: (u64, u64, u64, u64),
    /// Guard trips over the completed rounds.
    pub guard_trips: u64,
    /// Guard rollbacks over the completed rounds.
    pub guard_rollbacks: u64,
    /// Mean training loss of each completed round, in round order.
    pub round_losses: Vec<f64>,
    /// Per-row vector width of the accumulators.
    pub dim: u32,
    /// Every materialized Adagrad accumulator row, key-sorted.
    pub adagrad: Vec<(ParamKey, Vec<f32>)>,
}

impl RoundJournal {
    /// The on-disk file name for this journal's round boundary.
    pub fn file_name(&self) -> String {
        format!("journal-{:010}.{JOURNAL_EXT}", self.rounds_done)
    }

    /// Appends the body (everything between magic and digest) to `b`.
    fn encode_body(&self, b: &mut Vec<u8>) -> Result<(), SealError> {
        b.reserve(128 + self.adagrad.len() * (8 + 4 * self.dim as usize));
        b.extend_from_slice(&self.rounds_done.to_le_bytes());
        let name = self.checkpoint_file.as_bytes();
        b.extend_from_slice(&(name.len() as u32).to_le_bytes());
        b.extend_from_slice(name);
        b.extend_from_slice(&self.cache.hits.to_le_bytes());
        b.extend_from_slice(&self.cache.misses.to_le_bytes());
        b.extend_from_slice(&self.max_staleness.to_le_bytes());
        for part in [self.traffic.0, self.traffic.1, self.traffic.2, self.traffic.3] {
            b.extend_from_slice(&part.to_le_bytes());
        }
        b.extend_from_slice(&self.guard_trips.to_le_bytes());
        b.extend_from_slice(&self.guard_rollbacks.to_le_bytes());
        b.extend_from_slice(&(self.round_losses.len() as u64).to_le_bytes());
        for &loss in &self.round_losses {
            b.extend_from_slice(&loss.to_le_bytes());
        }
        b.extend_from_slice(&self.dim.to_le_bytes());
        b.extend_from_slice(&(self.adagrad.len() as u64).to_le_bytes());
        let mut rows = self.adagrad.clone();
        rows.sort_by_key(|(k, _)| (k.table, k.row));
        for (key, acc) in &rows {
            if acc.len() != self.dim as usize {
                return Err(SealError::Corrupt(format!(
                    "accumulator {key:?} has width {} (expected {})",
                    acc.len(),
                    self.dim
                )));
            }
            b.extend_from_slice(&key.table.to_le_bytes());
            b.extend_from_slice(&key.row.to_le_bytes());
            for v in acc {
                b.extend_from_slice(&v.to_le_bytes());
            }
        }
        Ok(())
    }

    /// Commits the journal to `dir/<file_name()>` (atomically and durably,
    /// see [`sealed::write_atomic`]): a crash mid-write can leave only a
    /// staging file, never a torn committed journal.
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf, SealError> {
        let path = dir.join(self.file_name());
        sealed::write_atomic(&path, &sealed::seal(MAGIC, |b| self.encode_body(b))?)?;
        Ok(path)
    }

    /// Reads and verifies a journal file.
    pub fn read(path: &Path) -> Result<RoundJournal, SealError> {
        Self::decode_body(&sealed::read_verified(MAGIC, path)?)
    }

    fn decode_body(b: &[u8]) -> Result<RoundJournal, SealError> {
        let corrupt = |m: &str| SealError::Corrupt(m.to_string());
        let mut cur = Cursor::new(b);
        let rounds_done = cur.u64()?;
        let checkpoint_file = cur.str(4096)?;
        let hits = cur.u64()?;
        let misses = cur.u64()?;
        let max_staleness = cur.u64()?;
        let traffic = (cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?);
        let guard_trips = cur.u64()?;
        let guard_rollbacks = cur.u64()?;
        let n_losses = cur.u64()? as usize;
        if n_losses > b.len() / 8 {
            return Err(corrupt("loss count exceeds body size"));
        }
        let mut round_losses = Vec::with_capacity(n_losses);
        for _ in 0..n_losses {
            round_losses.push(cur.f64()?);
        }
        let dim = cur.u32()?;
        let n_acc = cur.u64()? as usize;
        let row_bytes = 8 + 4 * dim as usize;
        if n_acc.checked_mul(row_bytes).is_none_or(|total| total > b.len()) {
            return Err(corrupt("accumulator count exceeds body size"));
        }
        let mut adagrad = Vec::with_capacity(n_acc);
        for _ in 0..n_acc {
            let key = ParamKey::new(cur.u32()?, cur.u32()?);
            adagrad.push((key, cur.f32s(dim as usize)?));
        }
        cur.finish()?;
        Ok(RoundJournal {
            rounds_done,
            checkpoint_file,
            cache: CacheStats { hits, misses },
            max_staleness,
            traffic,
            guard_trips,
            guard_rollbacks,
            round_losses,
            dim,
            adagrad,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u64) -> RoundJournal {
        RoundJournal {
            rounds_done: round,
            checkpoint_file: format!("ckpt-{round:010}.mamdrps"),
            cache: CacheStats { hits: 100, misses: 7 },
            max_staleness: 2,
            traffic: (11, 13, 1700, 1900),
            guard_trips: 1,
            guard_rollbacks: 0,
            round_losses: vec![0.7, 0.65, 0.61],
            dim: 3,
            adagrad: vec![
                (ParamKey::new(0, 1), vec![0.1, 0.2, 0.3]),
                (ParamKey::new(2, 0), vec![1.5, 0.1, 0.1]),
            ],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mamdr-journal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn roundtrip_is_exact() {
        let dir = tmp_dir("roundtrip");
        let j = sample(3);
        let path = j.write_to_dir(&dir).unwrap();
        assert!(path.ends_with("journal-0000000003.mamdrj"));
        let back = RoundJournal::read(&path).unwrap();
        assert_eq!(back, j);
        // No temp file left behind.
        assert!(!dir.join("journal-0000000003.mamdrj.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
