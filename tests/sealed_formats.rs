//! One property suite over every sealed on-disk format: round journals
//! (`MAMDRJN1`), shard manifests (`MAMDRMF1`), parameter checkpoints
//! (`MAMDRPS2`) and serving snapshots (`MAMDRSV1`).
//!
//! For each format, exhaustively: a torn write at every byte offset and a
//! single bit flip at every byte offset are rejected by the reader, and
//! discovery falls back to the previous committed round; a wrong magic
//! (another format's, or a retired one) is rejected as corrupt; and a
//! stale `.tmp` staging file is never discovered, even when its content is
//! a complete, valid, newer file.

use mamdr::ps::checkpoint::{self, latest_checkpoint};
use mamdr::ps::journal::JOURNAL_EXT;
use mamdr::ps::{
    latest_manifest, shard_dir, snapshot_path, CacheStats, ParamKey, ParameterServer, RoundJournal,
    ShardFiles, ShardManifest, SNAPSHOT_EXT,
};
use mamdr::serve::ServingSnapshot;
use mamdr::util::sealed::{self, staging_path};
use mamdr::util::Checksum;
use std::path::{Path, PathBuf};

/// One sealed format: how to commit a small valid file for a round, how to
/// read one back, and how the format discovers its newest valid file.
struct Format {
    name: &'static str,
    magic: &'static [u8; 8],
    commit: fn(&Path, u64) -> PathBuf,
    read: fn(&Path) -> Result<(), String>,
    discover: fn(&Path) -> Option<PathBuf>,
}

fn tiny_store(round: u64) -> ParameterServer {
    let ps = ParameterServer::new(1, 2);
    for row in 0..3u32 {
        ps.init_row(ParamKey::new(row % 2, row), vec![round as f32, 0.5 * row as f32]);
    }
    ps
}

fn tiny_journal(round: u64) -> RoundJournal {
    RoundJournal {
        rounds_done: round,
        checkpoint_file: format!("ckpt-{round:010}.mamdrps"),
        cache: CacheStats { hits: 3, misses: 1 },
        max_staleness: 0,
        traffic: (1, 2, 3, 4),
        guard_trips: 0,
        guard_rollbacks: 0,
        round_losses: vec![0.5; round as usize],
        dim: 2,
        adagrad: vec![(ParamKey::new(0, 0), vec![0.1, 0.2])],
    }
}

fn commit_journal(dir: &Path, round: u64) -> PathBuf {
    tiny_journal(round).write_to_dir(dir).unwrap()
}

/// Commits one shard's checkpoint and journal, then the manifest naming
/// them with their digests.
fn commit_manifest(dir: &Path, round: u64) -> PathBuf {
    let sdir = shard_dir(dir, 0);
    let digest = |p: &Path| Checksum::of(&std::fs::read(p).unwrap());
    let ckpt = checkpoint::save_to_dir(&tiny_store(round), 2, &sdir, round).unwrap();
    let journal = tiny_journal(round).write_to_dir(&sdir).unwrap();
    let manifest = ShardManifest {
        rounds_done: round,
        map_version: 1,
        shards: vec![ShardFiles {
            checkpoint: format!("shard-0/ckpt-{round:010}.mamdrps"),
            checkpoint_fnv: digest(&ckpt),
            journal: format!("shard-0/journal-{round:010}.mamdrj"),
            journal_fnv: digest(&journal),
        }],
    };
    manifest.write_to_dir(dir).unwrap()
}

fn commit_checkpoint(dir: &Path, round: u64) -> PathBuf {
    checkpoint::save_to_dir(&tiny_store(round), 2, dir, round).unwrap()
}

fn commit_snapshot(dir: &Path, round: u64) -> PathBuf {
    let mut bytes = Vec::new();
    ServingSnapshot::from_ps(round, &tiny_store(round), 2).write_to(&mut bytes).unwrap();
    let path = snapshot_path(dir, round);
    sealed::write_atomic(&path, &bytes).unwrap();
    path
}

const FORMATS: &[Format] = &[
    Format {
        name: "journal",
        magic: b"MAMDRJN1",
        commit: commit_journal,
        read: |p| RoundJournal::read(p).map(drop).map_err(|e| e.to_string()),
        discover: |d| {
            sealed::newest_valid(d, "journal", JOURNAL_EXT, RoundJournal::read, |_, _| {})
                .unwrap()
                .map(|(p, _)| p)
        },
    },
    Format {
        name: "manifest",
        magic: b"MAMDRMF1",
        commit: commit_manifest,
        read: |p| ShardManifest::read(p).map(drop).map_err(|e| e.to_string()),
        discover: |d| latest_manifest(d, None).unwrap().map(|(p, _)| p),
    },
    Format {
        name: "checkpoint",
        magic: b"MAMDRPS2",
        commit: commit_checkpoint,
        read: |p| checkpoint::load_from_path(p, 1).map(drop).map_err(|e| e.to_string()),
        discover: |d| latest_checkpoint(d, None).unwrap(),
    },
    Format {
        name: "snapshot",
        magic: b"MAMDRSV1",
        commit: commit_snapshot,
        read: |p| ServingSnapshot::load_from_path(p).map(drop).map_err(|e| e.to_string()),
        discover: |d| {
            sealed::newest_valid(
                d,
                "snapshot",
                SNAPSHOT_EXT,
                ServingSnapshot::load_from_path,
                |_, _| {},
            )
            .unwrap()
            .map(|(p, _)| p)
        },
    },
];

/// Magics no format may accept but its own: every current format's, plus
/// the retired v1 checkpoint and parameter-store formats.
const MAGICS: &[&[u8; 8]] =
    &[b"MAMDRJN1", b"MAMDRMF1", b"MAMDRPS2", b"MAMDRSV1", b"MAMDRPS1", b"MAMDRNN1"];

fn scratch_dir(property: &str, format: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("mamdr-sealed-{property}-{format}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Commits rounds 1 and 2 and returns (round-1 path, round-2 path, the
/// round-2 bytes), checking the framing of the committed file on the way.
fn two_rounds(f: &Format, dir: &Path) -> (PathBuf, PathBuf, Vec<u8>) {
    let older = (f.commit)(dir, 1);
    let newer = (f.commit)(dir, 2);
    let clean = std::fs::read(&newer).unwrap();
    assert_eq!(&clean[..8], f.magic, "{}: magic", f.name);
    assert_eq!(sealed::unseal(f.magic, &clean).unwrap().len(), clean.len() - 16, "{}", f.name);
    (f.read)(&newer).unwrap_or_else(|e| panic!("{}: clean file rejected: {e}", f.name));
    assert_eq!((f.discover)(dir).as_deref(), Some(newer.as_path()), "{}", f.name);
    assert!(!staging_path(&newer).exists(), "{}: staging file left behind", f.name);
    (older, newer, clean)
}

#[test]
fn a_torn_write_at_every_offset_is_rejected_and_discovery_falls_back() {
    for f in FORMATS {
        let dir = scratch_dir("torn", f.name);
        let (older, newer, clean) = two_rounds(f, &dir);
        for keep in 0..clean.len() {
            std::fs::write(&newer, &clean[..keep]).unwrap();
            assert!((f.read)(&newer).is_err(), "{}: torn at {keep}/{} parsed", f.name, clean.len());
            assert_eq!((f.discover)(&dir).as_deref(), Some(older.as_path()), "{}: {keep}", f.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_bit_flip_at_every_offset_is_rejected_and_discovery_falls_back() {
    for f in FORMATS {
        let dir = scratch_dir("flip", f.name);
        let (older, newer, clean) = two_rounds(f, &dir);
        for byte in 0..clean.len() {
            let mut bad = clean.clone();
            bad[byte] ^= 1 << (byte % 8);
            std::fs::write(&newer, &bad).unwrap();
            assert!((f.read)(&newer).is_err(), "{}: flip at byte {byte} parsed", f.name);
            assert_eq!((f.discover)(&dir).as_deref(), Some(older.as_path()), "{}: {byte}", f.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_wrong_magic_is_corrupt() {
    for f in FORMATS {
        let dir = scratch_dir("magic", f.name);
        let (_, newer, clean) = two_rounds(f, &dir);
        for magic in MAGICS.iter().filter(|&&m| m != f.magic) {
            let mut bad = clean.clone();
            bad[..8].copy_from_slice(*magic);
            std::fs::write(&newer, &bad).unwrap();
            let err = (f.read)(&newer).expect_err(f.name);
            assert!(err.contains("bad magic"), "{}: {err}", f.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_stale_staging_file_is_never_discovered() {
    for f in FORMATS {
        let dir = scratch_dir("staging", f.name);
        let (_, newer, _) = two_rounds(f, &dir);
        // A complete, valid round-3 file left under its staging name: the
        // commit's rename never happened, so round 3 does not exist.
        let third = (f.commit)(&dir, 3);
        std::fs::rename(&third, staging_path(&third)).unwrap();
        (f.read)(&staging_path(&third)).unwrap();
        assert_eq!((f.discover)(&dir).as_deref(), Some(newer.as_path()), "{}", f.name);
        // A torn one neither.
        let clean = std::fs::read(staging_path(&third)).unwrap();
        std::fs::write(staging_path(&third), &clean[..clean.len() / 2]).unwrap();
        assert_eq!((f.discover)(&dir).as_deref(), Some(newer.as_path()), "{}", f.name);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
