//! Crash-safe disk persistence for session checkpoints.
//!
//! The in-memory [`CheckpointStore`] ring dies with the client process; a
//! [`DiskCheckpoints`] directory survives it. Every checkpoint mirrored
//! through [`DiskCheckpoints::sink`] is written with the temp-file+rename
//! protocol — serialize to `<name>.tmp`, atomic `rename` into place (with
//! an opt-in `fsync` of the temp file first, see
//! [`DiskCheckpoints::with_fsync`]) — so a crash mid-write leaves either
//! the previous complete file or a stray `.tmp`, never a torn checkpoint.
//!
//! Each file carries a CRC-32 over its payload, **verified on every
//! load**. A file that fails verification is rejected with a typed reason
//! ([`CheckpointReject`]), renamed to `<name>.corrupt` (quarantined, never
//! silently skipped), counted in the [`LoadReport`] and in the
//! `cg_stdb_checkpoint_rejects_total` metric — and the caller falls back
//! to the in-memory ring / a longer replay, never an error.
//!
//! File names are content-addressed by `(benchmark, action_space, actions)`
//! — the triple that fully determines a deterministic session's state — so
//! re-writing the same checkpoint is idempotent and two episodes on the
//! same prefix share one file.

use std::fs;
use std::io;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cg_core::checkpoint::{Checkpoint, CheckpointSink, CheckpointStore};

use crate::log::crc32;

/// A directory of persisted checkpoints.
#[derive(Debug, Clone)]
pub struct DiskCheckpoints {
    dir: PathBuf,
    fsync: bool,
}

/// The on-disk envelope: the checkpoint's JSON plus a CRC-32 over it.
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointFile {
    crc: u32,
    payload: String,
}

/// Why a checkpoint file was rejected at load time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointReject {
    /// The envelope JSON did not parse (torn or foreign file).
    Torn(String),
    /// The payload's CRC-32 did not match the recorded one.
    Checksum {
        /// CRC recorded in the envelope.
        expected: u32,
        /// CRC of the payload as found.
        actual: u32,
    },
    /// The (checksum-valid) payload did not decode as a checkpoint.
    Payload(String),
}

impl std::fmt::Display for CheckpointReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointReject::Torn(e) => write!(f, "torn envelope: {e}"),
            CheckpointReject::Checksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: recorded {expected:#010x}, found {actual:#010x}"
                )
            }
            CheckpointReject::Payload(e) => write!(f, "bad payload: {e}"),
        }
    }
}

/// What a verified load found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Checkpoints that verified and decoded.
    pub loaded: u64,
    /// Files rejected (torn, checksum, or payload failures).
    pub rejected: u64,
    /// Rejected files renamed to `<name>.corrupt` for inspection.
    pub quarantined: u64,
}

/// The deterministic file name for a checkpoint: content-addressed by the
/// state-determining triple, not by the state bytes (the triple implies
/// the state for a deterministic session).
fn file_name(c: &Checkpoint) -> String {
    let mut tag = format!("{}|{}", c.benchmark, c.action_space);
    for a in &c.actions {
        tag.push('|');
        tag.push_str(&a.to_string());
    }
    format!("checkpoint-{:016x}.json", cg_ir::fnv1a(tag.as_bytes()))
}

impl DiskCheckpoints {
    /// Opens (creating if absent) a checkpoint directory.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCheckpoints> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskCheckpoints { dir, fsync: false })
    }

    /// Enables (or disables) `fsync`-before-rename: the temp file is
    /// forced to disk before the atomic rename, so a *power loss* right
    /// after the rename cannot leave a named-but-empty file. Off by
    /// default — process crashes are already covered by rename atomicity,
    /// and the sync costs milliseconds per checkpoint.
    #[must_use]
    pub fn with_fsync(mut self, on: bool) -> DiskCheckpoints {
        self.fsync = on;
        self
    }

    /// The directory backing this store.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes one checkpoint crash-safely: checksummed envelope, temp
    /// file, optional fsync, atomic rename.
    ///
    /// # Errors
    /// Propagates serialization and filesystem failures.
    pub fn write(&self, c: &Checkpoint) -> io::Result<PathBuf> {
        let path = self.dir.join(file_name(c));
        let tmp = path.with_extension("json.tmp");
        let payload = serde_json::to_string(c)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let envelope = CheckpointFile {
            crc: crc32(payload.as_bytes()),
            payload,
        };
        let json = serde_json::to_string(&envelope)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            if self.fsync {
                f.sync_all()?;
            }
        }
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Loads and verifies one checkpoint file.
    ///
    /// # Errors
    /// A typed [`CheckpointReject`] explaining what failed.
    pub fn load_file(path: &Path) -> Result<Checkpoint, CheckpointReject> {
        let text = fs::read_to_string(path).map_err(|e| CheckpointReject::Torn(e.to_string()))?;
        let envelope: CheckpointFile =
            serde_json::from_str(&text).map_err(|e| CheckpointReject::Torn(e.to_string()))?;
        let actual = crc32(envelope.payload.as_bytes());
        if actual != envelope.crc {
            return Err(CheckpointReject::Checksum {
                expected: envelope.crc,
                actual,
            });
        }
        serde_json::from_str(&envelope.payload)
            .map_err(|e| CheckpointReject::Payload(e.to_string()))
    }

    /// Loads every checkpoint in the directory, verifying checksums,
    /// shallowest first (so seeding a bounded ring keeps the deepest).
    /// Stray `.tmp` files from an interrupted write are ignored; files
    /// that fail verification are quarantined as `<name>.corrupt`,
    /// counted in the report and in `cg_stdb_checkpoint_rejects_total` —
    /// a lost checkpoint costs a longer replay, never an error.
    #[must_use]
    pub fn load_verified(&self) -> (Vec<Checkpoint>, LoadReport) {
        let mut report = LoadReport::default();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return (Vec::new(), report);
        };
        let mut out = Vec::new();
        for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            match DiskCheckpoints::load_file(&path) {
                Ok(c) => {
                    report.loaded += 1;
                    out.push(c);
                }
                Err(_reject) => {
                    report.rejected += 1;
                    cg_telemetry::global().stdb.checkpoint_rejects.inc();
                    if fs::rename(&path, path.with_extension("json.corrupt")).is_ok() {
                        report.quarantined += 1;
                    }
                }
            }
        }
        out.sort_by_key(Checkpoint::depth);
        (out, report)
    }

    /// [`DiskCheckpoints::load_verified`] without the report.
    #[must_use]
    pub fn load_all(&self) -> Vec<Checkpoint> {
        self.load_verified().0
    }

    /// A [`CheckpointSink`] that mirrors every checkpoint into this
    /// directory. Write failures are swallowed (checkpointing must never
    /// fail the step that triggered it); the in-memory ring still has the
    /// checkpoint.
    #[must_use]
    pub fn sink(&self) -> CheckpointSink {
        let this = self.clone();
        Arc::new(move |c: &Checkpoint| {
            let _ = this.write(c);
        })
    }

    /// Builds a [`CheckpointStore`] that persists to this directory and is
    /// pre-seeded with every checkpoint already on disk — the one-call path
    /// for resuming after a process crash. Corrupt files are rejected and
    /// quarantined during seeding; the ring simply starts without them.
    #[must_use]
    pub fn store(&self, capacity: usize, interval: u64) -> CheckpointStore {
        let store = CheckpointStore::new(capacity, interval).with_sink(self.sink());
        for c in self.load_all() {
            // Re-writing through the sink is idempotent (same name, same
            // bytes), so seeding does not churn the directory.
            store.put(c);
        }
        store
    }

    /// Removes every persisted checkpoint (plus stray temp files and
    /// quarantined rejects).
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn clear(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let ext = path.extension().and_then(|x| x.to_str());
            if matches!(ext, Some("json" | "tmp" | "corrupt")) {
                fs::remove_file(&path)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ck(actions: &[usize]) -> Checkpoint {
        Checkpoint {
            benchmark: "benchmark://cbench-v1/qsort".into(),
            action_space: 0,
            actions: actions.to_vec(),
            state: actions.iter().map(|a| (*a as u8) ^ 0x5a).collect(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cg-stdb-ckpt-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_load_round_trip() {
        let disk = DiskCheckpoints::open(tmpdir("roundtrip")).unwrap();
        disk.write(&ck(&[1, 2, 3])).unwrap();
        disk.write(&ck(&[1, 2, 3, 4, 5])).unwrap();
        let (loaded, report) = disk.load_verified();
        assert_eq!(
            report,
            LoadReport {
                loaded: 2,
                rejected: 0,
                quarantined: 0
            }
        );
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0], ck(&[1, 2, 3]), "shallowest first");
        assert_eq!(loaded[1], ck(&[1, 2, 3, 4, 5]));
        disk.clear().unwrap();
        assert!(disk.load_all().is_empty());
    }

    #[test]
    fn rewrite_is_idempotent() {
        let disk = DiskCheckpoints::open(tmpdir("idempotent")).unwrap();
        let p1 = disk.write(&ck(&[7, 8])).unwrap();
        let p2 = disk.write(&ck(&[7, 8])).unwrap();
        assert_eq!(p1, p2, "same triple, same file");
        assert_eq!(disk.load_all().len(), 1);
    }

    #[test]
    fn fsync_mode_round_trips_too() {
        let disk = DiskCheckpoints::open(tmpdir("fsync"))
            .unwrap()
            .with_fsync(true);
        disk.write(&ck(&[9])).unwrap();
        assert_eq!(disk.load_all(), vec![ck(&[9])]);
    }

    #[test]
    fn torn_and_stray_files_are_rejected_and_quarantined() {
        let disk = DiskCheckpoints::open(tmpdir("torn")).unwrap();
        disk.write(&ck(&[1])).unwrap();
        // A crash mid-write leaves a stray temp file (ignored)...
        fs::write(disk.dir().join("checkpoint-dead.json.tmp"), "{\"trunc").unwrap();
        // ...and a torn .json (e.g. non-atomic copy) must be rejected,
        // quarantined, and counted — never silently skipped.
        fs::write(disk.dir().join("checkpoint-torn.json"), "{\"crc\":").unwrap();
        let (loaded, report) = disk.load_verified();
        assert_eq!(loaded, vec![ck(&[1])]);
        assert_eq!(
            report,
            LoadReport {
                loaded: 1,
                rejected: 1,
                quarantined: 1
            }
        );
        assert!(disk.dir().join("checkpoint-torn.json.corrupt").exists());
        // The quarantined file no longer triggers rejects on later loads.
        let (_, report) = disk.load_verified();
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn corrupted_checkpoint_is_typed_rejected_and_ring_falls_back() {
        let dir = tmpdir("corrupt");
        let shallow = ck(&[1, 2, 3]);
        let deep = ck(&[1, 2, 3, 4, 5]);
        let deep_path;
        {
            let disk = DiskCheckpoints::open(&dir).unwrap();
            disk.write(&shallow).unwrap();
            deep_path = disk.write(&deep).unwrap();
        }
        // Flip one payload byte inside the stored deep checkpoint.
        let mut text = fs::read(&deep_path).unwrap();
        let at = text.len() / 2;
        text[at] = text[at].wrapping_add(1);
        fs::write(&deep_path, &text).unwrap();

        // The rejection is typed: a checksum (or envelope) failure, never
        // a silently-absent checkpoint.
        let reject = DiskCheckpoints::load_file(&deep_path).unwrap_err();
        assert!(
            matches!(
                reject,
                CheckpointReject::Checksum { .. } | CheckpointReject::Torn(_)
            ),
            "{reject}"
        );

        // Seeding after the 'crash': the corrupt file is rejected and the
        // ring falls back to the intact shallower checkpoint.
        let disk = DiskCheckpoints::open(&dir).unwrap();
        let store = disk.store(8, 3);
        let hit = store
            .latest_matching("benchmark://cbench-v1/qsort", 0, &[1, 2, 3, 4, 5, 6])
            .expect("shallow checkpoint survives");
        assert_eq!(hit.depth(), 3, "fell back past the corrupt depth-5 file");
        assert!(deep_path.with_extension("json.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The drain path end to end on the real backend: a broker parks a
    /// live llvm-v0 session as a structural snapshot, the disk sink gets
    /// its printed-IR encoding, and a ring seeded from the directory in a
    /// 'new process' restores byte-identical state that evolves the same.
    #[test]
    fn broker_drain_parks_structural_snapshots_that_reseed_from_disk() {
        use cg_core::broker::{Broker, BrokerConfig};
        use cg_core::service::{Request, Response};
        use cg_core::session::CompilationSession;
        use std::time::Duration;

        const BENCH: &str = "benchmark://cbench-v1/crc32";
        let mut straight = cg_core::envs::llvm::LlvmSession::new();
        straight.init(BENCH, 0).unwrap();
        let names = straight.action_spaces().remove(0).actions;
        let index = |n: &str| names.iter().position(|a| a == n).unwrap();
        let actions = vec![index("mem2reg"), index("instcombine"), index("gvn")];
        let probe = index("simplifycfg");
        for &a in &actions {
            straight.apply_action(a).unwrap();
        }
        let want = straight.save_state().unwrap();

        let dir = tmpdir("drain");
        {
            let store = DiskCheckpoints::open(&dir).unwrap().store(8, 1000);
            let broker = Broker::new(
                cg_core::envs::session_factory("llvm-v0").unwrap(),
                BrokerConfig {
                    workers: 1,
                    checkpoints: store.clone(),
                    ..BrokerConfig::default()
                },
            );
            let start = Request::StartSession {
                benchmark: BENCH.into(),
                action_space: 0,
            };
            let Response::SessionStarted { session_id } = broker.call("t", start) else {
                panic!("session did not start");
            };
            let step = Request::Step {
                session_id,
                actions: actions.clone(),
                observation_spaces: vec![],
            };
            assert!(matches!(broker.call("t", step), Response::Stepped { .. }));
            assert_eq!(broker.drain(Duration::from_secs(5)).checkpointed, 1);
            let parked = store.latest_matching(BENCH, 0, &actions).unwrap();
            assert!(parked.state.is_live(), "the ring keeps the handle");
            assert_eq!(parked.state.to_bytes(), &want[..]);
        }

        let store = DiskCheckpoints::open(&dir).unwrap().store(8, 1000);
        let seeded = store.latest_matching(BENCH, 0, &actions).unwrap();
        assert_eq!(seeded.depth(), 3);
        assert!(!seeded.state.is_live(), "disk hands back bytes");
        assert_eq!(seeded.state.to_bytes(), &want[..]);
        let mut restored = cg_core::envs::llvm::LlvmSession::new();
        restored.init(BENCH, 0).unwrap();
        restored.restore(&seeded.state).unwrap();
        straight.apply_action(probe).unwrap();
        restored.apply_action(probe).unwrap();
        assert_eq!(restored.save_state(), straight.save_state());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_is_seeded_from_disk_and_persists_new_checkpoints() {
        let dir = tmpdir("seed");
        {
            let disk = DiskCheckpoints::open(&dir).unwrap();
            let store = disk.store(8, 5);
            store.put(ck(&[1, 2, 3, 4, 5]));
        }
        // A fresh process: the ring is empty until seeded from disk.
        let disk = DiskCheckpoints::open(&dir).unwrap();
        let store = disk.store(8, 5);
        let hit = store.latest_matching("benchmark://cbench-v1/qsort", 0, &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(hit.unwrap().depth(), 5, "checkpoint survived the 'crash'");
        let _ = fs::remove_dir_all(&dir);
    }
}
