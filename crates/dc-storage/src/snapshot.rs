//! Atomic, versioned, checksummed snapshot files and checkpoint pruning.
//!
//! A snapshot captures the full materialized state of an engine *after* a
//! given round; together with the WAL records for later rounds it makes
//! re-serving the checkpointed rounds unnecessary for recovery.  The [`Snapshotter`] is
//! payload-agnostic — anything implementing
//! [`dc_types::codec::BinCodec`] can be checkpointed — and `dc-core`
//! supplies the actual engine state.
//!
//! ## File format (version 1)
//!
//! ```text
//! "DCSN" | version: u32 LE | round: u64 LE | len: u64 LE
//!        | crc32(payload): u32 LE | payload
//! ```
//!
//! ## Atomicity
//!
//! [`Snapshotter::write`] writes the whole file to `<name>.tmp`, fsyncs it,
//! renames it into place, and fsyncs the directory.  A crash at any point
//! leaves either the old snapshot set or the new one — never a half-written
//! file under the final name; a stray `.tmp` is ignored by recovery and
//! deleted by the next [`Snapshotter::prune_obsolete`].
//!
//! ## Checkpoint pruning
//!
//! A snapshot at round `k` makes obsolete every older snapshot and every WAL
//! segment whose records all concern rounds `<= k` (segments with
//! `start < k`; see the [`crate::wal`] module docs for the naming
//! invariant).  Pruning runs strictly *after* the new snapshot is durable,
//! so a crash mid-prune only leaves extra files that the next checkpoint
//! removes.

use crate::{read_u32_le, read_u64_le, sync_dir, sync_file, wal, StorageError};
use dc_types::codec::{crc32, BinCodec};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"DCSN";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 28;

/// Writes and loads snapshot files in one state directory.
#[derive(Debug, Clone)]
pub struct Snapshotter {
    dir: PathBuf,
}

/// The canonical file name of the snapshot taken after `round`.
pub fn snapshot_file_name(round: u64) -> String {
    format!("snapshot-{round:020}.dcsnap")
}

/// Parse a snapshot file name back into its round.
pub fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snapshot-")?.strip_suffix(".dcsnap")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// What a checkpoint prune deleted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Obsolete snapshot files deleted.
    pub snapshots_deleted: usize,
    /// Obsolete WAL segment files deleted.
    pub segments_deleted: usize,
    /// Stray temporary files deleted.
    pub tmp_files_deleted: usize,
}

impl Snapshotter {
    /// Bind a snapshotter to a state directory, creating it if necessary.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StorageError::io(&dir, "create dir", e))?;
        Ok(Snapshotter { dir })
    }

    /// The state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically write the snapshot for `round`.  Returns the final path.
    pub fn write<T: BinCodec>(&self, round: u64, payload: &T) -> Result<PathBuf, StorageError> {
        let payload = payload.encode_to_vec();
        let final_path = self.dir.join(snapshot_file_name(round));
        let tmp_path = self.dir.join(format!("{}.tmp", snapshot_file_name(round)));

        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&round.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        let reg = dc_telemetry::registry();
        let span = reg.span("storage.snapshot_write");
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| StorageError::io(&tmp_path, "create tmp", e))?;
        tmp.write_all(&bytes)
            .map_err(|e| StorageError::io(&tmp_path, "write tmp", e))?;
        sync_file(&tmp, &tmp_path, "fsync tmp")?;
        drop(tmp);
        std::fs::rename(&tmp_path, &final_path)
            .map_err(|e| StorageError::io(&final_path, "rename into place", e))?;
        sync_dir(&self.dir)?;
        span.finish();
        reg.add("storage.snapshots_written", 1);
        reg.add("storage.snapshot_bytes_written", bytes.len() as u64);
        Ok(final_path)
    }

    /// List the available snapshots as `(round, path)`, sorted by round.
    /// `.tmp` leftovers and unrelated files are ignored.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>, StorageError> {
        let mut out = Vec::new();
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| StorageError::io(&self.dir, "read_dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::io(&self.dir, "read_dir", e))?;
            let name = entry.file_name();
            if let Some(round) = name.to_str().and_then(parse_snapshot_file_name) {
                out.push((round, entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Load the most recent snapshot, verifying its checksum, or `None` when
    /// the directory holds no snapshot.  A corrupt snapshot is an error, not
    /// a silent fallback: the checkpoint protocol only deletes an old
    /// snapshot after the new one is durable, so the latest snapshot being
    /// unreadable means real damage the operator must know about.
    pub fn load_latest<T: BinCodec>(&self) -> Result<Option<(u64, T)>, StorageError> {
        let Some((round, path)) = self.list()?.into_iter().next_back() else {
            return Ok(None);
        };
        let payload = Self::read_verified(&path, round)?;
        let value = T::decode_exact(&payload).map_err(|source| StorageError::Codec {
            path: path.clone(),
            source,
        })?;
        Ok(Some((round, value)))
    }

    fn read_verified(path: &Path, expected_round: u64) -> Result<Vec<u8>, StorageError> {
        let mut file = File::open(path).map_err(|e| StorageError::io(path, "open snapshot", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StorageError::io(path, "read snapshot", e))?;
        if bytes.len() < HEADER_LEN {
            return Err(StorageError::corrupt(path, "file shorter than its header"));
        }
        if &bytes[0..4] != MAGIC {
            return Err(StorageError::corrupt(path, "bad magic"));
        }
        let version = read_u32_le(path, &bytes, 4)?;
        if version != VERSION {
            return Err(StorageError::corrupt(
                path,
                format!("unsupported snapshot version {version} (expected {VERSION})"),
            ));
        }
        let round = read_u64_le(path, &bytes, 8)?;
        if round != expected_round {
            return Err(StorageError::corrupt(
                path,
                format!("header round {round} disagrees with file name"),
            ));
        }
        let len = read_u64_le(path, &bytes, 16)? as usize;
        let stored_crc = read_u32_le(path, &bytes, 24)?;
        if bytes.len() != HEADER_LEN + len {
            return Err(StorageError::corrupt(
                path,
                format!(
                    "payload length {len} disagrees with file size {}",
                    bytes.len()
                ),
            ));
        }
        let payload = bytes.split_off(HEADER_LEN);
        if crc32(&payload) != stored_crc {
            return Err(StorageError::corrupt(path, "payload fails its checksum"));
        }
        Ok(payload)
    }

    /// Delete every artifact a durable snapshot at `round` has made
    /// obsolete: older snapshots, WAL segments starting before `round`, and
    /// stray `.tmp` files.  Call only after [`Snapshotter::write`] for
    /// `round` has returned.
    pub fn prune_obsolete(&self, round: u64) -> Result<PruneReport, StorageError> {
        let mut report = PruneReport::default();
        for (snap_round, path) in self.list()? {
            if snap_round < round {
                std::fs::remove_file(&path)
                    .map_err(|e| StorageError::io(&path, "delete obsolete snapshot", e))?;
                report.snapshots_deleted += 1;
            }
        }
        for (start, path) in wal::list_segments(&self.dir)? {
            if start < round {
                std::fs::remove_file(&path)
                    .map_err(|e| StorageError::io(&path, "delete obsolete segment", e))?;
                report.segments_deleted += 1;
            }
        }
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| StorageError::io(&self.dir, "read_dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::io(&self.dir, "read_dir", e))?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                std::fs::remove_file(&path)
                    .map_err(|e| StorageError::io(&path, "delete stray tmp", e))?;
                report.tmp_files_deleted += 1;
            }
        }
        sync_dir(&self.dir)?;
        let reg = dc_telemetry::registry();
        reg.add("storage.snapshots_pruned", report.snapshots_deleted as u64);
        reg.add("storage.segments_pruned", report.segments_deleted as u64);
        reg.add("storage.tmp_pruned", report.tmp_files_deleted as u64);
        Ok(report)
    }
}
