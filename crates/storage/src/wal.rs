//! A file-backed, checksummed write-ahead log.
//!
//! The paper motivates RodentStore partly by the amount of supporting
//! machinery — "transaction, lock, and memory management facilities" — every
//! stand-alone storage system has to re-implement. This module provides the
//! transactional piece of that substrate: a redo-only write-ahead log with a
//! binary on-disk format, commit-time durability, and checksum-aware replay.
//!
//! ## On-disk format
//!
//! The log file starts with a 16-byte header — an 8-byte magic
//! (`RDNTWAL1`) followed by the little-endian LSN of the first record in the
//! file (records before it were truncated away at a checkpoint). Each record
//! is then framed as
//!
//! ```text
//! [payload_len: u32 LE] [crc32(payload): u32 LE] [payload]
//! ```
//!
//! so a reader can detect a *torn tail*: the first frame whose length runs
//! past the end of the file, or whose checksum does not match, ends the
//! decodable log — everything after it is discarded. Payloads carry a
//! one-byte record type followed by the record fields (see [`LogRecord`]).
//!
//! ## Durability
//!
//! The [`SyncPolicy`] decides when [`Wal::commit`] calls `fsync`:
//! durable multi-producer group commit (`GroupDurable` — every commit is
//! durable before `commit` returns; a lone committer pays one `fsync` per
//! commit, and concurrent committers share one through a leader/follower
//! protocol), batched (`GroupCommit(n)` — one sync absorbs up to `n`
//! consecutive commits, the classic group-commit optimization; commits
//! between syncs are acknowledged *before* they are durable), or never
//! (`Never` — the OS decides; fastest, weakest).
//! [`Wal::truncate`] drops a prefix of the log after a checkpoint has made
//! its effects durable elsewhere, bounding log growth. An in-memory backend
//! ([`Wal::new`]) uses the identical record format in a byte buffer, so the
//! encode/decode and torn-tail logic is exercised by every mode.
//!
//! ## Multi-producer group commit
//!
//! Under `GroupDurable`, a committer appends its commit record (under the
//! short state lock) and then parks on the shared *group-sync* state. The
//! first parked committer becomes the **leader**: it snapshots the current
//! end of the log, `fsync`s through a dedicated cloned file handle — with
//! the state lock *released*, so other threads keep appending while the
//! disk works — and then wakes every follower whose record the sync
//! covered. Followers that arrive while a sync is in flight simply wait;
//! one of them becomes the next leader and their records ride the next
//! sync. One disk flush thus acknowledges as many commits as there are
//! concurrent committers, which is where multi-threaded commit throughput
//! comes from.
//!
//! Lock order (to stay deadlock-free): `group` → `sync_file` → `state`.
//! The state lock is never held while acquiring the other two.

use crate::checksum::crc32;
use crate::{Result, StorageError};
use parking_lot::Mutex;
use rodentstore_obs::Histogram;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::Instant;

/// Transaction identifier.
pub type TxId = u64;

/// Log sequence number: the index of a record since the log was created.
/// LSNs are stable across truncation — truncating advances the base LSN, it
/// never renumbers surviving records.
pub type Lsn = u64;

const WAL_MAGIC: &[u8; 8] = b"RDNTWAL1";
const HEADER_LEN: usize = 16;
const FRAME_HEADER_LEN: usize = 8;

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_OP: u8 = 5;

/// When [`Wal::commit`] makes the log durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never `fsync` from the commit path; the OS flushes when it pleases.
    /// Commits survive a process crash (the bytes are in the page cache) but
    /// not a power failure.
    Never,
    /// Group commit: `fsync` once every `n` commits (and whenever
    /// [`Wal::sync`] is called explicitly, e.g. at a checkpoint). Consecutive
    /// commits share a sync, amortizing the dominant cost of small
    /// transactions; the last `< n` commits are only as durable as `Never`
    /// until the next sync.
    GroupCommit(usize),
    /// Durable multi-producer group commit: every commit is durable before
    /// [`Wal::commit`] returns, but concurrent committers *share* one
    /// `fsync` via a leader/follower protocol (see the module docs). With
    /// one thread that is the textbook guarantee, one disk sync per
    /// transaction; with N committing threads one disk flush acknowledges
    /// up to N commits.
    GroupDurable,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::GroupCommit(32)
    }
}

/// A single log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A transaction started.
    Begin(TxId),
    /// A transaction committed.
    Commit(TxId),
    /// A transaction aborted.
    Abort(TxId),
    /// A logical operation logged by a higher layer. The payload is opaque
    /// to the storage crate — RodentStore's durability layer encodes catalog
    /// mutations (inserts, layout declarations) here so replay can re-derive
    /// pages from the declarative description instead of logging page images.
    Op {
        /// Logging transaction.
        tx: TxId,
        /// Opaque operation payload (encoded by the caller).
        payload: Vec<u8>,
    },
}

impl LogRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            LogRecord::Begin(tx) => {
                out.push(TAG_BEGIN);
                out.extend_from_slice(&tx.to_le_bytes());
            }
            LogRecord::Commit(tx) => {
                out.push(TAG_COMMIT);
                out.extend_from_slice(&tx.to_le_bytes());
            }
            LogRecord::Abort(tx) => {
                out.push(TAG_ABORT);
                out.extend_from_slice(&tx.to_le_bytes());
            }
            LogRecord::Op { tx, payload } => {
                out.push(TAG_OP);
                out.extend_from_slice(&tx.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Option<LogRecord> {
        let tag = *payload.first()?;
        let read_u64 = |at: usize| -> Option<u64> {
            let bytes = payload.get(at..at + 8)?;
            let mut buf = [0u8; 8];
            buf.copy_from_slice(bytes);
            Some(u64::from_le_bytes(buf))
        };
        let read_u32 = |at: usize| -> Option<u32> {
            let bytes = payload.get(at..at + 4)?;
            let mut buf = [0u8; 4];
            buf.copy_from_slice(bytes);
            Some(u32::from_le_bytes(buf))
        };
        match tag {
            TAG_BEGIN => Some(LogRecord::Begin(read_u64(1)?)),
            TAG_COMMIT => Some(LogRecord::Commit(read_u64(1)?)),
            TAG_ABORT => Some(LogRecord::Abort(read_u64(1)?)),
            TAG_OP => {
                let tx = read_u64(1)?;
                let len = read_u32(9)? as usize;
                let payload = payload.get(13..13 + len)?.to_vec();
                Some(LogRecord::Op { tx, payload })
            }
            _ => None,
        }
    }

    fn tx(&self) -> TxId {
        match self {
            LogRecord::Begin(tx)
            | LogRecord::Commit(tx)
            | LogRecord::Abort(tx)
            | LogRecord::Op { tx, .. } => *tx,
        }
    }
}

/// Frames a payload as `[len][crc][payload]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes framed records from `bytes`, stopping at the first torn or
/// corrupt frame. Returns the records and the number of bytes that decoded
/// cleanly (the valid prefix).
fn decode_frames(bytes: &[u8]) -> (Vec<LogRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + FRAME_HEADER_LEN <= bytes.len() {
        let len = u32::from_le_bytes([
            bytes[pos],
            bytes[pos + 1],
            bytes[pos + 2],
            bytes[pos + 3],
        ]) as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let start = pos + FRAME_HEADER_LEN;
        let Some(end) = start.checked_add(len) else {
            break;
        };
        if end > bytes.len() {
            break; // torn tail: frame runs past end of file
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break; // corrupt record; everything after it is untrustworthy
        }
        let Some(record) = LogRecord::decode(payload) else {
            break;
        };
        records.push(record);
        pos = end;
    }
    (records, pos)
}

enum Backend {
    Memory(Vec<u8>),
    File { file: File, path: PathBuf },
}

impl Backend {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        match self {
            Backend::Memory(buf) => {
                buf.extend_from_slice(bytes);
                Ok(())
            }
            Backend::File { file, .. } => {
                file.write_all(bytes).map_err(StorageError::from)
            }
        }
    }

    /// All record bytes (past the file header).
    fn record_bytes(&mut self) -> Result<Vec<u8>> {
        match self {
            Backend::Memory(buf) => Ok(buf.clone()),
            Backend::File { file, .. } => {
                file.seek(SeekFrom::Start(HEADER_LEN as u64))
                    .map_err(StorageError::from)?;
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes).map_err(StorageError::from)?;
                Ok(bytes)
            }
        }
    }

    fn sync(&mut self) -> Result<()> {
        match self {
            Backend::Memory(_) => Ok(()),
            Backend::File { file, .. } => file.sync_data().map_err(StorageError::from),
        }
    }

    /// A second handle onto the log file (same inode), used by the group
    /// commit leader to `fsync` without holding the state lock. `None` for
    /// the in-memory backend, which has nothing to sync.
    fn try_clone_file(&self) -> Result<Option<File>> {
        match self {
            Backend::Memory(_) => Ok(None),
            Backend::File { file, .. } => {
                Ok(Some(file.try_clone().map_err(StorageError::from)?))
            }
        }
    }

    fn len(&mut self) -> Result<u64> {
        match self {
            Backend::Memory(buf) => Ok(buf.len() as u64),
            Backend::File { file, .. } => Ok(file
                .metadata()
                .map_err(StorageError::from)?
                .len()
                .saturating_sub(HEADER_LEN as u64)),
        }
    }

    /// Replaces the log contents with `records` and a header carrying
    /// `base_lsn`, atomically for the file backend (write-temp-then-rename).
    fn rewrite(&mut self, base_lsn: Lsn, records: &[LogRecord]) -> Result<()> {
        let mut body = Vec::new();
        for record in records {
            body.extend_from_slice(&frame(&record.encode()));
        }
        match self {
            Backend::Memory(buf) => {
                *buf = body;
                Ok(())
            }
            Backend::File { file, path } => {
                let tmp = path.with_extension("wal.tmp");
                {
                    let mut out = OpenOptions::new()
                        .create(true)
                        .write(true)
                        .truncate(true)
                        .open(&tmp)
                        .map_err(StorageError::from)?;
                    out.write_all(&header_bytes(base_lsn))
                        .map_err(StorageError::from)?;
                    out.write_all(&body).map_err(StorageError::from)?;
                    out.sync_data().map_err(StorageError::from)?;
                }
                std::fs::rename(&tmp, &*path).map_err(StorageError::from)?;
                let mut reopened = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&*path)
                    .map_err(StorageError::from)?;
                reopened
                    .seek(SeekFrom::End(0))
                    .map_err(StorageError::from)?;
                *file = reopened;
                Ok(())
            }
        }
    }
}

/// Transactions that count as committed for replay: a commit record with
/// no abort record anywhere. Aborts win — see [`Wal::committed_ops`].
fn effective_commits(records: &[LogRecord]) -> HashSet<TxId> {
    let mut committed: HashSet<TxId> = HashSet::new();
    let mut aborted: HashSet<TxId> = HashSet::new();
    for record in records {
        match record {
            LogRecord::Commit(tx) => {
                committed.insert(*tx);
            }
            LogRecord::Abort(tx) => {
                aborted.insert(*tx);
            }
            _ => {}
        }
    }
    committed.retain(|tx| !aborted.contains(tx));
    committed
}

fn header_bytes(base_lsn: Lsn) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(WAL_MAGIC);
    header[8..16].copy_from_slice(&base_lsn.to_le_bytes());
    header
}

struct WalState {
    backend: Backend,
    policy: SyncPolicy,
    next_tx: TxId,
    /// LSN of the first record currently in the log.
    base_lsn: Lsn,
    /// LSN the next appended record will get.
    next_lsn: Lsn,
    /// Commits appended since the last sync.
    unsynced_commits: usize,
    /// Total number of syncs performed (observability for benches/tests).
    syncs: u64,
}

/// Shared leader/follower state for [`SyncPolicy::GroupDurable`].
struct GroupSync {
    /// Every record with `lsn < durable_lsn` has been `fsync`ed.
    durable_lsn: Lsn,
    /// Whether a leader is currently performing a sync.
    syncing: bool,
}

/// Latency instruments the engine installs on a log (see
/// [`Wal::set_instruments`]): recording is a handful of relaxed atomics, so
/// the commit path pays nothing measurable for being observed.
#[derive(Clone)]
pub struct WalInstruments {
    /// End-to-end [`Wal::commit`] latency, in microseconds (includes any
    /// inline or group `fsync` the sync policy demands).
    pub commit_micros: Arc<Histogram>,
    /// Latency of each physical `fsync`, in microseconds, across every sync
    /// site (inline commit syncs, group-commit leader syncs, explicit
    /// [`Wal::sync`] calls).
    pub fsync_micros: Arc<Histogram>,
}

/// A redo-only write-ahead log with transactional records, durable commits,
/// and checksum-aware replay. See the module docs for the on-disk format.
pub struct Wal {
    state: Mutex<WalState>,
    /// Leader/follower coordination for multi-producer group commit. Uses
    /// `std::sync` directly because followers park on a condition variable
    /// and the vendored `parking_lot` shim provides no `Condvar` (its
    /// guards are `std` type aliases, so a safe wrapper cannot offer the
    /// `parking_lot` wait API either).
    group: StdMutex<GroupSync>,
    /// Whether the backend has a file to sync (fixed at construction; lets
    /// the commit path skip the group machinery without touching any lock
    /// the leader might hold across an fsync).
    file_backed: bool,
    group_cv: Condvar,
    /// Dedicated handle the leader `fsync`s through, so appends (which hold
    /// the state lock) proceed while the disk flush is in flight. Refreshed
    /// by [`Wal::truncate`], whose rewrite replaces the underlying file.
    sync_file: Mutex<Option<File>>,
    /// Observability hooks, installed at most once by the engine; absent for
    /// logs nobody watches (unit tests, tools).
    instruments: OnceLock<WalInstruments>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Wal")
            .field("records", &(state.next_lsn - state.base_lsn))
            .field("base_lsn", &state.base_lsn)
            .field("policy", &state.policy)
            .finish()
    }
}

impl Default for Wal {
    fn default() -> Self {
        Wal::new()
    }
}

impl Wal {
    /// Creates an empty in-memory log (no file, no syncs). The record format
    /// is identical to the file-backed log, so replay and torn-tail handling
    /// behave the same.
    pub fn new() -> Wal {
        Wal::assemble(
            WalState {
                backend: Backend::Memory(Vec::new()),
                policy: SyncPolicy::Never,
                next_tx: 0,
                base_lsn: 0,
                next_lsn: 0,
                unsynced_commits: 0,
                syncs: 0,
            },
            None,
        )
    }

    fn assemble(state: WalState, sync_file: Option<File>) -> Wal {
        Wal {
            state: Mutex::new(state),
            group: StdMutex::new(GroupSync {
                durable_lsn: 0,
                syncing: false,
            }),
            group_cv: Condvar::new(),
            file_backed: sync_file.is_some(),
            sync_file: Mutex::new(sync_file),
            instruments: OnceLock::new(),
        }
    }

    /// Installs the latency instruments. First caller wins; later calls are
    /// ignored, so the hooks never change under a concurrent commit.
    pub fn set_instruments(&self, instruments: WalInstruments) {
        let _ = self.instruments.set(instruments);
    }

    /// Records `micros` into the fsync histogram, if instruments are set.
    fn note_fsync(&self, started: Instant) {
        if let Some(ins) = self.instruments.get() {
            ins.fsync_micros.record(started.elapsed().as_micros() as u64);
        }
    }

    /// Creates (or truncates) a file-backed log at `path`.
    pub fn create(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(StorageError::from)?;
        file.write_all(&header_bytes(0)).map_err(StorageError::from)?;
        file.sync_data().map_err(StorageError::from)?;
        let sync_file = Some(file.try_clone().map_err(StorageError::from)?);
        Ok(Wal::assemble(
            WalState {
                backend: Backend::File { file, path },
                policy,
                next_tx: 0,
                base_lsn: 0,
                next_lsn: 0,
                unsynced_commits: 0,
                syncs: 0,
            },
            sync_file,
        ))
    }

    /// Opens an existing file-backed log. A torn tail (a record cut short by
    /// a crash, or one failing its checksum) is physically truncated away so
    /// later appends extend a clean log. Transaction ids continue past the
    /// highest id seen in the surviving records.
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(StorageError::from)?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header).map_err(|_| {
            StorageError::Corrupted(format!(
                "WAL file `{}` is shorter than its header",
                path.display()
            ))
        })?;
        if &header[..8] != WAL_MAGIC {
            return Err(StorageError::NotRodentStore {
                path: path.display().to_string(),
            });
        }
        let mut base = [0u8; 8];
        base.copy_from_slice(&header[8..16]);
        let base_lsn = u64::from_le_bytes(base);
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(StorageError::from)?;
        let (records, valid) = decode_frames(&bytes);
        if valid < bytes.len() {
            // Discard the torn tail on disk, not just in memory.
            file.set_len((HEADER_LEN + valid) as u64)
                .map_err(StorageError::from)?;
            file.sync_data().map_err(StorageError::from)?;
        }
        file.seek(SeekFrom::End(0)).map_err(StorageError::from)?;
        let next_tx = records.iter().map(|r| r.tx() + 1).max().unwrap_or(0);
        let next_lsn = base_lsn + records.len() as u64;
        let sync_file = Some(file.try_clone().map_err(StorageError::from)?);
        Ok(Wal::assemble(
            WalState {
                backend: Backend::File { file, path },
                policy,
                next_tx,
                base_lsn,
                next_lsn,
                unsynced_commits: 0,
                syncs: 0,
            },
            sync_file,
        ))
    }

    fn append(state: &mut WalState, record: &LogRecord) -> Result<Lsn> {
        let lsn = state.next_lsn;
        state.backend.append(&frame(&record.encode()))?;
        state.next_lsn += 1;
        Ok(lsn)
    }

    /// Starts a new transaction.
    pub fn begin(&self) -> Result<TxId> {
        let mut state = self.state.lock();
        let tx = state.next_tx;
        state.next_tx += 1;
        Wal::append(&mut state, &LogRecord::Begin(tx))?;
        Ok(tx)
    }

    /// Logs an opaque logical operation performed by `tx` (see
    /// [`LogRecord::Op`]).
    pub fn log_op(&self, tx: TxId, payload: &[u8]) -> Result<Lsn> {
        let mut state = self.state.lock();
        Wal::append(
            &mut state,
            &LogRecord::Op {
                tx,
                payload: payload.to_vec(),
            },
        )
    }

    /// Commits a transaction, syncing according to the [`SyncPolicy`].
    /// Under [`SyncPolicy::GroupDurable`] the commit record is guaranteed
    /// durable when this returns; concurrent callers share the `fsync`.
    pub fn commit(&self, tx: TxId) -> Result<()> {
        let started = Instant::now();
        let (commit_lsn, policy) = {
            let mut state = self.state.lock();
            let lsn = Wal::append(&mut state, &LogRecord::Commit(tx))?;
            state.unsynced_commits += 1;
            let should_sync_inline = match state.policy {
                SyncPolicy::Never | SyncPolicy::GroupDurable => false,
                SyncPolicy::GroupCommit(n) => state.unsynced_commits >= n.max(1),
            };
            if should_sync_inline {
                let sync_started = Instant::now();
                state.backend.sync()?;
                self.note_fsync(sync_started);
                state.unsynced_commits = 0;
                state.syncs += 1;
            }
            (lsn, state.policy)
        };
        if policy == SyncPolicy::GroupDurable {
            self.await_durable(commit_lsn)?;
        }
        if let Some(ins) = self.instruments.get() {
            ins.commit_micros.record(started.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Parks until a group sync covering `commit_lsn` has completed,
    /// becoming the leader (and performing the sync) if nobody else is.
    fn await_durable(&self, commit_lsn: Lsn) -> Result<()> {
        if !self.file_backed {
            return Ok(()); // in-memory backend: nothing to make durable
        }
        let mut group = self.group.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if group.durable_lsn > commit_lsn {
                return Ok(());
            }
            if group.syncing {
                // A sync is in flight but started before our record landed
                // (or we would have seen durable_lsn advance). Wait for it;
                // one of the woken followers leads the next round.
                group = self
                    .group_cv
                    .wait(group)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            group.syncing = true;
            drop(group);
            let result = self.lead_sync();
            group = self.group.lock().unwrap_or_else(|e| e.into_inner());
            group.syncing = false;
            match result {
                Ok(covered_upto) => {
                    group.durable_lsn = group.durable_lsn.max(covered_upto);
                    self.group_cv.notify_all();
                    // Loop: our own record is necessarily covered (it was
                    // appended before we became leader), so this returns.
                }
                Err(e) => {
                    // Wake the followers so each can retry (and surface the
                    // error from its own leader attempt) instead of parking
                    // forever on a sync that never completed.
                    self.group_cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// The leader half of the group commit: snapshot the end of the log,
    /// `fsync` through the dedicated handle with the state lock released,
    /// and report the first LSN *not* covered by the sync.
    fn lead_sync(&self) -> Result<Lsn> {
        let handle = self.sync_file.lock();
        // Everything appended so far is in the file (appends complete their
        // write under the state lock before advancing next_lsn), so a sync
        // started now covers every record below this watermark.
        let covered_upto = self.state.lock().next_lsn;
        if let Some(file) = handle.as_ref() {
            let sync_started = Instant::now();
            file.sync_data().map_err(StorageError::from)?;
            self.note_fsync(sync_started);
        }
        drop(handle);
        let mut state = self.state.lock();
        state.unsynced_commits = 0;
        state.syncs += 1;
        Ok(covered_upto)
    }

    /// Aborts a transaction; its records will be ignored by replay.
    pub fn abort(&self, tx: TxId) -> Result<()> {
        let mut state = self.state.lock();
        Wal::append(&mut state, &LogRecord::Abort(tx))?;
        Ok(())
    }

    /// Forces the log to durable storage (and resets the group-commit
    /// batch). No-op for the in-memory backend.
    pub fn sync(&self) -> Result<()> {
        let mut state = self.state.lock();
        let started = Instant::now();
        state.backend.sync()?;
        self.note_fsync(started);
        state.unsynced_commits = 0;
        state.syncs += 1;
        Ok(())
    }

    /// Number of `fsync`s performed so far (group-commit observability).
    pub fn sync_count(&self) -> u64 {
        self.state.lock().syncs
    }

    /// Number of records currently in the log.
    pub fn len(&self) -> usize {
        let state = self.state.lock();
        (state.next_lsn - state.base_lsn) as usize
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The LSN of the most recently appended record, if any.
    pub fn last_lsn(&self) -> Option<Lsn> {
        let state = self.state.lock();
        (state.next_lsn > state.base_lsn).then(|| state.next_lsn - 1)
    }

    /// The LSN the next appended record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.state.lock().next_lsn
    }

    /// Size of the log body in bytes (record frames, excluding the file
    /// header). Crash tests use this to enumerate truncation points.
    pub fn bytes_len(&self) -> Result<u64> {
        self.state.lock().backend.len()
    }

    /// Decodes the log records (oldest first), stopping at a torn or corrupt
    /// tail — records past the first bad frame are never returned.
    pub fn records(&self) -> Result<Vec<LogRecord>> {
        let bytes = self.state.lock().backend.record_bytes()?;
        Ok(decode_frames(&bytes).0)
    }

    /// Decodes the log and returns the [`LogRecord::Op`] payloads of
    /// *committed* transactions, in log order, each tagged with its LSN.
    /// Ops of uncommitted or aborted transactions, and everything past a
    /// torn tail, are skipped. An abort record voids the transaction even
    /// when a commit record exists: a commit whose `fsync` *failed* is
    /// compensated with an abort (the caller rolled the mutation back, so
    /// replay must not resurrect it even if the commit bytes later reached
    /// the disk anyway).
    pub fn committed_ops(&self) -> Result<Vec<(Lsn, TxId, Vec<u8>)>> {
        let (records, base_lsn) = {
            let mut state = self.state.lock();
            (decode_frames(&state.backend.record_bytes()?).0, state.base_lsn)
        };
        let committed = effective_commits(&records);
        let mut ops = Vec::new();
        for (i, record) in records.iter().enumerate() {
            if let LogRecord::Op { tx, payload } = record {
                if committed.contains(tx) {
                    ops.push((base_lsn + i as u64, *tx, payload.clone()));
                }
            }
        }
        Ok(ops)
    }

    /// Drops every record with `lsn <= upto` (typically everything up to the
    /// last LSN included in a checkpoint). The surviving suffix is rewritten
    /// atomically and synced; LSNs of surviving records are preserved.
    pub fn truncate(&self, upto: Lsn) -> Result<()> {
        // Lock order: `sync_file` before `state` (matches `lead_sync`). The
        // rewrite below renames a fresh file over the log, so the leader's
        // sync handle must be refreshed under the same critical section —
        // otherwise a concurrent group commit could fsync the dead inode.
        let mut sync_file = self.sync_file.lock();
        let mut state = self.state.lock();
        if upto < state.base_lsn {
            return Ok(());
        }
        if upto + 1 >= state.next_lsn {
            // The common checkpoint case drops *everything*: rewrite just
            // the header, no need to read the log back and decode it.
            let next = state.next_lsn;
            state.backend.rewrite(next, &[])?;
            state.base_lsn = next;
        } else {
            let bytes = state.backend.record_bytes()?;
            let (records, _) = decode_frames(&bytes);
            let keep_from =
                ((upto + 1).saturating_sub(state.base_lsn) as usize).min(records.len());
            let new_base = state.base_lsn + keep_from as u64;
            state.backend.rewrite(new_base, &records[keep_from..])?;
            state.base_lsn = new_base;
            state.next_lsn = new_base + (records.len() - keep_from) as u64;
        }
        *sync_file = state.backend.try_clone_file()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The payloads of the log's committed ops, in log order.
    fn committed_payloads(wal: &Wal) -> Vec<Vec<u8>> {
        let ops = wal.committed_ops().unwrap();
        ops.into_iter().map(|(_, _, payload)| payload).collect()
    }

    fn temp_wal_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rodentstore-wal-test-{}-{tag}.wal",
            std::process::id()
        ))
    }

    #[test]
    fn committed_writes_are_replayed() {
        let wal = Wal::new();
        let tx = wal.begin().unwrap();
        let first = wal.log_op(tx, b"seven").unwrap();
        let second = wal.log_op(tx, b"nine").unwrap();
        wal.commit(tx).unwrap();

        let ops = wal.committed_ops().unwrap();
        assert_eq!(
            ops,
            vec![(first, tx, b"seven".to_vec()), (second, tx, b"nine".to_vec())]
        );
    }

    #[test]
    fn aborted_and_in_flight_writes_are_skipped() {
        let wal = Wal::new();
        let t1 = wal.begin().unwrap();
        wal.log_op(t1, b"aborted").unwrap();
        wal.abort(t1).unwrap();

        let t2 = wal.begin().unwrap();
        wal.log_op(t2, b"in-flight").unwrap();
        // t2 never commits.

        let t3 = wal.begin().unwrap();
        wal.log_op(t3, b"committed").unwrap();
        wal.commit(t3).unwrap();

        assert_eq!(committed_payloads(&wal), vec![b"committed".to_vec()]);
    }

    #[test]
    fn transaction_ids_are_unique_and_log_grows() {
        let wal = Wal::new();
        assert!(wal.is_empty());
        let a = wal.begin().unwrap();
        let b = wal.begin().unwrap();
        assert_ne!(a, b);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.records().unwrap().len(), 2);
    }

    #[test]
    fn file_backed_log_round_trips_and_continues() {
        let path = temp_wal_path("roundtrip");
        {
            let wal = Wal::create(&path, SyncPolicy::GroupDurable).unwrap();
            let tx = wal.begin().unwrap();
            wal.log_op(tx, b"hello durable world").unwrap();
            wal.commit(tx).unwrap();
        }
        {
            let wal = Wal::open(&path, SyncPolicy::GroupDurable).unwrap();
            assert_eq!(wal.len(), 3);
            let ops = wal.committed_ops().unwrap();
            assert_eq!(ops.len(), 1);
            assert_eq!(ops[0].2, b"hello durable world");
            // Tx ids continue past recovered ones.
            let tx = wal.begin().unwrap();
            assert_eq!(tx, 1);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        let path = temp_wal_path("torn");
        {
            let wal = Wal::create(&path, SyncPolicy::GroupDurable).unwrap();
            let t1 = wal.begin().unwrap();
            wal.log_op(t1, b"first").unwrap();
            wal.commit(t1).unwrap();
            let t2 = wal.begin().unwrap();
            wal.log_op(t2, b"second-never-fully-written").unwrap();
            wal.commit(t2).unwrap();
        }
        // Simulate a crash mid-write: chop 3 bytes off the final record.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        {
            let wal = Wal::open(&path, SyncPolicy::GroupDurable).unwrap();
            // t2's commit record was torn: only t1 survives as committed.
            let ops = wal.committed_ops().unwrap();
            assert_eq!(ops.len(), 1);
            assert_eq!(ops[0].2, b"first");
            // The torn bytes were physically removed, so appends are clean.
            let t = wal.begin().unwrap();
            wal.log_op(t, b"after-recovery").unwrap();
            wal.commit(t).unwrap();
        }
        let wal = Wal::open(&path, SyncPolicy::GroupDurable).unwrap();
        assert_eq!(wal.committed_ops().unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_ends_the_decodable_log() {
        let path = temp_wal_path("corrupt");
        {
            let wal = Wal::create(&path, SyncPolicy::GroupDurable).unwrap();
            for i in 0..3 {
                let tx = wal.begin().unwrap();
                wal.log_op(tx, format!("op-{i}").as_bytes()).unwrap();
                wal.commit(tx).unwrap();
            }
        }
        // Flip one byte in the middle of the file (inside record payloads).
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        let ops = wal.committed_ops().unwrap();
        assert!(
            ops.len() < 3,
            "a corrupt record must cut off the log, got {} ops",
            ops.len()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_batches_syncs() {
        let path = temp_wal_path("group");
        let wal = Wal::create(&path, SyncPolicy::GroupCommit(8)).unwrap();
        for _ in 0..31 {
            let tx = wal.begin().unwrap();
            wal.log_op(tx, b"x").unwrap();
            wal.commit(tx).unwrap();
        }
        // 31 commits at a batch size of 8 → 3 syncs (8, 16, 24), with 7
        // commits still unsynced.
        assert_eq!(wal.sync_count(), 3);
        wal.sync().unwrap();
        assert_eq!(wal.sync_count(), 4);
        drop(wal);

        let per_commit = Wal::create(&path, SyncPolicy::GroupDurable).unwrap();
        for _ in 0..5 {
            let tx = per_commit.begin().unwrap();
            per_commit.commit(tx).unwrap();
        }
        assert_eq!(per_commit.sync_count(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compensation_abort_voids_a_committed_transaction() {
        // The failed-commit-fsync path: the commit record is in the log but
        // the caller rolled back and appended an abort. Replay must skip it.
        let wal = Wal::new();
        let t1 = wal.begin().unwrap();
        wal.log_op(t1, b"doomed").unwrap();
        wal.commit(t1).unwrap();
        wal.abort(t1).unwrap(); // compensation after a failed sync
        let t2 = wal.begin().unwrap();
        wal.log_op(t2, b"kept").unwrap();
        wal.commit(t2).unwrap();
        assert_eq!(committed_payloads(&wal), vec![b"kept".to_vec()]);
    }

    #[test]
    fn group_durable_commits_are_synced_before_returning() {
        let path = temp_wal_path("group-durable");
        let wal = Wal::create(&path, SyncPolicy::GroupDurable).unwrap();
        for _ in 0..5 {
            let tx = wal.begin().unwrap();
            wal.log_op(tx, b"x").unwrap();
            wal.commit(tx).unwrap();
        }
        // Single-threaded, every commit leads its own sync.
        assert_eq!(wal.sync_count(), 5);
        drop(wal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_group_durable_committers_share_syncs() {
        let path = temp_wal_path("group-durable-mp");
        let wal = std::sync::Arc::new(Wal::create(&path, SyncPolicy::GroupDurable).unwrap());
        const THREADS: usize = 8;
        const COMMITS: usize = 25;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let wal = std::sync::Arc::clone(&wal);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..COMMITS {
                        let tx = wal.begin().unwrap();
                        wal.log_op(tx, format!("t{t}-c{i}").as_bytes()).unwrap();
                        wal.commit(tx).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (THREADS * COMMITS) as u64;
        let syncs = wal.sync_count();
        assert!(syncs >= 1);
        assert!(
            syncs <= total,
            "never more syncs than commits, got {syncs} for {total}"
        );
        // Every commit is durable and decodable after reopen.
        drop(wal);
        let reopened = Wal::open(&path, SyncPolicy::GroupDurable).unwrap();
        assert_eq!(reopened.committed_ops().unwrap().len(), total as usize);
        // A truncate (which replaces the file) must not break later commits.
        reopened.truncate(reopened.last_lsn().unwrap()).unwrap();
        let tx = reopened.begin().unwrap();
        reopened.log_op(tx, b"after-truncate").unwrap();
        reopened.commit(tx).unwrap();
        assert_eq!(reopened.committed_ops().unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_keeps_the_suffix_and_lsns() {
        let path = temp_wal_path("truncate");
        let wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        let mut commit_lsns = Vec::new();
        for i in 0..4 {
            let tx = wal.begin().unwrap();
            wal.log_op(tx, format!("op-{i}").as_bytes()).unwrap();
            wal.commit(tx).unwrap();
            commit_lsns.push(wal.last_lsn().unwrap());
        }
        assert_eq!(wal.len(), 12);
        // Drop everything up to (and including) the second commit.
        wal.truncate(commit_lsns[1]).unwrap();
        assert_eq!(wal.len(), 6);
        let ops = wal.committed_ops().unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].2, b"op-2");
        // LSNs are preserved across truncation and reopen.
        assert_eq!(wal.last_lsn().unwrap(), commit_lsns[3]);
        drop(wal);
        let reopened = Wal::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(reopened.last_lsn().unwrap(), commit_lsns[3]);
        assert_eq!(reopened.committed_ops().unwrap().len(), 2);
        // Truncating everything empties the log.
        reopened.truncate(commit_lsns[3]).unwrap();
        assert!(reopened.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_is_checksum_aware_in_memory_too() {
        // The in-memory backend uses the same framed format; hand-corrupt it
        // through the public API surface by building a log whose tail frame
        // lies about its length.
        let wal = Wal::new();
        let t1 = wal.begin().unwrap();
        wal.log_op(t1, b"five").unwrap();
        wal.commit(t1).unwrap();
        {
            let mut state = wal.state.lock();
            // A frame header promising more bytes than exist (torn tail).
            state.backend.append(&[200, 0, 0, 0, 1, 2, 3, 4]).unwrap();
            state.next_lsn += 1;
        }
        assert_eq!(committed_payloads(&wal), vec![b"five".to_vec()]);
        assert_eq!(wal.records().unwrap().len(), 3, "torn frame is not decoded");
    }
}
