//! The durable commit plane: per-shard write-ahead logs under
//! [`ShardedStore`].
//!
//! A durable store ([`ShardedStore::open_durable`]) owns one [`wal::Log`]
//! per data shard plus one for the directory shard, laid out as
//!
//! ```text
//! <root>/snapshot.json      latest checkpoint (atomic temp-file + rename)
//! <root>/dir/wal-*.log      directory ops: users, workspaces, shares
//! <root>/shard-<i>/wal-*.log   commit records of partition i
//! ```
//!
//! **Write path.** Every mutating operation appends one record *inside* the
//! same critical section that mutates the in-memory state — so each log's
//! record order equals its shard's commit order — and waits for durability
//! *after* releasing the lock, so the fsync (group commit, [`wal::Log`])
//! never serializes other workspaces. Records carry a store-wide LSN drawn
//! from one atomic counter; because an operation's LSN is assigned before
//! its caller observes completion, any causally-later operation gets a
//! larger LSN, and sorting all logs' records by LSN yields a valid
//! serialization for replay.
//!
//! **Recovery.** Open loads the snapshot (if any), replays every log with
//! torn-tail tolerance, merges the records by LSN, and applies them through
//! idempotent appliers: a record already reflected in the snapshot confirms
//! against the stored chain instead of double-applying. A crash can only
//! lose a *suffix* of un-fsynced records per log — and those were never
//! acknowledged — so recovery always lands on exactly the state every
//! acknowledged operation saw: no lost acked commit, no double-commit,
//! gap-free version chains.
//!
//! **Checkpoint.** [`ShardedStore::checkpoint`] captures each log's
//! watermark under its shard lock, writes the snapshot atomically, then
//! truncates sealed segments below the watermarks. Records landing between
//! the per-shard captures replay idempotently over the snapshot.

use crate::error::{MetadataError, MetadataResult};
use crate::model::{CommitOutcome, ItemMetadata, Workspace, WorkspaceId};
use crate::shard::{route_workspace, Directory, Shard, ShardedStore};
use crate::snapshot::{item_from_value, item_to_value, parts_from_value, parts_to_value};
use crate::snapshot::{write_atomic, StoreParts};
use crate::store::ItemTables;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wire::{BinaryCodec, Codec, JsonCodec, Value, WireError, WireResult};

/// The WAL side of a durable [`ShardedStore`]: one log per shard, one for
/// the directory, and the store-wide LSN counter.
pub(crate) struct WalPlane {
    pub(crate) root: PathBuf,
    pub(crate) dir_log: wal::Log,
    pub(crate) shard_logs: Vec<wal::Log>,
    lsn: AtomicU64,
}

impl WalPlane {
    fn next_lsn(&self) -> u64 {
        self.lsn.fetch_add(1, Ordering::SeqCst)
    }

    pub(crate) fn status(&self) -> Result<(), String> {
        self.dir_log.status().map_err(|e| format!("dir log: {e}"))?;
        for (i, log) in self.shard_logs.iter().enumerate() {
            log.status().map_err(|e| format!("shard {i} log: {e}"))?;
        }
        Ok(())
    }
}

/// What [`ShardedStore::open_durable`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableRecovery {
    /// Whether a snapshot file was loaded as the replay base.
    pub snapshot_loaded: bool,
    /// WAL records replayed over the base (all logs combined).
    pub replayed: u64,
    /// Logs whose tail was torn (partial final write truncated away).
    pub torn_logs: u64,
}

fn wal_err(e: wal::WalError) -> MetadataError {
    MetadataError::Durability(e.to_string())
}

fn wal_io(e: wal::WalError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

fn invalid(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// One logged operation, the replay unit.
enum Op {
    User(String),
    Ws {
        id: String,
        owner: String,
        name: String,
    },
    Share {
        ws: String,
        user: String,
    },
    Commit {
        ws: WorkspaceId,
        items: Vec<ItemMetadata>,
    },
}

fn user_record(lsn: u64, user: &str) -> Value {
    Value::Map(vec![
        ("lsn".into(), Value::U64(lsn)),
        ("op".into(), Value::from("user")),
        ("user".into(), Value::Str(user.to_string())),
    ])
}

fn ws_record(lsn: u64, id: &str, owner: &str, name: &str) -> Value {
    Value::Map(vec![
        ("lsn".into(), Value::U64(lsn)),
        ("op".into(), Value::from("ws")),
        ("id".into(), Value::Str(id.to_string())),
        ("owner".into(), Value::Str(owner.to_string())),
        ("name".into(), Value::Str(name.to_string())),
    ])
}

fn share_record(lsn: u64, ws: &str, user: &str) -> Value {
    Value::Map(vec![
        ("lsn".into(), Value::U64(lsn)),
        ("op".into(), Value::from("share")),
        ("ws".into(), Value::Str(ws.to_string())),
        ("user".into(), Value::Str(user.to_string())),
    ])
}

fn commit_record(lsn: u64, ws: &WorkspaceId, items: Vec<Value>) -> Value {
    Value::Map(vec![
        ("lsn".into(), Value::U64(lsn)),
        ("op".into(), Value::from("commit")),
        ("ws".into(), Value::Str(ws.0.clone())),
        ("items".into(), Value::List(items)),
    ])
}

fn parse_record(bytes: &[u8]) -> WireResult<(u64, Op)> {
    let v = BinaryCodec.decode(bytes)?;
    let lsn = v.field("lsn")?.as_u64()?;
    let op = match v.field("op")?.as_str()? {
        "user" => Op::User(v.field("user")?.as_str()?.to_string()),
        "ws" => Op::Ws {
            id: v.field("id")?.as_str()?.to_string(),
            owner: v.field("owner")?.as_str()?.to_string(),
            name: v.field("name")?.as_str()?.to_string(),
        },
        "share" => Op::Share {
            ws: v.field("ws")?.as_str()?.to_string(),
            user: v.field("user")?.as_str()?.to_string(),
        },
        "commit" => Op::Commit {
            ws: WorkspaceId(v.field("ws")?.as_str()?.to_string()),
            items: v
                .field("items")?
                .as_list()?
                .iter()
                .map(item_from_value)
                .collect::<WireResult<Vec<ItemMetadata>>>()?,
        },
        other => {
            return Err(WireError::Invalid(format!(
                "unknown wal record op `{other}`"
            )))
        }
    };
    Ok((lsn, op))
}

// ---------------------------------------------------------------------------
// Write-path hooks (called from the MetadataStore impl in shard.rs)
// ---------------------------------------------------------------------------

/// Appends a directory-log record if the store is durable. Call while
/// holding the directory lock; [`wait`] on the ticket after releasing it.
pub(crate) fn append_dir(
    store: &ShardedStore,
    build: impl FnOnce(u64) -> Value,
) -> MetadataResult<Option<wal::Ticket>> {
    let Some(plane) = &store.wal else {
        return Ok(None);
    };
    let record = build(plane.next_lsn());
    plane
        .dir_log
        .append(&BinaryCodec.encode(&record))
        .map(Some)
        .map_err(wal_err)
}

/// Directory record builders, paired with [`append_dir`].
pub(crate) fn dir_user(user: &str) -> impl FnOnce(u64) -> Value + '_ {
    move |lsn| user_record(lsn, user)
}

pub(crate) fn dir_workspace<'a>(
    id: &'a WorkspaceId,
    owner: &'a str,
    name: &'a str,
) -> impl FnOnce(u64) -> Value + 'a {
    move |lsn| ws_record(lsn, &id.0, owner, name)
}

pub(crate) fn dir_share<'a>(ws: &'a WorkspaceId, user: &'a str) -> impl FnOnce(u64) -> Value + 'a {
    move |lsn| share_record(lsn, &ws.0, user)
}

/// Appends the commit record for the *stored* (winning) items of a commit.
/// Call while holding the shard lock so the log order matches the apply
/// order; [`wait`] after releasing it. Conflict-only commits log nothing.
pub(crate) fn append_commit(
    store: &ShardedStore,
    shard_index: usize,
    workspace: &WorkspaceId,
    outcomes: &[CommitOutcome],
) -> MetadataResult<Option<wal::Ticket>> {
    let Some(plane) = &store.wal else {
        return Ok(None);
    };
    let mut items = Vec::new();
    for outcome in outcomes {
        if let crate::model::CommitResult::Committed { version } = outcome.result {
            let mut stored = outcome.proposed.clone();
            stored.version = version;
            stored.workspace = workspace.clone();
            items.push(item_to_value(&stored));
        }
    }
    if items.is_empty() {
        return Ok(None);
    }
    let record = commit_record(plane.next_lsn(), workspace, items);
    plane.shard_logs[shard_index]
        .append(&BinaryCodec.encode(&record))
        .map(Some)
        .map_err(wal_err)
}

/// Blocks until a ticket from [`append_dir`]/[`append_commit`] is durable.
pub(crate) fn wait(ticket: Option<wal::Ticket>) -> MetadataResult<()> {
    match ticket {
        None => Ok(()),
        Some(t) => t.wait().map_err(wal_err),
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Applies one stored (post-Algorithm-1) item during replay. Idempotent:
/// versions at or below the chain head must *match* the chain (the record
/// was already covered by the snapshot or an earlier log); version head+1
/// extends the chain; anything else is a recovery invariant violation.
fn replay_item(
    tables: &mut ItemTables,
    ws: &WorkspaceId,
    item: ItemMetadata,
) -> Result<(), String> {
    match tables.items.get_mut(&item.item_id) {
        None => {
            if item.version != 1 {
                return Err(format!(
                    "replay: first record of item {} has version {}",
                    item.item_id, item.version
                ));
            }
            tables
                .by_workspace
                .entry(ws.0.clone())
                .or_default()
                .insert(item.item_id);
            tables.items.insert(item.item_id, vec![item]);
        }
        Some(chain) => {
            let head = chain.last().expect("chains are never empty").version;
            if item.version == head + 1 {
                chain.push(item);
            } else if item.version >= 1 && item.version <= head {
                let existing = &chain[(item.version - 1) as usize];
                if existing.modified_by != item.modified_by
                    || existing.chunks != item.chunks
                    || existing.is_deleted != item.is_deleted
                {
                    return Err(format!(
                        "replay: item {} version {} diverges from stored chain",
                        item.item_id, item.version
                    ));
                }
            } else {
                return Err(format!(
                    "replay: item {} jumps from version {head} to {}",
                    item.item_id, item.version
                ));
            }
        }
    }
    Ok(())
}

fn apply_op(
    directory: &mut Directory,
    tables: &mut [ItemTables],
    item_home: &mut HashMap<u64, WorkspaceId>,
    op: Op,
) -> Result<(), String> {
    let shards = tables.len();
    match op {
        Op::User(user) => {
            directory.users.insert(user);
        }
        Op::Ws { id, owner, name } => {
            if let Some(n) = id.strip_prefix("ws-").and_then(|n| n.parse::<u64>().ok()) {
                directory.next_workspace = directory.next_workspace.max(n);
            }
            tables[route_workspace(&id, shards)]
                .by_workspace
                .entry(id.clone())
                .or_default();
            directory.workspaces.entry(id.clone()).or_insert(Workspace {
                id: WorkspaceId(id),
                owner,
                name,
                members: Vec::new(),
            });
        }
        Op::Share { ws, user } => {
            let w = directory
                .workspaces
                .get_mut(&ws)
                .ok_or_else(|| format!("replay: share targets unknown workspace {ws}"))?;
            if w.owner != user && !w.members.iter().any(|m| m == &user) {
                w.members.push(user);
            }
        }
        Op::Commit { ws, items } => {
            let t = &mut tables[route_workspace(&ws.0, shards)];
            if !t.by_workspace.contains_key(&ws.0) {
                return Err(format!("replay: commit to unknown workspace {}", ws.0));
            }
            for item in items {
                item_home.entry(item.item_id).or_insert_with(|| ws.clone());
                replay_item(t, &ws, item)?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Open / checkpoint / crash hooks
// ---------------------------------------------------------------------------

impl ShardedStore {
    /// Opens (or creates) a durable sharded store rooted at `root`:
    /// `shards` partitions, each commit WAL-logged before acknowledgement.
    /// Recovery replays the logs over the latest snapshot; see the module
    /// docs for the invariants.
    ///
    /// `template` supplies the WAL tuning (sync policy, group-commit
    /// interval/bytes, segment size); each log derives its name from it.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or `InvalidData` when the snapshot or a log
    /// record fails to decode or violates a replay invariant.
    pub fn open_durable(
        root: impl AsRef<Path>,
        shards: usize,
        latency: Duration,
        template: wal::LogConfig,
    ) -> std::io::Result<(ShardedStore, DurableRecovery)> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let n = shards.max(1);

        // Base state: the latest snapshot, if one exists.
        let snap_path = root.join("snapshot.json");
        let mut directory = Directory::default();
        let mut tables: Vec<ItemTables> = (0..n).map(|_| ItemTables::default()).collect();
        let mut item_home: HashMap<u64, WorkspaceId> = HashMap::new();
        let snapshot_loaded = snap_path.exists();
        if snapshot_loaded {
            let bytes = std::fs::read(&snap_path)?;
            let value = JsonCodec.decode(&bytes).map_err(invalid)?;
            let parts = parts_from_value(&value).map_err(invalid)?;
            for user in parts.users {
                directory.users.insert(user);
            }
            for ws in parts.workspaces {
                if let Some(num) = ws.id.0.strip_prefix("ws-").and_then(|s| s.parse().ok()) {
                    directory.next_workspace = directory.next_workspace.max(num);
                }
                tables[route_workspace(&ws.id.0, n)]
                    .by_workspace
                    .entry(ws.id.0.clone())
                    .or_default();
                directory.workspaces.insert(ws.id.0.clone(), ws);
            }
            for versions in parts.histories {
                let Some(first) = versions.first() else {
                    continue;
                };
                let ws = first.workspace.clone();
                let id = first.item_id;
                let t = &mut tables[route_workspace(&ws.0, n)];
                t.by_workspace.entry(ws.0.clone()).or_default().insert(id);
                t.items.insert(id, versions);
                item_home.insert(id, ws);
            }
        }

        // Open every log, collecting the replayed records.
        let cfg = |suffix: String| {
            let mut c = template.clone();
            c.name = format!("{}.{suffix}", template.name);
            c
        };
        let (dir_log, dir_rec) =
            wal::Log::open(&root.join("dir"), cfg("dir".to_string())).map_err(wal_io)?;
        let mut shard_logs = Vec::with_capacity(n);
        let mut recoveries = vec![dir_rec];
        for i in 0..n {
            let (log, rec) =
                wal::Log::open(&root.join(format!("shard-{i}")), cfg(format!("shard{i}")))
                    .map_err(wal_io)?;
            shard_logs.push(log);
            recoveries.push(rec);
        }

        // Merge by LSN and apply through the idempotent repliers.
        let mut ops: Vec<(u64, Op)> = Vec::new();
        let mut torn_logs = 0u64;
        for rec in &recoveries {
            if rec.torn.is_some() {
                torn_logs += 1;
            }
            for (_, payload) in &rec.records {
                ops.push(parse_record(payload).map_err(invalid)?);
            }
        }
        ops.sort_by_key(|(lsn, _)| *lsn);
        let replayed = ops.len() as u64;
        let max_lsn = ops.last().map(|(lsn, _)| *lsn);
        for (_, op) in ops {
            apply_op(&mut directory, &mut tables, &mut item_home, op).map_err(invalid)?;
        }

        let plane = Arc::new(WalPlane {
            root,
            dir_log,
            shard_logs,
            lsn: AtomicU64::new(max_lsn.map(|l| l + 1).unwrap_or(0)),
        });
        let weak = Arc::downgrade(&plane);
        let wal_health = obs::register_health("metadata.wal", move || match weak.upgrade() {
            Some(plane) => plane.status(),
            None => Err("wal plane dropped".to_string()),
        });

        obs::flight_event!(
            "metadata",
            "durable store opened: {replayed} record(s) replayed over {} ({torn_logs} torn log(s))",
            if snapshot_loaded {
                "snapshot"
            } else {
                "empty base"
            }
        );

        let store = ShardedStore::assemble(
            directory,
            item_home,
            tables
                .into_iter()
                .enumerate()
                .map(|(i, t)| Shard::with_tables(i, t))
                .collect(),
            latency,
            Some(plane),
            Some(wal_health),
        );
        Ok((
            store,
            DurableRecovery {
                snapshot_loaded,
                replayed,
                torn_logs,
            },
        ))
    }

    /// Whether this store persists through a WAL plane.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Serializes the full store state into the wire data model — the
    /// `stacksync-metadata-v1` format [`ShardedStore::checkpoint`] writes.
    pub fn snapshot(&self) -> Value {
        parts_to_value(&self.dump_parts(|_| {}))
    }

    /// Copies the full state out, one lock at a time: the directory, then
    /// each partition. `under_lock` runs while each lock is held (`None`
    /// for the directory, `Some(i)` for partition `i`), so a checkpoint can
    /// capture each log's watermark consistently with its state.
    fn dump_parts(&self, mut under_lock: impl FnMut(Option<usize>)) -> StoreParts {
        let (users, workspaces) = {
            let dir = self.directory.lock();
            under_lock(None);
            (
                dir.users.iter().cloned().collect(),
                dir.workspaces.values().cloned().collect(),
            )
        };
        let mut histories: Vec<Vec<ItemMetadata>> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let tables = shard.tables.lock();
            under_lock(Some(i));
            histories.extend(tables.items.values().cloned());
        }
        histories.sort_by_key(|v| v[0].item_id);
        StoreParts {
            users,
            workspaces,
            histories,
        }
    }

    /// Writes a snapshot (atomic temp-file + rename) and truncates every
    /// log's sealed segments below the watermark captured under its shard
    /// lock. Records appended between the captures replay idempotently over
    /// the snapshot, so the checkpoint is safe under concurrent commits.
    ///
    /// # Errors
    ///
    /// `Unsupported` on a non-durable store; filesystem or WAL errors.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        let plane = self.wal.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "checkpoint requires a store opened with open_durable",
            )
        })?;
        let mut dir_mark = 0;
        let mut marks = Vec::with_capacity(self.shards.len());
        let parts = self.dump_parts(|log| match log {
            None => dir_mark = plane.dir_log.mark(),
            Some(i) => marks.push(plane.shard_logs[i].mark()),
        });
        write_atomic(
            &plane.root.join("snapshot.json"),
            &JsonCodec.encode(&parts_to_value(&parts)),
        )?;
        plane.dir_log.truncate_through(dir_mark).map_err(wal_io)?;
        for (log, mark) in plane.shard_logs.iter().zip(marks) {
            log.truncate_through(mark).map_err(wal_io)?;
        }
        obs::flight_event!(
            "metadata",
            "checkpoint written to {} (dir mark {dir_mark})",
            plane.root.display()
        );
        Ok(())
    }

    /// Fault-simulator hook: models process death by crashing every WAL
    /// (each keeps `surviving_pending_bytes` of its pending buffer as a
    /// torn tail). No-op on a non-durable store. After this, every write
    /// fails with [`MetadataError::Durability`]; reopen with
    /// [`ShardedStore::open_durable`] to recover.
    pub fn wal_simulate_crash(&self, surviving_pending_bytes: usize) {
        if let Some(plane) = &self.wal {
            plane.dir_log.simulate_crash(surviving_pending_bytes);
            for log in &plane.shard_logs {
                log.simulate_crash(surviving_pending_bytes);
            }
        }
    }

    /// The filesystem root of a durable store.
    pub fn durable_root(&self) -> Option<&Path> {
        self.wal.as_ref().map(|p| p.root.as_path())
    }
}

impl std::fmt::Debug for WalPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalPlane")
            .field("root", &self.root)
            .field("shards", &self.shard_logs.len())
            .finish_non_exhaustive()
    }
}
