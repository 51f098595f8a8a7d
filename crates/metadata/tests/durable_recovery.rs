//! Crash-replay proof for the durable metadata plane: every acknowledged
//! operation survives process death (drop + reopen), un-fsynced tails are
//! lost *cleanly* (never a half-applied or double-applied commit), and
//! checkpoints compose with log replay idempotently.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use metadata::{ItemMetadata, MetadataError, MetadataStore, ShardedStore};
use wal::{LogConfig, SyncPolicy};
use wire::{Codec, JsonCodec};

fn temp_root(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("meta-durable-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Manual sync keeps the WAL single-threaded and deterministic: every
/// store operation flushes inline when it waits on its ticket.
fn manual_cfg() -> LogConfig {
    let mut cfg = LogConfig::named("meta-test");
    cfg.sync = SyncPolicy::Manual;
    cfg
}

fn open(root: &PathBuf, shards: usize) -> (ShardedStore, metadata::DurableRecovery) {
    ShardedStore::open_durable(root, shards, std::time::Duration::ZERO, manual_cfg()).unwrap()
}

fn snap_bytes(store: &ShardedStore) -> Vec<u8> {
    JsonCodec.encode(&store.snapshot())
}

#[test]
fn clean_restart_recovers_exact_state() {
    let root = temp_root("restart");
    let before = {
        let (store, rec) = open(&root, 4);
        assert!(!rec.snapshot_loaded);
        assert_eq!(rec.replayed, 0);
        assert!(store.is_durable());
        assert_eq!(store.durable_root(), Some(root.as_path()));

        store.create_user("alice").unwrap();
        store.create_user("bob").unwrap();
        let ws1 = store.create_workspace("alice", "Documents").unwrap();
        let ws2 = store.create_workspace("bob", "Photos").unwrap();
        store.share_workspace(&ws1, "bob").unwrap();

        let f = ItemMetadata::new_file(1, &ws1, "report.txt", vec![], 10, "dev-a");
        store.commit(&ws1, vec![f]).unwrap();
        let cur = store.get_current(1).unwrap();
        store
            .commit(&ws1, vec![cur.next_version(vec![], 20, "dev-a")])
            .unwrap();
        // A genuine conflict: committed nothing, must not disturb replay.
        let mut rival = store.get_current(1).unwrap();
        rival.modified_by = "dev-b".into();
        let out = store.commit(&ws1, vec![rival]).unwrap();
        assert!(!out[0].is_committed());
        store
            .commit(
                &ws2,
                vec![ItemMetadata::new_file(2, &ws2, "p.jpg", vec![], 5, "dev-b")],
            )
            .unwrap();

        snap_bytes(&store)
    };

    let (store, rec) = open(&root, 4);
    assert!(!rec.snapshot_loaded, "no checkpoint was written");
    assert!(rec.replayed >= 8, "users+workspaces+share+commits replayed");
    assert_eq!(rec.torn_logs, 0);
    assert_eq!(
        snap_bytes(&store),
        before,
        "recovered state is bit-identical"
    );
    // Version chains are exact: no lost acked commit, no double-commit.
    assert_eq!(store.get_current(1).unwrap().version, 2);
    assert_eq!(store.history(1).unwrap().len(), 2);
    assert_eq!(store.get_current(2).unwrap().version, 1);
    // The id allocator resumed past recovered workspaces.
    let ws3 = store.create_workspace("alice", "Music").unwrap();
    assert_eq!(ws3.0, "ws-3");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn checkpoint_composes_with_log_replay() {
    let root = temp_root("checkpoint");
    let before = {
        let (store, _) = open(&root, 2);
        store.create_user("alice").unwrap();
        let ws = store.create_workspace("alice", "Docs").unwrap();
        store
            .commit(
                &ws,
                vec![ItemMetadata::new_file(1, &ws, "a.txt", vec![], 1, "d")],
            )
            .unwrap();
        // Snapshot covers everything so far; the records still sitting in
        // the active segments must replay idempotently over it.
        store.checkpoint().unwrap();
        let cur = store.get_current(1).unwrap();
        store
            .commit(&ws, vec![cur.next_version(vec![], 2, "d")])
            .unwrap();
        snap_bytes(&store)
    };

    let (store, rec) = open(&root, 2);
    assert!(rec.snapshot_loaded);
    assert_eq!(snap_bytes(&store), before);
    assert_eq!(store.get_current(1).unwrap().version, 2);
    assert_eq!(
        store.history(1).unwrap().len(),
        2,
        "snapshot + replay never double-applies a commit"
    );

    // A second checkpoint + reopen cycle stays stable.
    store.checkpoint().unwrap();
    drop(store);
    let (store, rec) = open(&root, 2);
    assert!(rec.snapshot_loaded);
    assert_eq!(snap_bytes(&store), before);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_log_tail_loses_only_the_last_record() {
    let root = temp_root("torn");
    {
        let (store, _) = open(&root, 1);
        store.create_user("u").unwrap();
        let ws = store.create_workspace("u", "W").unwrap();
        store
            .commit(
                &ws,
                vec![ItemMetadata::new_file(1, &ws, "f", vec![], 1, "d")],
            )
            .unwrap();
        for _ in 0..4 {
            let cur = store.get_current(1).unwrap();
            store
                .commit(&ws, vec![cur.next_version(vec![], 1, "d")])
                .unwrap();
        }
        assert_eq!(store.get_current(1).unwrap().version, 5);
    }

    // Tear the tail of the shard log: the v5 commit record becomes a
    // partial write, as if the process died between write and fsync.
    let shard_dir = root.join("shard-0");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&shard_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    segs.sort();
    let seg = segs.first().expect("shard log segment");
    let len = std::fs::metadata(seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(seg).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let (store, rec) = open(&root, 1);
    assert!(rec.torn_logs >= 1, "damage must be reported");
    assert_eq!(
        store.get_current(1).unwrap().version,
        4,
        "exactly the torn record is lost, nothing before it"
    );
    // The store keeps working and re-lands the lost version.
    let cur = store.get_current(1).unwrap();
    store
        .commit(
            &metadata::WorkspaceId::from("ws-1"),
            vec![cur.next_version(vec![], 1, "d")],
        )
        .unwrap();
    assert_eq!(store.get_current(1).unwrap().version, 5);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crashed_store_refuses_writes_until_reopened() {
    let root = temp_root("crashed");
    let (store, _) = open(&root, 2);
    store.create_user("u").unwrap();
    let ws = store.create_workspace("u", "W").unwrap();
    store
        .commit(
            &ws,
            vec![ItemMetadata::new_file(1, &ws, "f", vec![], 1, "d")],
        )
        .unwrap();

    store.wal_simulate_crash(usize::MAX);
    let cur = store.get_current(1).unwrap();
    let err = store
        .commit(&ws, vec![cur.next_version(vec![], 1, "d")])
        .unwrap_err();
    assert!(matches!(err, MetadataError::Durability(_)), "got {err:?}");
    assert!(matches!(
        store.create_user("v").unwrap_err(),
        MetadataError::Durability(_)
    ));
    drop(store);

    // Reopen recovers every acked operation and accepts writes again.
    let (store, _) = open(&root, 2);
    assert_eq!(store.get_current(1).unwrap().version, 1);
    let cur = store.get_current(1).unwrap();
    store
        .commit(&ws, vec![cur.next_version(vec![], 1, "d")])
        .unwrap();
    assert_eq!(store.get_current(1).unwrap().version, 2);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn non_durable_store_rejects_durable_only_calls() {
    let store = ShardedStore::with_shards(2);
    assert!(!store.is_durable());
    assert!(store.durable_root().is_none());
    let err = store.checkpoint().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    // And the crash hook is a harmless no-op.
    store.wal_simulate_crash(0);
    store.create_user("still-works").unwrap();
}

/// A store with a checkpoint on disk: a user, a workspace and a two-version
/// chain, so `snapshot.json` has nested lists and maps to damage.
fn checkpointed(root: &PathBuf) -> ShardedStore {
    let (store, _) = open(root, 2);
    store.create_user("alice").unwrap();
    let ws = store.create_workspace("alice", "Docs").unwrap();
    let f = ItemMetadata::new_file(1, &ws, "a.txt", vec![], 1, "d");
    store.commit(&ws, vec![f.clone()]).unwrap();
    store
        .commit(&ws, vec![f.next_version(vec![], 2, "d")])
        .unwrap();
    store.checkpoint().unwrap();
    store
}

#[test]
fn corrupted_or_truncated_snapshots_open_as_invalid_data() {
    let root = temp_root("damaged");
    drop(checkpointed(&root));
    let snap = root.join("snapshot.json");
    let intact = std::fs::read(&snap).unwrap();
    let open_err =
        || match ShardedStore::open_durable(&root, 2, std::time::Duration::ZERO, manual_cfg()) {
            Ok(_) => panic!("a damaged snapshot must not open"),
            Err(e) => e,
        };

    // Truncation at various depths: every prefix must be rejected as
    // InvalidData, never panic or open a partial store.
    for cut in [0, 1, intact.len() / 3, intact.len() - 1] {
        std::fs::write(&snap, &intact[..cut]).unwrap();
        assert_eq!(
            open_err().kind(),
            std::io::ErrorKind::InvalidData,
            "truncation to {cut} bytes"
        );
    }

    // Structural corruption inside the document: break a separator (the
    // snapshot's strings contain no commas, so every `,` is structural).
    let mut corrupt = intact.clone();
    let comma = corrupt
        .iter()
        .position(|&b| b == b',')
        .expect("snapshot has structural commas");
    corrupt[comma] = b';';
    std::fs::write(&snap, &corrupt).unwrap();
    assert_eq!(open_err().kind(), std::io::ErrorKind::InvalidData);

    // Well-formed JSON in an unknown format is rejected the same way.
    std::fs::write(&snap, br#"{"format":"nope"}"#).unwrap();
    assert_eq!(open_err().kind(), std::io::ErrorKind::InvalidData);

    // The intact snapshot still opens.
    std::fs::write(&snap, &intact).unwrap();
    let (store, rec) = open(&root, 2);
    assert!(rec.snapshot_loaded);
    assert_eq!(store.get_current(1).unwrap().version, 2);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn checkpoint_replaces_existing_snapshot_atomically() {
    // A second checkpoint over an existing snapshot goes through the temp
    // file + rename path; the destination must hold the complete new
    // snapshot and the temp file must be gone.
    let root = temp_root("rewrite");
    let store = checkpointed(&root);
    let cur = store.get_current(1).unwrap();
    store
        .commit(&cur.workspace, vec![cur.next_version(vec![], 3, "d9")])
        .unwrap();
    store.checkpoint().unwrap();
    let leftovers: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp file must be renamed away: {leftovers:?}"
    );
    let expected = snap_bytes(&store);
    drop(store);

    // The snapshot alone (logs removed) holds the complete new state.
    for entry in std::fs::read_dir(&root).unwrap().filter_map(|e| e.ok()) {
        if entry.path().is_dir() {
            std::fs::remove_dir_all(entry.path()).unwrap();
        }
    }
    let (store, rec) = open(&root, 2);
    assert!(rec.snapshot_loaded);
    assert_eq!(rec.replayed, 0);
    assert_eq!(store.get_current(1).unwrap().version, 3);
    assert_eq!(snap_bytes(&store), expected);
    let _ = std::fs::remove_dir_all(&root);
}
