//! Property tests of the single-lock metadata store
//! (`ShardedStore::with_shards(1)`) against simple oracles: commits are
//! exactly "accept iff version == current + 1 (or first version, or an
//! identical replay of the current version)", histories stay gapless, a
//! batch decides exactly what the reference model of Algorithm 1 decides
//! one proposal at a time, and a checkpoint restores losslessly.

mod spec;

use metadata::{CommitResult, ItemMetadata, MetadataStore, ShardedStore, WorkspaceId};
use proptest::prelude::*;
use spec::Spec;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Proposal {
    item: u64,
    version: u64,
    deleted: bool,
}

fn arb_proposal() -> impl Strategy<Value = Proposal> {
    (0u64..6, 1u64..8, any::<bool>()).prop_map(|(item, version, deleted)| Proposal {
        item,
        version,
        deleted,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_agrees_with_version_oracle(
        proposals in proptest::collection::vec(arb_proposal(), 1..80),
    ) {
        let store = ShardedStore::with_shards(1);
        store.create_user("u").unwrap();
        let ws = store.create_workspace("u", "w").unwrap();
        // Oracle: item -> (current version, deleted flag of that version).
        // All proposals here share chunks and device, so a same-version
        // proposal is an identical replay (accepted idempotently) exactly
        // when its deleted flag matches the stored one.
        let mut oracle: HashMap<u64, (u64, bool)> = HashMap::new();

        for p in &proposals {
            let meta = ItemMetadata {
                version: p.version,
                is_deleted: p.deleted,
                ..ItemMetadata::new_file(p.item, &ws, &format!("f{}", p.item), vec![], 1, "d")
            };
            let out = store.commit(&ws, vec![meta]).unwrap();
            let expected_accept = match oracle.get(&p.item) {
                None => true, // first version always accepted (stored as 1)
                Some((cur, cur_deleted)) => {
                    p.version == cur + 1 || (p.version == *cur && p.deleted == *cur_deleted)
                }
            };
            prop_assert_eq!(
                out[0].is_committed(),
                expected_accept,
                "item {} v{} against oracle {:?}",
                p.item,
                p.version,
                oracle.get(&p.item)
            );
            if expected_accept {
                let stored = match oracle.get(&p.item) {
                    None => (1, p.deleted),
                    // A replay leaves the store untouched.
                    Some(&(cur, cur_deleted)) if p.version == cur => (cur, cur_deleted),
                    Some(_) => (p.version, p.deleted),
                };
                oracle.insert(p.item, stored);
            } else if let CommitResult::Conflict { current } = &out[0].result {
                prop_assert_eq!(current.version, oracle.get(&p.item).unwrap().0);
            }
        }

        // Final agreement + gapless histories.
        for (item, (version, _)) in &oracle {
            let current = store.get_current(*item).unwrap();
            prop_assert_eq!(current.version, *version);
            let history = store.history(*item).unwrap();
            for (i, v) in history.iter().enumerate() {
                prop_assert_eq!(v.version, i as u64 + 1, "gapless history");
            }
        }
        // Everything the oracle knows is listed in the workspace.
        let listed = store.current_items(&ws).unwrap();
        prop_assert_eq!(listed.len(), oracle.len());
    }

    #[test]
    fn batch_commit_equals_sequential_commits(
        proposals in proptest::collection::vec(arb_proposal(), 1..40),
    ) {
        // Committing a batch must produce exactly the outcomes of
        // committing its elements one by one through the reference model
        // (Algorithm 1 processes the list in order with no rollback).
        let mk = |p: &Proposal, ws: &WorkspaceId| ItemMetadata {
            version: p.version,
            is_deleted: p.deleted,
            ..ItemMetadata::new_file(p.item, ws, &format!("f{}", p.item), vec![], 1, "d")
        };

        let batched = ShardedStore::with_shards(1);
        batched.create_user("u").unwrap();
        let ws = batched.create_workspace("u", "w").unwrap();
        let outcomes_batched = batched
            .commit(&ws, proposals.iter().map(|p| mk(p, &ws)).collect())
            .unwrap();

        let mut sequential = Spec::new();
        prop_assert_eq!(sequential.create_workspace(), ws.clone());
        let mut outcomes_sequential = Vec::new();
        for p in &proposals {
            outcomes_sequential.extend(sequential.commit(&ws, vec![mk(p, &ws)]).unwrap());
        }

        prop_assert_eq!(outcomes_batched, outcomes_sequential);
    }

    #[test]
    fn snapshot_restore_is_lossless(
        proposals in proptest::collection::vec(arb_proposal(), 1..40),
    ) {
        // Checkpoint, then reopen from the snapshot file alone (no log to
        // replay): every chain must come back exactly.
        let (src, dst) = (temp_root("src"), temp_root("dst"));
        let store = open(&src);
        store.create_user("u").unwrap();
        let ws = store.create_workspace("u", "w").unwrap();
        for p in &proposals {
            let meta = ItemMetadata {
                version: p.version,
                is_deleted: p.deleted,
                ..ItemMetadata::new_file(p.item, &ws, &format!("f{}", p.item), vec![], 1, "d")
            };
            let _ = store.commit(&ws, vec![meta]);
        }
        store.checkpoint().unwrap();
        std::fs::create_dir_all(&dst).unwrap();
        std::fs::copy(src.join("snapshot.json"), dst.join("snapshot.json")).unwrap();
        let restored = open(&dst);
        prop_assert_eq!(
            restored.current_items(&ws).unwrap(),
            store.current_items(&ws).unwrap()
        );
        for item in 0u64..6 {
            prop_assert_eq!(restored.history(item).ok(), store.history(item).ok());
        }
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dst);
    }
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("meta-props-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(root: &std::path::Path) -> ShardedStore {
    let mut cfg = wal::LogConfig::named("props");
    cfg.sync = wal::SyncPolicy::Manual;
    ShardedStore::open_durable(root, 1, std::time::Duration::ZERO, cfg)
        .unwrap()
        .0
}
