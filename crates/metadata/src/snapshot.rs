//! The `stacksync-metadata-v1` snapshot format: the full store state in
//! the wire data model. The paper's PostgreSQL keeps this durable; here
//! [`crate::ShardedStore::checkpoint`] writes it as `snapshot.json` and
//! [`crate::ShardedStore::open_durable`] loads it as the base that the WAL
//! replays over.

use crate::model::{ItemMetadata, Workspace, WorkspaceId};
use content::ChunkId;
use std::io::Write;
use wire::{Value, WireError, WireResult};

pub(crate) fn item_to_value(item: &ItemMetadata) -> Value {
    Value::Map(vec![
        ("item".into(), Value::U64(item.item_id)),
        ("ws".into(), Value::Str(item.workspace.0.clone())),
        ("path".into(), Value::Str(item.path.clone())),
        ("version".into(), Value::U64(item.version)),
        (
            "chunks".into(),
            Value::List(
                item.chunks
                    .iter()
                    .map(|c| Value::Bytes(c.as_bytes().to_vec()))
                    .collect(),
            ),
        ),
        ("size".into(), Value::U64(item.size)),
        ("deleted".into(), Value::Bool(item.is_deleted)),
        ("device".into(), Value::Str(item.modified_by.clone())),
    ])
}

pub(crate) fn item_from_value(value: &Value) -> WireResult<ItemMetadata> {
    let chunks = value
        .field("chunks")?
        .as_list()?
        .iter()
        .map(|v| {
            let raw = v.as_bytes()?;
            let arr: [u8; 20] = raw
                .try_into()
                .map_err(|_| WireError::Invalid("chunk id must be 20 bytes".into()))?;
            Ok(ChunkId::from_bytes(arr))
        })
        .collect::<WireResult<Vec<ChunkId>>>()?;
    Ok(ItemMetadata {
        item_id: value.field("item")?.as_u64()?,
        workspace: WorkspaceId(value.field("ws")?.as_str()?.to_string()),
        path: value.field("path")?.as_str()?.to_string(),
        version: value.field("version")?.as_u64()?,
        chunks,
        size: value.field("size")?.as_u64()?,
        is_deleted: value.field("deleted")?.as_bool()?,
        modified_by: value.field("device")?.as_str()?.to_string(),
    })
}

/// Full serializable state of a metadata store, independent of how many
/// partitions hold it.
pub(crate) struct StoreParts {
    pub(crate) users: Vec<String>,
    pub(crate) workspaces: Vec<Workspace>,
    /// Per-item version histories, oldest version first.
    pub(crate) histories: Vec<Vec<ItemMetadata>>,
}

pub(crate) fn parts_to_value(parts: &StoreParts) -> Value {
    Value::Map(vec![
        ("format".into(), Value::from("stacksync-metadata-v1")),
        (
            "users".into(),
            Value::List(parts.users.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "workspaces".into(),
            Value::List(
                parts
                    .workspaces
                    .iter()
                    .map(|w| {
                        Value::Map(vec![
                            ("id".into(), Value::Str(w.id.0.clone())),
                            ("owner".into(), Value::Str(w.owner.clone())),
                            ("name".into(), Value::Str(w.name.clone())),
                            (
                                "members".into(),
                                Value::List(w.members.iter().cloned().map(Value::Str).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "items".into(),
            Value::List(
                parts
                    .histories
                    .iter()
                    .map(|versions| Value::List(versions.iter().map(item_to_value).collect()))
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn parts_from_value(value: &Value) -> WireResult<StoreParts> {
    let format = value.field("format")?.as_str()?;
    if format != "stacksync-metadata-v1" {
        return Err(WireError::Invalid(format!(
            "unsupported metadata snapshot format `{format}`"
        )));
    }
    let users = value
        .field("users")?
        .as_list()?
        .iter()
        .map(|v| Ok(v.as_str()?.to_string()))
        .collect::<WireResult<Vec<String>>>()?;
    let workspaces = value
        .field("workspaces")?
        .as_list()?
        .iter()
        .map(|v| {
            Ok(Workspace {
                id: WorkspaceId(v.field("id")?.as_str()?.to_string()),
                owner: v.field("owner")?.as_str()?.to_string(),
                name: v.field("name")?.as_str()?.to_string(),
                members: v
                    .field("members")?
                    .as_list()?
                    .iter()
                    .map(|m| Ok(m.as_str()?.to_string()))
                    .collect::<WireResult<Vec<String>>>()?,
            })
        })
        .collect::<WireResult<Vec<Workspace>>>()?;
    let histories = value
        .field("items")?
        .as_list()?
        .iter()
        .map(|versions| {
            versions
                .as_list()?
                .iter()
                .map(item_from_value)
                .collect::<WireResult<Vec<ItemMetadata>>>()
        })
        .collect::<WireResult<Vec<Vec<ItemMetadata>>>>()?;
    Ok(StoreParts {
        users,
        workspaces,
        histories,
    })
}

/// Crash-safe file write: the bytes land in a temp file in the target's
/// directory, are fsynced, and only then renamed over the destination — so
/// at every instant the destination is either the complete old content or
/// the complete new content, never a torn mix. (The rename is atomic on
/// POSIX filesystems; the directory fsync afterwards is best-effort, which
/// is all portability allows.)
pub(crate) fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = dir {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CommitResult;
    use crate::store::MetadataStore;
    use crate::ShardedStore;
    use std::path::{Path, PathBuf};
    use wire::{Codec, JsonCodec};

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stacksync-meta-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(root: &Path, shards: usize) -> (ShardedStore, crate::DurableRecovery) {
        let mut cfg = wal::LogConfig::named("snapshot-test");
        cfg.sync = wal::SyncPolicy::Manual;
        ShardedStore::open_durable(root, shards, std::time::Duration::ZERO, cfg).unwrap()
    }

    fn populated(root: &Path) -> (ShardedStore, WorkspaceId) {
        let (s, _) = open(root, 2);
        s.create_user("alice").unwrap();
        s.create_user("bob").unwrap();
        let ws = s.create_workspace("alice", "Docs").unwrap();
        s.share_workspace(&ws, "bob").unwrap();
        let f1 = ItemMetadata::new_file(1, &ws, "a.txt", vec![ChunkId::of(b"x")], 3, "dev");
        s.commit(&ws, vec![f1.clone()]).unwrap();
        s.commit(
            &ws,
            vec![f1.next_version(vec![ChunkId::of(b"y")], 5, "dev2")],
        )
        .unwrap();
        let f2 = ItemMetadata::new_file(2, &ws, "b.txt", vec![], 0, "dev");
        s.commit(&ws, vec![f2.clone()]).unwrap();
        s.commit(&ws, vec![f2.tombstone("dev")]).unwrap();
        (s, ws)
    }

    /// Checkpoints `store` and opens a 3-partition store over a copy of the
    /// snapshot file alone, so every bit of state comes from the snapshot
    /// (no log to replay).
    fn restore(store: &ShardedStore, root: &Path) -> ShardedStore {
        store.checkpoint().unwrap();
        std::fs::create_dir_all(root).unwrap();
        std::fs::copy(
            store.durable_root().unwrap().join("snapshot.json"),
            root.join("snapshot.json"),
        )
        .unwrap();
        let (restored, rec) = open(root, 3);
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.replayed, 0);
        restored
    }

    #[test]
    fn snapshot_restore_preserves_everything() {
        let (src, dst) = (temp_root("src"), temp_root("dst"));
        let (original, ws) = populated(&src);
        let restored = restore(&original, &dst);

        // Users and workspaces (including sharing).
        let wss = restored.workspaces_of("bob").unwrap();
        assert_eq!(wss.len(), 1);
        assert_eq!(wss[0].members, vec!["bob".to_string()]);

        // Item state including tombstones and full histories.
        assert_eq!(restored.get_current(1).unwrap().version, 2);
        assert!(restored.get_current(2).unwrap().is_deleted);
        assert_eq!(restored.history(1).unwrap().len(), 2);
        assert_eq!(
            restored.current_items(&ws).unwrap(),
            original.current_items(&ws).unwrap()
        );

        // The restored store is fully operational: versions keep flowing.
        let cur = restored.get_current(1).unwrap();
        let out = restored
            .commit(&ws, vec![cur.next_version(vec![], 9, "dev3")])
            .unwrap();
        assert!(matches!(
            out[0].result,
            CommitResult::Committed { version: 3 }
        ));
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dst);
    }

    #[test]
    fn json_checkpoint_roundtrip() {
        let root = temp_root("roundtrip");
        let (original, ws) = populated(&root);
        original.checkpoint().unwrap();
        let expected = original.current_items(&ws).unwrap();
        drop(original);
        let (restored, rec) = open(&root, 2);
        assert!(rec.snapshot_loaded);
        assert_eq!(restored.current_items(&ws).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn workspace_ids_continue_after_restore() {
        // New workspaces created after a restore must not collide with
        // pre-snapshot ids.
        let (src, dst) = (temp_root("ids-src"), temp_root("ids-dst"));
        let (original, ws) = populated(&src);
        let restored = restore(&original, &dst);
        let new_ws = restored.create_workspace("alice", "Photos").unwrap();
        assert_ne!(new_ws, ws, "restored id counter must not reuse ids");
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dst);
    }

    #[test]
    fn bad_snapshots_rejected() {
        assert!(parts_from_value(&Value::Null).is_err());
        let wrong = Value::Map(vec![("format".into(), Value::from("nope"))]);
        assert!(parts_from_value(&wrong).is_err());
        assert!(JsonCodec.decode(b"garbage").is_err());
    }
}
