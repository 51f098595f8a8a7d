//! A sequential reference model of Algorithm 1, the SyncService commit
//! transaction (paper §4.2.1), used as the test oracle for the store.
//!
//! It is written from the paper's pseudocode and shares no code with the
//! store it checks: one ordered map of version chains, a list of known
//! workspaces, no locks, no partitions, no logs. For each proposed object
//! of a commit, in order and with no rollback:
//!
//! ```text
//! cur <- current version of obj.id
//! if cur is none               -> store obj as version 1;  committed(1)
//! elif obj.version == cur + 1  -> append obj;              committed(obj.version)
//! else                         -> conflict, piggybacking cur
//! ```
//!
//! plus the two rules this repository documents on top of the paper:
//!
//! * **Idempotent replay.** A proposal identical to the current version
//!   (same version, chunk list, device and tombstone flag) is an
//!   at-least-once redelivery of a commit that already landed: it is
//!   confirmed as `committed(cur)` and nothing is stored.
//! * **Item pinning.** An item belongs to the workspace of its first
//!   version. Proposing it in another workspace fails the whole commit
//!   with `WrongWorkspace`; the proposals before it in the same commit
//!   stay applied.
//!
//! Workspace ids follow the store's documented `ws-<n>` allocation, so the
//! model and a fresh store name their workspaces identically.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use metadata::{CommitOutcome, CommitResult, ItemMetadata, MetadataError, WorkspaceId};
use std::collections::BTreeMap;

/// The reference store: Algorithm 1 over plain maps.
#[derive(Debug, Default)]
pub struct Spec {
    workspaces: Vec<WorkspaceId>,
    /// item id -> every stored version, oldest first.
    chains: BTreeMap<u64, Vec<ItemMetadata>>,
}

impl Spec {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the next workspace, `ws-1`, `ws-2`, ...
    pub fn create_workspace(&mut self) -> WorkspaceId {
        let id = WorkspaceId(format!("ws-{}", self.workspaces.len() + 1));
        self.workspaces.push(id.clone());
        id
    }

    /// One commit transaction of Algorithm 1.
    pub fn commit(
        &mut self,
        workspace: &WorkspaceId,
        proposals: Vec<ItemMetadata>,
    ) -> Result<Vec<CommitOutcome>, MetadataError> {
        if !self.workspaces.contains(workspace) {
            return Err(MetadataError::UnknownWorkspace(workspace.0.clone()));
        }
        let mut outcomes = Vec::new();
        for obj in proposals {
            let mut stored = ItemMetadata {
                workspace: workspace.clone(),
                ..obj.clone()
            };
            let result = match self.chains.get_mut(&obj.item_id) {
                None => {
                    stored.version = 1;
                    self.chains.insert(obj.item_id, vec![stored]);
                    CommitResult::Committed { version: 1 }
                }
                Some(chain) => {
                    if chain[0].workspace != *workspace {
                        return Err(MetadataError::WrongWorkspace {
                            item: obj.item_id,
                            belongs_to: chain[0].workspace.0.clone(),
                        });
                    }
                    let cur = chain.last().expect("chains are never empty").clone();
                    let replay = obj.version == cur.version
                        && obj.chunks == cur.chunks
                        && obj.modified_by == cur.modified_by
                        && obj.is_deleted == cur.is_deleted;
                    if replay {
                        CommitResult::Committed {
                            version: cur.version,
                        }
                    } else if obj.version == cur.version + 1 {
                        chain.push(stored);
                        CommitResult::Committed {
                            version: obj.version,
                        }
                    } else {
                        CommitResult::Conflict { current: cur }
                    }
                }
            };
            outcomes.push(CommitOutcome {
                item_id: obj.item_id,
                result,
                proposed: obj,
            });
        }
        Ok(outcomes)
    }

    /// Latest version of every item pinned to `workspace`, by item id.
    pub fn current_items(&self, workspace: &WorkspaceId) -> Vec<ItemMetadata> {
        self.chains
            .values()
            .filter(|chain| chain[0].workspace == *workspace)
            .filter_map(|chain| chain.last().cloned())
            .collect()
    }

    /// Latest version of one item.
    pub fn get_current(&self, item_id: u64) -> Option<ItemMetadata> {
        self.chains.get(&item_id).and_then(|c| c.last().cloned())
    }

    /// Every stored version of one item, oldest first.
    pub fn history(&self, item_id: u64) -> Option<Vec<ItemMetadata>> {
        self.chains.get(&item_id).cloned()
    }
}
