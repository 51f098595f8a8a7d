//! The store-against-spec property: for any multi-workspace commit
//! interleaving and any partition count from 1 to 8, [`ShardedStore`]
//! produces exactly the same commit outcomes and errors as the sequential
//! reference model of Algorithm 1 in `spec/`.
//!
//! The model shares no code with the store, so this checks Algorithm 1
//! itself as well as partitioning: partitioning may change *which commits
//! can overlap in time*, never *what any single commit decides*. The
//! property replays one randomly generated interleaved history — proposals
//! hopping between several workspaces, valid versions, stale versions,
//! replays, tombstones, and wrong-workspace pokes — through the store and
//! the model in the same order and demands identical outcomes, identical
//! errors, identical final state.

mod spec;

use metadata::{ItemMetadata, MetadataStore, ShardedStore, WorkspaceId};
use proptest::prelude::*;
use spec::Spec;

const WORKSPACES: u64 = 6;
const ITEMS_PER_WS: u64 = 4;

#[derive(Debug, Clone)]
struct Step {
    /// Which workspace the commit targets.
    ws: usize,
    /// Which of the workspace's item slots the proposal names. One slot in
    /// `WORKSPACES` deliberately aliases an item of another workspace to
    /// exercise the cross-shard WrongWorkspace path.
    slot: u64,
    version: u64,
    deleted: bool,
    device: u8,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0usize..WORKSPACES as usize,
        0u64..=ITEMS_PER_WS,
        1u64..6,
        any::<bool>(),
        0u8..3,
    )
        .prop_map(|(ws, slot, version, deleted, device)| Step {
            ws,
            slot,
            version,
            deleted,
            device,
        })
}

fn item_id(ws: usize, slot: u64) -> u64 {
    if slot == ITEMS_PER_WS {
        // Alias: point at the *next* workspace's slot 0 — a proposal for
        // an item pinned (or about to be pinned) to a different workspace.
        ((ws as u64 + 1) % WORKSPACES) * 100
    } else {
        ws as u64 * 100 + slot
    }
}

fn proposal(step: &Step, ws: &WorkspaceId) -> ItemMetadata {
    ItemMetadata {
        version: step.version,
        is_deleted: step.deleted,
        ..ItemMetadata::new_file(
            item_id(step.ws, step.slot),
            ws,
            &format!("f{}.txt", item_id(step.ws, step.slot)),
            vec![],
            1,
            &format!("dev-{}", step.device),
        )
    }
}

/// Creates `WORKSPACES` workspaces in the store and the model; both
/// allocate `ws-1..ws-N` in order, so the ids must line up.
fn provision(store: &dyn MetadataStore, model: &mut Spec) -> Vec<WorkspaceId> {
    store.create_user("u").unwrap();
    let ids: Vec<WorkspaceId> = (0..WORKSPACES)
        .map(|i| store.create_workspace("u", &format!("w{i}")).unwrap())
        .collect();
    let model_ids: Vec<WorkspaceId> = (0..WORKSPACES).map(|_| model.create_workspace()).collect();
    assert_eq!(ids, model_ids);
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Replaying the same interleaved multi-workspace history through the
    /// store and the model yields identical per-commit outcomes and
    /// identical final per-workspace state.
    #[test]
    fn sharded_matches_spec_outcome_for_outcome(
        steps in proptest::collection::vec(arb_step(), 1..120),
        shards in 1usize..9,
    ) {
        let mut model = Spec::new();
        let store = ShardedStore::with_shards(shards);
        let ws = provision(&store, &mut model);

        for (i, step) in steps.iter().enumerate() {
            let want = model.commit(&ws[step.ws], vec![proposal(step, &ws[step.ws])]);
            let got = store.commit(&ws[step.ws], vec![proposal(step, &ws[step.ws])]);
            prop_assert_eq!(want, got, "divergence at step {} ({:?})", i, step);
        }

        // Final state: per-workspace listings and per-item chains agree.
        for w in &ws {
            let mut listed = store.current_items(w).unwrap();
            listed.sort_by_key(|m| m.item_id);
            prop_assert_eq!(model.current_items(w), listed, "workspace {} listing diverged", w);
        }
        for w in 0..WORKSPACES as usize {
            for slot in 0..ITEMS_PER_WS {
                let id = item_id(w, slot);
                prop_assert_eq!(model.history(id), store.history(id).ok());
                prop_assert_eq!(model.get_current(id), store.get_current(id).ok());
            }
        }
    }

    /// Batches behave identically too: the same steps grouped into one
    /// commit per workspace-run keep the store and the model in lockstep,
    /// including a batch cut short by a wrong-workspace proposal.
    #[test]
    fn sharded_matches_spec_on_batches(
        steps in proptest::collection::vec(arb_step(), 1..60),
        shards in 1usize..9,
    ) {
        let mut model = Spec::new();
        let store = ShardedStore::with_shards(shards);
        let ws = provision(&store, &mut model);

        // Group consecutive steps targeting the same workspace into one
        // batch — the shape a SyncService commit_request produces.
        let mut batches: Vec<(usize, Vec<Step>)> = Vec::new();
        for step in steps {
            match batches.last_mut() {
                Some((w, group)) if *w == step.ws => group.push(step),
                _ => batches.push((step.ws, vec![step])),
            }
        }

        for (w, group) in &batches {
            let batch: Vec<ItemMetadata> = group.iter().map(|p| proposal(p, &ws[*w])).collect();
            let want = model.commit(&ws[*w], batch.clone());
            let got = store.commit(&ws[*w], batch);
            prop_assert_eq!(want, got, "batch for workspace {} diverged", w);
        }
        for w in &ws {
            let mut listed = store.current_items(w).unwrap();
            listed.sort_by_key(|m| m.item_id);
            prop_assert_eq!(model.current_items(w), listed, "workspace {} listing diverged", w);
        }
    }
}
