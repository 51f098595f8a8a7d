//! Determinism and coverage guarantees of the crash-loop simulation.
//!
//! These are the acceptance gates of the harness: a seed is only worth
//! printing if replaying it reproduces the run bit-for-bit, and the
//! checker is only trustworthy if it holds across many distinct seeds.

use faultsim::{explore, run_seed, run_seed_with, FaultRates, SimConfig, StoreSelection};
use std::time::Instant;

/// Same seed ⇒ same fault schedule, same event history, same verdict —
/// three times over, and fast enough to be a unit test, because nothing
/// in the simulation touches a thread or a wall clock.
#[test]
fn same_seed_replays_identically_three_times() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let start = Instant::now();
        let first = run_seed(seed).expect("seed passes");
        let second = run_seed(seed).expect("seed passes again");
        let third = run_seed(seed).expect("and again");
        assert_eq!(first.fingerprint(), second.fingerprint(), "seed {seed}");
        assert_eq!(second.fingerprint(), third.fingerprint(), "seed {seed}");
        assert_eq!(first.fault_trace, third.fault_trace, "seed {seed}");
        assert_eq!(
            first.history.events(),
            third.history.events(),
            "seed {seed}"
        );
        assert_eq!(first.steps, third.steps, "seed {seed}");
        assert!(
            start.elapsed().as_secs() < 2,
            "three replays of seed {seed} must stay under 2s"
        );
    }
}

/// Different seeds explore different schedules — otherwise the sweep is
/// rerunning one scenario 50 times.
#[test]
fn different_seeds_diverge() {
    let a = run_seed(10).expect("passes");
    let b = run_seed(11).expect("passes");
    assert_ne!(a.fingerprint(), b.fingerprint());
}

/// The CI gate: a block of consecutive seeds all hold every invariant.
/// 60 here, and the `faultsim-explore` CI job sweeps more; a failure
/// prints the seed and its transcript for replay.
#[test]
fn fifty_plus_seeds_hold_all_invariants() {
    let outcome = explore(0, 60, &SimConfig::default());
    if let Some(failure) = outcome.failure {
        panic!("{failure}");
    }
    assert_eq!(outcome.passed, 60);
}

/// The harness actually exercises the hostile paths: across a seed range,
/// runs collectively hit drops, duplicates, reorders and both crash
/// windows.
#[test]
fn fault_space_is_covered() {
    let mut total_faults = 0;
    let mut total_crashes = 0;
    let mut redeliveries_seen = false;
    for seed in 200..215 {
        let report = run_seed(seed).expect("seed passes");
        total_faults += report.faults_injected;
        total_crashes += report.crashes;
        if report
            .history
            .events()
            .iter()
            .any(|e| matches!(e, faultsim::Event::Crashed { .. }))
        {
            redeliveries_seen = true;
        }
    }
    assert!(total_faults > 20, "fault plan barely fired: {total_faults}");
    assert!(
        total_crashes > 3,
        "crash windows barely hit: {total_crashes}"
    );
    assert!(redeliveries_seen, "no crash ever forced a redelivery");
}

/// The CI gate for the partitioned metadata tier: the same fixed seed
/// block holds every invariant when the stack commits against an 8-shard
/// [`metadata::ShardedStore`] instead of the default single-lock one.
#[test]
fn fifty_plus_seeds_hold_all_invariants_sharded() {
    let config = SimConfig {
        store: StoreSelection::Sharded(8),
        ..SimConfig::default()
    };
    let outcome = explore(0, 60, &config);
    if let Some(failure) = outcome.failure {
        panic!("{failure}");
    }
    assert_eq!(outcome.passed, 60);
}

/// The sharding identity plan, end to end: the store consumes no scheduler
/// randomness, so a seed's fingerprint — fault schedule plus every
/// client-visible event — is the same whichever back-end commits: the
/// default single-lock (1-shard) store, here called global, or 8 shards.
#[test]
fn sharded_and_global_runs_are_indistinguishable() {
    let sharded_config = SimConfig {
        store: StoreSelection::Sharded(8),
        ..SimConfig::default()
    };
    for seed in [0u64, 5, 13, 42, 0xDEAD_BEEF] {
        let global = run_seed(seed).expect("global run passes");
        let sharded = run_seed_with(seed, &sharded_config).expect("sharded run passes");
        assert_eq!(
            global.fingerprint(),
            sharded.fingerprint(),
            "seed {seed}: sharded history diverged from global"
        );
        assert_eq!(global.history.events(), sharded.history.events());
    }
}

/// Heavier contention (more writers on the shared item) still converges
/// and still loses nothing.
#[test]
fn high_contention_configuration_passes() {
    let config = SimConfig {
        writers: 5,
        commits_per_writer: 10,
        crash_permille: 250,
        rates: FaultRates::chaotic(),
        ..SimConfig::default()
    };
    for seed in 0..10 {
        if let Err(failure) = run_seed_with(seed, &config) {
            panic!("{failure}");
        }
    }
}
