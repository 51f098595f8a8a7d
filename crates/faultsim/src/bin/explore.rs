//! Seed-range explorer CLI.
//!
//! ```sh
//! cargo run -p faultsim --bin explore -- <start-seed> <count> [artifact-path] [--sharded[=N]]
//! ```
//!
//! Sweeps `count` consecutive seeds from `start-seed` through the
//! crash-loop simulation. On the first invariant violation it prints the
//! failing seed with its full schedule + history transcript, optionally
//! writes the transcript to `artifact-path` (what the CI job uploads), and
//! exits non-zero. Replay a failure with the same binary:
//! `explore <failing-seed> 1`.
//!
//! With no store flag the sweep commits against a 1-shard
//! [`metadata::ShardedStore`], the single-lock configuration. `--sharded`
//! (optionally `--sharded=N` for N partitions, default 8) runs it against
//! more partitions; fingerprints are identical either way, so a divergence
//! is a sharding bug. `--durable[=N]` does the same against the WAL-backed
//! sharded store ([`metadata::ShardedStore::open_durable`]) in a per-run
//! scratch directory — same fingerprints again, now with every commit
//! journaled. `--kill-restart` switches to the kill-restart sweep
//! ([`faultsim::explore_kills`]): seeded crash-replay of the durable store
//! *and* durable broker, checking no acked commit is lost, nothing
//! double-commits, and unacked publishes are redelivered.

use faultsim::{explore, explore_kills, KillConfig, SimConfig, StoreSelection};

fn main() {
    let mut store = StoreSelection::Sharded(1);
    let mut kill_restart = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--sharded" {
            store = StoreSelection::Sharded(8);
        } else if let Some(n) = arg.strip_prefix("--sharded=") {
            match n.parse::<usize>() {
                Ok(n) if n > 0 => store = StoreSelection::Sharded(n),
                _ => {
                    eprintln!("--sharded=N needs a positive shard count, got `{n}`");
                    std::process::exit(2);
                }
            }
        } else if arg == "--durable" {
            store = StoreSelection::Durable(8);
        } else if let Some(n) = arg.strip_prefix("--durable=") {
            match n.parse::<usize>() {
                Ok(n) if n > 0 => store = StoreSelection::Durable(n),
                _ => {
                    eprintln!("--durable=N needs a positive shard count, got `{n}`");
                    std::process::exit(2);
                }
            }
        } else if arg == "--kill-restart" {
            kill_restart = true;
        } else {
            positional.push(arg);
        }
    }

    let usage =
        "usage: explore <start-seed> <count> [artifact-path] [--sharded[=N]] [--durable[=N]] [--kill-restart]";
    let (Some(start), Some(count)) = (
        positional.first().and_then(|a| a.parse::<u64>().ok()),
        positional.get(1).and_then(|a| a.parse::<u64>().ok()),
    ) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let artifact = positional.get(2);

    if kill_restart {
        let (passed, failure) = explore_kills(start, count, &KillConfig::default());
        match failure {
            None => {
                println!(
                    "{passed} kill-restart seed(s) explored from {start}: every invariant held"
                );
                return;
            }
            Some(report) => {
                eprintln!("{}", report.transcript());
                if let Some(path) = artifact {
                    if let Err(e) = std::fs::write(path, report.transcript()) {
                        eprintln!("could not write artifact {path}: {e}");
                    } else {
                        eprintln!("artifact written to {path}");
                    }
                }
                std::process::exit(1);
            }
        }
    }

    let config = SimConfig {
        store,
        ..SimConfig::default()
    };
    let outcome = explore(start, count, &config);
    match outcome.failure {
        None => {
            println!(
                "{} seed(s) explored from {start} against {store:?}: every invariant held",
                outcome.passed
            );
        }
        Some(failure) => {
            eprintln!("{failure}");
            if let Some(path) = artifact {
                if let Err(e) = std::fs::write(path, failure.to_string()) {
                    eprintln!("could not write artifact {path}: {e}");
                } else {
                    eprintln!("artifact written to {path}");
                }
                // The flight recorder rode along through the failing run;
                // dump it next to the transcript so CI uploads both.
                let flight_path = format!("{path}.flight.json");
                match obs::flight::dump_to(&flight_path) {
                    Ok(()) => eprintln!("flight recorder dumped to {flight_path}"),
                    Err(e) => eprintln!("could not write flight dump {flight_path}: {e}"),
                }
            }
            std::process::exit(1);
        }
    }
}
