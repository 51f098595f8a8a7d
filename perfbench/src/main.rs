//! The repository benchmark. Drives the real StackSync stack in one
//! process and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <commit-small|ingest-large|restart> --seed <n>
//!           --seconds <s> --trace <0|1> [--root <checkout>] [--tiny]
//!           [--corrupt-expected]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload untraced and then traced, and reports the per-layer metrics.
//! Exits 1 when an output check fails, 2 on a usage or set-up error.

mod driver;
mod ops;
mod procfs;
mod report;
mod stack;
mod trace;
mod workloads;

use report::{json_object, result_line};
use std::path::PathBuf;
use workloads::{Kind, Params};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <commit-small|ingest-large|restart> --seed <n> --seconds <s> --trace <0|1> [--root <dir>] [--tiny] [--corrupt-expected]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        })
    };
    let kind = value("--workload")
        .as_deref()
        .and_then(Kind::parse)
        .unwrap_or_else(|| usage("--workload must be commit-small, ingest-large or restart"));
    let seed: u64 = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("--seed must be a whole number"));
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0 && s.is_finite())
        .unwrap_or_else(|| usage("--seconds must be a positive number"));
    let traced = match value("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let root = PathBuf::from(value("--root").unwrap_or_else(|| ".".into()));
    let state_dir = root
        .join(".bench_state")
        .join(format!("{}-{}", std::process::id(), seed));
    let params = Params {
        kind,
        seed,
        seconds,
        tiny: args.iter().any(|a| a == "--tiny"),
        corrupt_expected: args.iter().any(|a| a == "--corrupt-expected"),
        state_dir: state_dir.clone(),
    };

    let delay = stack::no_modelled_delay().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&state_dir) {
        eprintln!("perfbench: creating {}: {e}", state_dir.display());
        std::process::exit(2);
    }
    let nofile =
        libc::nofile_limit().map_or_else(|e| format!("unknown ({e})"), |(s, h)| format!("{s}/{h}"));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance {}",
        json_object(&[
            ("workload", kind.name().to_string()),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
            ("trace", (traced as u8).to_string()),
            ("nproc", nproc.to_string()),
            ("rlimit_nofile", nofile),
            ("wal_fs", procfs::fs_type(&state_dir)),
            ("wal_sync", format!("{:?}", stack::WAL_SYNC)),
            ("revision", procfs::revision(&root)),
            (
                "generator",
                "threads=2 (pacer, observer) connections=2 (writers, peers)".into()
            ),
            ("delays", delay),
        ])
    );

    let outcome = workloads::run(&params, traced);
    std::fs::remove_dir_all(&state_dir).ok();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for n in &outcome.notes {
        println!("{n}");
    }
    for m in &outcome.metrics.0 {
        println!("metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut errors = outcome.errors.clone();
    if nproc < 2 {
        errors.push(format!(
            "the generator runs 2 threads but nproc is {nproc}: it may not use more than nproc"
        ));
    }
    if let Some(m) = outcome.metrics.0.iter().find(|m| !m.value.is_finite()) {
        errors.push(format!("metric {} is not finite", m.name));
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty() && outcome.failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    if !correct {
        std::process::exit(1);
    }
}
