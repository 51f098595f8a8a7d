//! Seeded op streams and the expected state they produce.
//!
//! The oracle is the benchmark's own record of every file's bytes and
//! version; it shares no code with the client it checks.

use crate::driver::{Action, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use workload::{
    content_gen, ChangePattern, FileSizeDist, GeneratorConfig, MarkovModel, Trace, TraceOp,
};

/// One file as the writer last wrote it.
#[derive(Debug, Clone)]
pub struct Expected {
    pub version: u64,
    pub len: usize,
    pub digest: u64,
    /// The bytes, kept while a later op may edit them.
    pub data: Option<Vec<u8>>,
}

/// Digest of a file's bytes (SipHash with fixed keys: stable across runs).
pub fn digest(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

impl Expected {
    /// Whether `bytes` are what the writer wrote.
    pub fn matches(&self, bytes: &[u8]) -> bool {
        bytes.len() == self.len && digest(bytes) == self.digest
    }

    fn bytes(&self) -> &[u8] {
        self.data.as_deref().expect("edited files keep their bytes")
    }
}

/// Expected contents of every workspace.
pub struct Oracle {
    pub files: Vec<BTreeMap<String, Expected>>,
    /// Versions of deleted paths (a later write would continue the chain).
    tombstones: Vec<BTreeMap<String, u64>>,
}

impl Oracle {
    pub fn new(workspaces: usize) -> Oracle {
        Oracle {
            files: vec![BTreeMap::new(); workspaces],
            tombstones: vec![BTreeMap::new(); workspaces],
        }
    }

    fn next_version(&self, ws: usize, path: &str) -> u64 {
        self.files[ws]
            .get(path)
            .map(|e| e.version)
            .or_else(|| self.tombstones[ws].get(path).copied())
            .unwrap_or(0)
            + 1
    }

    /// Builds the op writing `data` to `path` and records it as expected;
    /// `keep` retains the bytes for a later edit.
    pub fn write(&mut self, ws: usize, path: String, data: Vec<u8>, keep: bool) -> Op {
        let version = self.next_version(ws, &path);
        self.tombstones[ws].remove(&path);
        self.files[ws].insert(
            path.clone(),
            Expected {
                version,
                len: data.len(),
                digest: digest(&data),
                data: keep.then(|| data.clone()),
            },
        );
        Op {
            path,
            action: Action::Write(data),
            version,
        }
    }

    /// Builds the op deleting `path` and records it as expected.
    pub fn delete(&mut self, ws: usize, path: String) -> Op {
        let version = self.next_version(ws, &path);
        self.files[ws].remove(&path);
        self.tombstones[ws].insert(path.clone(), version);
        Op {
            path,
            action: Action::Delete,
            version,
        }
    }
}

/// Files of the metadata-dominated workload: ≤ 8 KB, median ≈ 2 KB.
fn small_sizes() -> FileSizeDist {
    FileSizeDist {
        mu: (2_000f64).ln(),
        sigma: 1.0,
        cap: 8 * 1024,
        floor: 16,
    }
}

/// Initial files of each workspace in the small-file streams.
pub const SMALL_INITIAL_FILES: usize = 20;

/// Per-workspace op streams from the paper's Markov "Homes" model
/// (ADD/UPDATE/REMOVE with B/E/M update patterns), on small files.
pub struct SmallOps {
    seed: u64,
    streams: Vec<std::vec::IntoIter<TraceOp>>,
    generation: Vec<u64>,
}

impl SmallOps {
    pub fn new(seed: u64, workspaces: usize) -> SmallOps {
        let mut s = SmallOps {
            seed,
            streams: Vec::new(),
            generation: vec![0; workspaces],
        };
        s.streams = (0..workspaces).map(|ws| s.trace(ws, 0)).collect();
        s
    }

    fn trace(&self, ws: usize, generation: u64) -> std::vec::IntoIter<TraceOp> {
        let config = GeneratorConfig {
            initial_files: if generation == 0 {
                SMALL_INITIAL_FILES
            } else {
                0
            },
            snapshots: 40,
            sizes: small_sizes(),
            model: MarkovModel::homes(),
            seed: self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(ws as u64 * 1_000_003 + generation),
            ..GeneratorConfig::default()
        };
        let prefix = format!("g{generation}/");
        Trace::generate(&config)
            .ops
            .into_iter()
            .map(|op| match op {
                TraceOp::Add {
                    path,
                    size,
                    content_seed,
                } => TraceOp::Add {
                    path: format!("{prefix}{path}"),
                    size,
                    content_seed,
                },
                TraceOp::Update {
                    path,
                    pattern,
                    edit_size,
                    content_seed,
                } => TraceOp::Update {
                    path: format!("{prefix}{path}"),
                    pattern,
                    edit_size,
                    content_seed,
                },
                TraceOp::Remove { path } => TraceOp::Remove {
                    path: format!("{prefix}{path}"),
                },
            })
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// The next op of workspace `ws`, recorded in the oracle.
    pub fn next(&mut self, ws: usize, oracle: &mut Oracle) -> Op {
        loop {
            match self.streams[ws].next() {
                Some(TraceOp::Add {
                    path,
                    size,
                    content_seed,
                }) => {
                    let data = content_gen::generate(
                        size as usize,
                        content_seed,
                        content_gen::DEFAULT_COMPRESSIBILITY,
                    );
                    return oracle.write(ws, path, data, true);
                }
                Some(TraceOp::Update {
                    path,
                    pattern,
                    edit_size,
                    content_seed,
                }) => {
                    let Some(current) = oracle.files[ws].get(&path) else {
                        continue;
                    };
                    let mut rng = StdRng::seed_from_u64(content_seed);
                    let data = pattern.apply(current.bytes(), edit_size, &mut rng);
                    return oracle.write(ws, path, data, true);
                }
                Some(TraceOp::Remove { path }) => {
                    if oracle.files[ws].contains_key(&path) {
                        return oracle.delete(ws, path);
                    }
                }
                None => {
                    self.generation[ws] += 1;
                    self.streams[ws] = self.trace(ws, self.generation[ws]);
                }
            }
        }
    }
}

/// Smallest and largest ingest file.
const LARGE_MIN: u64 = 1 << 20;
const LARGE_MAX: u64 = 16 << 20;
/// Seed of the ingest sizes and edit patterns. A run writes only a few
/// dozen large files, so drawing them from `--seed` would change the work
/// from seed to seed; the seed sets the bytes and the edit positions.
const LARGE_SHAPE_SEED: u64 = 0x1A46_E5EE;

/// The large-file stream of one workspace: new files and edits
/// alternate, so half the ops are edits. New files come from the > 1 MB
/// tail of `FileSizeDist::paper()` (capped at 16 MB) with the repo's
/// default compressibility; each edit changes the file written just
/// before it with a pattern drawn by `ChangePattern::sample`.
pub struct LargeOps {
    rng: StdRng,
    shape: StdRng,
    ops: usize,
    new_files: usize,
    edit_size: usize,
    last_new: Option<String>,
}

impl LargeOps {
    pub fn new(seed: u64) -> LargeOps {
        LargeOps {
            rng: StdRng::seed_from_u64(seed ^ 0x1A46_E000),
            shape: StdRng::seed_from_u64(LARGE_SHAPE_SEED),
            ops: 0,
            new_files: 0,
            edit_size: GeneratorConfig::default().edit_size,
            last_new: None,
        }
    }

    fn size(&mut self) -> u64 {
        let dist = FileSizeDist::paper();
        loop {
            let s = dist.sample(&mut self.shape);
            if s > LARGE_MIN {
                return s.min(LARGE_MAX);
            }
        }
    }

    /// A new file (never an edit).
    pub fn new_file(&mut self, ws: usize, oracle: &mut Oracle) -> Op {
        let size = self.size() as usize;
        let seed = self.rng.gen::<u64>();
        let path = format!("big/{:05}.bin", self.new_files);
        self.new_files += 1;
        // Only the newest file is ever edited.
        if let Some(prev) = self.last_new.replace(path.clone()) {
            if let Some(e) = oracle.files[ws].get_mut(&prev) {
                e.data = None;
            }
        }
        let data = content_gen::generate(size, seed, content_gen::DEFAULT_COMPRESSIBILITY);
        oracle.write(ws, path, data, true)
    }

    pub fn next(&mut self, ws: usize, oracle: &mut Oracle) -> Op {
        self.ops += 1;
        let target = self
            .last_new
            .take()
            .filter(|p| self.ops.is_multiple_of(2) && oracle.files[ws].contains_key(p));
        let Some(path) = target else {
            return self.new_file(ws, oracle);
        };
        let pattern = ChangePattern::sample(&mut self.shape);
        let data = pattern.apply(
            oracle.files[ws][&path].bytes(),
            self.edit_size,
            &mut self.rng,
        );
        oracle.write(ws, path, data, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_work_does_not_depend_on_the_seed() {
        let shapes = |seed| {
            let mut oracle = Oracle::new(1);
            let mut ops = LargeOps::new(seed);
            (0..24)
                .map(|_| match ops.next(0, &mut oracle).action {
                    Action::Write(d) => d.len(),
                    Action::Delete => 0,
                })
                .collect::<Vec<_>>()
        };
        let sizes = shapes(1);
        assert_eq!(sizes, shapes(2));
        assert!(sizes.iter().all(|&s| s as u64 > LARGE_MIN));
        assert!(sizes.iter().all(|&s| s as u64 <= LARGE_MAX + 1024));
    }
}
