//! The three workloads and the phases they share.
//!
//! * `commit-small` — open loop, Poisson arrivals at a fixed rate over 32
//!   workspaces of small files driven by the Markov "Homes" model:
//!   metadata-dominated UB1 traffic, so net, mqsim, objectmq, metadata and
//!   the WAL sit on the blocking path.
//! * `ingest-large` — closed loop, one writer and one peer syncing large
//!   files and edits of them: content and storage do nearly all the work.
//! * `restart` — a checkpointed store with a WAL tail is crashed, reopened
//!   and cold-read again and again: snapshot read, JSON decode, replay,
//!   `current_items`, bulk `get`, decompress and verify.
//!
//! Every workload ends with crash/recover/cold-connect cycles over the
//! state it built, so each one checks recovery and reports every metric.

use crate::driver::{Driver, GenCost, Op, OpRecord};
use crate::ops::{LargeOps, Oracle, SmallOps, SMALL_INITIAL_FILES};
use crate::procfs;
use crate::report::{mean, median, quantile, ratio, Metrics, ObsDelta, ObsMark};
use crate::stack::Deployment;
use crate::trace::{self, Analysis};
use metadata::{ItemMetadata, MetadataStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stacksync::{ClientConfig, DesktopClient};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wire::Codec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CommitSmall,
    IngestLarge,
    Restart,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::CommitSmall, Kind::IngestLarge, Kind::Restart];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CommitSmall => "commit-small",
            Kind::IngestLarge => "ingest-large",
            Kind::Restart => "restart",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Command-line parameters of one run.
#[derive(Debug, Clone)]
pub struct Params {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    /// Miniature scale for the smoke test.
    pub tiny: bool,
    /// Corrupts one expected file before the final check (smoke test of
    /// the output check itself).
    pub corrupt_expected: bool,
    pub state_dir: PathBuf,
}

/// Sizes of a workload at full or smoke scale.
#[derive(Debug, Clone, Copy)]
struct Shape {
    workspaces: usize,
    /// Open-loop arrival rate, ops/s (commit-small, and the restart WAL
    /// tail).
    rate: f64,
    /// Versions committed before the restart checkpoint.
    restart_versions: usize,
    /// Recovery cycles after the measured window (commit-small, ingest);
    /// the first [`Shape::cold_cycles`] of them also cold-connect devices.
    after_cycles: usize,
    cold_cycles: usize,
    /// Workspaces cold-connected per cycle.
    cold_workspaces: usize,
    /// Large files written during set-up (ingest).
    ingest_initial: usize,
    setups: usize,
}

impl Shape {
    fn of(kind: Kind, tiny: bool) -> Shape {
        let full = Shape {
            workspaces: 32,
            // At 500/s the pacer, which runs the client's write_file
            // (~0.45 ms per op, mostly the synchronous broker publish), is
            // ~22% busy: one op in five queues behind the previous one and
            // p90 sits on that knee, moving twofold with small changes in
            // CPU speed. At 300/s the generator's own queueing stays below
            // the tail the metrics report.
            rate: 300.0,
            restart_versions: 2400,
            after_cycles: 81,
            cold_cycles: 5,
            cold_workspaces: 8,
            ingest_initial: 2,
            setups: 5,
        };
        let s = match kind {
            Kind::CommitSmall => full,
            Kind::IngestLarge => Shape {
                workspaces: 1,
                cold_workspaces: 1,
                ..full
            },
            Kind::Restart => Shape {
                workspaces: 16,
                setups: 3,
                ..full
            },
        };
        if tiny {
            Shape {
                workspaces: s.workspaces.min(4),
                rate: 100.0,
                restart_versions: 120,
                after_cycles: 1,
                cold_cycles: 1,
                cold_workspaces: s.cold_workspaces.min(2),
                ingest_initial: 1,
                setups: 1,
            }
        } else {
            s
        }
    }
}

/// Share of the restart window spent writing the WAL tail.
const RESTART_TAIL_SHARE: f64 = 0.4;

/// Ingest ops per second of `--seconds` (the closed loop syncs about this
/// many files and edits per second on a 2-core box).
const INGEST_OPS_PER_SECOND: f64 = 4.0;

/// Mean lateness of a one-second slot above which the generator was behind
/// its schedule in that slot. The ops of such a slot are left out of the
/// latency figures, and a run with more than one such slot is invalid: the
/// load it offered was not the schedule's.
const BEHIND_SLOT_MEAN_MS: f64 = 10.0;

/// What one crash/recover/cold-connect cycle measured.
#[derive(Debug, Clone, Default)]
struct Cycle {
    recover_s: f64,
    open_s: f64,
    replayed: u64,
    connect_s: Vec<f64>,
    changes_decode_ms: Vec<f64>,
}

/// Totals over the measured op windows.
#[derive(Debug, Clone, Default)]
struct Acc {
    wall_s: f64,
    cpu_s: f64,
    gen_cpu_s: f64,
    ctrl_sent: u64,
    ctrl_recv: u64,
    uploaded: u64,
    puts: u64,
    gets: u64,
    /// Ids of the ops submitted inside the windows.
    ids: HashSet<u64>,
}

struct Mark {
    t: Instant,
    cpu: f64,
    gen: f64,
    ctrl_sent: u64,
    ctrl_recv: u64,
    uploaded: u64,
    puts: u64,
    gets: u64,
}

/// One deployment with its generator, expected state and op streams.
struct Run {
    p: Params,
    shape: Shape,
    d: Deployment,
    drv: Driver,
    oracle: Oracle,
    small: SmallOps,
    large: LargeOps,
    cursor: usize,
    records: BTreeMap<u64, OpRecord>,
    probes: HashSet<u64>,
    cycles: Vec<Cycle>,
    errors: Vec<String>,
    rng: StdRng,
    max_connections: usize,
}

impl Run {
    fn setup(p: &Params, traced: bool, index: usize) -> Result<(Run, f64), String> {
        let shape = Shape::of(p.kind, p.tiny);
        let started = Instant::now();
        let d = Deployment::start(
            &p.state_dir.join(format!("deploy{index}")),
            shape.workspaces,
            traced,
        )?;
        let probe = traced.then(|| d.mq.clone());
        let mut run = Run {
            p: p.clone(),
            shape,
            drv: Driver::new(shape.workspaces, probe),
            d,
            oracle: Oracle::new(shape.workspaces),
            small: SmallOps::new(p.seed, shape.workspaces),
            large: LargeOps::new(p.seed),
            cursor: 0,
            records: BTreeMap::new(),
            probes: HashSet::new(),
            cycles: Vec::new(),
            errors: Vec::new(),
            rng: StdRng::seed_from_u64(p.seed ^ 0xA11),
            max_connections: 0,
        };
        match p.kind {
            Kind::CommitSmall => run.populate(shape.workspaces * SMALL_INITIAL_FILES),
            Kind::IngestLarge => {
                for _ in 0..shape.ingest_initial {
                    let op = run.large.new_file(0, &mut run.oracle);
                    run.submit(0, op, Instant::now());
                    run.drv.wait_idle();
                }
            }
            Kind::Restart => {
                run.populate(shape.restart_versions);
                run.drv.wait_idle();
                run.d.checkpoint()?;
            }
        }
        run.drv.wait_idle();
        run.collect();
        let failed = run.records.values().filter(|r| !r.ok()).count();
        if failed > 0 {
            return Err(format!("{failed} set-up op(s) failed"));
        }
        Ok((run, started.elapsed().as_secs_f64()))
    }

    fn submit(&mut self, ws: usize, op: Op, due: Instant) -> u64 {
        let w = &self.d.workspaces[ws];
        self.drv.submit(ws, w, op, due)
    }

    fn collect(&mut self) {
        for r in self.drv.take_records() {
            self.records.insert(r.id, r);
        }
    }

    /// The next workspace without an op in flight, round-robin.
    fn next_free(&mut self) -> usize {
        let n = self.shape.workspaces;
        loop {
            for k in 0..n {
                let ws = (self.cursor + k) % n;
                if !self.drv.is_busy(ws) {
                    self.cursor = ws + 1;
                    return ws;
                }
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    fn next_op(&mut self, ws: usize) -> Op {
        match self.p.kind {
            Kind::IngestLarge => self.large.next(ws, &mut self.oracle),
            _ => self.small.next(ws, &mut self.oracle),
        }
    }

    /// Commits `ops` small-file ops as fast as workspaces free up.
    fn populate(&mut self, ops: usize) {
        for _ in 0..ops {
            let ws = self.next_free();
            let op = self.next_op(ws);
            self.submit(ws, op, Instant::now());
        }
    }

    fn mark(&self) -> Mark {
        let (mut sent, mut recv) = (0, 0);
        for w in &self.d.workspaces {
            for c in [&w.writer, &w.peer] {
                sent += c.stats().control_sent_bytes();
                recv += c.stats().control_received_bytes();
            }
        }
        let traffic = self.d.storage.traffic();
        Mark {
            t: Instant::now(),
            cpu: procfs::process_cpu_s(),
            gen: self.drv.gen_cpu_s(),
            ctrl_sent: sent,
            ctrl_recv: recv,
            uploaded: traffic.uploaded_bytes(),
            puts: traffic.put_count(),
            gets: traffic.get_count(),
        }
    }

    fn add_window(&self, acc: &mut Acc, a: &Mark, b: &Mark) {
        acc.wall_s += (b.t - a.t).as_secs_f64();
        acc.cpu_s += b.cpu - a.cpu;
        acc.gen_cpu_s += b.gen - a.gen;
        acc.ctrl_sent += b.ctrl_sent - a.ctrl_sent;
        acc.ctrl_recv += b.ctrl_recv - a.ctrl_recv;
        acc.uploaded += b.uploaded - a.uploaded;
        acc.puts += b.puts - a.puts;
        acc.gets += b.gets - a.gets;
    }

    fn note_connections(&mut self) {
        self.max_connections = self.max_connections.max(self.d.live_connections());
    }

    /// Poisson arrivals at `rate` for `window`; every op is timed from its
    /// due time. Returns the ids submitted.
    fn open_loop(&mut self, rate: f64, window: Duration) -> Vec<u64> {
        let start = Instant::now();
        let mut due = start;
        let mut ids = Vec::new();
        loop {
            let gap: f64 = -(1.0 - self.rng.gen::<f64>()).ln() / rate;
            due += Duration::from_secs_f64(gap);
            if due - start > window {
                break;
            }
            let ws = self.next_free();
            let op = self.next_op(ws);
            sleep_until(due);
            ids.push(self.submit(ws, op, due));
        }
        self.drv.wait_idle();
        self.note_connections();
        ids
    }

    /// One op at a time: each op starts when the previous one is held by
    /// the peer. Returns the ids submitted.
    fn closed_loop(&mut self, ops: usize) -> Vec<u64> {
        let mut ids = Vec::new();
        while ids.len() < ops.max(1) {
            let op = self.next_op(0);
            ids.push(self.submit(0, op, Instant::now()));
            self.drv.wait_idle();
        }
        self.note_connections();
        ids
    }

    /// `current_items` of every workspace, read from the store directly.
    fn current_items(&self) -> Result<Vec<Vec<ItemMetadata>>, String> {
        let store = self.d.store();
        self.d
            .workspaces
            .iter()
            .map(|w| {
                let mut items = store
                    .current_items(&w.id)
                    .map_err(|e| format!("current_items({}): {e}", w.id))?;
                items.sort_by_key(|i| i.item_id);
                Ok(items)
            })
            .collect()
    }

    /// Crash, recover (first probe commit confirmed), verify the recovered
    /// state, then (if `cold_sync`) cold-connect new devices and verify
    /// their files.
    fn cycle(&mut self, cold_sync: bool) -> Result<(), String> {
        let n = self.cycles.len();
        self.drv.wait_idle();
        self.collect();
        let expected = self.current_items()?;

        self.d.crash();
        let t0 = Instant::now();
        let probe_data = format!("probe {n} of seed {}", self.p.seed).into_bytes();
        let op = self
            .oracle
            .write(0, format!("probe/{n:04}.txt"), probe_data, false);
        let probe = self.submit(0, op, t0);
        self.probes.insert(probe);
        let reopen = self.d.reopen()?;

        let verify_started = Instant::now();
        let recovered = self.current_items()?;
        if recovered != expected {
            let diff = recovered
                .iter()
                .zip(&expected)
                .filter(|(a, b)| a != b)
                .count();
            self.errors.push(format!(
                "cycle {n}: current_items after recovery differ from the acknowledged state in {diff} workspace(s)"
            ));
        }
        let verify_s = verify_started.elapsed().as_secs_f64();

        self.d.bind_pool()?;
        self.drv.wait_idle();
        self.collect();
        let rec = &self.records[&probe];
        let Some(confirmed) = rec.committed else {
            return Err(format!("cycle {n}: probe commit was never confirmed"));
        };
        let recover_s = (confirmed - t0).as_secs_f64() - verify_s;

        let mut cycle = Cycle {
            recover_s,
            open_s: reopen.open_s,
            replayed: reopen.recovery.replayed,
            ..Cycle::default()
        };
        let cold_count = if cold_sync {
            self.shape.cold_workspaces
        } else {
            0
        };
        let cold: Vec<usize> = (0..cold_count)
            .map(|k| {
                (k * self.shape.workspaces / self.shape.cold_workspaces + n) % self.shape.workspaces
            })
            .collect();
        for ws in cold {
            let (id, user) = {
                let w = &self.d.workspaces[ws];
                (w.id.clone(), w.user.clone())
            };
            if self.d.traced {
                let items = self.d.store().current_items(&id).unwrap_or_default();
                let reply = wire::Value::List(
                    items
                        .iter()
                        .map(stacksync::protocol::item_to_value)
                        .collect(),
                );
                let bytes = wire::BinaryCodec.encode(&reply);
                let t = Instant::now();
                let decoded = wire::BinaryCodec.decode(&bytes);
                cycle
                    .changes_decode_ms
                    .push(t.elapsed().as_secs_f64() * 1e3);
                if decoded.as_ref() != Ok(&reply) {
                    self.errors
                        .push("get_changes reply does not round-trip".into());
                }
            }
            let t = Instant::now();
            let (d, drv) = (&self.d, &mut self.drv);
            let device = drv.system_call(|| {
                DesktopClient::connect(
                    &d.peer_broker,
                    &d.storage,
                    ClientConfig::new(&user, &format!("cold{n}")),
                    &id,
                )
            });
            let dt = t.elapsed().as_secs_f64();
            let device = device.map_err(|e| format!("cold connect to {id}: {e}"))?;
            cycle.connect_s.push(dt);
            self.note_connections();
            if let Some(e) = files_differ(&device, &self.oracle.files[ws]) {
                self.errors.push(format!("cold device of {id}: {e}"));
            }
            self.drv.system_call(|| device.disconnect());
        }
        self.cycles.push(cycle);
        Ok(())
    }

    /// The output checks of the end of a run.
    fn final_checks(&mut self) {
        self.drv.wait_idle();
        self.collect();
        if self.p.corrupt_expected {
            if let Some(e) = self.oracle.files[0].values_mut().next() {
                e.digest ^= 1;
            }
        }
        for (ws, w) in self.d.workspaces.iter().enumerate() {
            let expected = &self.oracle.files[ws];
            for (who, c) in [("writer", &w.writer), ("peer", &w.peer)] {
                if let Some(e) = files_differ(c, expected) {
                    self.errors.push(format!("{who} of {}: {e}", w.id));
                }
            }
            if w.writer.stats().conflicts() + w.peer.stats().conflicts() > 0 {
                self.errors.push(format!("{}: conflicting commits", w.id));
            }
            // Version chains in the store: gap-free, and the head matches
            // the expected version of every live path.
            let store = self.d.store();
            let items = match store.current_items(&w.id) {
                Ok(i) => i,
                Err(e) => {
                    self.errors.push(format!("current_items({}): {e}", w.id));
                    continue;
                }
            };
            for item in items {
                let chain: Vec<u64> = match store.history(item.item_id) {
                    Ok(h) => h.iter().map(|v| v.version).collect(),
                    Err(e) => {
                        self.errors.push(format!("history of {}: {e}", item.path));
                        continue;
                    }
                };
                if chain != (1..=chain.len() as u64).collect::<Vec<_>>() {
                    self.errors.push(format!(
                        "{}: version chain of {} has gaps: {chain:?}",
                        w.id, item.path
                    ));
                }
                let want = expected.get(&item.path).map(|e| e.version);
                if !item.is_deleted && want != Some(item.version) {
                    self.errors.push(format!(
                        "{}: {} is at version {} in the store, expected {want:?}",
                        w.id, item.path, item.version
                    ));
                }
            }
        }
        if self.max_connections > 2 {
            self.errors.push(format!(
                "generator used {} connections (at most 2 allowed)",
                self.max_connections
            ));
        }
    }

    fn finish(self) -> (GenCost, BTreeMap<u64, OpRecord>, Vec<String>) {
        let Run {
            d,
            drv,
            records,
            errors,
            ..
        } = self;
        let cost = drv.finish();
        d.shutdown();
        (cost, records, errors)
    }
}

/// Waits (at most 2 s) until the threads of torn-down deployments have
/// exited — the thread count holds still for 100 ms — so they do not run
/// during the next set-up.
fn settle() {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = (procfs::thread_count(), Instant::now());
    while Instant::now() < deadline && last.1.elapsed() < Duration::from_millis(100) {
        std::thread::sleep(Duration::from_millis(5));
        let n = procfs::thread_count();
        if n != last.0 {
            last = (n, Instant::now());
        }
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_micros(150) {
        std::thread::sleep(due - now - Duration::from_micros(100));
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Compares a device's files with the expected ones, byte for byte.
fn files_differ(
    device: &DesktopClient,
    expected: &BTreeMap<String, crate::ops::Expected>,
) -> Option<String> {
    let have = device.list_files();
    let want: Vec<&String> = expected.keys().collect();
    if have.iter().collect::<Vec<_>>() != want {
        return Some(format!(
            "holds {} file(s), expected {}",
            have.len(),
            want.len()
        ));
    }
    for (path, e) in expected {
        if !device.read_file(path).is_some_and(|b| e.matches(&b)) {
            return Some(format!("{path} differs from what the writer wrote"));
        }
    }
    None
}

/// Everything one pass measured.
struct Pass {
    acc: Acc,
    records: BTreeMap<u64, OpRecord>,
    probes: HashSet<u64>,
    cycles: Vec<Cycle>,
    errors: Vec<String>,
    cost: GenCost,
    /// One-second slots behind schedule, of all slots.
    late_slots: (usize, usize),
    /// Ops due in a slot behind schedule.
    behind_ops: HashSet<u64>,
    spans: Option<Analysis>,
    obs: ObsDelta,
    pool: (u64, f64, f64),
    dedup_stored: u64,
    verify_us_per_mb: f64,
    snapshot: Option<(f64, f64, u64)>,
}

impl Pass {
    fn attempted_failed(&self) -> (u64, u64) {
        let failed = self.records.values().filter(|r| !r.ok()).count();
        (self.records.len() as u64, failed as u64)
    }

    /// The measured ops (recovery probes excluded).
    fn ops(&self) -> impl Iterator<Item = &OpRecord> {
        self.records
            .values()
            .filter(|r| self.acc.ids.contains(&r.id) && !self.probes.contains(&r.id))
    }

    /// The confirmed measured ops the latency figures use: those due while
    /// the generator kept to its schedule.
    fn timed(&self) -> Vec<&OpRecord> {
        self.ops()
            .filter(|r| r.ok() && !self.behind_ops.contains(&r.id))
            .collect()
    }
}

/// Runs the measured part of a workload on a set-up deployment.
fn measure(mut run: Run, traced: bool) -> Result<Pass, String> {
    let p = run.p.clone();
    let window = Duration::from_secs_f64(p.seconds);
    let mut acc = Acc::default();
    run.d.reset_pool_stats();
    let obs0 = ObsMark::read();
    trace::set_enabled(traced);
    match p.kind {
        Kind::CommitSmall | Kind::IngestLarge => {
            let a = run.mark();
            let ids = if p.kind == Kind::CommitSmall {
                run.open_loop(run.shape.rate, window)
            } else {
                // A fixed amount of work sized to take about `seconds` on
                // a 2-core box: with only dozens of large files per run,
                // a time cut-off would change which files a run writes.
                run.closed_loop((p.seconds * INGEST_OPS_PER_SECOND).ceil() as usize)
            };
            let b = run.mark();
            run.add_window(&mut acc, &a, &b);
            acc.ids.extend(ids);
        }
        Kind::Restart => {
            // The WAL tail over the checkpoint is written live and measured,
            // then the deployment is crashed and recovered until the window
            // ends.
            let started = Instant::now();
            let a = run.mark();
            let ids = run.open_loop(run.shape.rate, window.mul_f64(RESTART_TAIL_SHARE));
            let b = run.mark();
            run.add_window(&mut acc, &a, &b);
            acc.ids.extend(ids);
            while started.elapsed() < window || run.cycles.is_empty() {
                run.cycle(true)?;
            }
        }
    }
    let pool = run.d.pool_stats();
    let obs = ObsMark::read().since(&obs0);
    if p.kind != Kind::Restart {
        for i in 0..run.shape.after_cycles {
            run.cycle(i < run.shape.cold_cycles)?;
        }
    }
    trace::set_enabled(false);
    let spans = traced.then(|| Analysis::new(trace::take_spans()));
    run.final_checks();

    let dedup_stored = run.d.storage.dedup_totals().stored_bytes;
    let verify_us_per_mb = if traced { verify_rate(&run) } else { 0.0 };
    let snapshot = if traced { snapshot_cost(&run) } else { None };
    let probes = std::mem::take(&mut run.probes);
    let cycles = std::mem::take(&mut run.cycles);
    let (cost, records, errors) = run.finish();
    let mut pass = Pass {
        acc,
        records,
        probes,
        cycles,
        errors,
        cost,
        late_slots: (0, 0),
        behind_ops: HashSet::new(),
        spans,
        obs,
        pool,
        dedup_stored,
        verify_us_per_mb,
        snapshot,
    };
    (pass.late_slots, pass.behind_ops) = behind_slots(&pass);
    Ok(pass)
}

/// One-second slots whose ops started, on average, more than
/// [`BEHIND_SLOT_MEAN_MS`] after their due time, all slots, and the ops
/// due in the slots behind.
fn behind_slots(pass: &Pass) -> ((usize, usize), HashSet<u64>) {
    let Some(first) = pass.ops().map(|r| r.due).min() else {
        return ((0, 0), HashSet::new());
    };
    let mut slots: BTreeMap<u64, Vec<&OpRecord>> = BTreeMap::new();
    for r in pass.ops() {
        slots.entry((r.due - first).as_secs()).or_default().push(r);
    }
    let total = slots.len();
    let behind: Vec<Vec<&OpRecord>> = slots
        .into_values()
        .filter(|ops| {
            mean(&ops.iter().map(|r| r.late_ms()).collect::<Vec<_>>()) > BEHIND_SLOT_MEAN_MS
        })
        .collect();
    let ids = behind.iter().flatten().map(|r| r.id).collect();
    ((behind.len(), total), ids)
}

/// Decompress + fingerprint rate of stored chunks, µs per plain MB.
fn verify_rate(run: &Run) -> f64 {
    let fp = ClientConfig::new("u", "d").fingerprint;
    let (mut plain, mut secs) = (0u64, 0.0);
    for w in &run.d.workspaces {
        let container = format!("{}-chunks", w.user);
        let names = run.d.backend.list(&w.user, &container).unwrap_or_default();
        for name in names {
            let Ok(Some(raw)) = run.d.backend.get(&w.user, &container, &name) else {
                continue;
            };
            let t = Instant::now();
            let ok = content::compress::Algorithm::decompress(&raw)
                .map(|p| (fp.of(&p).to_string() == name, p.len()));
            secs += t.elapsed().as_secs_f64();
            if let Ok((true, len)) = ok {
                plain += len as u64;
            }
            if plain > 32 << 20 {
                return ratio(secs * 1e6, plain as f64 / 1e6);
            }
        }
    }
    ratio(secs * 1e6, plain as f64 / 1e6)
}

/// Snapshot read and JSON decode timed directly: (read s, decode s, bytes).
fn snapshot_cost(run: &Run) -> Option<(f64, f64, u64)> {
    let path = run.d.snapshot_path();
    let t = Instant::now();
    let bytes = std::fs::read(path).ok()?;
    let read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let decoded = wire::JsonCodec.decode(&bytes);
    let decode_s = t.elapsed().as_secs_f64();
    decoded.ok()?;
    Some((read_s, decode_s, bytes.len() as u64))
}

/// Result of a whole run: metrics, counts and diagnostics.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

/// Consecutive ops per group of the windowed estimators below.
const GROUP_MIN_OPS: usize = 100;
const GROUPS_MAX: usize = 15;

/// Splits ops (in due order) into up to fifteen consecutive groups of at
/// least [`GROUP_MIN_OPS`]; fewer ops make one group.
fn groups<'a>(ops: &[&'a OpRecord]) -> Vec<Vec<&'a OpRecord>> {
    let mut sorted = ops.to_vec();
    sorted.sort_by_key(|r| r.due);
    let k = (sorted.len() / GROUP_MIN_OPS).clamp(1, GROUPS_MAX);
    let per = sorted.len().div_ceil(k).max(1);
    sorted.chunks(per).map(<[_]>::to_vec).collect()
}

/// Median over the groups of a per-group statistic: a stall that hits one
/// stretch of the run moves one group, not the reported value.
fn windowed(ops: &[&OpRecord], stat: impl Fn(&[&OpRecord]) -> f64) -> f64 {
    median(&groups(ops).iter().map(|g| stat(g)).collect::<Vec<_>>())
}

fn latency_q(ops: &[&OpRecord], q: f64, sync: bool) -> f64 {
    let v: Vec<f64> = ops
        .iter()
        .filter_map(|r| if sync { r.sync_ms() } else { r.commit_ms() })
        .collect();
    quantile(&v, q)
}

/// Logical MB per second from `write_file` start until the peer holds
/// the file.
fn sync_rate(ops: &[&OpRecord]) -> f64 {
    let writes = ops.iter().filter(|r| r.bytes > 0);
    let bytes: u64 = writes.clone().map(|r| r.bytes).sum();
    let secs: f64 = writes
        .filter_map(|r| Some((r.synced? - r.start).as_secs_f64()))
        .sum();
    ratio(bytes as f64 / 1e6, secs)
}

fn e2e(pass: &Pass, setup_s: f64) -> Metrics {
    let ok: Vec<&OpRecord> = pass.ops().filter(|r| r.ok()).collect();
    let timed = pass.timed();
    let bytes: u64 = ok.iter().map(|r| r.bytes).sum();
    let sys_cpu = (pass.acc.cpu_s - pass.acc.gen_cpu_s).max(0.0);
    let mut m = Metrics::default();
    m.put(
        "commit_p50_ms",
        windowed(&timed, |g| latency_q(g, 0.5, false)),
        "ms",
    );
    m.put(
        "commit_p90_ms",
        windowed(&timed, |g| latency_q(g, 0.9, false)),
        "ms",
    );
    m.put(
        "sync_p50_ms",
        windowed(&timed, |g| latency_q(g, 0.5, true)),
        "ms",
    );
    m.put(
        "sync_p90_ms",
        windowed(&timed, |g| latency_q(g, 0.9, true)),
        "ms",
    );
    m.put("cpu_us_per_op", ratio(sys_cpu * 1e6, ok.len() as f64), "us");
    m.put(
        "control_bytes_per_op",
        ratio(
            (pass.acc.ctrl_sent + pass.acc.ctrl_recv) as f64,
            ok.len() as f64,
        ),
        "B",
    );
    m.put("sync_mb_s", windowed(&timed, sync_rate), "MB/s");
    m.put(
        "cpu_ms_per_mb",
        ratio(sys_cpu * 1e3, bytes as f64 / 1e6),
        "ms",
    );
    m.put(
        "stored_per_logical",
        ratio(pass.acc.uploaded as f64, bytes as f64),
        "ratio",
    );
    m.put(
        "recover_s",
        median(&pass.cycles.iter().map(|c| c.recover_s).collect::<Vec<_>>()),
        "s",
    );
    // Per cold device: the median over every cold connect of the run.
    let connects: Vec<f64> = pass
        .cycles
        .iter()
        .flat_map(|c| c.connect_s.iter().copied())
        .collect();
    m.put("cold_sync_s", median(&connects), "s");
    m.put("setup_s", setup_s, "s");
    m.put("rss_mb", procfs::peak_rss_mb(), "MB");
    m
}

/// Figures measured like the end-to-end metrics but reported only by the
/// traced run, as per-layer `e2e.<name>`: on a shared 2-vCPU VM a slow
/// phase of the host lasting minutes made them 1.4-3.7 times slower while
/// process CPU per op rose 14%, so their spread over ten runs went past
/// 0.25 of the median. Recovery time also moved 56% between two sets of
/// ten restart runs, where the quadratic snapshot decode is nearly all of
/// it and follows cache contention from other tenants.
const DIAGNOSTIC: [&str; 7] = [
    "commit_p50_ms",
    "commit_p90_ms",
    "sync_p50_ms",
    "sync_p90_ms",
    "sync_mb_s",
    "recover_s",
    "cold_sync_s",
];

/// The figure `trace.overhead_frac` compares, and whether lower is better.
fn headline(kind: Kind) -> (&'static str, bool) {
    match kind {
        Kind::CommitSmall => ("sync_p50_ms", true),
        Kind::IngestLarge => ("sync_mb_s", false),
        Kind::Restart => ("recover_s", true),
    }
}

fn per_layer(
    p: &Params,
    pass: &Pass,
    untraced: &Metrics,
    traced_e2e: &Metrics,
) -> (Metrics, Vec<String>) {
    let a = pass.spans.as_ref().expect("traced pass has spans");
    let o = &pass.obs;
    let ops: Vec<&OpRecord> = pass.ops().collect();
    let ok: Vec<&&OpRecord> = ops.iter().filter(|r| r.ok()).collect();
    let n_ops = ops.len().max(1) as f64;
    let logical = o.counter("content.ingest.bytes_total");
    let mb = |b: f64| b / 1e6;
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // sync
    let (_, wf_us, wf_self_us, _) = a.summary("sync.write_file");
    m.put("sync.write_file.us_mean", wf_us, "us");
    m.put("sync.write_file.self_us_mean", wf_self_us, "us");
    let lag: Vec<f64> = ok
        .iter()
        .filter_map(|r| Some(r.sync_ms()? - r.commit_ms()?))
        .collect();
    m.put("sync.peer_lag_ms_p50", median(&lag), "ms");
    let connects: Vec<f64> = pass
        .cycles
        .iter()
        .flat_map(|c| c.connect_s.clone())
        .collect();
    m.put("sync.connect_s", mean(&connects), "s");
    m.put(
        "sync.control_bytes_sent_per_op",
        pass.acc.ctrl_sent as f64 / n_ops,
        "B",
    );
    m.put(
        "sync.control_bytes_recv_per_op",
        pass.acc.ctrl_recv as f64 / n_ops,
        "B",
    );

    // content
    let per_mb = |secs: f64| ratio(secs * 1e6, mb(logical));
    m.put(
        "content.chunk_us_per_mb",
        per_mb(o.hist_sum_s("content.ingest.chunk_seconds")),
        "us/MB",
    );
    m.put(
        "content.hash_us_per_mb",
        per_mb(o.hist_sum_s("content.ingest.hash_seconds")),
        "us/MB",
    );
    m.put(
        "content.compress_us_per_mb",
        per_mb(o.hist_sum_s("content.ingest.compress_seconds")),
        "us/MB",
    );
    m.put("content.verify_us_per_mb", pass.verify_us_per_mb, "us/MB");
    m.put(
        "content.payload_per_logical",
        ratio(o.counter("content.ingest.payload_bytes_total"), logical),
        "ratio",
    );

    // storage
    let (puts, put_us, _, put_bytes) = a.summary("storage.put");
    let (gets, get_us, _, get_bytes) = a.summary("storage.get");
    m.put("storage.put.count", pass.acc.puts as f64, "count");
    m.put(
        "storage.put.us_per_mb",
        ratio(put_us * puts as f64, mb(put_bytes as f64)),
        "us/MB",
    );
    m.put("storage.get.count", pass.acc.gets as f64, "count");
    m.put(
        "storage.get.us_per_mb",
        ratio(get_us * gets as f64, mb(get_bytes as f64)),
        "us/MB",
    );
    let hits = o.counter("storage.dedup.hits_total") + o.counter("storage.dedup.revived_total");
    m.put(
        "storage.dedup.hit_ratio",
        ratio(hits, hits + o.counter("storage.dedup.writes_total")),
        "ratio",
    );
    m.put("storage.stored_bytes", pass.dedup_stored as f64, "B");

    // wire
    let (read_s, decode_s, snap_bytes) = pass.snapshot.unwrap_or((0.0, 0.0, 0));
    m.put("wire.snapshot_decode_s", decode_s, "s");
    let decodes: Vec<f64> = pass
        .cycles
        .iter()
        .flat_map(|c| c.changes_decode_ms.clone())
        .collect();
    m.put("wire.changes_decode_ms", mean(&decodes), "ms");

    // objectmq
    let (_, service, response) = pass.pool;
    m.put("objectmq.service_us_mean", service * 1e6, "us");
    m.put("objectmq.response_us_mean", response * 1e6, "us");
    m.put(
        "objectmq.retries",
        o.counter("omq.call_retries_total") + o.counter("omq.call_timeouts_total"),
        "count",
    );

    // mqsim
    m.put("mqsim.publish.us_mean", a.summary("mqsim.publish").1, "us");
    m.put(
        "mqsim.queue_wait_us_p50",
        o.hist("mq.queue_wait_seconds")
            .map_or(0.0, |h| h.quantile(0.5) * 1e6),
        "us",
    );
    m.put(
        "mqsim.sync_queue.depth_max",
        pass.cost.depth_max as f64,
        "count",
    );
    m.put(
        "mqsim.redelivered",
        o.counter("mq.messages_redelivered_total"),
        "count",
    );

    // net
    m.put(
        "net.frames_per_syscall",
        ratio(
            o.counter("net.tx.frames_total"),
            o.counter("net.tx.syscalls_total"),
        ),
        "ratio",
    );
    m.put(
        "net.bytes_per_op",
        o.counter("net.tx.bytes_total") / n_ops,
        "B",
    );
    let loops = o.reactor_loops();
    m.put("net.reactor.loop_us_p50", loops.quantile(0.5) * 1e6, "us");
    m.put(
        "net.reactor.ready_per_tick_mean",
        ratio(o.reactor_ready_events(), loops.count as f64),
        "count",
    );
    m.put(
        "net.reconnects",
        o.counter("net.client.reconnects"),
        "count",
    );

    // metadata
    let commits = a.durations_us("metadata.commit");
    m.put("metadata.commit.us_mean", mean(&commits), "us");
    m.put("metadata.commit.us_p90", quantile(&commits, 0.9), "us");
    m.put(
        "metadata.lock_wait_us_mean",
        o.lock_wait().mean_secs() * 1e6,
        "us",
    );
    m.put("metadata.conflicts", o.shard_conflicts(), "count");
    m.put(
        "metadata.current_items_ms",
        a.summary("metadata.current_items").1 / 1e3,
        "ms",
    );
    let open_s = median(&pass.cycles.iter().map(|c| c.open_s).collect::<Vec<_>>());
    m.put("metadata.open.read_s", read_s, "s");
    m.put(
        "metadata.open.replay_s",
        (open_s - read_s - decode_s).max(0.0),
        "s",
    );
    m.put("metadata.snapshot_bytes", snap_bytes as f64, "B");
    m.put(
        "metadata.replayed_records",
        median(
            &pass
                .cycles
                .iter()
                .map(|c| c.replayed as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );

    // wal
    let appends = o.counter("wal.appends_total");
    // Each fsync covers one group; without fsyncs every append is written
    // on its own.
    let fsyncs = o.hist_count("wal.fsync_seconds");
    let groups = if fsyncs > 0.0 { fsyncs } else { appends };
    m.put("wal.group_size_mean", ratio(appends, groups), "count");
    m.put("wal.appends_per_op", appends / n_ops, "count");
    m.put(
        "wal.flushed_bytes_per_op",
        o.counter("wal.flushed_bytes_total") / n_ops,
        "B",
    );

    // generator
    let late: Vec<f64> = ops.iter().map(|r| r.late_ms()).collect();
    m.put(
        "gen.late_ms_max",
        late.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.put(
        "gen.cpu_frac",
        ratio(pass.acc.gen_cpu_s, pass.acc.cpu_s),
        "ratio",
    );
    let (name, lower_better) = headline(p.kind);
    let (u, t) = (
        untraced.get(name).unwrap_or(0.0),
        traced_e2e.get(name).unwrap_or(0.0),
    );
    let overhead = if lower_better {
        ratio(t, u) - 1.0
    } else {
        ratio(u, t) - 1.0
    };
    m.put("trace.overhead_frac", overhead, "ratio");
    notes.push(format!(
        "trace overhead on {name}: traced {t:.4}, untraced {u:.4}"
    ));
    let commit: Vec<f64> = ok.iter().filter_map(|r| r.commit_ms()).collect();
    let sync: Vec<f64> = ok.iter().filter_map(|r| r.sync_ms()).collect();
    m.put("e2e.commit_p99_ms", quantile(&commit, 0.99), "ms");
    m.put("e2e.sync_p99_ms", quantile(&sync, 0.99), "ms");
    m.put("e2e.commit_p999_ms", quantile(&commit, 0.999), "ms");
    m.put("e2e.samples", commit.len() as f64, "count");
    m.put(
        "gen.failed_frac",
        ratio((ops.len() - ok.len()) as f64, ops.len() as f64),
        "ratio",
    );

    notes.extend(breakdown(p, a, &ok, pass));
    (m, notes)
}

/// Where an op's time goes along its blocking path, mean ms per op, with
/// what no decorated layer accounts for.
fn breakdown(p: &Params, a: &Analysis, ok: &[&&OpRecord], pass: &Pass) -> Vec<String> {
    const PATH: &[(&str, bool)] = &[
        ("sync.write_file", true),
        ("storage.put", false),
        ("net.publish", false),
        ("objectmq.handle", true),
        ("metadata.commit", true),
        ("mqsim.publish", true),
        ("sync.apply", true),
        ("storage.get", false),
    ];
    let mut by_op: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in a.spans.iter().enumerate() {
        if s.op != 0 {
            by_op.entry(s.op).or_default().push(i);
        }
    }
    let mut sums = vec![0.0; PATH.len()];
    let (mut late, mut total, mut counted) = (0.0, 0.0, 0usize);
    for r in ok {
        let Some(idx) = by_op.get(&r.id) else {
            continue;
        };
        counted += 1;
        late += r.late_ms();
        total += r.sync_ms().unwrap_or(0.0);
        for (k, (name, own)) in PATH.iter().enumerate() {
            for &i in idx {
                let s = &a.spans[i];
                if s.name == *name {
                    // A parent counts its self time and each child its full
                    // span, so no interval is counted twice.
                    let ns = if *own { a.self_ns[i] } else { s.dur_ns() };
                    sums[k] += ns as f64 / 1e6;
                }
            }
        }
    }
    let c = counted.max(1) as f64;
    let mut lines = vec![
        format!(
            "breakdown {}: mean per op over {counted} traced op(s), due -> peer holds = {:.3} ms",
            p.kind.name(),
            total / c
        ),
        "  (layer times along the op; where layers overlap in time the remainder can be negative)"
            .to_string(),
    ];
    let mut attributed = late / c;
    lines.push(format!(
        "  {:<28} {:>10.3} ms",
        "generator lateness",
        late / c
    ));
    for (k, (name, own)) in PATH.iter().enumerate() {
        let v = sums[k] / c;
        attributed += v;
        lines.push(format!(
            "  {:<28} {:>10.3} ms",
            format!("{name}{}", if *own { " (self)" } else { "" }),
            v
        ));
    }
    lines.push(format!(
        "  {:<28} {:>10.3} ms",
        "unattributed",
        total / c - attributed
    ));
    if p.kind == Kind::Restart || !pass.cycles.is_empty() {
        let recover = median(&pass.cycles.iter().map(|c| c.recover_s).collect::<Vec<_>>());
        let open = median(&pass.cycles.iter().map(|c| c.open_s).collect::<Vec<_>>());
        let (read, decode, _) = pass.snapshot.unwrap_or((0.0, 0.0, 0));
        lines.push(format!(
            "recover_s {recover:.4} = snapshot read {read:.4} + JSON decode {decode:.4} + replay/apply {:.4} + pool bind and probe commit {:.4}",
            (open - read - decode).max(0.0),
            (recover - open).max(0.0)
        ));
    }
    lines
}

/// Runs a workload and assembles its result.
pub fn run(p: &Params, traced: bool) -> Result<Outcome, String> {
    let shape = Shape::of(p.kind, p.tiny);
    // Set up several times and keep the last deployment; set-up time is
    // the median.
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..shape.setups {
        let (r, secs) = Run::setup(p, false, i)?;
        setups.push(secs);
        if i + 1 == shape.setups {
            kept = Some(r);
        } else {
            let _ = r.finish();
            settle();
        }
    }
    let setup_s = median(&setups);
    let pass = measure(kept.expect("at least one set-up"), false)?;
    let untraced = e2e(&pass, setup_s);
    let mut errors = pass.errors.clone();
    let mut notes = diagnostics(&pass);
    let (behind, slots) = pass.late_slots;
    notes.push(format!(
        "generator behind schedule in {behind} of {slots} one-second slot(s)"
    ));
    if behind > 1 {
        errors.push(format!(
            "generator fell behind its schedule in {behind} of {slots} one-second slots"
        ));
    }
    // Every op the generator submitted counts: set-up, measured window,
    // warm-ups and recovery probes.
    let (mut attempted, mut failed) = pass.attempted_failed();
    notes.push(format!(
        "failed_frac {} ({failed} of {attempted})",
        ratio(failed as f64, attempted as f64)
    ));

    let metrics = if traced {
        settle();
        let (r, _) = Run::setup(p, true, shape.setups)?;
        let tpass = measure(r, true)?;
        errors.extend(tpass.errors.iter().map(|e| format!("traced pass: {e}")));
        let (a, f) = tpass.attempted_failed();
        attempted += a;
        failed += f;
        let traced_e2e = e2e(&tpass, setup_s);
        let (mut m, lines) = per_layer(p, &tpass, &untraced, &traced_e2e);
        for d in untraced
            .0
            .iter()
            .filter(|d| DIAGNOSTIC.contains(&d.name.as_str()))
        {
            m.put(&format!("e2e.{}", d.name), d.value, d.unit);
        }
        notes.extend(lines);
        if let Some(a) = &tpass.spans {
            let dir = p.state_dir.parent().unwrap_or(&p.state_dir);
            let path = dir.join(format!("spans-{}-{}.jsonl", p.kind.name(), p.seed));
            if let Err(e) = trace::write_spans(&path, &a.spans) {
                notes.push(format!("could not write spans: {e}"));
            } else {
                notes.push(format!(
                    "{} span(s) written to {}",
                    a.spans.len(),
                    path.display()
                ));
            }
        }
        m
    } else {
        let mut m = untraced;
        for d in m.0.iter().filter(|d| DIAGNOSTIC.contains(&d.name.as_str())) {
            notes.push(format!(
                "diagnostic e2e.{} {:.6} {}",
                d.name, d.value, d.unit
            ));
        }
        m.0.retain(|d| !DIAGNOSTIC.contains(&d.name.as_str()));
        m
    };
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        errors,
        notes,
    })
}

/// Diagnostic lines of an untraced pass (tails with sample counts).
fn diagnostics(pass: &Pass) -> Vec<String> {
    let ok: Vec<&OpRecord> = pass.ops().filter(|r| r.ok()).collect();
    let commit: Vec<f64> = ok.iter().filter_map(|r| r.commit_ms()).collect();
    let sync: Vec<f64> = ok.iter().filter_map(|r| r.sync_ms()).collect();
    let late: Vec<f64> = pass.ops().map(|r| r.late_ms()).collect();
    let group_p90: Vec<f64> = groups(&pass.timed())
        .iter()
        .map(|g| (latency_q(g, 0.9, false) * 100.0).round() / 100.0)
        .collect();
    vec![
        format!("commit p90 per group of consecutive ops (ms): {group_p90:?}"),
        format!(
            "commit p99 {:.3} ms, p99.9 {:.3} ms (n={}); sync p99 {:.3} ms, p99.9 {:.3} ms (n={})",
            quantile(&commit, 0.99),
            quantile(&commit, 0.999),
            commit.len(),
            quantile(&sync, 0.99),
            quantile(&sync, 0.999),
            sync.len()
        ),
        format!(
            "generator: late max {:.3} ms, cpu {:.3} s of {:.3} s process cpu ({:.1}%), observer poll period {:.1} us, window {:.2} s",
            late.iter().copied().fold(0.0, f64::max),
            pass.acc.gen_cpu_s,
            pass.acc.cpu_s,
            100.0 * ratio(pass.acc.gen_cpu_s, pass.acc.cpu_s),
            pass.cost.poll_us_mean,
            pass.acc.wall_s
        ),
        format!(
            "cycles: {} (replayed records {:?}, recover_s {:?}, cold_sync_s {:?})",
            pass.cycles.len(),
            pass.cycles.first().map(|c| c.replayed),
            pass.cycles.iter().map(|c| (c.recover_s * 1e4).round() / 1e4).collect::<Vec<_>>(),
            pass.cycles
                .iter()
                .filter(|c| !c.connect_s.is_empty())
                .map(|c| (median(&c.connect_s) * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        ),
    ]
}
