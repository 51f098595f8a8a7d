//! The load generator: the calling thread paces and submits ops (it runs
//! the client's `write_file`, so the client indexer runs on it), and one
//! observer thread timestamps each op's two completion events by polling:
//!
//! * commit: the writer device received its confirmation notification;
//! * sync: the peer device holds the new version (or the deletion).
//!
//! The generator's own CPU is the observer's plus the pacer's outside
//! client calls; results subtract it from process CPU.

use crate::procfs;
use crate::stack::Workspace;
use crate::trace;
use stacksync::DesktopClient;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an op may wait for its confirmation and peer sync before it
/// counts as failed.
pub const CONFIRM_TIMEOUT: Duration = Duration::from_secs(10);
/// Observer poll period while ops are in flight (sleep granularity adds
/// to it; the measured period is reported).
const POLL: Duration = Duration::from_micros(1);

/// What an op does to one path.
pub enum Action {
    Write(Vec<u8>),
    Delete,
}

/// One operation of a writer device.
pub struct Op {
    pub path: String,
    pub action: Action,
    /// Version the item has after the op (the writer's local chain).
    pub version: u64,
}

/// Timeline of one finished op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub id: u64,
    pub ws: usize,
    /// Logical bytes written (0 for deletes).
    pub bytes: u64,
    pub due: Instant,
    pub start: Instant,
    pub committed: Option<Instant>,
    pub synced: Option<Instant>,
    /// The client call returned an error.
    pub call_failed: bool,
}

impl OpRecord {
    pub fn ok(&self) -> bool {
        !self.call_failed && self.committed.is_some() && self.synced.is_some()
    }
    pub fn commit_ms(&self) -> Option<f64> {
        self.committed.map(|t| (t - self.due).as_secs_f64() * 1e3)
    }
    pub fn sync_ms(&self) -> Option<f64> {
        self.synced.map(|t| (t - self.due).as_secs_f64() * 1e3)
    }
    pub fn late_ms(&self) -> f64 {
        self.start.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

struct Pending {
    rec: OpRecord,
    writer: Arc<DesktopClient>,
    peer: Arc<DesktopClient>,
    path: String,
    /// `Some(v)`: the peer must hold version ≥ v; `None`: the path must be
    /// gone from the peer.
    version: Option<u64>,
    expect_notes: u64,
    /// Set by the pacer once the client call has returned.
    returned: bool,
}

enum Msg {
    Start(Box<Pending>),
    Returned { id: u64, failed: bool },
}

struct Shared {
    busy: Vec<AtomicBool>,
    inflight: AtomicU64,
    done: Mutex<Vec<OpRecord>>,
    stop: AtomicBool,
    /// Sampled sync-queue depth maximum (traced runs).
    depth_max: AtomicU64,
    polls: AtomicU64,
    poll_ns: AtomicU64,
    /// Kernel thread id of the observer.
    observer_tid: AtomicU64,
}

/// Generator state for one deployment.
pub struct Driver {
    shared: Arc<Shared>,
    tx: Sender<Msg>,
    observer: Option<JoinHandle<()>>,
    next_id: u64,
    /// Pacer CPU spent inside client calls (the system's work).
    pacer_in_calls_ns: u64,
    pacer_tid: u64,
    pacer_cpu_start: u64,
}

/// Generator timing figures of one driver's life.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenCost {
    pub poll_us_mean: f64,
    pub depth_max: u64,
}

impl Driver {
    /// Starts the observer. `depth_probe`, when set, samples the sync
    /// queue's depth while ops are in flight.
    pub fn new(workspaces: usize, depth_probe: Option<mqsim::MessageBroker>) -> Driver {
        let shared = Arc::new(Shared {
            busy: (0..workspaces).map(|_| AtomicBool::new(false)).collect(),
            inflight: AtomicU64::new(0),
            done: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            depth_max: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            poll_ns: AtomicU64::new(0),
            observer_tid: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::channel();
        let s = shared.clone();
        let observer = std::thread::Builder::new()
            .name("perfbench-observer".into())
            .spawn(move || observe(&s, &rx, depth_probe))
            .expect("spawn observer thread");
        Driver {
            shared,
            tx,
            observer: Some(observer),
            next_id: 1,
            pacer_in_calls_ns: 0,
            pacer_tid: procfs::thread_id(),
            pacer_cpu_start: procfs::thread_cpu_ns(),
        }
    }

    pub fn is_busy(&self, ws: usize) -> bool {
        self.shared.busy[ws].load(Ordering::Acquire)
    }

    pub fn inflight(&self) -> u64 {
        self.shared.inflight.load(Ordering::Acquire)
    }

    /// Runs one op on workspace `ws`'s writer, timed from `due`.
    /// The workspace must not be busy (one op per workspace in flight keeps
    /// each item's version chain in order).
    pub fn submit(&mut self, ws_index: usize, ws: &Workspace, op: Op, due: Instant) -> u64 {
        debug_assert!(!self.is_busy(ws_index));
        let id = self.next_id;
        self.next_id += 1;
        let bytes = match &op.action {
            Action::Write(b) => b.len() as u64,
            Action::Delete => 0,
        };
        let item = stacksync::client::stable_item_id(&ws.id, &op.path);
        trace::register_op(item, op.version, id);
        self.shared.busy[ws_index].store(true, Ordering::Release);
        self.shared.inflight.fetch_add(1, Ordering::AcqRel);
        let now = Instant::now();
        let pending = Pending {
            rec: OpRecord {
                id,
                ws: ws_index,
                bytes,
                due,
                start: now,
                committed: None,
                synced: None,
                call_failed: false,
            },
            writer: ws.writer.clone(),
            peer: ws.peer.clone(),
            path: op.path.clone(),
            version: match op.action {
                Action::Write(_) => Some(op.version),
                Action::Delete => None,
            },
            expect_notes: ws.writer.stats().notifications() + 1,
            returned: false,
        };
        self.tx
            .send(Msg::Start(Box::new(pending)))
            .expect("observer alive");

        trace::set_current_op(id);
        let span = trace::open("sync.write_file");
        let cpu0 = procfs::thread_cpu_ns();
        let result = match op.action {
            Action::Write(data) => ws.writer.write_file(&op.path, data),
            Action::Delete => ws.writer.delete_file(&op.path),
        };
        self.pacer_in_calls_ns += procfs::thread_cpu_ns().saturating_sub(cpu0);
        if let Some(s) = span {
            s.close();
        }
        trace::set_current_op(0);
        if let Err(e) = &result {
            eprintln!("op {id} on {}: {e}", op.path);
        }
        self.tx
            .send(Msg::Returned {
                id,
                failed: result.is_err(),
            })
            .expect("observer alive");
        id
    }

    /// Accounts a client call made by the pacer outside `submit` (device
    /// connects) as the system's work, not the generator's.
    pub fn system_call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu0 = procfs::thread_cpu_ns();
        let out = f();
        self.pacer_in_calls_ns += procfs::thread_cpu_ns().saturating_sub(cpu0);
        out
    }

    /// Waits until every submitted op finished (or timed out).
    pub fn wait_idle(&self) {
        while self.inflight() > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Takes the records of every op finished so far.
    pub fn take_records(&self) -> Vec<OpRecord> {
        std::mem::take(&mut *self.shared.done.lock().expect("records lock"))
    }

    /// Generator CPU so far: the observer's whole run plus the pacer's
    /// time outside client calls.
    pub fn gen_cpu_s(&self) -> f64 {
        let observer = procfs::task_cpu_ns(self.observer_tid());
        let pacer = procfs::task_cpu_ns(self.pacer_tid).saturating_sub(self.pacer_cpu_start);
        (observer + pacer.saturating_sub(self.pacer_in_calls_ns)) as f64 / 1e9
    }

    fn observer_tid(&self) -> u64 {
        self.shared.observer_tid.load(Ordering::Acquire)
    }

    /// Stops the observer.
    pub fn finish(mut self) -> GenCost {
        self.wait_idle();
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.observer.take() {
            h.join().expect("observer thread panicked");
        }
        let polls = self.shared.polls.load(Ordering::Relaxed).max(1);
        GenCost {
            poll_us_mean: self.shared.poll_ns.load(Ordering::Relaxed) as f64 / polls as f64 / 1e3,
            depth_max: self.shared.depth_max.load(Ordering::Relaxed),
        }
    }
}

fn observe(shared: &Shared, rx: &Receiver<Msg>, depth_probe: Option<mqsim::MessageBroker>) {
    // Published so the pacer can read the observer's CPU from /proc.
    shared
        .observer_tid
        .store(procfs::thread_id(), Ordering::Release);
    let mut inflight: Vec<Pending> = Vec::new();
    let mut last_poll: Option<Instant> = None;
    loop {
        let msg = if inflight.is_empty() {
            last_poll = None;
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            match rx.recv_timeout(Duration::from_millis(5)) {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        } else {
            rx.try_recv().ok()
        };
        if let Some(m) = msg {
            apply(&mut inflight, m);
            while let Ok(m) = rx.try_recv() {
                apply(&mut inflight, m);
            }
        }
        if inflight.is_empty() {
            continue;
        }
        let now = Instant::now();
        if let Some(prev) = last_poll {
            shared.polls.fetch_add(1, Ordering::Relaxed);
            shared
                .poll_ns
                .fetch_add((now - prev).as_nanos() as u64, Ordering::Relaxed);
        }
        last_poll = Some(now);
        if let Some(mq) = &depth_probe {
            if let Ok(depth) = mq.queue_depth(stacksync::SYNC_SERVICE_OID.as_str()) {
                shared.depth_max.fetch_max(depth as u64, Ordering::Relaxed);
            }
        }
        let mut i = 0;
        while i < inflight.len() {
            let p = &mut inflight[i];
            if p.rec.committed.is_none() && p.writer.stats().notifications() >= p.expect_notes {
                p.rec.committed = Some(now);
            }
            if p.rec.synced.is_none() {
                let held = match p.version {
                    Some(v) => p.peer.file_version(&p.path).is_some_and(|have| have >= v),
                    None => p.peer.file_version(&p.path).is_none(),
                };
                if held {
                    p.rec.synced = Some(now);
                }
            }
            let finished = p.returned
                && (p.rec.call_failed
                    || (p.rec.committed.is_some() && p.rec.synced.is_some())
                    || now - p.rec.due > CONFIRM_TIMEOUT);
            if finished {
                let rec = inflight.swap_remove(i).rec;
                let ws = rec.ws;
                shared.done.lock().expect("records lock").push(rec);
                shared.busy[ws].store(false, Ordering::Release);
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
            } else {
                i += 1;
            }
        }
        std::thread::sleep(POLL);
    }
}

fn apply(inflight: &mut Vec<Pending>, msg: Msg) {
    match msg {
        Msg::Start(p) => inflight.push(*p),
        Msg::Returned { id, failed } => {
            if let Some(p) = inflight.iter_mut().find(|p| p.rec.id == id) {
                p.returned = true;
                p.rec.call_failed = failed;
            }
        }
    }
}
