//! The traced pass: an in-memory span recorder and the decorators that
//! time each layer from outside the crates.
//!
//! Decorators wrap the layer boundaries the stack already exposes as
//! traits: [`MetadataStore`] (before `SyncService::builder().store(..)`),
//! [`ObjectBackend`] (through `SwiftStore::with_backend`) and
//! [`Messaging`]/[`MessageConsumer`] (before `Broker::over`). Spans are
//! kept in memory and analysed when the run ends; nothing inside the
//! crates is instrumented. With recording off every decorator is a plain
//! delegation, but untraced runs do not install them at all.

use bytes::Bytes;
use metadata::{
    CommitOutcome, ItemMetadata, MetadataResult, MetadataStore, Workspace, WorkspaceId,
};
use mqsim::{
    AnyDelivery, ExchangeKind, Message, MessageConsumer, Messaging, MqResult, QueueOptions,
    QueueStats,
};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use storage::ObjectBackend;
use wire::{Codec, Value};

/// One finished span: name, interval, causing span and op id.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Op the span serves (0 = unknown; filled from relatives on analysis).
    pub op: u64,
    /// Payload bytes the span moved (storage and publish spans).
    pub bytes: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    on: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    /// (item id, version) -> op id, registered by the pacer before each op.
    ops: Mutex<HashMap<(u64, u64), u64>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        ops: Mutex::new(HashMap::new()),
    })
}

thread_local! {
    /// Spans open on this thread, innermost last. An entry whose flag is
    /// set was closed (possibly from another thread) and is skipped.
    static STACK: RefCell<Vec<(u64, Arc<AtomicBool>)>> = const { RefCell::new(Vec::new()) };
    static CURRENT_OP: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Turns recording on or off (off by default).
pub fn set_enabled(on: bool) {
    recorder().on.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    recorder().on.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Takes every finished span and clears the op table.
pub fn take_spans() -> Vec<SpanRec> {
    recorder().ops.lock().clear();
    std::mem::take(&mut *recorder().spans.lock())
}

/// Registers the op that will commit `version` of `item`.
pub fn register_op(item: u64, version: u64, op: u64) {
    if enabled() {
        recorder().ops.lock().insert((item, version), op);
    }
}

fn op_of(item: u64, version: u64) -> u64 {
    recorder()
        .ops
        .lock()
        .get(&(item, version))
        .copied()
        .unwrap_or(0)
}

/// Sets the op id that spans opened on this thread inherit.
pub fn set_current_op(op: u64) {
    CURRENT_OP.with(|c| c.set(op));
}

/// An open span; recorded when closed.
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    op: u64,
    bytes: u64,
    closed: Arc<AtomicBool>,
}

/// Opens a span as a child of the innermost open span of this thread.
/// Returns `None` when recording is off.
pub fn open(name: &'static str) -> Option<Open> {
    if !enabled() {
        return None;
    }
    let r = recorder();
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let closed = Arc::new(AtomicBool::new(false));
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        while s.last().is_some_and(|(_, c)| c.load(Ordering::Acquire)) {
            s.pop();
        }
        let parent = s.last().map_or(0, |(id, _)| *id);
        s.push((id, closed.clone()));
        parent
    });
    Some(Open {
        id,
        parent,
        name,
        start_ns: now_ns(),
        op: CURRENT_OP.with(|c| c.get()),
        bytes: 0,
        closed,
    })
}

impl Open {
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    pub fn set_op(&mut self, op: u64) {
        if op != 0 {
            self.op = op;
        }
    }

    /// Records the span. Safe to call from another thread than the one
    /// that opened it: the opener's stack drops the entry lazily.
    pub fn close(self) {
        let end_ns = now_ns();
        self.closed.store(true, Ordering::Release);
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last().is_some_and(|(id, _)| *id == self.id) {
                s.pop();
            }
        });
        recorder().spans.lock().push(SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            op: self.op,
            bytes: self.bytes,
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = open(name);
    let out = f();
    if let Some(s) = span {
        s.close();
    }
    out
}

/// Finds the (item, version) pairs carried by an encoded ObjectMQ message.
fn ops_in_payload(payload: &[u8]) -> u64 {
    fn walk(v: &Value, found: &mut u64) {
        match v {
            Value::Map(fields) => {
                let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                if let (Some(Value::U64(item)), Some(Value::U64(version))) =
                    (get("item"), get("version"))
                {
                    let op = op_of(*item, *version);
                    if op != 0 {
                        *found = op;
                        return;
                    }
                }
                for (_, v) in fields {
                    walk(v, found);
                }
            }
            Value::List(items) => items.iter().for_each(|v| walk(v, found)),
            _ => {}
        }
    }
    let mut found = 0;
    if let Ok(v) = wire::BinaryCodec.decode(payload) {
        walk(&v, &mut found);
    }
    found
}

// ---------------------------------------------------------------------------
// Messaging decorators
// ---------------------------------------------------------------------------

/// Times publishes and wraps every consumer of a messaging provider.
#[derive(Debug)]
pub struct TracedMessaging {
    inner: Arc<dyn Messaging>,
    /// Span name of a publish (`net.publish` client side, `mqsim.publish`
    /// on the in-process broker).
    publish: &'static str,
    /// Span name of handling one delivery, from receipt to ack.
    handle: &'static str,
}

impl TracedMessaging {
    pub fn wrap(
        inner: Arc<dyn Messaging>,
        publish: &'static str,
        handle: &'static str,
    ) -> Arc<dyn Messaging> {
        Arc::new(TracedMessaging {
            inner,
            publish,
            handle,
        })
    }

    fn timed_publish<T>(&self, bytes: usize, f: impl FnOnce() -> T) -> T {
        let span = open(self.publish);
        let out = f();
        if let Some(mut s) = span {
            s.set_bytes(bytes as u64);
            s.close();
        }
        out
    }
}

impl Messaging for TracedMessaging {
    fn declare_queue(&self, name: &str, options: QueueOptions) -> MqResult<()> {
        self.inner.declare_queue(name, options)
    }
    fn delete_queue(&self, name: &str) -> MqResult<()> {
        self.inner.delete_queue(name)
    }
    fn purge_queue(&self, name: &str) -> MqResult<usize> {
        self.inner.purge_queue(name)
    }
    fn declare_exchange(&self, name: &str, kind: ExchangeKind) -> MqResult<()> {
        self.inner.declare_exchange(name, kind)
    }
    fn bind_queue(&self, exchange: &str, routing_key: &str, queue: &str) -> MqResult<()> {
        self.inner.bind_queue(exchange, routing_key, queue)
    }
    fn unbind_queue(&self, exchange: &str, routing_key: &str, queue: &str) -> MqResult<bool> {
        self.inner.unbind_queue(exchange, routing_key, queue)
    }
    fn queue_exists(&self, name: &str) -> bool {
        self.inner.queue_exists(name)
    }
    fn exchange_exists(&self, name: &str) -> bool {
        self.inner.exchange_exists(name)
    }
    fn publish_to_queue(&self, queue: &str, message: Message) -> MqResult<()> {
        self.timed_publish(message.len(), || {
            self.inner.publish_to_queue(queue, message)
        })
    }
    fn publish_batch_to_queue(&self, queue: &str, messages: Vec<Message>) -> MqResult<()> {
        let bytes = messages.iter().map(Message::len).sum();
        self.timed_publish(bytes, || self.inner.publish_batch_to_queue(queue, messages))
    }
    fn publish(&self, exchange: &str, routing_key: &str, message: Message) -> MqResult<usize> {
        self.timed_publish(message.len(), || {
            self.inner.publish(exchange, routing_key, message)
        })
    }
    fn subscribe(&self, queue: &str) -> MqResult<Box<dyn MessageConsumer>> {
        let inner = self.inner.subscribe(queue)?;
        Ok(Box::new(TracedConsumer {
            inner,
            handle: self.handle,
        }))
    }
    fn queue_stats(&self, name: &str) -> MqResult<QueueStats> {
        self.inner.queue_stats(name)
    }
    fn queue_depth(&self, name: &str) -> MqResult<usize> {
        self.inner.queue_depth(name)
    }
    fn queue_arrival_rate(&self, name: &str) -> MqResult<f64> {
        self.inner.queue_arrival_rate(name)
    }
    fn queue_names(&self) -> Vec<String> {
        self.inner.queue_names()
    }
}

/// Opens a handling span when a delivery is handed out and closes it when
/// the delivery is acknowledged or requeued.
#[derive(Debug)]
struct TracedConsumer {
    inner: Box<dyn MessageConsumer>,
    handle: &'static str,
}

impl TracedConsumer {
    fn wrap(&self, delivery: AnyDelivery) -> AnyDelivery {
        let Some(mut span) = open(self.handle) else {
            return delivery;
        };
        span.set_bytes(delivery.message.len() as u64);
        span.set_op(ops_in_payload(delivery.message.payload()));
        let message = delivery.message.clone();
        let redelivered = delivery.redelivered;
        AnyDelivery::new(message, redelivered, move |ok| {
            span.close();
            if ok {
                delivery.ack();
            } else {
                delivery.requeue();
            }
        })
    }
}

impl MessageConsumer for TracedConsumer {
    fn queue_name(&self) -> &str {
        self.inner.queue_name()
    }
    fn recv_timeout(&self, timeout: Duration) -> MqResult<AnyDelivery> {
        self.inner.recv_timeout(timeout).map(|d| self.wrap(d))
    }
    fn try_recv(&self) -> Option<AnyDelivery> {
        self.inner.try_recv().map(|d| self.wrap(d))
    }
    fn recv_batch(&self, timeout: Duration, max_n: usize) -> MqResult<Vec<AnyDelivery>> {
        let got = self.inner.recv_batch(timeout, max_n)?;
        Ok(got.into_iter().map(|d| self.wrap(d)).collect())
    }
}

// ---------------------------------------------------------------------------
// Storage decorator
// ---------------------------------------------------------------------------

/// Times puts and gets of the chunk store's backend.
pub struct TracedBackend {
    pub inner: Arc<dyn ObjectBackend>,
}

impl ObjectBackend for TracedBackend {
    fn put(&self, account: &str, container: &str, name: &str, data: &[u8]) -> io::Result<()> {
        let span = open("storage.put");
        let out = self.inner.put(account, container, name, data);
        if let Some(mut s) = span {
            s.set_bytes(data.len() as u64);
            s.close();
        }
        out
    }
    fn get(&self, account: &str, container: &str, name: &str) -> io::Result<Option<Bytes>> {
        let span = open("storage.get");
        let out = self.inner.get(account, container, name);
        if let Some(mut s) = span {
            s.set_bytes(
                out.as_ref()
                    .ok()
                    .and_then(|o| o.as_ref())
                    .map_or(0, |b| b.len()) as u64,
            );
            s.close();
        }
        out
    }
    fn delete(&self, account: &str, container: &str, name: &str) -> io::Result<bool> {
        self.inner.delete(account, container, name)
    }
    fn exists(&self, account: &str, container: &str, name: &str) -> io::Result<bool> {
        self.inner.exists(account, container, name)
    }
    fn list(&self, account: &str, container: &str) -> io::Result<Vec<String>> {
        self.inner.list(account, container)
    }
    fn usage(&self, account: &str) -> io::Result<u64> {
        self.inner.usage(account)
    }
}

// ---------------------------------------------------------------------------
// Metadata decorator
// ---------------------------------------------------------------------------

/// Times commits and state reads of the metadata store.
pub struct TracedStore {
    pub inner: Arc<dyn MetadataStore>,
}

impl MetadataStore for TracedStore {
    fn create_user(&self, user: &str) -> MetadataResult<()> {
        self.inner.create_user(user)
    }
    fn create_workspace(&self, user: &str, name: &str) -> MetadataResult<WorkspaceId> {
        self.inner.create_workspace(user, name)
    }
    fn workspaces_of(&self, user: &str) -> MetadataResult<Vec<Workspace>> {
        self.inner.workspaces_of(user)
    }
    fn share_workspace(&self, workspace: &WorkspaceId, user: &str) -> MetadataResult<()> {
        self.inner.share_workspace(workspace, user)
    }
    fn get_workspace(&self, workspace: &WorkspaceId) -> MetadataResult<Workspace> {
        self.inner.get_workspace(workspace)
    }
    fn commit(
        &self,
        workspace: &WorkspaceId,
        proposals: Vec<ItemMetadata>,
    ) -> MetadataResult<Vec<CommitOutcome>> {
        timed("metadata.commit", || {
            self.inner.commit(workspace, proposals)
        })
    }
    fn current_items(&self, workspace: &WorkspaceId) -> MetadataResult<Vec<ItemMetadata>> {
        timed("metadata.current_items", || {
            self.inner.current_items(workspace)
        })
    }
    fn get_current(&self, item_id: u64) -> MetadataResult<ItemMetadata> {
        self.inner.get_current(item_id)
    }
    fn history(&self, item_id: u64) -> MetadataResult<Vec<ItemMetadata>> {
        self.inner.history(item_id)
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Spans indexed for self-time and op attribution.
pub struct Analysis {
    pub spans: Vec<SpanRec>,
    /// Self time of each span (duration minus the union of its children).
    pub self_ns: Vec<u64>,
}

impl Analysis {
    pub fn new(mut spans: Vec<SpanRec>) -> Self {
        spans.sort_by_key(|s| s.id);
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(&p) = index.get(&s.parent) {
                children[p].push(i);
            }
        }
        // Op ids flow up from children (a handling span learns its op from
        // the commit it runs) and then down to children without one.
        for i in (0..spans.len()).rev() {
            if spans[i].op == 0 {
                if let Some(op) = children[i].iter().map(|&c| spans[c].op).find(|&o| o != 0) {
                    spans[i].op = op;
                }
            }
        }
        for i in 0..spans.len() {
            if let Some(&p) = index.get(&spans[i].parent) {
                if spans[i].op == 0 {
                    spans[i].op = spans[p].op;
                }
            }
        }
        let self_ns = (0..spans.len())
            .map(|i| {
                let s = &spans[i];
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect();
        Analysis { spans, self_ns }
    }

    /// Spans with the given name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a SpanRec)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// (count, mean duration µs, mean self µs, total bytes) of a span name.
    pub fn summary(&self, name: &str) -> (u64, f64, f64, u64) {
        let (mut n, mut dur, mut own, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        for (i, s) in self.named(name) {
            n += 1;
            dur += s.dur_ns();
            own += self.self_ns[i];
            bytes += s.bytes;
        }
        if n == 0 {
            return (0, 0.0, 0.0, 0);
        }
        (
            n,
            dur as f64 / n as f64 / 1e3,
            own as f64 / n as f64 / 1e3,
            bytes,
        )
    }

    /// Durations of a span name, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|(_, s)| s.dur_ns() as f64 / 1e3)
            .collect()
    }
}

/// Writes the spans as JSON lines: name, start, end, parent, op.
pub fn write_spans(path: &std::path::Path, spans: &[SpanRec]) -> io::Result<()> {
    use std::io::Write;
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"bytes\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.op, s.bytes
        )?;
    }
    out.flush()
}
