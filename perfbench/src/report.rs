//! Metric values, the program's own `obs` counters read at run
//! boundaries, and the result line.

use std::collections::BTreeMap;

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric set.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples; 0 when
/// empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counters and histograms of the program's `obs` registry that the
/// per-layer metrics read.
const COUNTERS: &[&str] = &[
    "content.ingest.bytes_total",
    "content.ingest.payload_bytes_total",
    "storage.dedup.hits_total",
    "storage.dedup.writes_total",
    "storage.dedup.revived_total",
    "omq.call_retries_total",
    "omq.call_timeouts_total",
    "mq.messages_redelivered_total",
    "net.tx.frames_total",
    "net.tx.syscalls_total",
    "net.tx.bytes_total",
    "net.client.reconnects",
    "wal.appends_total",
    "wal.flushed_bytes_total",
];

const SERVER_LOOPS: usize = 4;
const SHARD_COUNT: usize = crate::stack::SHARDS;

fn histogram_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "content.ingest.chunk_seconds",
        "content.ingest.hash_seconds",
        "content.ingest.compress_seconds",
        "mq.queue_wait_seconds",
        "wal.fsync_seconds",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for i in 0..SERVER_LOOPS {
        names.push(format!("net.server.loop{i}.reactor.loop_seconds"));
    }
    for i in 0..SHARD_COUNT {
        names.push(format!("metadata.shard.{i}.lock_wait_seconds"));
    }
    names
}

fn shard_conflict_names() -> Vec<String> {
    (0..SHARD_COUNT)
        .map(|i| format!("metadata.shard.{i}.conflicts_total"))
        .collect()
}

fn loop_ready_names() -> Vec<String> {
    (0..SERVER_LOOPS)
        .map(|i| format!("net.server.loop{i}.reactor.ready_events_total"))
        .collect()
}

/// A reading of the registry.
#[derive(Debug, Clone)]
pub struct ObsMark {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, obs::HistogramSnapshot>,
}

impl ObsMark {
    pub fn read() -> ObsMark {
        let mut counters = BTreeMap::new();
        for name in COUNTERS
            .iter()
            .map(|s| s.to_string())
            .chain(shard_conflict_names())
            .chain(loop_ready_names())
        {
            let v = obs::counter(&name).value();
            counters.insert(name, v);
        }
        let hists = histogram_names()
            .into_iter()
            .map(|n| {
                let s = obs::histogram(&n).snapshot();
                (n, s)
            })
            .collect();
        ObsMark { counters, hists }
    }

    /// What was recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &ObsMark) -> ObsDelta {
        ObsDelta {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counters[k])))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, v)| (k.clone(), v.delta(&earlier.hists[k])))
                .collect(),
        }
    }
}

/// Registry changes over a window.
#[derive(Debug, Clone)]
pub struct ObsDelta {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, obs::HistogramSnapshot>,
}

impl ObsDelta {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn hist(&self, name: &str) -> Option<&obs::HistogramSnapshot> {
        self.hists.get(name)
    }

    /// Sum of a histogram's observations, seconds.
    pub fn hist_sum_s(&self, name: &str) -> f64 {
        self.hist(name).map_or(0.0, |h| h.sum_ns as f64 / 1e9)
    }

    pub fn hist_count(&self, name: &str) -> f64 {
        self.hist(name).map_or(0.0, |h| h.count as f64)
    }

    /// Histograms of the server's reactor loops merged.
    pub fn reactor_loops(&self) -> obs::HistogramSnapshot {
        merged(
            (0..SERVER_LOOPS)
                .filter_map(|i| self.hist(&format!("net.server.loop{i}.reactor.loop_seconds"))),
        )
    }

    pub fn reactor_ready_events(&self) -> f64 {
        loop_ready_names().iter().map(|n| self.counter(n)).sum()
    }

    /// Shard lock-wait histograms merged.
    pub fn lock_wait(&self) -> obs::HistogramSnapshot {
        merged(
            (0..SHARD_COUNT)
                .filter_map(|i| self.hist(&format!("metadata.shard.{i}.lock_wait_seconds"))),
        )
    }

    pub fn shard_conflicts(&self) -> f64 {
        shard_conflict_names().iter().map(|n| self.counter(n)).sum()
    }
}

fn merged<'a>(parts: impl Iterator<Item = &'a obs::HistogramSnapshot>) -> obs::HistogramSnapshot {
    let mut out = obs::HistogramSnapshot {
        buckets: Vec::new(),
        count: 0,
        sum_ns: 0,
        max_ns: 0,
    };
    for p in parts {
        if out.buckets.len() < p.buckets.len() {
            out.buckets.resize(p.buckets.len(), 0);
        }
        for (o, b) in out.buckets.iter_mut().zip(&p.buckets) {
            *o += b;
        }
        out.count += p.count;
        out.sum_ns += p.sum_ns;
        out.max_ns = out.max_ns.max(p.max_ns);
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of string fields (the provenance line).
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
