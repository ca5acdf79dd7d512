//! Shared measurement plumbing: seeds, answer fingerprints, latency
//! summaries, process readings, and the line counter.

use sj_storage::{FxHasher, Relation};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// A sub-seed for one generator, derived from the run's `--seed` and a
/// fixed tag (one SplitMix64 step), so every input depends only on the
/// run seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Row count plus an order-independent hash of an answer: the wrapping
/// sum of one FxHash per tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    pub rows: usize,
    pub hash: u64,
}

impl Fingerprint {
    pub fn of(rel: &Relation) -> Fingerprint {
        let hash = rel.iter().fold(0u64, |acc, t| {
            let mut h = FxHasher::default();
            t.hash(&mut h);
            acc.wrapping_add(h.finish())
        });
        Fingerprint {
            rows: rel.len(),
            hash,
        }
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (nearest rank) of `values`; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The median, or 0 when there are no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// A latency histogram with log-spaced buckets 0.1% apart, from 100 ns
/// up: constant memory however many operations a run completes, and
/// quantiles within 0.1% of the exact sample quantile.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

const HIST_MIN_NS: f64 = 100.0;
const HIST_GROWTH: f64 = 1.001;
/// Buckets up to about two minutes.
const HIST_BUCKETS: usize = 21_000;

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ms: f64) {
        let ns = (ms * 1e6).max(HIST_MIN_NS);
        let i = ((ns / HIST_MIN_NS).ln() / HIST_GROWTH.ln()) as usize;
        self.counts[i.min(HIST_BUCKETS - 1)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (nearest rank) in ms, at its bucket's geometric
    /// midpoint; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return HIST_MIN_NS * HIST_GROWTH.powf(i as f64 + 0.5) / 1e6;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Equal parts a timed phase is split into. Each end-to-end timing is
/// the median of its per-part values, so a disturbance of the machine
/// that stays within one part does not move it.
pub const PARTS: usize = 3;

/// One part of a timed phase, for one caller.
#[derive(Clone, Default)]
pub struct Part {
    pub latency: Hist,
    pub busy_ms: f64,
}

impl Part {
    /// Throughput over this part's busy time.
    pub fn throughput(&self) -> f64 {
        self.latency.count() as f64 / (self.busy_ms / 1e3)
    }
}

/// Short windows a timed phase is split into for `latency_p50_ms`.
pub const WINDOWS: usize = 40;

/// The median latency of each short window of a timed phase, for one
/// caller. `latency_p50_ms` is the mean of these medians. A single
/// median jumps between the modes of a latency distribution that has
/// two (on a 2-CPU machine, whether a client and the worker that serves
/// it share a CPU changes from second to second), while the mean of the
/// window medians moves smoothly with the share of time in each mode.
#[derive(Default)]
pub struct WindowMedians {
    index: usize,
    current: Hist,
    pub medians: Vec<f64>,
}

impl WindowMedians {
    /// Record a latency at `share` (0 to 1) of the way through the phase.
    pub fn record(&mut self, share: f64, ms: f64) {
        let index = ((share * WINDOWS as f64) as usize).min(WINDOWS - 1);
        if index != self.index {
            self.finish();
            self.index = index;
        }
        self.current.record(ms);
    }

    /// Close the current window.
    pub fn finish(&mut self) {
        if self.current.count() > 0 {
            self.medians.push(self.current.quantile(0.5));
            self.current.clear();
        }
    }
}

/// One field of `/proc/self/status` in KiB (`VmHWM`, `VmRSS`).
fn status_kib(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`
/// (clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// The crates whose source lines `loc.<crate>` counts.
pub const CRATES: [&str; 12] = [
    "algebra", "bench", "bisim", "core", "eval", "logic", "obs", "server", "setjoin", "stats",
    "storage", "workload",
];

/// Non-blank, non-comment lines of every `.rs` file under `dir`
/// (line comments, doc comments and `/* … */` blocks are skipped).
pub fn count_loc(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            total += count_loc(&path)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let mut in_block = false;
            for line in std::fs::read_to_string(&path)?.lines() {
                let l = line.trim();
                if in_block {
                    if let Some(end) = l.find("*/") {
                        in_block = false;
                        let rest = l[end + 2..].trim();
                        if !rest.is_empty() && !rest.starts_with("//") {
                            total += 1;
                        }
                    }
                    continue;
                }
                if l.is_empty() || l.starts_with("//") {
                    continue;
                }
                if l.starts_with("/*") {
                    in_block = !l.contains("*/");
                    continue;
                }
                total += 1;
            }
        }
    }
    Ok(total)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// What one run of a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}
