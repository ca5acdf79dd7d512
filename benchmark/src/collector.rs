//! The benchmark's own span collector: aggregates self time by span
//! name online, so nothing is kept per closed span and nothing is ever
//! evicted.
//!
//! A span's self time is its duration minus the union of its
//! children's intervals, children adopted on other threads through
//! `sj_obs::with_parent` included. Each open span keeps the intervals
//! of its closed children; when it closes, its self time is added to
//! the total of its key and its own interval is handed to its parent.
//! The few attributes the per-layer metrics need are read as spans
//! open and close.

use sj_obs::{AttrValue, Collector, SpanId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Totals for one aggregation key.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

struct Open {
    name: &'static str,
    parent: Option<u64>,
    start: u64,
    children: Vec<(u64, u64)>,
}

#[derive(Default)]
struct State {
    open: HashMap<u64, Open>,
    agg: BTreeMap<String, Agg>,
    entered: u64,
    orphaned: u64,
    queue_wait_us: Vec<f64>,
    plan_node_rows: u64,
    picks: BTreeMap<&'static str, u64>,
}

/// What a collector saw, taken once its phase is over.
#[derive(Debug, Default)]
pub struct Summary {
    /// Per key: the span name, except `server.query`, which is keyed by
    /// its serving tier (`server.query.cold`, …).
    pub agg: BTreeMap<String, Agg>,
    /// Spans opened.
    pub entered: u64,
    /// Spans whose time could not be attributed: still open at the end,
    /// closed without having been opened here, or closed after their
    /// parent.
    pub evicted: u64,
    /// The `queue_wait_us` attribute of every `server.dispatch`.
    pub queue_wait_us: Vec<f64>,
    /// Sum of the `rows` exit attribute of every `plan.node`.
    pub plan_node_rows: u64,
    /// `setjoin.division` / `setjoin.setjoin` spans by `algorithm`.
    pub picks: BTreeMap<&'static str, u64>,
}

impl Summary {
    pub fn get(&self, key: &str) -> Agg {
        self.agg.get(key).copied().unwrap_or_default()
    }
}

pub struct SelfTimeCollector {
    epoch: Instant,
    next_id: AtomicU64,
    state: Mutex<State>,
}

impl SelfTimeCollector {
    pub fn new() -> SelfTimeCollector {
        SelfTimeCollector {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn summary(&self) -> Summary {
        let state = self.state.lock().expect("collector poisoned");
        Summary {
            agg: state.agg.clone(),
            entered: state.entered,
            evicted: state.orphaned + state.open.len() as u64,
            queue_wait_us: state.queue_wait_us.clone(),
            plan_node_rows: state.plan_node_rows,
            picks: state.picks.clone(),
        }
    }
}

fn attr_u64(attrs: &[(&'static str, AttrValue)], key: &str) -> Option<u64> {
    attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            AttrValue::Uint(x) => Some(*x),
            AttrValue::Int(x) => u64::try_from(*x).ok(),
            _ => None,
        })
}

fn attr_str(attrs: &[(&'static str, AttrValue)], key: &str) -> Option<&'static str> {
    attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            AttrValue::Str(s) => Some(*s),
            _ => None,
        })
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

impl Collector for SelfTimeCollector {
    fn enter(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        attrs: &[(&'static str, AttrValue)],
    ) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now_ns();
        let mut state = self.state.lock().expect("collector poisoned");
        state.entered += 1;
        match name {
            "server.dispatch" => {
                if let Some(us) = attr_u64(attrs, "queue_wait_us") {
                    state.queue_wait_us.push(us as f64);
                }
            }
            "setjoin.division" | "setjoin.setjoin" => {
                if let Some(alg) = attr_str(attrs, "algorithm") {
                    *state.picks.entry(alg).or_default() += 1;
                }
            }
            _ => {}
        }
        state.open.insert(
            id,
            Open {
                name,
                parent: parent.map(|p| p.0),
                start,
                children: Vec::new(),
            },
        );
        SpanId(id)
    }

    fn exit(&self, id: SpanId, attrs: &[(&'static str, AttrValue)]) {
        let end = self.now_ns();
        let mut state = self.state.lock().expect("collector poisoned");
        let Some(mut span) = state.open.remove(&id.0) else {
            state.orphaned += 1;
            return;
        };
        let duration = end.saturating_sub(span.start);
        let self_ns = duration - covered(&mut span.children, span.start, end);
        let key = match span.name {
            "server.query" => format!(
                "server.query.{}",
                attr_str(attrs, "tier").unwrap_or("unknown")
            ),
            name => name.to_string(),
        };
        if span.name == "plan.node" {
            state.plan_node_rows += attr_u64(attrs, "rows").unwrap_or(0);
        }
        let agg = state.agg.entry(key).or_default();
        agg.count += 1;
        agg.total_ns += duration;
        agg.self_ns += self_ns;
        if let Some(parent) = span.parent {
            match state.open.get_mut(&parent) {
                Some(p) => p.children.push((span.start, end)),
                None => state.orphaned += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_is_counted_once() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (0, 5)];
        assert_eq!(covered(&mut iv, 8, 45), 10 + 10 + 5);
    }
}
