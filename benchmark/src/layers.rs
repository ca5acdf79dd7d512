//! The per-layer metrics, from the traced run's span totals.

use crate::collector::Summary;
use crate::common::{median, Hist, Metrics};
use crate::engine_paper::Family;

/// Algorithm names of the standard set-join and division registry, one
/// `setjoin.pick.<algorithm>` count each (`nested-loop` exists for both
/// operators and is counted once, over both).
pub const ALGORITHMS: [&str; 11] = [
    "nested-loop",
    "signature64",
    "signature256",
    "inverted-index",
    "hash-set-equality",
    "equijoin-intersect",
    "parallel-signature",
    "sort-merge",
    "hash",
    "counting",
    "parallel-hash",
];

const KERNELS: [&str; 5] = [
    "join",
    "semijoin",
    "merge_join",
    "merge_semijoin",
    "multiway",
];

/// Readings of the serving layer over the traced timed phase.
pub struct ServerLayer {
    pub result_hit_rate: f64,
    pub plan_hit_rate: f64,
    pub rejected: f64,
}

pub struct LayerInputs<'a> {
    /// Spans of one traced set-up.
    pub setup: &'a Summary,
    /// Spans of the traced timed phase.
    pub timed: &'a Summary,
    /// Operations completed in the traced timed phase.
    pub ops: f64,
    /// Rows of the answers that executed a plan in the traced phase.
    pub result_rows: f64,
    /// CPU seconds over wall seconds in the untraced timed phase.
    pub cpu_util: f64,
    /// Untraced over traced throughput, minus one, in percent.
    pub overhead_pct: f64,
    /// Share of operation wall time under a named layer span.
    pub coverage: f64,
    /// Self time of the benchmark span around each `Engine::divide` /
    /// `Engine::set_join` call, per call.
    pub setjoin_select_us: f64,
    pub max_q_error: f64,
    pub server: Option<ServerLayer>,
    pub error_rate: f64,
}

/// `<family>_p50_ms`: for each query family, the mean over its
/// operations of each operation's median latency (a median over the
/// pooled samples would jump between operations whose latencies
/// differ); 0 for a family the workload does not run.
pub fn put_families(m: &mut Metrics, per_op: &[(Family, f64)]) {
    for family in Family::ALL {
        let v: Vec<f64> = per_op
            .iter()
            .filter(|(f, _)| *f == family)
            .map(|(_, ms)| *ms)
            .collect();
        let mean = if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        };
        m.put(family.metric(), mean, "ms");
    }
}

/// The serving tiers' latencies from the cold, plan-hit, result-hit and
/// write histograms; 0 for a tier without traffic.
pub fn put_tiers(m: &mut Metrics, [cold, plan_hit, result_hit, write]: [Hist; 4]) {
    m.put("cold_p50_ms", cold.quantile(0.5), "ms");
    m.put("cold_p99_ms", cold.quantile(0.99), "ms");
    m.put("plan_hit_p50_ms", plan_hit.quantile(0.5), "ms");
    m.put("result_hit_p50_us", result_hit.quantile(0.5) * 1e3, "us");
    m.put("write_p50_ms", write.quantile(0.5), "ms");
}

pub fn put(m: &mut Metrics, x: &LayerInputs) {
    let t = x.timed;
    let per_op = |ms: f64| if x.ops > 0.0 { ms / x.ops } else { 0.0 };
    let per_call_us = |key: &str, self_time: bool| {
        let a = t.get(key);
        let ms = if self_time { a.self_ms() } else { a.total_ms() };
        ms * 1e3 / a.count.max(1) as f64
    };
    m.put(
        "storage.snapshot_us",
        per_call_us("storage.snapshot", false),
        "us",
    );
    m.put(
        "algebra.optimize_ms",
        per_op(t.get("algebra.optimize").self_ms()),
        "ms",
    );
    m.put(
        "stats.analyze_ms",
        x.setup.get("stats.analyze").total_ms(),
        "ms",
    );
    m.put("stats.max_q_error", x.max_q_error, "ratio");
    m.put(
        "setjoin.division_ms",
        per_op(t.get("setjoin.division").self_ms()),
        "ms",
    );
    m.put(
        "setjoin.setjoin_ms",
        per_op(t.get("setjoin.setjoin").self_ms()),
        "ms",
    );
    m.put("setjoin.select_us", x.setjoin_select_us, "us");
    for alg in ALGORITHMS {
        let n = t.picks.get(alg).copied().unwrap_or(0);
        m.put(format!("setjoin.pick.{alg}"), n as f64, "count");
    }
    m.put("eval.plan_ms", per_op(t.get("eval.plan").self_ms()), "ms");
    m.put(
        "eval.execute_ms",
        per_op(t.get("eval.execute").total_ms()),
        "ms",
    );
    m.put(
        "eval.plan_node_self_ms",
        per_op(t.get("plan.node").self_ms()),
        "ms",
    );
    for k in KERNELS {
        m.put(
            format!("eval.kernel.{k}_self_ms"),
            per_op(t.get(&format!("kernel.{k}")).self_ms()),
            "ms",
        );
    }
    let partitions = t.get("kernel.partition");
    m.put(
        "eval.kernel.partition_self_ms",
        per_op(partitions.self_ms()),
        "ms",
    );
    m.put(
        "eval.partitions_per_op",
        per_op(partitions.count as f64),
        "count/op",
    );
    let rows_per_result = if x.result_rows > 0.0 {
        t.plan_node_rows as f64 / x.result_rows
    } else {
        0.0
    };
    m.put("eval.rows_per_result", rows_per_result, "ratio");
    m.put("proc.cpu_util", x.cpu_util, "ratio");
    m.put("server.queue_wait_us", median(&t.queue_wait_us), "us");
    m.put(
        "server.dispatch_self_us",
        per_call_us("server.dispatch", true),
        "us",
    );
    let cold = t.get("server.query.cold");
    m.put(
        "server.cold_query_self_ms",
        cold.self_ms() / cold.count.max(1) as f64,
        "ms",
    );
    let (result_rate, plan_rate, rejected) = x.server.as_ref().map_or((0.0, 0.0, 0.0), |s| {
        (s.result_hit_rate, s.plan_hit_rate, s.rejected)
    });
    m.put("server.result_hit_rate", result_rate, "ratio");
    m.put("server.plan_hit_rate", plan_rate, "ratio");
    m.put("server.rejected", rejected, "count");
    m.put(
        "workload.generate_ms",
        x.setup.get("workload.generate").total_ms(),
        "ms",
    );
    m.put("obs.trace_overhead_pct", x.overhead_pct, "%");
    m.put("obs.coverage", x.coverage, "ratio");
    m.put("obs.spans_per_op", per_op(t.entered as f64), "count/op");
    m.put("obs.evicted", (t.evicted + x.setup.evicted) as f64, "count");
    m.put("error_rate", x.error_rate, "ratio");
    put_loc(m);
}

/// `loc.<crate>` and `loc.total`: non-blank, non-comment lines under
/// `crates/<crate>/src`, read from the checkout the benchmark runs in.
fn put_loc(m: &mut Metrics) {
    let mut total = 0.0;
    for krate in crate::common::CRATES {
        let dir = std::path::Path::new("crates").join(krate).join("src");
        let n = crate::common::count_loc(&dir).unwrap_or(0) as f64;
        total += n;
        m.put(format!("loc.{krate}"), n, "lines");
    }
    m.put("loc.total", total, "lines");
}
