//! `serve-hot` and `serve-churn`: two client sessions in a closed loop
//! against one [`Server`], replaying a seeded serving trace.

use crate::collector::SelfTimeCollector;
use crate::common::{
    cpu_seconds, median, ms_since, peak_rss_mib, sub_seed, Fingerprint, Hist, Metrics, Outcome,
    Part, WindowMedians, PARTS,
};
use crate::engine_paper::checking_engine;
use crate::layers::{self, LayerInputs, ServerLayer};
use sj_algebra::{Expr, OptimizeLevel};
use sj_eval::{Execution, StatsMode};
use sj_server::{
    CacheMode, Provenance, QueryResponse, Server, ServerConfig, Session, StatsSnapshot, WriteOp,
};
use sj_storage::{Database, Relation, Tuple};
use sj_workload::{ServingWorkload, TraceOp};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Mix {
    Hot,
    Churn,
}

/// Client callers, each with its own session.
const CLIENTS: usize = 2;
/// Trace operations per client slice; a client that reaches the end of
/// its slice starts it again.
const SLICE_OPS: usize = 60_000;
/// Operations of each slice replayed untimed during set-up.
const WARM_OPS: usize = 1_000;

fn workload(mix: Mix, seed: u64) -> ServingWorkload {
    let base = ServingWorkload {
        groups: 384,
        divisor_size: 16,
        hot_queries: 64,
        theta: 1.1,
        ops: CLIENTS * SLICE_OPS,
        write_fraction: 0.0,
        analyze_fraction: 0.0,
        seed: sub_seed(seed, 11),
    };
    match mix {
        Mix::Hot => base.read_only(),
        Mix::Churn => ServingWorkload {
            hot_queries: 4096,
            theta: 0.9,
            write_fraction: 0.10,
            analyze_fraction: 0.01,
            ..base
        },
    }
}

/// `ServerConfig::default()` with every option written out, two workers
/// and two cores pinned, and vectorized execution.
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        cores: 2,
        queue_capacity: 64,
        cache: CacheMode::PlanAndResult,
        plan_cache_capacity: 1024,
        result_cache_capacity: 1024,
        stats: StatsMode::Cached,
        optimize: OptimizeLevel::Full,
        execution: Execution::Vectorized,
        instrument: true,
    }
}

/// A trace operation with its query replaced by the pool index.
#[derive(Clone, PartialEq, Debug)]
enum Step {
    Query(usize),
    Insert(Tuple),
    Analyze,
}

struct Setup {
    initial: Database,
    pool: Vec<Expr>,
    slices: Vec<Vec<Step>>,
    server: Server,
    /// `(epoch, tuple)` of every warm-up insert the server acknowledged.
    writes: Vec<(u64, Tuple)>,
    /// The warm-up answers, as in [`ClientLog::answers`].
    answers: Answers,
    seconds: f64,
}

/// How often each `(pool index, epoch, answer)` triple came back.
type Answers = HashMap<(usize, u64, Fingerprint), u64>;

/// Generate the database and trace, start the server, ANALYZE, and
/// replay the first operations of every slice untimed.
fn set_up(mix: Mix, seed: u64) -> Result<Setup, String> {
    let start = Instant::now();
    let w = workload(mix, seed);
    let initial = w.database();
    let pool = w.query_pool();
    let index: HashMap<&Expr, usize> = pool.iter().enumerate().map(|(i, e)| (e, i)).collect();
    let steps: Vec<Step> = w
        .trace()
        .into_iter()
        .map(|op| match op {
            TraceOp::Query(e) => Step::Query(index[&e]),
            TraceOp::Insert { tuple, .. } => Step::Insert(tuple),
            TraceOp::Analyze => Step::Analyze,
        })
        .collect();
    let slices: Vec<Vec<Step>> = steps.chunks(SLICE_OPS).map(<[Step]>::to_vec).collect();
    let server = Server::start(initial.clone(), server_config());
    {
        let _s = sj_obs::span!("stats.analyze");
        server.write(WriteOp::Analyze).map_err(|e| e.to_string())?;
    }
    let mut writes = Vec::new();
    let mut answers = HashMap::new();
    for slice in &slices {
        let session = server.session();
        for step in &slice[..WARM_OPS] {
            match step {
                Step::Query(i) => {
                    let r = session.query(pool[*i].clone()).map_err(|e| e.to_string())?;
                    let key = (*i, r.epoch, Fingerprint::of(&r.relation));
                    *answers.entry(key).or_default() += 1;
                }
                Step::Insert(t) => writes.push((insert(&session, t)?, t.clone())),
                Step::Analyze => {
                    session.write(WriteOp::Analyze).map_err(|e| e.to_string())?;
                }
            }
        }
    }
    Ok(Setup {
        initial,
        pool,
        slices,
        server,
        writes,
        answers,
        seconds: start.elapsed().as_secs_f64(),
    })
}

fn insert(session: &Session, tuple: &Tuple) -> Result<u64, String> {
    session
        .write(WriteOp::Insert {
            relation: "R".into(),
            tuple: tuple.clone(),
        })
        .map_err(|e| e.to_string())
}

/// Operation classes, one latency histogram each.
const COLD: usize = 0;
const PLAN_HIT: usize = 1;
const RESULT_HIT: usize = 2;
const WRITE: usize = 3;

fn class(p: Provenance) -> usize {
    match p {
        Provenance::Cold => COLD,
        Provenance::PlanCache => PLAN_HIT,
        Provenance::ResultCache => RESULT_HIT,
    }
}

/// What one client saw in a timed phase.
#[derive(Default)]
struct ClientLog {
    latency: [Hist; 4],
    answers: Answers,
    writes: Vec<(u64, Tuple)>,
    completed: u64,
    failed: u64,
    busy_ms: f64,
    /// The phase split into equal shares of its wall time.
    parts: [Part; PARTS],
    windows: WindowMedians,
    /// Rows of the answers that executed a plan (not result hits).
    executed_rows: u64,
}

/// Fingerprints of recent answers by allocation: result-cache hits hand
/// out the same `Arc`, which is hashed once. Holding the `Arc` keeps the
/// address from being reused; the map is emptied when it grows large.
#[derive(Default)]
struct AnswerMemo(HashMap<usize, (Arc<Relation>, Fingerprint)>);

impl AnswerMemo {
    fn fingerprint(&mut self, rel: &Arc<Relation>) -> Fingerprint {
        if self.0.len() >= 4096 {
            self.0.clear();
        }
        self.0
            .entry(Arc::as_ptr(rel) as usize)
            .or_insert_with(|| (rel.clone(), Fingerprint::of(rel)))
            .1
    }
}

fn client(
    session: Session,
    pool: &[Expr],
    slice: &[Step],
    begin: Instant,
    seconds: f64,
    traced: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut memo = AnswerMemo::default();
    let mut pos = WARM_OPS;
    loop {
        let share = begin.elapsed().as_secs_f64() / seconds;
        if share >= 1.0 {
            break;
        }
        let part = ((share * PARTS as f64) as usize).min(PARTS - 1);
        let step = &slice[pos % slice.len()];
        pos += 1;
        match step {
            Step::Query(i) => {
                let expr = pool[*i].clone();
                let start = Instant::now();
                let out = session.query(expr);
                let ms = ms_since(start);
                log.busy_ms += ms;
                log.parts[part].busy_ms += ms;
                match out {
                    Ok(QueryResponse {
                        relation,
                        provenance,
                        epoch,
                        ..
                    }) => {
                        log.latency[class(provenance)].record(ms);
                        log.parts[part].latency.record(ms);
                        log.windows.record(share, ms);
                        log.completed += 1;
                        let fp = memo.fingerprint(&relation);
                        *log.answers.entry((*i, epoch, fp)).or_default() += 1;
                        if provenance != Provenance::ResultCache {
                            log.executed_rows += relation.len() as u64;
                        }
                    }
                    Err(e) => {
                        eprintln!("query failed: {e}");
                        log.failed += 1;
                    }
                }
            }
            Step::Insert(_) | Step::Analyze => {
                let op = match step {
                    Step::Insert(t) => WriteOp::Insert {
                        relation: "R".into(),
                        tuple: t.clone(),
                    },
                    _ => WriteOp::Analyze,
                };
                let start = Instant::now();
                let out = {
                    let _s = traced.then(|| sj_obs::span!("server.write"));
                    session.write(op)
                };
                let ms = ms_since(start);
                log.busy_ms += ms;
                log.parts[part].busy_ms += ms;
                match out {
                    Ok(epoch) => {
                        log.latency[WRITE].record(ms);
                        log.parts[part].latency.record(ms);
                        log.windows.record(share, ms);
                        log.completed += 1;
                        if let Step::Insert(t) = step {
                            log.writes.push((epoch, t.clone()));
                        }
                    }
                    Err(e) => {
                        eprintln!("write failed: {e}");
                        log.failed += 1;
                    }
                }
            }
        }
    }
    log.windows.finish();
    log
}

/// One timed phase of both clients.
struct Phase {
    logs: Vec<ClientLog>,
    stats: (StatsSnapshot, StatsSnapshot),
    wall_s: f64,
    cpu_s: f64,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.logs.iter().map(|l| l.completed).sum()
    }
    fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }
    fn attempted(&self) -> u64 {
        self.ops() + self.failed()
    }
    /// Sum over clients of completed operations per busy second.
    fn throughput(&self) -> f64 {
        self.logs
            .iter()
            .map(|l| l.completed as f64 / (l.busy_ms / 1e3))
            .sum()
    }
    /// Latencies of the given classes over both clients.
    fn latency(&self, classes: &[usize]) -> Hist {
        let mut h = Hist::default();
        for l in &self.logs {
            for &c in classes {
                h.merge(&l.latency[c]);
            }
        }
        h
    }
}

fn timed_phase(setup: &Setup, seconds: f64, traced: bool) -> Phase {
    let before = setup.server.stats();
    let (wall, cpu) = (Instant::now(), cpu_seconds());
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .slices
            .iter()
            .map(|slice| {
                let session = setup.server.session();
                let pool = &setup.pool;
                scope.spawn(move || client(session, pool, slice, wall, seconds, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        logs,
        stats: (before, setup.server.stats()),
        wall_s: wall.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu,
    }
}

/// Check every `(query, epoch)` answer of `phases` against a cache-free
/// direct engine on the database state of that epoch, rebuilt by
/// replaying the acknowledged inserts in epoch order. The epochs are
/// split between two threads. Returns the number of wrong answers.
fn check_answers(setup: &Setup, phases: &[&Phase]) -> Result<u64, String> {
    let mut writes: Vec<&(u64, Tuple)> = setup
        .writes
        .iter()
        .chain(
            phases
                .iter()
                .flat_map(|p| p.logs.iter().flat_map(|l| &l.writes)),
        )
        .collect();
    writes.sort_by_key(|w| w.0);
    let mut by_epoch: BTreeMap<u64, Seen> = BTreeMap::new();
    for (&(q, epoch, fp), &n) in setup.answers.iter().chain(
        phases
            .iter()
            .flat_map(|p| p.logs.iter().flat_map(|l| &l.answers)),
    ) {
        by_epoch
            .entry(epoch)
            .or_default()
            .entry(q)
            .or_default()
            .push((fp, n));
    }
    let groups: Vec<_> = by_epoch.into_iter().collect();
    let total: usize = groups.iter().map(|g| g.1.len()).sum();
    let mut seen = 0;
    let split = groups
        .iter()
        .position(|g| {
            seen += g.1.len();
            2 * seen >= total
        })
        .map_or(groups.len(), |p| p + 1);
    let (first, second) = groups.split_at(split);
    let wrong = std::thread::scope(|scope| {
        let handles: Vec<_> = [first, second]
            .into_iter()
            .map(|part| scope.spawn(|| check_epochs(setup, &writes, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread panicked"))
            .sum::<Result<u64, String>>()
    })?;
    if wrong > 0 {
        eprintln!("{wrong} served answers differ from the direct engine");
    }
    Ok(wrong)
}

/// The answers seen at one epoch: per pool index, each distinct answer
/// with how often it came back.
type Seen = BTreeMap<usize, Vec<(Fingerprint, u64)>>;

/// Check the answers of ascending `epochs` (see [`check_answers`]).
fn check_epochs(
    setup: &Setup,
    writes: &[&(u64, Tuple)],
    epochs: &[(u64, Seen)],
) -> Result<u64, String> {
    let mut db = setup.initial.clone();
    let mut applied = 0;
    let mut wrong = 0;
    for (epoch, queries) in epochs {
        while applied < writes.len() && writes[applied].0 <= *epoch {
            db.insert("R", writes[applied].1.clone())
                .map_err(|e| e.to_string())?;
            applied += 1;
        }
        let engine = checking_engine(db.clone());
        for (q, seen) in queries {
            let rel = engine
                .query(setup.pool[*q].clone())
                .run()
                .map_err(|e| e.to_string())?
                .relation;
            let expected = Fingerprint::of(&rel);
            wrong += seen
                .iter()
                .filter(|(fp, _)| *fp != expected)
                .map(|(_, n)| n)
                .sum::<u64>();
        }
    }
    Ok(wrong)
}

pub fn run(mix: Mix, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..crate::SETUP_REPEATS {
        // Stop the previous server before the next set-up starts one.
        let previous = last.take().map(|p| {
            drop(p.server);
            (p.initial, p.pool, p.slices)
        });
        let setup = set_up(mix, seed)?;
        if let Some((initial, pool, slices)) = previous {
            if initial != setup.initial || pool != setup.pool || slices != setup.slices {
                return Err("two generations from one seed differ".into());
            }
        }
        setup_times.push(setup.seconds);
        last = Some(setup);
    }
    let setup = last.expect("at least one set-up");
    crate::progress("set-ups");
    let untraced = timed_phase(&setup, seconds, false);
    let peak_rss = peak_rss_mib();
    crate::progress("untraced timed phase");
    let mut failed = untraced.failed() + check_answers(&setup, &[&untraced])?;
    crate::progress("answer check");
    let mut attempted = untraced.attempted();
    let mut metrics = Metrics::default();
    if !trace {
        let parts: Vec<[Part; PARTS]> = untraced.logs.iter().map(|l| l.parts.clone()).collect();
        let window_medians: Vec<f64> = untraced
            .logs
            .iter()
            .flat_map(|l| l.windows.medians.iter().copied())
            .collect();
        crate::put_common(
            &mut metrics,
            median(&setup_times),
            &parts,
            &window_medians,
            peak_rss,
        );
    } else {
        // The query families are `engine-paper`'s operations.
        layers::put_families(&mut metrics, &[]);
        layers::put_tiers(
            &mut metrics,
            [COLD, PLAN_HIT, RESULT_HIT, WRITE].map(|c| untraced.latency(&[c])),
        );
        drop(setup);
        let collector = Arc::new(SelfTimeCollector::new());
        let setup = sj_obs::with_collector(collector.clone(), || set_up(mix, seed))?;
        let setup_summary = collector.summary();
        let collector = Arc::new(SelfTimeCollector::new());
        let traced =
            sj_obs::with_collector(collector.clone(), || timed_phase(&setup, seconds, true));
        let summary = collector.summary();
        failed += traced.failed() + check_answers(&setup, &[&traced])?;
        crate::progress("traced timed phase and answer check");
        attempted += traced.attempted();
        let (before, after) = &traced.stats;
        let queries = (after.queries - before.queries).max(1) as f64;
        let op_ms: f64 = traced.logs.iter().map(|l| l.busy_ms).sum();
        let covered_ms =
            summary.get("server.dispatch").total_ms() + summary.get("server.write").total_ms();
        layers::put(
            &mut metrics,
            &LayerInputs {
                setup: &setup_summary,
                timed: &summary,
                ops: traced.ops() as f64,
                result_rows: traced.logs.iter().map(|l| l.executed_rows).sum::<u64>() as f64,
                cpu_util: untraced.cpu_s / untraced.wall_s,
                overhead_pct: (untraced.throughput() / traced.throughput() - 1.0) * 100.0,
                coverage: (covered_ms / op_ms).min(1.0),
                setjoin_select_us: 0.0,
                max_q_error: after.max_q_error_seen.unwrap_or(1.0),
                server: Some(ServerLayer {
                    result_hit_rate: (after.result_hits - before.result_hits) as f64 / queries,
                    plan_hit_rate: (after.plan_hits - before.plan_hits) as f64 / queries,
                    rejected: (after.rejected - before.rejected) as f64,
                }),
                error_rate: failed as f64 / attempted.max(1) as f64,
            },
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
