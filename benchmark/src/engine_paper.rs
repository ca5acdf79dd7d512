//! `engine-paper`: one caller runs a closed loop, in seeded shuffled
//! order, over the paper's query families on a directly configured
//! [`Engine`].

use crate::collector::SelfTimeCollector;
use crate::common::{
    cpu_seconds, median, ms_since, peak_rss_mib, sub_seed, Fingerprint, Metrics, Outcome, Part,
    WindowMedians, PARTS,
};
use crate::layers::{self, LayerInputs};
use sj_algebra::{division, Condition, Expr, OptimizeLevel};
use sj_eval::{
    AlgorithmChoice, Engine, Execution, Instrument, JoinOrder, Parallelism, PhysicalPlan,
    StatsMode, Strategy,
};
use sj_setjoin::{DivisionSemantics, Registry, SetPredicate};
use sj_stats::{CatalogSource, CostModel};
use sj_storage::{Database, Relation, Tuple};
use sj_workload::{
    CyclicWorkload, DivisionWorkload, EdgeDist, ElementDist, SetJoinWorkload, SetSizeDist,
    SplitMix64,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Query families, one latency metric each.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    DivisionOp,
    SetJoin,
    DivisionPlan,
    Semijoin,
    Join,
}

impl Family {
    pub const ALL: [Family; 5] = [
        Family::DivisionOp,
        Family::SetJoin,
        Family::DivisionPlan,
        Family::Semijoin,
        Family::Join,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Family::DivisionOp => "division_op_p50_ms",
            Family::SetJoin => "setjoin_p50_ms",
            Family::DivisionPlan => "division_plan_p50_ms",
            Family::Semijoin => "semijoin_p50_ms",
            Family::Join => "join_p50_ms",
        }
    }
}

/// The engine configuration every `engine-paper` operation runs under,
/// with each option set explicitly.
fn configured_engine(db: Database) -> Engine {
    Engine::new(db)
        .optimize(OptimizeLevel::Full)
        .strategy(Strategy::Planned)
        .instrument(Instrument::Off)
        .algorithm(AlgorithmChoice::Auto)
        .registry(Registry::standard_shared())
        .cost_model(CostModel::default())
        .stats(StatsMode::Cached)
        .join_order(JoinOrder::Dp)
        .parallelism(PARALLELISM)
        .execution(Execution::Vectorized)
}

/// Serial, because on two shared vCPUs a partition fan-out waits for
/// whichever vCPU the host serves last: with `Threads(2)` the timings
/// followed the host's load rather than the program (see `README.md`).
const PARALLELISM: Parallelism = Parallelism::Serial;

/// The cache-free, statistics-free, as-written, serial engine that
/// computes expected answers where the reference evaluator would take
/// too long, and checks the served answers.
pub fn checking_engine(db: Database) -> Engine {
    Engine::new(db)
        .optimize(OptimizeLevel::Off)
        .strategy(Strategy::Planned)
        .instrument(Instrument::Off)
        .stats(StatsMode::Off)
        .join_order(JoinOrder::AsWritten)
        .parallelism(Parallelism::Serial)
        .execution(Execution::Vectorized)
}

enum Kind {
    /// `R ÷ S` through `Engine::divide`.
    Divide(DivisionSemantics),
    /// `left ⋈⊇ right` through `Engine::set_join`.
    SetJoin(&'static str, &'static str),
    /// An expression through `Query::run`.
    Query(Expr),
}

/// One operation of the loop: which database it reads and what it runs.
struct Op {
    label: &'static str,
    family: Family,
    db: usize,
    kind: Kind,
}

/// The generated databases, in `Op::db` order.
struct Inputs {
    dbs: Vec<Database>,
    /// The division generator's own containment quotient for `dbs[0]`.
    division_quotient: Relation,
}

impl Inputs {
    /// Every relation's fingerprint, in database and name order.
    fn fingerprint(&self) -> Vec<Fingerprint> {
        self.dbs
            .iter()
            .flat_map(|db| db.iter().map(|(_, rel)| Fingerprint::of(rel)))
            .collect()
    }
}

const DIVISION_DB: usize = 0;
const PLAN_DB: usize = 3;

fn generate(seed: u64) -> Inputs {
    let division = DivisionWorkload {
        groups: 16_384,
        divisor_size: 128,
        containment_fraction: 0.1,
        extra_per_group: 4,
        noise_domain: 4 * 16_384,
        seed: sub_seed(seed, 1),
    };
    let (r, s, division_quotient) = division.generate();
    let division_db = Database::from_relations([("R", r), ("S", s)]);
    let set_join_db = |elements, tag| {
        let (r, s) = SetJoinWorkload {
            r_groups: 2048,
            s_groups: 2048,
            set_size: SetSizeDist::Uniform(2, 10),
            domain: 64,
            elements,
            seed: sub_seed(seed, tag),
        }
        .generate();
        Database::from_relations([("R", r), ("S", s)])
    };
    let plan_db = DivisionWorkload {
        groups: 1024,
        divisor_size: 32,
        containment_fraction: 0.1,
        extra_per_group: 4,
        noise_domain: 4 * 1024,
        seed: sub_seed(seed, 4),
    }
    .database();
    let triangle_db = CyclicWorkload {
        cycle_len: 3,
        edges_per_table: 4096,
        vertices: 1024,
        edges: EdgeDist::Zipf(1.2),
        seed: sub_seed(seed, 7),
    }
    .database();
    Inputs {
        dbs: vec![
            division_db,
            set_join_db(ElementDist::Uniform, 2),
            set_join_db(ElementDist::Zipf(1.0), 3),
            plan_db,
            sj_bench::beer_database(4096, sub_seed(seed, 5)),
            chain_database(sub_seed(seed, 6)),
            triangle_db,
        ],
        division_quotient,
    }
}

/// The badly-written chain's database: `R` has 50k rows whose first
/// column takes 50 values, `S` 500 rows whose second column takes 3, and
/// `T` 3 rows, so `R ⋈ S` as written is large and `S ⋈ T` is tiny.
fn chain_database(seed: u64) -> Database {
    let mut rng = SplitMix64::new(seed);
    let r: Vec<Tuple> = (0..50_000i64)
        .map(|i| Tuple::from_ints(&[rng.below(50) as i64, i]))
        .collect();
    let s: Vec<Tuple> = (0..500i64)
        .map(|i| Tuple::from_ints(&[i, rng.below(3) as i64]))
        .collect();
    let t = (0..3i64).map(|i| Tuple::from_ints(&[i, i]));
    Database::from_relations([
        ("R", Relation::from_tuples(2, r).expect("binary rows")),
        ("S", Relation::from_tuples(2, s).expect("binary rows")),
        ("T", Relation::from_tuples(2, t).expect("binary rows")),
    ])
}

fn chain_query() -> Expr {
    Expr::rel("R")
        .join(Condition::eq(1, 2), Expr::rel("S"))
        .join(Condition::eq(3, 1), Expr::rel("T"))
}

fn operations() -> Vec<Op> {
    let triangle = CyclicWorkload {
        cycle_len: 3,
        ..CyclicWorkload::default()
    }
    .query();
    let op = |label, family, db, kind| Op {
        label,
        family,
        db,
        kind,
    };
    vec![
        op(
            "divide-containment",
            Family::DivisionOp,
            DIVISION_DB,
            Kind::Divide(DivisionSemantics::Containment),
        ),
        op(
            "divide-equality",
            Family::DivisionOp,
            DIVISION_DB,
            Kind::Divide(DivisionSemantics::Equality),
        ),
        op(
            "set-join-uniform",
            Family::SetJoin,
            1,
            Kind::SetJoin("R", "S"),
        ),
        op("set-join-zipf", Family::SetJoin, 2, Kind::SetJoin("R", "S")),
        op(
            "division-double-difference",
            Family::DivisionPlan,
            PLAN_DB,
            Kind::Query(division::division_double_difference("R", "S")),
        ),
        op(
            "division-equality",
            Family::DivisionPlan,
            PLAN_DB,
            Kind::Query(division::division_equality("R", "S")),
        ),
        op(
            "division-counting",
            Family::DivisionPlan,
            PLAN_DB,
            Kind::Query(division::division_counting("R", "S")),
        ),
        op(
            "lousy-bar-sa",
            Family::Semijoin,
            4,
            Kind::Query(division::example3_lousy_bar_sa()),
        ),
        op(
            "chain-badly-written",
            Family::Join,
            5,
            Kind::Query(chain_query()),
        ),
        op("triangle-zipf", Family::Join, 6, Kind::Query(triangle)),
    ]
}

/// Run one operation through the public entry points `Query::run`,
/// `Engine::divide` and `Engine::set_join`.
fn run_op(engine: &Engine, op: &Op) -> Result<Relation, String> {
    let out = match &op.kind {
        Kind::Divide(sem) => engine.divide("R", "S", *sem).map(|o| o.relation),
        Kind::SetJoin(left, right) => engine
            .set_join(left, right, SetPredicate::Contains)
            .map(|o| o.relation),
        Kind::Query(e) => engine.query(e.clone()).run().map(|o| o.relation),
    };
    out.map_err(|e| format!("{}: {e}", op.label))
}

/// The traced form of [`run_op`]: a query runs the three steps
/// `Query::run` composes, each under its own benchmark span, and a set
/// operator call runs under a span whose self time is the algorithm
/// selection around the program's own `setjoin.*` span.
fn run_op_traced(engine: &Engine, op: &Op) -> Result<Relation, String> {
    let _op = sj_obs::span!("bench.op");
    match &op.kind {
        Kind::Divide(_) | Kind::SetJoin(..) => {
            let _call = sj_obs::span!("setjoin.call");
            run_op(engine, op)
        }
        Kind::Query(e) => {
            let err = |e: sj_eval::EvalError| format!("{}: {e}", op.label);
            let optimized = {
                let _s = sj_obs::span!("algebra.optimize");
                engine.query(e.clone()).optimized().map_err(err)?
            };
            let plan = {
                let _s = sj_obs::span!("eval.plan");
                let db = engine.db();
                let source = CatalogSource::new(engine.catalog(), db);
                PhysicalPlan::of_costed_with_order(
                    &optimized,
                    &db.schema(),
                    &source,
                    engine.cost_model_ref(),
                    engine.join_order_mode(),
                )
                .map_err(err)?
            };
            let _s = sj_obs::span!("eval.execute");
            plan.execute_with_execution(engine.db(), PARALLELISM, engine.execution_mode())
                .map_err(err)
        }
    }
}

/// Everything one set-up builds.
struct Setup {
    inputs: Inputs,
    engines: Vec<Engine>,
    seconds: f64,
}

/// Generate, build the engines, ANALYZE every relation into the
/// engines' statistics catalogs, and warm up with one run of each
/// operation.
fn set_up(seed: u64, ops: &[Op]) -> Result<Setup, String> {
    let start = Instant::now();
    let inputs = generate(seed);
    let engines: Vec<Engine> = inputs.dbs.iter().cloned().map(configured_engine).collect();
    for engine in &engines {
        let _s = sj_obs::span!("stats.analyze");
        for name in engine.db().names() {
            engine.catalog().stats_for(engine.db(), name);
        }
    }
    for op in ops {
        run_op(&engines[op.db], op)?;
    }
    Ok(Setup {
        inputs,
        engines,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// The expected answer of `op` on `db`, computed outside every timed
/// window: the reference evaluator where it finishes in seconds,
/// otherwise a second strategy the differential suites pin to it (the
/// `sort-merge` division, the `nested-loop` set join, the as-written
/// join order).
fn expected_answer(db: &Database, op: &Op) -> Result<Relation, String> {
    let err = |e: sj_eval::EvalError| e.to_string();
    Ok(match &op.kind {
        Kind::Divide(sem) => {
            checking_engine(db.clone())
                .algorithm(AlgorithmChoice::named("sort-merge"))
                .divide("R", "S", *sem)
                .map_err(err)?
                .relation
        }
        Kind::SetJoin(left, right) => sj_setjoin::nested_loop_set_join(
            db.get(left).ok_or("missing set-join operand")?,
            db.get(right).ok_or("missing set-join operand")?,
            SetPredicate::Contains,
        ),
        Kind::Query(e) if op.family == Family::Join => {
            checking_engine(db.clone())
                .query(e.clone())
                .run()
                .map_err(err)?
                .relation
        }
        Kind::Query(e) => sj_eval::evaluate_reference(e, db).map_err(err)?,
    })
}

/// Expected answers of every operation (see [`expected_answer`]); the
/// containment division must also equal the generator's quotient.
fn expected_answers(inputs: &Inputs, ops: &[Op]) -> Result<Vec<Fingerprint>, String> {
    ops.iter()
        .map(|op| {
            let rel = expected_answer(&inputs.dbs[op.db], op)?;
            if op.label == "divide-containment" && rel != inputs.division_quotient {
                return Err("sort-merge division disagrees with the generator".into());
            }
            Ok(Fingerprint::of(&rel))
        })
        .collect()
}

/// One timed closed loop: per-operation latencies, answers, failures,
/// and the busy time the throughput is taken over.
#[derive(Default)]
struct Phase {
    /// Latencies of the completed operations, in `operations()` order.
    by_op: Vec<Vec<f64>>,
    /// The phase split into equal shares of its busy time.
    parts: [Part; PARTS],
    windows: WindowMedians,
    /// How often each `(operation, answer)` pair came back; checked
    /// after the phase.
    answers: HashMap<(usize, Fingerprint), u64>,
    failed: u64,
    busy_ms: f64,
    query_result_rows: u64,
    wall_s: f64,
    cpu_s: f64,
}

impl Phase {
    fn completed(&self) -> u64 {
        self.by_op.iter().map(|v| v.len() as u64).sum()
    }

    fn throughput(&self) -> f64 {
        self.completed() as f64 / (self.busy_ms / 1e3)
    }

    /// Operations whose answer differs from the expected one.
    fn wrong(&self, ops: &[Op], expected: &[Fingerprint]) -> u64 {
        let mut wrong = 0;
        for (&(i, fp), &n) in &self.answers {
            if fp != expected[i] {
                eprintln!("wrong answer: {}", ops[i].label);
                wrong += n;
            }
        }
        wrong
    }
}

fn timed_loop(setup: &Setup, ops: &[Op], seed: u64, seconds: f64, traced: bool) -> Phase {
    let mut rng = SplitMix64::new(sub_seed(seed, 100 + traced as u64));
    let mut order: Vec<usize> = (0..ops.len()).collect();
    let mut phase = Phase {
        by_op: vec![Vec::new(); ops.len()],
        ..Phase::default()
    };
    let (wall, cpu) = (Instant::now(), cpu_seconds());
    while phase.busy_ms < seconds * 1e3 {
        rng.shuffle(&mut order);
        for &i in &order {
            let op = &ops[i];
            let engine = &setup.engines[op.db];
            let start = Instant::now();
            let out = if traced {
                run_op_traced(engine, op)
            } else {
                run_op(engine, op)
            };
            let ms = ms_since(start);
            let share = phase.busy_ms / (seconds * 1e3);
            let part = &mut phase.parts[((share * PARTS as f64) as usize).min(PARTS - 1)];
            part.busy_ms += ms;
            phase.busy_ms += ms;
            match out {
                Ok(rel) => {
                    phase.by_op[i].push(ms);
                    part.latency.record(ms);
                    phase.windows.record(share, ms);
                    *phase.answers.entry((i, Fingerprint::of(&rel))).or_default() += 1;
                    if matches!(op.kind, Kind::Query(_)) {
                        phase.query_result_rows += rel.len() as u64;
                    }
                }
                Err(e) => {
                    eprintln!("failed: {e}");
                    phase.failed += 1;
                }
            }
        }
    }
    phase.windows.finish();
    phase.wall_s = wall.elapsed().as_secs_f64();
    phase.cpu_s = cpu_seconds() - cpu;
    phase
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let ops = operations();
    let mut setups = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..crate::SETUP_REPEATS {
        // Keep only a fingerprint of the previous set-up's inputs, so
        // peak memory is one set-up's.
        let previous = last.take().map(|p| p.inputs.fingerprint());
        let setup = set_up(seed, &ops)?;
        if previous.is_some_and(|p| p != setup.inputs.fingerprint()) {
            return Err("two generations from one seed differ".into());
        }
        setups.push(setup.seconds);
        last = Some(setup);
    }
    let setup = last.expect("at least one set-up");
    crate::progress("set-ups");
    let untraced = timed_loop(&setup, &ops, seed, seconds, false);
    let peak_rss = peak_rss_mib();
    crate::progress("untraced timed phase");
    let expected = expected_answers(&setup.inputs, &ops)?;
    crate::progress("expected answers");
    let mut metrics = Metrics::default();
    let mut attempted = untraced.completed() + untraced.failed;
    let mut failed = untraced.failed + untraced.wrong(&ops, &expected);
    if !trace {
        crate::put_common(
            &mut metrics,
            median(&setups),
            std::slice::from_ref(&untraced.parts),
            &untraced.windows.medians,
            peak_rss,
        );
    } else {
        let per_op: Vec<(Family, f64)> = ops
            .iter()
            .zip(&untraced.by_op)
            .map(|(op, v)| (op.family, median(v)))
            .collect();
        layers::put_families(&mut metrics, &per_op);
        // No served traffic: the engine has no cache tiers.
        layers::put_tiers(&mut metrics, Default::default());
        drop(setup);
        let collector = Arc::new(SelfTimeCollector::new());
        let setup = sj_obs::with_collector(collector.clone(), || set_up(seed, &ops))?;
        let setup_summary = collector.summary();
        let collector = Arc::new(SelfTimeCollector::new());
        let traced = sj_obs::with_collector(collector.clone(), || {
            timed_loop(&setup, &ops, seed, seconds, true)
        });
        let summary = collector.summary();
        attempted += traced.completed() + traced.failed;
        failed += traced.failed + traced.wrong(&ops, &expected) + steps_agree(&setup, &ops)?;
        crate::progress("traced timed phase");
        let ops_n = traced.completed() as f64;
        let bench_op = summary.get("bench.op");
        let calls = summary.get("setjoin.call");
        layers::put(
            &mut metrics,
            &LayerInputs {
                setup: &setup_summary,
                timed: &summary,
                ops: ops_n,
                result_rows: traced.query_result_rows as f64,
                cpu_util: untraced.cpu_s / untraced.wall_s,
                overhead_pct: (untraced.throughput() / traced.throughput() - 1.0) * 100.0,
                coverage: 1.0 - bench_op.self_ms() / bench_op.total_ms(),
                setjoin_select_us: calls.self_ms() * 1e3 / calls.count.max(1) as f64,
                max_q_error: max_q_error(&setup, &ops)?,
                server: None,
                error_rate: failed as f64 / attempted as f64,
            },
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Check, outside the timed windows, that the traced step-by-step path
/// returns exactly what `Query::run` returns; the count of mismatches.
fn steps_agree(setup: &Setup, ops: &[Op]) -> Result<u64, String> {
    let mut mismatches = 0;
    for op in ops.iter().filter(|op| matches!(op.kind, Kind::Query(_))) {
        let engine = &setup.engines[op.db];
        if run_op_traced(engine, op)? != run_op(engine, op)? {
            eprintln!("traced steps disagree with Query::run: {}", op.label);
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// The largest estimated-vs-actual q-error over the planned families'
/// plans, from one instrumented run each.
fn max_q_error(setup: &Setup, ops: &[Op]) -> Result<f64, String> {
    let mut worst: f64 = 0.0;
    for op in ops {
        if let Kind::Query(e) = &op.kind {
            let engine = setup.engines[op.db]
                .clone()
                .instrument(Instrument::Cardinalities);
            let out = engine.query(e.clone()).run().map_err(|e| e.to_string())?;
            let q = out
                .report
                .as_ref()
                .and_then(|r| r.as_planned())
                .and_then(|p| p.max_q_error())
                .unwrap_or(1.0);
            worst = worst.max(q);
        }
    }
    Ok(worst)
}
