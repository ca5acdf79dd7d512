//! Reference-differential suite for the physical kernels: every binary
//! kernel of `sj_eval::kernel` — hash, nested-loop and merge join and
//! semijoin, and the multiway join — and the chunked selection of
//! `sj_eval::ops` must equal `evaluate_reference` (the paper's
//! semantics as nested loops) at every worker count, and the engine
//! must equal it end to end for every strategy × optimize level. Inputs
//! are random relations plus the shapes chunked and partitioned
//! execution find hardest: string and mixed-variant columns, skewed,
//! zipf-skewed and all-duplicate keys, empty sides, and relations sized
//! exactly at, one below and one above a chunk boundary.
//!
//! Chunk sizes under test are `{1, 3, default}` through
//! `ops::select_chunked`; CI additionally re-runs the suite with
//! `SETJOINS_TEST_CHUNK=1` and `=3`, which reroutes every engine-level
//! selection through degenerate chunking. The worker counts default to
//! `{1, 2, 4, 8}`; `SETJOINS_TEST_THREADS` narrows them exactly as in
//! `tests/parallel.rs`.

use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use setjoins::eval::{kernel, ops, MultiwayLeaf, MultiwaySpec, Parallelism, Strategy};
use setjoins::prelude::*;
use sj_algebra::{Atom, CompOp, Selection};
use sj_eval::evaluate_reference;
use sj_storage::DEFAULT_CHUNK_ROWS;

/// Chunk sizes the explicit `select_chunked` calls exercise: degenerate
/// (every row its own chunk), tiny-and-odd, and the production default.
const CHUNKS: [usize; 3] = [1, 3, DEFAULT_CHUNK_ROWS];

/// Worker counts under test.
fn worker_counts() -> Vec<usize> {
    match std::env::var("SETJOINS_TEST_THREADS") {
        Ok(s) => {
            let counts: Vec<usize> = s
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n >= 1)
                .collect();
            assert!(
                !counts.is_empty(),
                "SETJOINS_TEST_THREADS={s:?} has no usable counts"
            );
            counts
        }
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn pairs(rows: impl IntoIterator<Item = [i64; 2]>) -> Relation {
    Relation::from_tuples(2, rows.into_iter().map(|r| Tuple::from_ints(&r))).unwrap()
}

/// `n` rows with repeated keys and a value pattern that makes every
/// predicate under test partially selective.
fn sized(n: usize) -> Relation {
    pairs((0..n as i64).map(|i| [i % 97, i % 13]))
}

/// Chunk-boundary sizes relative to `chunk`: 0, 1, chunk−1, chunk,
/// chunk+1 (deduplicated for tiny chunks).
fn boundary_sizes(chunk: usize) -> Vec<usize> {
    let mut v = vec![0, 1, chunk.saturating_sub(1), chunk, chunk + 1];
    v.sort_unstable();
    v.dedup();
    v
}

/// Input pairs covering typed columns (int, string, mixed) and the
/// adversarial shapes of the parallel suite.
fn operand_pairs() -> Vec<(String, Relation, Relation)> {
    let mut out: Vec<(String, Relation, Relation)> = vec![
        (
            "strings".into(),
            Relation::from_str_rows(&[
                &["an", "headache"],
                &["an", "sore throat"],
                &["bob", "headache"],
                &["bob", "memory loss"],
            ]),
            Relation::from_str_rows(&[
                &["flu", "headache"],
                &["flu", "sore throat"],
                &["lyme", "memory loss"],
            ]),
        ),
        (
            "mixed-variants".into(),
            Relation::from_tuples(
                2,
                vec![tuple![1, "x"], tuple![1, 7], tuple![2, "y"], tuple![3, 7]],
            )
            .unwrap(),
            Relation::from_tuples(2, vec![tuple![1, 7], tuple![2, "x"], tuple![9, "y"]]).unwrap(),
        ),
        (
            "skewed".into(),
            pairs((0..60).map(|i| [7, i])),
            pairs((0..40).map(|i| [i % 5, 7])),
        ),
        (
            // Harmonic key frequencies (rank-r key appears ~n/r times):
            // one partition carries most rows, the tail is singletons.
            "zipf-skewed".into(),
            pairs((0..120).map(|i| [120 / (i + 1), i % 11])),
            pairs((0..80).map(|i| [80 / (i + 1), i % 7])),
        ),
        (
            "all-duplicate".into(),
            pairs((0..50).map(|_| [3, 9])),
            pairs((0..30).map(|_| [3, 9])),
        ),
        ("empty-left".into(), Relation::empty(2), sized(20)),
        ("empty-right".into(), sized(20), Relation::empty(2)),
    ];
    for &chunk in &CHUNKS {
        for n in boundary_sizes(chunk) {
            out.push((
                format!("boundary-{n}-of-{chunk}"),
                sized(n),
                sized(n / 2 + 1),
            ));
        }
    }
    out
}

/// The database `{R: r, S: s}`.
fn db_of(r: &Relation, s: &Relation) -> Database {
    let mut db = Database::new();
    db.set("R", r.clone());
    db.set("S", s.clone());
    db
}

fn atom(left: usize, op: CompOp, right: usize) -> Atom {
    Atom { left, op, right }
}

/// θ shapes for the hash and nested-loop kernels: equality only, with
/// residual atoms, and with no equality atom at all.
fn thetas() -> Vec<Condition> {
    vec![
        Condition::eq(1, 1),
        Condition::eq(2, 2),
        Condition::eq(2, 1),
        Condition::eq(1, 1).and(2, CompOp::Lt, 2),
        Condition::eq(2, 1).and(1, CompOp::Neq, 2),
        Condition::lt(1, 1),
        Condition::new([atom(1, CompOp::Lt, 2), atom(2, CompOp::Neq, 1)]),
        Condition::always(),
    ]
}

/// `R ⋈θ S` and `R ⋉θ S` through the reference evaluator.
fn reference_joins(db: &Database, theta: &Condition) -> (Relation, Relation) {
    let join = Expr::rel("R").join(theta.clone(), Expr::rel("S"));
    let semi = Expr::rel("R").semijoin(theta.clone(), Expr::rel("S"));
    (
        evaluate_reference(&join, db).unwrap(),
        evaluate_reference(&semi, db).unwrap(),
    )
}

// ---------------------------------------------------------------------------
// Kernels against the reference
// ---------------------------------------------------------------------------

/// Chunked selection equals the reference at every chunk size, on every
/// predicate shape and operand — including sizes straddling each chunk
/// boundary.
#[test]
fn select_equals_reference() {
    let sels = [
        Selection::Eq(1, 2),
        Selection::Lt(1, 2),
        Selection::Lt(2, 1),
        Selection::EqConst(1, Value::int(7)),
        Selection::EqConst(2, Value::str("headache")),
        Selection::EqConst(2, Value::str("absent")),
    ];
    for (name, r, s) in operand_pairs() {
        for rel in [&r, &s] {
            let db = db_of(rel, rel);
            for sel in &sels {
                let e = Expr::Select(sel.clone(), Box::new(Expr::rel("R")));
                let want = evaluate_reference(&e, &db).unwrap();
                for &chunk in &CHUNKS {
                    assert_eq!(
                        ops::select_chunked(rel, sel, chunk),
                        want,
                        "select {sel:?} on {name} @chunk {chunk}"
                    );
                }
            }
        }
    }
}

/// Hash and nested-loop join/semijoin equal the reference at every
/// worker count, with and without residual atoms and with no equality
/// atom, across typed and mixed columns.
#[test]
fn hash_and_nested_loop_kernels_equal_reference() {
    for (name, r, s) in operand_pairs() {
        let db = db_of(&r, &s);
        for theta in &thetas() {
            let (want_join, want_semi) = reference_joins(&db, theta);
            for &n in &worker_counts() {
                assert_eq!(
                    kernel::join(&r, &s, theta, n).0,
                    want_join,
                    "join {theta} on {name} @{n}"
                );
                assert_eq!(
                    kernel::semijoin(&r, &s, theta, n).0,
                    want_semi,
                    "semijoin {theta} on {name} @{n}"
                );
            }
        }
    }
}

/// Merge join/semijoin on the canonical sort prefix (one and two key
/// columns, with and without a residual) equal the reference at every
/// worker count.
#[test]
fn merge_kernels_equal_reference() {
    let residuals = [
        Condition::always(),
        Condition::new([atom(2, CompOp::Lt, 2)]),
    ];
    for (name, r, s) in operand_pairs() {
        let db = db_of(&r, &s);
        for k in [1usize, 2] {
            for residual in &residuals {
                let theta = Condition::new(
                    Condition::eq_pairs((1..=k).map(|c| (c, c)))
                        .atoms()
                        .iter()
                        .chain(residual.atoms())
                        .copied(),
                );
                let (want_join, want_semi) = reference_joins(&db, &theta);
                for &n in &worker_counts() {
                    assert_eq!(
                        kernel::merge_join(&r, &s, k, residual, n).0,
                        want_join,
                        "merge join {theta} on {name} @{n}"
                    );
                    assert_eq!(
                        kernel::merge_semijoin(&r, &s, k, residual, n).0,
                        want_semi,
                        "merge semijoin {theta} on {name} @{n}"
                    );
                }
            }
        }
    }
}

/// The multiway kernel on a triangle `R(a,b) ⋈ S(b,c) ⋈ R(c,a)` equals
/// the reference pairwise chain at every worker count.
#[test]
fn multiway_kernel_equals_reference() {
    let spec = MultiwaySpec {
        cycle: (0..3)
            .map(|child| MultiwayLeaf {
                child,
                var_col: 0,
                next_col: 1,
            })
            .collect(),
    };
    let chain = Expr::rel("R")
        .join(Condition::eq(2, 1), Expr::rel("S"))
        .join(Condition::eq_pairs([(4, 1), (1, 2)]), Expr::rel("R"));
    for (name, r, s) in operand_pairs() {
        let want = evaluate_reference(&chain, &db_of(&r, &s)).unwrap();
        for &n in &worker_counts() {
            assert_eq!(
                kernel::multiway_join(&[&r, &s, &r], &spec, n).0,
                want,
                "triangle on {name} @{n}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Engine end to end
// ---------------------------------------------------------------------------

/// Queries exercising every kernel the planner and the naive evaluator
/// route to.
fn engine_queries() -> Vec<Expr> {
    vec![
        Expr::rel("R").select_eq(1, 2),
        Expr::rel("R").select_lt(1, 2),
        Expr::rel("R")
            .join(Condition::eq(1, 1), Expr::rel("S"))
            .project([1, 2]),
        Expr::rel("R")
            .join(Condition::eq(2, 1), Expr::rel("S"))
            .project([2, 1]),
        Expr::rel("R").semijoin(Condition::eq(1, 1), Expr::rel("S")),
        Expr::rel("R").semijoin(Condition::lt(1, 2), Expr::rel("S")),
        sj_algebra::division::division_double_difference("R", "T"),
        sj_algebra::division::division_counting("R", "T"),
    ]
}

/// Every strategy × optimize level × worker count equals the reference
/// evaluator, on a real workload and on every adversarial operand pair.
#[test]
fn engine_equals_reference() {
    use sj_workload::{DivisionWorkload, ElementDist, SetJoinWorkload, SetSizeDist};
    let workload_db = {
        let div = DivisionWorkload {
            groups: 150,
            divisor_size: 6,
            containment_fraction: 0.4,
            extra_per_group: 2,
            noise_domain: 48,
            seed: 0xD1FFE4E7,
        }
        .database();
        let (s, _) = SetJoinWorkload {
            r_groups: 80,
            s_groups: 80,
            set_size: SetSizeDist::Uniform(2, 6),
            domain: 32,
            elements: ElementDist::Uniform,
            seed: 0x5E7D1FF,
        }
        .generate();
        let mut db = Database::new();
        db.set("R", div.get("R").unwrap().clone());
        db.set("T", div.get("S").unwrap().clone());
        db.set("S", s);
        db
    };
    let mut dbs: Vec<(String, Database)> = vec![("division-workload".into(), workload_db)];
    for (name, r, s) in operand_pairs() {
        let mut db = db_of(&r, &s);
        db.set("T", Relation::from_int_rows(&[&[5], &[9]]));
        dbs.push((format!("operands-{name}"), db));
    }
    for (dbname, db) in &dbs {
        for e in engine_queries() {
            let want = evaluate_reference(&e, db).unwrap();
            for level in [OptimizeLevel::Off, OptimizeLevel::Full] {
                for strategy in [Strategy::Planned, Strategy::Naive] {
                    for &n in &worker_counts() {
                        let got = Engine::new(db.clone())
                            .optimize(level)
                            .strategy(strategy)
                            .parallelism(Parallelism::Threads(n))
                            .query(e.clone())
                            .run()
                            .unwrap()
                            .relation;
                        assert_eq!(got, want, "{dbname} {e} {strategy} {level:?} @{n} workers");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

fn arb_relation(arity: usize) -> impl PropStrategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(0i64..6, arity), 0..14).prop_map(
        move |rows| {
            Relation::from_tuples(arity, rows.into_iter().map(|r| Tuple::from_ints(&r))).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random relations and conditions: every kernel equals the
    /// reference at every worker count, and selection at every chunk
    /// size.
    #[test]
    fn kernels_equal_reference_on_random_relations(
        r in arb_relation(2),
        s in arb_relation(2),
        ti in 0usize..8,
    ) {
        let db = db_of(&r, &s);
        let theta = thetas()[ti].clone();
        let (want_join, want_semi) = reference_joins(&db, &theta);
        let (want_mj, want_ms) = reference_joins(&db, &Condition::eq(1, 1));
        let sel = Selection::Eq(1, 2);
        let want_sel = evaluate_reference(&Expr::rel("R").select_eq(1, 2), &db).unwrap();
        for &n in &worker_counts() {
            prop_assert_eq!(&kernel::join(&r, &s, &theta, n).0, &want_join, "join @{}", n);
            prop_assert_eq!(&kernel::semijoin(&r, &s, &theta, n).0, &want_semi, "semijoin @{}", n);
            let always = Condition::always();
            prop_assert_eq!(&kernel::merge_join(&r, &s, 1, &always, n).0, &want_mj);
            prop_assert_eq!(&kernel::merge_semijoin(&r, &s, 1, &always, n).0, &want_ms);
        }
        for &chunk in &CHUNKS {
            prop_assert_eq!(&ops::select_chunked(&r, &sel, chunk), &want_sel, "select chunk {}", chunk);
        }
    }
}
