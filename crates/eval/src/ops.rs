//! Unary physical operators and the condition helpers the binary
//! kernels share.
//!
//! Each unary operator of the paper's algebra (Definitions 1 and 2, plus
//! the Section 5 grouping extension) has one function here. The binary
//! operators — joins and semijoins — live in [`crate::kernel`], one
//! kernel each.
//!
//! [`select`] scans each column chunk ([`sj_storage::Chunk`], default
//! [`DEFAULT_CHUNK_ROWS`] rows) with a dense typed loop, collecting a
//! **selection vector** of surviving row indices, and only then gathers
//! the surviving tuples — the output is a subsequence of the canonical
//! order, so no re-sort is needed. The chunk size is
//! [`DEFAULT_CHUNK_ROWS`] unless the `SETJOINS_TEST_CHUNK` environment
//! variable overrides it (mirroring `SETJOINS_TEST_THREADS`; CI runs the
//! test suite at chunk sizes 1 and 3 to stress chunk-boundary
//! arithmetic); [`select_chunked`] takes it explicitly for tests.
//!
//! All functions assume the expressions were validated (column references
//! in range); they index slices directly.

use sj_algebra::{CompOp, Condition, Selection};
use sj_storage::{
    ensure_u32_indexable, Chunk, ColSlice, Columns, FxHashMap, Relation, Tuple, Value,
    DEFAULT_CHUNK_ROWS,
};
use std::sync::OnceLock;

/// `π_{cols}(r)` — 1-based columns, may repeat and reorder (Definition 1(3)).
pub fn project(r: &Relation, cols: &[usize]) -> Relation {
    let zero_based: Vec<usize> = cols.iter().map(|c| c - 1).collect();
    Relation::from_tuples(cols.len(), r.iter().map(|t| t.project(&zero_based)))
        .expect("projection preserves arity")
}

/// The chunk size in effect for this process: `SETJOINS_TEST_CHUNK` when
/// set to a positive integer, [`DEFAULT_CHUNK_ROWS`] otherwise. Read
/// once and cached.
pub fn effective_chunk_rows() -> usize {
    static CHUNK: OnceLock<usize> = OnceLock::new();
    *CHUNK.get_or_init(|| {
        std::env::var("SETJOINS_TEST_CHUNK")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_CHUNK_ROWS)
    })
}

/// `σ(r)` for the three selection forms (Definition 1(4) + derived
/// σᵢ₌c): chunked selection with selection vectors.
pub fn select(r: &Relation, sel: &Selection) -> Relation {
    select_chunked(r, sel, effective_chunk_rows())
}

/// [`select`] with an explicit chunk size.
pub fn select_chunked(r: &Relation, sel: &Selection, chunk_rows: usize) -> Relation {
    ensure_u32_indexable(r.len()).expect("selection operand too large for u32 row indices");
    let cols = r.columns();
    let mut keep: Vec<u32> = Vec::new();
    for chunk in cols.chunks(chunk_rows) {
        match sel {
            Selection::Eq(i, j) => sel_eq(cols, chunk, *i - 1, *j - 1, &mut keep),
            Selection::Lt(i, j) => sel_lt(cols, chunk, *i - 1, *j - 1, &mut keep),
            Selection::EqConst(i, c) => sel_eq_const(chunk, *i - 1, c, &mut keep),
        }
    }
    crate::kernel::gather(r, keep)
}

/// Selection vector for `σ_{i=j}` over one chunk.
fn sel_eq(cols: &Columns, chunk: Chunk<'_>, i: usize, j: usize, keep: &mut Vec<u32>) {
    let base = chunk.start() as u32;
    match (chunk.col(i), chunk.col(j)) {
        (ColSlice::Int(a), ColSlice::Int(b)) => {
            for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
                if x == y {
                    keep.push(base + k as u32);
                }
            }
        }
        // Same relation ⇒ same dictionary: code equality is string equality.
        (ColSlice::Str { codes: a, .. }, ColSlice::Str { codes: b, .. }) => {
            for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
                if x == y {
                    keep.push(base + k as u32);
                }
            }
        }
        // An all-integer column never equals an all-string column.
        (ColSlice::Int(_), ColSlice::Str { .. }) | (ColSlice::Str { .. }, ColSlice::Int(_)) => {}
        _ => {
            for k in 0..chunk.len() {
                let row = chunk.start() + k;
                if cols.cell_eq(i, row, cols, j, row) {
                    keep.push(base + k as u32);
                }
            }
        }
    }
}

/// Selection vector for `σ_{i<j}` over one chunk.
fn sel_lt(cols: &Columns, chunk: Chunk<'_>, i: usize, j: usize, keep: &mut Vec<u32>) {
    let base = chunk.start() as u32;
    match (chunk.col(i), chunk.col(j)) {
        (ColSlice::Int(a), ColSlice::Int(b)) => {
            for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
                if x < y {
                    keep.push(base + k as u32);
                }
            }
        }
        // Same dictionary: code order is string order.
        (ColSlice::Str { codes: a, .. }, ColSlice::Str { codes: b, .. }) => {
            for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
                if x < y {
                    keep.push(base + k as u32);
                }
            }
        }
        // Every integer sorts before every string, and never after.
        (ColSlice::Int(_), ColSlice::Str { .. }) => {
            keep.extend((0..chunk.len() as u32).map(|k| base + k));
        }
        (ColSlice::Str { .. }, ColSlice::Int(_)) => {}
        _ => {
            for k in 0..chunk.len() {
                let row = chunk.start() + k;
                if cols.cell_cmp(i, row, cols, j, row) == std::cmp::Ordering::Less {
                    keep.push(base + k as u32);
                }
            }
        }
    }
}

/// Selection vector for `σ_{i=c}` over one chunk.
fn sel_eq_const(chunk: Chunk<'_>, i: usize, c: &Value, keep: &mut Vec<u32>) {
    let base = chunk.start() as u32;
    match (chunk.col(i), c) {
        (ColSlice::Int(v), Value::Int(x)) => {
            for (k, &val) in v.iter().enumerate() {
                if val == *x {
                    keep.push(base + k as u32);
                }
            }
        }
        (ColSlice::Str { codes, dict }, Value::Str(s)) => {
            // One dictionary lookup, then a dense code scan; a constant
            // absent from the dictionary matches nothing.
            if let Some(code) = dict.code_of(s) {
                for (k, &cd) in codes.iter().enumerate() {
                    if cd == code {
                        keep.push(base + k as u32);
                    }
                }
            }
        }
        (ColSlice::Mixed(v), c) => {
            for (k, val) in v.iter().enumerate() {
                if val == c {
                    keep.push(base + k as u32);
                }
            }
        }
        // Typed column vs other-variant constant: no row can match.
        (ColSlice::Int(_), Value::Str(_)) | (ColSlice::Str { .. }, Value::Int(_)) => {}
    }
}

/// `τ_c(r)` — append the constant to every tuple (Definition 1(5)).
pub fn const_tag(r: &Relation, c: &Value) -> Relation {
    Relation::from_tuples(r.arity() + 1, r.iter().map(|t| t.tag(c.clone())))
        .expect("tagging increments arity")
}

/// Split a condition into its equality part (as 0-based `(left, right)`
/// column pairs) and the residual non-equality atoms.
pub(crate) fn split_condition(theta: &Condition) -> (Vec<(usize, usize)>, Condition) {
    let eq: Vec<(usize, usize)> = theta
        .atoms()
        .iter()
        .filter(|a| a.op == CompOp::Eq)
        .map(|a| (a.left - 1, a.right - 1))
        .collect();
    let residual = Condition::new(theta.atoms().iter().filter(|a| a.op != CompOp::Eq).copied());
    (eq, residual)
}

/// The kernel [`crate::kernel::join`] runs for θ, by name — the single source
/// of truth for instrumentation reports (the planner's merge variants are
/// chosen a level above, in `plan`).
pub fn join_dispatch(theta: &Condition) -> &'static str {
    if split_condition(theta).0.is_empty() {
        "nested-loop-join"
    } else {
        "hash-join"
    }
}

/// The kernel [`crate::kernel::semijoin`] runs for θ, by name.
pub fn semijoin_dispatch(theta: &Condition) -> &'static str {
    if split_condition(theta).0.is_empty() {
        "nested-loop-semijoin"
    } else {
        "hash-semijoin"
    }
}

/// The length `k` of the shared sort-key prefix when θ's equality atoms
/// pair the first `k` columns of both operands **in order** — i.e. the
/// deduplicated equality pairs are exactly `{1=1, 2=2, …, k=k}` (1-based).
///
/// Relations are stored in canonical (lexicographic) order, so both
/// operands of such a condition are already sorted by their key: the
/// planner in [`crate::plan`] can then run [`crate::kernel::merge_join`] /
/// [`crate::kernel::merge_semijoin`] without any sort or hash-table build. Returns `None`
/// when θ has no equality atom or the equalities are not an aligned
/// prefix.
pub fn merge_prefix_len(theta: &Condition) -> Option<usize> {
    let (mut eq, _) = split_condition(theta);
    if eq.is_empty() {
        return None;
    }
    eq.sort_unstable();
    eq.dedup();
    for (i, &(l, r)) in eq.iter().enumerate() {
        if l != i || r != i {
            return None;
        }
    }
    Some(eq.len())
}

/// `γ_{cols; count}(r)` — group by the 1-based `cols` and append the group
/// cardinality as an integer (Section 5). With `cols` empty the result is a
/// single `(count,)` tuple — `{(0,)}` for an empty input, matching SQL's
/// `COUNT(*)` on an empty table.
pub fn group_count(r: &Relation, cols: &[usize]) -> Relation {
    let zero_based: Vec<usize> = cols.iter().map(|c| c - 1).collect();
    let mut groups: FxHashMap<Vec<Value>, i64> = FxHashMap::default();
    for t in r {
        let key: Vec<Value> = zero_based.iter().map(|&c| t[c].clone()).collect();
        *groups.entry(key).or_insert(0) += 1;
    }
    if cols.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), 0);
    }
    Relation::from_tuples(
        cols.len() + 1,
        groups.into_iter().map(|(mut key, n)| {
            key.push(Value::int(n));
            Tuple::new(key)
        }),
    )
    .expect("group_count arity is k+1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_reference;
    use sj_algebra::Expr;
    use sj_storage::{tuple, Database};

    fn r(rows: &[&[i64]]) -> Relation {
        Relation::from_int_rows(rows)
    }

    #[test]
    fn project_reorders_and_dedups() {
        let a = r(&[&[1, 2], &[3, 2]]);
        assert_eq!(project(&a, &[2]), r(&[&[2]])); // dedup: both rows map to (2)
        assert_eq!(project(&a, &[2, 1]), r(&[&[2, 1], &[2, 3]]));
        assert_eq!(project(&a, &[1, 1]), r(&[&[1, 1], &[3, 3]]));
    }

    #[test]
    fn select_forms() {
        let a = r(&[&[1, 1], &[1, 2], &[2, 1]]);
        assert_eq!(select(&a, &Selection::Eq(1, 2)), r(&[&[1, 1]]));
        assert_eq!(select(&a, &Selection::Lt(1, 2)), r(&[&[1, 2]]));
        assert_eq!(
            select(&a, &Selection::EqConst(1, Value::int(2))),
            r(&[&[2, 1]])
        );
        assert!(select_chunked(&Relation::empty(2), &Selection::Eq(1, 2), 4).is_empty());
    }

    /// Chunked selection equals the reference on int, string and mixed
    /// columns at every chunk size, including sizes straddling a chunk
    /// boundary.
    #[test]
    fn select_equals_reference_across_chunk_sizes() {
        let rows: Vec<Vec<i64>> = (0..50).map(|i| vec![i % 7, i % 3, i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mixed = Relation::from_tuples(
            3,
            vec![tuple![1, 1, 0], tuple![1, "x", 0], tuple!["x", "x", 0]],
        )
        .unwrap();
        let strings =
            Relation::from_str_rows(&[&["a", "a", "b"], &["a", "b", "b"], &["b", "b", "a"]]);
        for rel in [r(&refs), mixed, strings] {
            let mut db = Database::new();
            db.set("R", rel.clone());
            for sel in [
                Selection::Eq(1, 2),
                Selection::Lt(1, 2),
                Selection::Lt(2, 1),
                Selection::EqConst(1, Value::int(3)),
                Selection::EqConst(1, Value::int(99)),
                Selection::EqConst(1, Value::str("x")),
                Selection::EqConst(2, Value::str("b")),
            ] {
                let want =
                    evaluate_reference(&Expr::Select(sel.clone(), Box::new(Expr::rel("R"))), &db)
                        .unwrap();
                for chunk in [1usize, 2, 3, 7, 49, 50, 51, DEFAULT_CHUNK_ROWS] {
                    assert_eq!(select_chunked(&rel, &sel, chunk), want, "{sel:?} @ {chunk}");
                }
            }
        }
    }

    #[test]
    fn const_tag_appends() {
        let a = r(&[&[1], &[2]]);
        assert_eq!(const_tag(&a, &Value::int(9)), r(&[&[1, 9], &[2, 9]]));
    }

    #[test]
    fn group_count_basic() {
        let a = r(&[&[1, 10], &[1, 20], &[2, 30]]);
        let g = group_count(&a, &[1]);
        assert_eq!(g, r(&[&[1, 2], &[2, 1]]));
    }

    #[test]
    fn group_count_global() {
        let a = r(&[&[1, 10], &[1, 20], &[2, 30]]);
        assert_eq!(group_count(&a, &[]), r(&[&[3]]));
        assert_eq!(group_count(&Relation::empty(2), &[]), r(&[&[0]]));
    }

    #[test]
    fn group_count_empty_input_with_groups() {
        assert_eq!(group_count(&Relation::empty(2), &[1]), Relation::empty(2));
    }

    #[test]
    fn merge_prefix_detection() {
        assert_eq!(merge_prefix_len(&Condition::eq(1, 1)), Some(1));
        assert_eq!(
            merge_prefix_len(&Condition::eq_pairs([(1, 1), (2, 2)])),
            Some(2)
        );
        // Order and duplicates of atoms don't matter.
        assert_eq!(
            merge_prefix_len(&Condition::eq_pairs([(2, 2), (1, 1), (1, 1)])),
            Some(2)
        );
        // A residual inequality atom doesn't block the equality prefix.
        assert_eq!(
            merge_prefix_len(&Condition::eq(1, 1).and(2, CompOp::Lt, 2)),
            Some(1)
        );
        // Not an aligned prefix:
        assert_eq!(merge_prefix_len(&Condition::eq(2, 1)), None);
        assert_eq!(
            merge_prefix_len(&Condition::eq_pairs([(1, 2), (2, 1)])),
            None
        );
        assert_eq!(merge_prefix_len(&Condition::eq_pairs([(2, 2)])), None);
        // A gap breaks the prefix: {1=1, 3=3} misses 2=2.
        assert_eq!(
            merge_prefix_len(&Condition::eq_pairs([(1, 1), (3, 3)])),
            None
        );
        assert_eq!(merge_prefix_len(&Condition::always()), None);
        assert_eq!(merge_prefix_len(&Condition::lt(1, 1)), None);
        // An extra equality atom off the diagonal poisons the whole set.
        assert_eq!(
            merge_prefix_len(&Condition::eq_pairs([(1, 1), (2, 1)])),
            None
        );
    }
}
