//! The binary physical operators: exactly one kernel per operator.
//!
//! Hash join, hash semijoin, merge join, merge semijoin, nested-loop
//! join and nested-loop semijoin are each written once, over **index
//! views** — ascending lists of row indices into the shared operands.
//! The hash kernels compute key hashes column at a time through the
//! gather views of [`ColsView`] ([`sj_storage::ColGather`]: a dense
//! `vals[idx[i]]` loop per typed column, so no `Value` is cloned or
//! boxed on either side of the hash table) and confirm hash-paired rows
//! with exact cell comparisons ([`ColsView::cell_eq`]). The merge
//! kernels compare key prefixes through [`ColsView::cell_cmp`] (an
//! `i64` or dictionary-code compare on typed columns). A condition with
//! no equality atom runs the nested-loop kernel: there is nothing to
//! hash in a cartesian filter.
//!
//! The worker count only decides how the index views are cut:
//!
//! * `workers ≤ 1` — one partition over the identity view `0..len` of
//!   each operand, run on the caller's thread. No fan-out, no partition
//!   stats, and the output is already canonical.
//! * `workers > 1` — both operands are hash-partitioned on the equality
//!   key ([`Relation::partition_indices`]) so matching keys co-locate;
//!   with no equality key the left side is cut into contiguous ranges
//!   that each see the whole right side. The partition pairs fan out
//!   over scoped worker threads, each reporting a [`PartitionStat`].
//!
//! Join kernels return output tuples; semijoin kernels return the
//! surviving left row indices, gathered once at the end. Every output
//! is built through [`Relation::from_sorted_tuples`], whose linear
//! order check re-sorts only when partitions were concatenated, so the
//! result is byte-identical for every worker count. The differential
//! suites (`tests/vectorized.rs`, `tests/parallel.rs`) hold every kernel
//! to [`crate::evaluate_reference`].
//!
//! Index views are `u32`: each kernel checks its operands once with
//! [`ensure_u32_indexable`] and panics on a relation of more than
//! `u32::MAX` rows, as [`Relation::partition_indices`] does.

use crate::ops::split_condition;
use sj_algebra::Condition;
use sj_setjoin::parallel::fan_out;
use sj_storage::column::{hash_int_cell, hash_value_cell};
use sj_storage::{ensure_u32_indexable, ColGather, ColsView, FxHashMap, Relation, Tuple, Value};
use std::cmp::Ordering;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Execution record of one partition of a partition-parallel operator,
/// surfaced through [`crate::NodeStat::partitions`] so instrumented runs
/// expose the per-partition build/probe timings and the skew between
/// partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStat {
    /// Partition index (stable: a pure function of the tuple key hash).
    pub partition: usize,
    /// Left-operand tuples routed to this partition.
    pub left_rows: usize,
    /// Right-operand tuples routed to this partition.
    pub right_rows: usize,
    /// Output tuples this partition produced.
    pub out_rows: usize,
    /// Wall-clock time of this partition's build + probe.
    pub elapsed: Duration,
}

// ---------------------------------------------------------------------------
// Operator entry points
// ---------------------------------------------------------------------------

/// `r₁ ⋈θ r₂` (Definition 1(6)) over `workers` partitions: the hash
/// kernel on θ's equality atoms with the other atoms as a residual
/// filter, or the nested-loop kernel when θ has no equality atom.
/// Serial (`workers ≤ 1`) runs report no partitions; parallel runs
/// report one [`PartitionStat`] per partition.
pub fn join(
    r1: &Relation,
    r2: &Relation,
    theta: &Condition,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    let mut span = sj_obs::span!(
        "kernel.join",
        left = r1.len(),
        right = r2.len(),
        workers = workers.max(1)
    );
    let (eq, residual) = split_condition(theta);
    let (left_cols, right_cols) = key_cols(&eq);
    let (tuples, stats) = partitioned(r1, r2, &left_cols, &right_cols, workers, |li, ri| {
        if eq.is_empty() {
            nested_loop_join(r1, r2, li, ri, theta)
        } else {
            hash_join(r1, r2, li, ri, &eq, &residual)
        }
    });
    let rel = Relation::from_sorted_tuples(r1.arity() + r2.arity(), tuples);
    span.attr("out_rows", rel.len());
    (rel, stats)
}

/// `r₁ ⋉θ r₂` (Definition 2) over `workers` partitions: the hash kernel
/// on θ's equality atoms, or the nested-loop kernel when θ has none.
pub fn semijoin(
    r1: &Relation,
    r2: &Relation,
    theta: &Condition,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    let mut span = sj_obs::span!(
        "kernel.semijoin",
        left = r1.len(),
        right = r2.len(),
        workers = workers.max(1)
    );
    let (eq, residual) = split_condition(theta);
    let (left_cols, right_cols) = key_cols(&eq);
    let (keep, stats) = partitioned(r1, r2, &left_cols, &right_cols, workers, |li, ri| {
        if eq.is_empty() {
            nested_loop_semijoin(r1, r2, li, ri, theta)
        } else {
            hash_semijoin(r1, r2, li, ri, &eq, &residual)
        }
    });
    let rel = gather(r1, keep);
    span.attr("out_rows", rel.len());
    (rel, stats)
}

/// Merge equi-join on an aligned key prefix of length `k` (see
/// [`crate::ops::merge_prefix_len`]), with `residual` applied to each
/// candidate pair. Both operands are in canonical order, hence sorted by
/// the key, and so is every partition (a subsequence of its operand).
pub fn merge_join(
    r1: &Relation,
    r2: &Relation,
    k: usize,
    residual: &Condition,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    let mut span = sj_obs::span!(
        "kernel.merge_join",
        left = r1.len(),
        right = r2.len(),
        workers = workers.max(1)
    );
    let cols: Vec<usize> = (0..k).collect();
    let (tuples, stats) = partitioned(r1, r2, &cols, &cols, workers, |li, ri| {
        merge_join_view(r1, r2, li, ri, k, residual)
    });
    let rel = Relation::from_sorted_tuples(r1.arity() + r2.arity(), tuples);
    span.attr("out_rows", rel.len());
    (rel, stats)
}

/// Merge equi-semijoin on an aligned key prefix of length `k`: a left
/// tuple survives iff its key run on the right holds a tuple passing
/// `residual`.
pub fn merge_semijoin(
    r1: &Relation,
    r2: &Relation,
    k: usize,
    residual: &Condition,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    let mut span = sj_obs::span!(
        "kernel.merge_semijoin",
        left = r1.len(),
        right = r2.len(),
        workers = workers.max(1)
    );
    let cols: Vec<usize> = (0..k).collect();
    let (keep, stats) = partitioned(r1, r2, &cols, &cols, workers, |li, ri| {
        merge_semijoin_view(r1, r2, li, ri, k, residual)
    });
    let rel = gather(r1, keep);
    span.attr("out_rows", rel.len());
    (rel, stats)
}

// ---------------------------------------------------------------------------
// Worst-case-optimal multiway join (generic join on a cycle)
// ---------------------------------------------------------------------------

/// One position of a [`MultiwaySpec`] cycle: at cycle position `p`,
/// child `child`'s column `var_col` (0-based) carries the cycle
/// variable `v_p` and column `next_col` carries `v_{p+1 (mod k)}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiwayLeaf {
    /// Index into the operator's children (each child appears exactly
    /// once in the cycle).
    pub child: usize,
    /// 0-based column bound to this position's variable.
    pub var_col: usize,
    /// 0-based column bound to the next position's variable.
    pub next_col: usize,
}

/// The plan-time description of a [`multiway_join`]: a Hamiltonian
/// cycle over binary children, produced by the planner's join-graph
/// cycle detection (`sj_algebra::JoinGraph::hamiltonian_cycle`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiwaySpec {
    /// The cycle positions in cycle order.
    pub cycle: Vec<MultiwayLeaf>,
}

/// Worst-case-optimal join of `k ≥ 3` binary relations forming one
/// equality cycle `R₀(v₀,v₁) ⋈ R₁(v₁,v₂) ⋈ … ⋈ R_{k−1}(v_{k−1},v₀)` —
/// the generic-join algorithm (Ngo–Porat–Ré) specialized to simple
/// cycles:
///
/// 1. Per cycle position, index the relation as a forward map
///    `v_p → sorted [v_{p+1}]` (its posting lists).
/// 2. Start from the **globally least-frequent variable** — the
///    position whose candidate set (values occurring on both adjacent
///    sides) is smallest; the cycle is rotated so iteration begins
///    there.
/// 3. Bind variables around the cycle through the forward lists; the
///    **last** variable is bound by intersecting two sorted posting
///    lists (the forward list of its predecessor and the backward list
///    of the closing relation), never enumerated blindly.
///
/// Every binding writes one output tuple assembled in the children's
/// original column order, so the output equals the pairwise join chain
/// the planner replaced — no projection needed. Runtime is bounded by
/// the AGM fractional-cover bound `∏ |Rᵢ|^{1/2}` (plus the linear
/// indexing passes), which is exactly the regime where every pairwise
/// order materializes a larger intermediate.
///
/// `workers > 1` splits the start variable's candidate list into
/// contiguous ranges fanned out over scoped threads (one
/// [`PartitionStat`] per range, `right_rows = 0` — there is no probe
/// side); the canonicalizing merge keeps the output byte-identical for
/// every worker count.
pub fn multiway_join(
    children: &[&Relation],
    spec: &MultiwaySpec,
    workers: usize,
) -> (Relation, Vec<PartitionStat>) {
    let k = spec.cycle.len();
    let mut span = sj_obs::span!(
        "kernel.multiway",
        children = children.len(),
        rows = children.iter().map(|r| r.len()).sum::<usize>(),
        workers = workers.max(1)
    );
    debug_assert!(k >= 3, "a multiway cycle has at least 3 positions");
    debug_assert!(spec.cycle.iter().all(|p| children[p.child].arity() == 2));
    let out_arity: usize = children.iter().map(|r| r.arity()).sum();
    let offsets: Vec<usize> = children
        .iter()
        .scan(0usize, |acc, r| {
            let o = *acc;
            *acc += r.arity();
            Some(o)
        })
        .collect();
    // Forward posting lists per cycle position: v_p → sorted [v_{p+1}].
    let fwd: Vec<FxHashMap<Value, Vec<Value>>> = spec
        .cycle
        .iter()
        .map(|pos| {
            let mut m: FxHashMap<Value, Vec<Value>> = FxHashMap::default();
            for t in children[pos.child].tuples() {
                m.entry(t[pos.var_col].clone())
                    .or_default()
                    .push(t[pos.next_col].clone());
            }
            for list in m.values_mut() {
                list.sort_unstable();
            }
            m
        })
        .collect();
    // Candidate list per position: values that occur as position p's
    // variable AND as position p−1's next value. The start position is
    // the globally least-frequent variable — the smallest such list.
    let nexts: Vec<Vec<Value>> = fwd
        .iter()
        .map(|m| {
            let mut vals: Vec<Value> = m.values().flatten().cloned().collect();
            vals.sort_unstable();
            vals.dedup();
            vals
        })
        .collect();
    let candidates: Vec<Vec<Value>> = (0..k)
        .map(|p| {
            let prev = &nexts[(p + k - 1) % k];
            let mut vals: Vec<Value> = fwd[p]
                .keys()
                .filter(|v| prev.binary_search(v).is_ok())
                .cloned()
                .collect();
            vals.sort_unstable();
            vals
        })
        .collect();
    let start = (0..k)
        .min_by_key(|&p| (candidates[p].len(), p))
        .expect("k >= 3");
    let rot = |i: usize| (start + i) % k;
    let cands = &candidates[start];
    // Backward posting lists of the closing relation (rotated position
    // k−1): v_0 → sorted [v_{k−1}] — the second list of the final
    // intersection.
    let closing = &spec.cycle[rot(k - 1)];
    let mut bwd: FxHashMap<Value, Vec<Value>> = FxHashMap::default();
    for t in children[closing.child].tuples() {
        bwd.entry(t[closing.next_col].clone())
            .or_default()
            .push(t[closing.var_col].clone());
    }
    for list in bwd.values_mut() {
        list.sort_unstable();
    }

    // Emit the output tuple of one complete binding (rotated order).
    let emit = |binding: &[Value], out: &mut Vec<Tuple>| {
        let mut cells = vec![Value::int(0); out_arity];
        for (i, v) in binding.iter().enumerate() {
            let pos = &spec.cycle[rot(i)];
            let base = offsets[pos.child];
            cells[base + pos.var_col] = v.clone();
            cells[base + pos.next_col] = binding[(i + 1) % k].clone();
        }
        out.push(Tuple::new(cells));
    };
    // Depth-first bind v_1..v_{k−1} given v_0 = `binding[0]`; `fwd` is
    // already in rotated cycle order (index = depth of the variable the
    // map extends *from*).
    fn search(
        depth: usize,
        k: usize,
        fwd: &[&FxHashMap<Value, Vec<Value>>],
        bwd: &FxHashMap<Value, Vec<Value>>,
        binding: &mut Vec<Value>,
        emit: &dyn Fn(&[Value], &mut Vec<Tuple>),
        out: &mut Vec<Tuple>,
    ) {
        let Some(reachable) = fwd[depth - 1].get(&binding[depth - 1]) else {
            return;
        };
        if depth == k - 1 {
            // Close the cycle: v_{k−1} must extend v_{k−2} forward AND
            // reach v_0 through the closing relation — a sorted
            // intersection of the two posting lists.
            let Some(back) = bwd.get(&binding[0]) else {
                return;
            };
            let (mut i, mut j) = (0usize, 0usize);
            while i < reachable.len() && j < back.len() {
                match reachable[i].cmp(&back[j]) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        binding.push(reachable[i].clone());
                        emit(binding, out);
                        binding.pop();
                        i += 1;
                        j += 1;
                    }
                }
            }
            return;
        }
        for v in reachable.clone() {
            binding.push(v);
            search(depth + 1, k, fwd, bwd, binding, emit, out);
            binding.pop();
        }
    }
    let rot_fwd: Vec<&FxHashMap<Value, Vec<Value>>> = (0..k).map(|i| &fwd[rot(i)]).collect();
    let run = |range: Range<usize>| {
        let mut out: Vec<Tuple> = Vec::new();
        let mut binding: Vec<Value> = Vec::with_capacity(k);
        for v0 in &cands[range] {
            binding.clear();
            binding.push(v0.clone());
            search(1, k, &rot_fwd, &bwd, &mut binding, &emit, &mut out);
        }
        out
    };

    // Ranges partition the start candidates, and a binding determines
    // its tuple, so the concatenation is duplicate-free.
    let (tuples, stats) = if workers <= 1 {
        (run(0..cands.len()), Vec::new())
    } else {
        fan_out_timed(
            chunk_ranges(cands.len(), workers),
            workers,
            |r| (r.len(), 0),
            run,
        )
    };
    let rel = Relation::from_sorted_tuples(out_arity, tuples);
    span.attr("out_rows", rel.len());
    (rel, stats)
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

/// The 0-based left and right key columns of θ's equality pairs.
fn key_cols(eq: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
    eq.iter().copied().unzip()
}

/// The identity index view `0..r.len()`. Callers have checked `r` with
/// [`ensure_u32_indexable`].
fn all_rows(r: &Relation) -> Vec<u32> {
    (0..r.len() as u32).collect()
}

/// Split `0..len` into at most `n` contiguous ranges — the cut used
/// when there is no key to hash on.
fn chunk_ranges(len: usize, n: usize) -> Vec<Range<usize>> {
    let per = len.div_ceil(n.max(1)).max(1);
    (0..len)
        .step_by(per)
        .map(|s| s..(s + per).min(len))
        .collect()
}

/// Run a kernel `op` over index views of `r1` and `r2` and concatenate
/// its outputs in partition order. One worker runs `op` once over the
/// identity views and reports no partitions. More workers hash-partition
/// both operands on `left_cols` / `right_cols` so matching keys
/// co-locate — or, with no key, cut the left side into contiguous
/// ranges that each see the whole right side — and fan the partition
/// pairs out over scoped threads.
///
/// Partitions are views — index lists into the shared operands — so no
/// input tuple is cloned into a partition; only the 4-byte indices and
/// the output are materialized.
fn partitioned<T: Send>(
    r1: &Relation,
    r2: &Relation,
    left_cols: &[usize],
    right_cols: &[usize],
    workers: usize,
    op: impl Fn(&[u32], &[u32]) -> Vec<T> + Sync,
) -> (Vec<T>, Vec<PartitionStat>) {
    for r in [r1, r2] {
        ensure_u32_indexable(r.len()).expect("kernel operand too large for u32 index views");
    }
    if workers <= 1 {
        return (op(&all_rows(r1), &all_rows(r2)), Vec::new());
    }
    let (left_all, right_all, left_parts, right_parts);
    let pairs: Vec<(&[u32], &[u32])> = if left_cols.is_empty() {
        left_all = all_rows(r1);
        right_all = all_rows(r2);
        chunk_ranges(left_all.len(), workers)
            .into_iter()
            .map(|c| (&left_all[c], right_all.as_slice()))
            .collect()
    } else {
        left_parts = r1.partition_indices(left_cols, workers);
        right_parts = r2.partition_indices(right_cols, workers);
        left_parts
            .iter()
            .zip(&right_parts)
            .map(|(l, r)| (l.as_slice(), r.as_slice()))
            .collect()
    };
    fan_out_timed(
        pairs,
        workers,
        |(l, r)| (l.len(), r.len()),
        |(l, r)| op(l, r),
    )
}

/// Fan `parts` out over `workers` scoped threads, each under its own
/// `kernel.partition` span, and concatenate the outputs in partition
/// order with one [`PartitionStat`] per part (`sizes` gives its left and
/// right row counts).
fn fan_out_timed<I: Send, T: Send>(
    parts: Vec<I>,
    workers: usize,
    sizes: impl Fn(&I) -> (usize, usize) + Sync,
    op: impl Fn(I) -> Vec<T> + Sync,
) -> (Vec<T>, Vec<PartitionStat>) {
    let parent = sj_obs::current_span();
    let parts: Vec<(usize, I)> = parts.into_iter().enumerate().collect();
    let outputs = fan_out(parts, workers, |(partition, part)| {
        sj_obs::with_parent(parent, || {
            let (left_rows, right_rows) = sizes(&part);
            let mut span = sj_obs::span!(
                "kernel.partition",
                partition = partition,
                left = left_rows,
                right = right_rows
            );
            let start = Instant::now();
            let out = op(part);
            span.attr("out_rows", out.len());
            let stat = PartitionStat {
                partition,
                left_rows,
                right_rows,
                out_rows: out.len(),
                elapsed: start.elapsed(),
            };
            (stat, out)
        })
    });
    let mut stats = Vec::with_capacity(outputs.len());
    let mut all: Vec<T> = Vec::new();
    for (stat, out) in outputs {
        stats.push(stat);
        all.extend(out);
    }
    (all, stats)
}

/// The relation of `r`'s rows at `keep`. Concatenated partitions hold
/// disjoint rows, so sorting their indices restores row order, and the
/// gathered tuples are already canonical.
pub(crate) fn gather(r: &Relation, mut keep: Vec<u32>) -> Relation {
    if !keep.is_sorted() {
        keep.sort_unstable();
    }
    let ts = r.tuples();
    Relation::from_sorted_tuples(
        r.arity(),
        keep.iter().map(|&i| ts[i as usize].clone()).collect(),
    )
}

// ---------------------------------------------------------------------------
// Hash kernels
// ---------------------------------------------------------------------------

/// Seed of every composite row-key hash ([`hash_view_rows`]).
const KEY_HASH_SEED: u64 = 0x5157_cc1b_7272_20a9;

/// Mix one column's cell hash into a row's running key hash.
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(23) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The composite key hash of every view row over the 0-based key
/// `cols`, column at a time, into the scratch vector `out`.
fn hash_view_rows(view: &ColsView<'_>, cols: &[usize], out: &mut Vec<u64>) {
    out.clear();
    out.resize(view.len(), KEY_HASH_SEED);
    for &c in cols {
        match view.col(c) {
            ColGather::Int { vals, idx } => {
                for (h, &i) in out.iter_mut().zip(idx) {
                    *h = mix(*h, hash_int_cell(vals[i as usize]));
                }
            }
            ColGather::Str { codes, idx, dict } => {
                for (h, &i) in out.iter_mut().zip(idx) {
                    *h = mix(*h, dict.hash_of(codes[i as usize]));
                }
            }
            ColGather::Mixed { vals, idx } => {
                for (h, &i) in out.iter_mut().zip(idx) {
                    *h = mix(*h, hash_value_cell(&vals[i as usize]));
                }
            }
        }
    }
}

/// The hash table over `view`'s key columns: composite key hash →
/// ascending view rows. Collisions are resolved by the probes' exact
/// [`keys_eq`] check.
fn build_table(
    view: &ColsView<'_>,
    cols: &[usize],
    scratch: &mut Vec<u64>,
) -> FxHashMap<u64, Vec<u32>> {
    hash_view_rows(view, cols, scratch);
    let mut table: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    table.reserve(view.len());
    for (k, &h) in scratch.iter().enumerate() {
        table.entry(h).or_default().push(k as u32);
    }
    table
}

/// Exact key equality between view row `li` of `lv` and view row `ri`
/// of `rv` — the collision check behind every hash pairing.
#[inline]
fn keys_eq(
    lv: &ColsView<'_>,
    li: usize,
    rv: &ColsView<'_>,
    ri: usize,
    eq: &[(usize, usize)],
) -> bool {
    eq.iter().all(|&(lc, rc)| lv.cell_eq(lc, li, rv, rc, ri))
}

/// Hash join over one partition pair: build the table from the right
/// view, probe from the left view, filter candidates by `residual`.
fn hash_join(
    r1: &Relation,
    r2: &Relation,
    li: &[u32],
    ri: &[u32],
    eq: &[(usize, usize)],
    residual: &Condition,
) -> Vec<Tuple> {
    let (lv, rv) = (r1.columns().view(li), r2.columns().view(ri));
    let (left_cols, right_cols) = key_cols(eq);
    let mut hashes: Vec<u64> = Vec::new();
    let table = build_table(&rv, &right_cols, &mut hashes);
    hash_view_rows(&lv, &left_cols, &mut hashes);
    let (a, b) = (r1.tuples(), r2.tuples());
    let mut out: Vec<Tuple> = Vec::new();
    for (k, &h) in hashes.iter().enumerate() {
        let Some(cands) = table.get(&h) else { continue };
        let t1 = &a[lv.row(k)];
        for &vk in cands {
            let vk = vk as usize;
            if keys_eq(&lv, k, &rv, vk, eq) {
                let t2 = &b[rv.row(vk)];
                if residual.eval(t1.values(), t2.values()) {
                    out.push(t1.concat(t2));
                }
            }
        }
    }
    out
}

/// Hash semijoin over one partition pair (see [`hash_join`]): the left
/// rows with a key match on the right passing `residual`.
fn hash_semijoin(
    r1: &Relation,
    r2: &Relation,
    li: &[u32],
    ri: &[u32],
    eq: &[(usize, usize)],
    residual: &Condition,
) -> Vec<u32> {
    let (lv, rv) = (r1.columns().view(li), r2.columns().view(ri));
    let (left_cols, right_cols) = key_cols(eq);
    let mut hashes: Vec<u64> = Vec::new();
    let table = build_table(&rv, &right_cols, &mut hashes);
    hash_view_rows(&lv, &left_cols, &mut hashes);
    let (a, b) = (r1.tuples(), r2.tuples());
    let mut keep: Vec<u32> = Vec::new();
    for (k, &h) in hashes.iter().enumerate() {
        let Some(cands) = table.get(&h) else { continue };
        let survives = cands.iter().any(|&vk| {
            let vk = vk as usize;
            keys_eq(&lv, k, &rv, vk, eq)
                && (residual.is_empty()
                    || residual.eval(a[lv.row(k)].values(), b[rv.row(vk)].values()))
        });
        if survives {
            keep.push(li[k]);
        }
    }
    keep
}

// ---------------------------------------------------------------------------
// Nested-loop kernels
// ---------------------------------------------------------------------------

/// Filtered nested-loop join over one partition pair.
fn nested_loop_join(
    r1: &Relation,
    r2: &Relation,
    li: &[u32],
    ri: &[u32],
    theta: &Condition,
) -> Vec<Tuple> {
    let (a, b) = (r1.tuples(), r2.tuples());
    let mut out: Vec<Tuple> = Vec::new();
    for &i in li {
        let t1 = &a[i as usize];
        for &j in ri {
            let t2 = &b[j as usize];
            if theta.eval(t1.values(), t2.values()) {
                out.push(t1.concat(t2));
            }
        }
    }
    out
}

/// Nested-loop semijoin over one partition pair: the left rows with any
/// right row satisfying θ.
fn nested_loop_semijoin(
    r1: &Relation,
    r2: &Relation,
    li: &[u32],
    ri: &[u32],
    theta: &Condition,
) -> Vec<u32> {
    let (a, b) = (r1.tuples(), r2.tuples());
    li.iter()
        .copied()
        .filter(|&i| {
            let t1 = a[i as usize].values();
            ri.iter().any(|&j| theta.eval(t1, b[j as usize].values()))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Merge kernels
// ---------------------------------------------------------------------------

/// Compare the first `k` columns of view row `i` of `lv` and view row
/// `j` of `rv` through the typed cell comparator.
#[inline]
fn cmp_prefix(lv: &ColsView<'_>, i: usize, rv: &ColsView<'_>, j: usize, k: usize) -> Ordering {
    (0..k)
        .map(|c| lv.cell_cmp(c, i, rv, c, j))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// End of the run of view rows sharing row `start`'s first `k` column
/// values.
#[inline]
fn run_end(v: &ColsView<'_>, start: usize, k: usize) -> usize {
    let mut end = start + 1;
    while end < v.len() && cmp_prefix(v, end, v, start, k).is_eq() {
        end += 1;
    }
    end
}

/// Walk the two key-sorted views run by run, calling `on_match` with
/// the left and right view-row ranges of every shared key; a
/// non-matching side skips its whole run at once.
fn merge_runs(
    lv: &ColsView<'_>,
    rv: &ColsView<'_>,
    k: usize,
    mut on_match: impl FnMut(Range<usize>, Range<usize>),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < lv.len() && j < rv.len() {
        match cmp_prefix(lv, i, rv, j, k) {
            Ordering::Less => i = run_end(lv, i, k),
            Ordering::Greater => j = run_end(rv, j, k),
            Ordering::Equal => {
                let (i_end, j_end) = (run_end(lv, i, k), run_end(rv, j, k));
                on_match(i..i_end, j..j_end);
                i = i_end;
                j = j_end;
            }
        }
    }
}

/// Merge join over one partition pair.
fn merge_join_view(
    r1: &Relation,
    r2: &Relation,
    li: &[u32],
    ri: &[u32],
    k: usize,
    residual: &Condition,
) -> Vec<Tuple> {
    let (lv, rv) = (r1.columns().view(li), r2.columns().view(ri));
    let (a, b) = (r1.tuples(), r2.tuples());
    let mut out: Vec<Tuple> = Vec::new();
    merge_runs(&lv, &rv, k, |left, right| {
        for ii in left {
            let t1 = &a[lv.row(ii)];
            for jj in right.clone() {
                let t2 = &b[rv.row(jj)];
                if residual.eval(t1.values(), t2.values()) {
                    out.push(t1.concat(t2));
                }
            }
        }
    });
    out
}

/// Merge semijoin over one partition pair: the left rows whose key run
/// on the right holds a row passing `residual`.
fn merge_semijoin_view(
    r1: &Relation,
    r2: &Relation,
    li: &[u32],
    ri: &[u32],
    k: usize,
    residual: &Condition,
) -> Vec<u32> {
    let (lv, rv) = (r1.columns().view(li), r2.columns().view(ri));
    let (a, b) = (r1.tuples(), r2.tuples());
    let mut keep: Vec<u32> = Vec::new();
    merge_runs(&lv, &rv, k, |left, right| {
        for ii in left {
            let t1 = a[lv.row(ii)].values();
            if residual.is_empty()
                || right
                    .clone()
                    .any(|jj| residual.eval(t1, b[rv.row(jj)].values()))
            {
                keep.push(li[ii]);
            }
        }
    });
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_reference;
    use sj_algebra::{Atom, CompOp, Expr};
    use sj_storage::{tuple, Database};

    fn r(rows: &[&[i64]]) -> Relation {
        Relation::from_int_rows(rows)
    }

    /// `e` over `R = a`, `S = b` through the reference evaluator.
    fn reference(a: &Relation, b: &Relation, e: Expr) -> Relation {
        let mut db = Database::new();
        db.set("R", a.clone());
        db.set("S", b.clone());
        evaluate_reference(&e, &db).unwrap()
    }

    fn operands() -> Vec<(&'static str, Relation, Relation)> {
        let lrows: Vec<Vec<i64>> = (0..300).map(|i| vec![i % 23, i]).collect();
        let lrefs: Vec<&[i64]> = lrows.iter().map(|r| r.as_slice()).collect();
        let rrows: Vec<Vec<i64>> = (0..200).map(|i| vec![i % 23, i % 17]).collect();
        let rrefs: Vec<&[i64]> = rrows.iter().map(|r| r.as_slice()).collect();
        vec![
            ("ints", r(&lrefs), r(&rrefs)),
            (
                "strings",
                Relation::from_str_rows(&[
                    &["an", "headache"],
                    &["an", "sore throat"],
                    &["bob", "headache"],
                    &["bob", "memory loss"],
                ]),
                Relation::from_str_rows(&[&["an", "headache"], &["flu", "sore throat"]]),
            ),
            (
                "mixed-variants",
                Relation::from_tuples(
                    2,
                    vec![tuple![1, "x"], tuple![1, 7], tuple![2, "y"], tuple![3, 7]],
                )
                .unwrap(),
                Relation::from_tuples(2, vec![tuple![1, 7], tuple![2, "x"], tuple![9, "y"]])
                    .unwrap(),
            ),
            (
                // Int keys against string keys: hash buckets may
                // collide, values never match.
                "int-vs-string",
                r(&[&[1, 1], &[2, 2]]),
                Relation::from_str_rows(&[&["1", "1"], &["2", "2"]]),
            ),
            ("empty-left", Relation::empty(2), r(&rrefs)),
            ("empty-right", r(&lrefs), Relation::empty(2)),
        ]
    }

    /// Hash and nested-loop join and semijoin equal the reference
    /// evaluator at every worker count, for every θ shape and operand
    /// type; partition stats account for every output tuple.
    #[test]
    fn join_and_semijoin_equal_reference() {
        let thetas = [
            Condition::eq(1, 1),
            Condition::eq(2, 1),
            Condition::eq(1, 1).and(2, CompOp::Lt, 2),
            Condition::lt(1, 1),
            Condition::always(),
        ];
        for (name, a, b) in operands() {
            for theta in &thetas {
                let rs = |e: Expr| reference(&a, &b, e);
                let want_join = rs(Expr::rel("R").join(theta.clone(), Expr::rel("S")));
                let want_semi = rs(Expr::rel("R").semijoin(theta.clone(), Expr::rel("S")));
                for workers in [1usize, 2, 4, 8] {
                    let (j, jstats) = join(&a, &b, theta, workers);
                    assert_eq!(j, want_join, "join {theta} on {name} @{workers}");
                    let (s, sstats) = semijoin(&a, &b, theta, workers);
                    assert_eq!(s, want_semi, "semijoin {theta} on {name} @{workers}");
                    if workers <= 1 {
                        assert!(
                            jstats.is_empty() && sstats.is_empty(),
                            "serial: no partitions"
                        );
                        continue;
                    }
                    // The chunked no-equality path over an empty left
                    // side has nothing to partition; every other
                    // parallel run reports partitions.
                    let chunked_empty = split_condition(theta).0.is_empty() && a.is_empty();
                    assert!(!jstats.is_empty() || chunked_empty);
                    let out = |st: &[PartitionStat]| st.iter().map(|p| p.out_rows).sum::<usize>();
                    assert_eq!(out(&jstats), j.len(), "join stats cover every tuple");
                    assert_eq!(out(&sstats), s.len(), "semijoin stats cover every tuple");
                }
            }
        }
    }

    /// Merge join and semijoin on one- and two-column key prefixes, with
    /// and without a residual, equal the reference at every worker count.
    #[test]
    fn merge_kernels_equal_reference() {
        let residuals = [
            Condition::always(),
            Condition::new([Atom {
                left: 2,
                op: CompOp::Neq,
                right: 2,
            }]),
        ];
        for (name, a, b) in operands() {
            for k in [1usize, 2] {
                for residual in &residuals {
                    let theta = Condition::new(
                        Condition::eq_pairs((1..=k).map(|c| (c, c)))
                            .atoms()
                            .iter()
                            .chain(residual.atoms())
                            .copied(),
                    );
                    let rs = |e: Expr| reference(&a, &b, e);
                    let want_join = rs(Expr::rel("R").join(theta.clone(), Expr::rel("S")));
                    let want_semi = rs(Expr::rel("R").semijoin(theta.clone(), Expr::rel("S")));
                    for workers in [1usize, 3, 4, 8] {
                        let (j, _) = merge_join(&a, &b, k, residual, workers);
                        assert_eq!(j, want_join, "merge join {theta} on {name} @{workers}");
                        let (s, _) = merge_semijoin(&a, &b, k, residual, workers);
                        assert_eq!(s, want_semi, "merge semijoin {theta} on {name} @{workers}");
                    }
                }
            }
        }
    }

    /// Hand-checked joins and semijoins from Definitions 1(6) and 2.
    #[test]
    fn hand_checked_joins_and_semijoins() {
        let a = r(&[&[1, 10], &[2, 20], &[3, 10]]);
        let b = r(&[&[10, 100], &[10, 101], &[30, 300]]);
        assert_eq!(
            join(&a, &b, &Condition::eq(2, 1), 1).0,
            r(&[
                &[1, 10, 10, 100],
                &[1, 10, 10, 101],
                &[3, 10, 10, 100],
                &[3, 10, 10, 101]
            ])
        );
        // Duplicate keys on the right never duplicate the output.
        assert_eq!(
            semijoin(&a, &b, &Condition::eq(2, 1), 1).0,
            r(&[&[1, 10], &[3, 10]])
        );
        let (x, y) = (r(&[&[1], &[5]]), r(&[&[3]]));
        assert_eq!(join(&x, &y, &Condition::lt(1, 1), 1).0, r(&[&[1, 3]]));
        assert_eq!(
            join(&x, &y, &Condition::neq(1, 1), 1).0,
            r(&[&[1, 3], &[5, 3]])
        );
        assert_eq!(join(&x, &x, &Condition::always(), 1).0.len(), 4);
        // An unconditional semijoin is an emptiness test of the right side.
        assert_eq!(semijoin(&x, &y, &Condition::always(), 1).0, x);
        assert_eq!(
            semijoin(&x, &Relation::empty(3), &Condition::always(), 1).0,
            Relation::empty(1)
        );
        let visits = Relation::from_str_rows(&[&["alex", "pareto bar"]]);
        let serves = Relation::from_str_rows(&[&["pareto bar", "westmalle"]]);
        assert_eq!(
            join(&visits, &serves, &Condition::eq(2, 1), 1).0.tuples(),
            &[tuple!["alex", "pareto bar", "pareto bar", "westmalle"]]
        );
    }

    /// Hash partitions cover both operands exactly once; the no-equality
    /// path cuts the left side and hands every range the whole right side.
    #[test]
    fn partition_stats_account_for_every_row() {
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i % 11, i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = r(&refs);
        let b = r(&[&[1, 5], &[2, 9], &[3, 1]]);
        let (out, stats) = join(&a, &b, &Condition::eq(1, 1), 4);
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.left_rows).sum::<usize>(), a.len());
        assert_eq!(stats.iter().map(|s| s.right_rows).sum::<usize>(), b.len());
        assert_eq!(stats.iter().map(|s| s.out_rows).sum::<usize>(), out.len());
        assert!(stats.iter().enumerate().all(|(i, s)| s.partition == i));
        let (_, nl_stats) = join(&a, &b, &Condition::always(), 4);
        assert!(nl_stats.iter().all(|s| s.right_rows == b.len()));
        assert_eq!(nl_stats.iter().map(|s| s.left_rows).sum::<usize>(), a.len());
    }

    /// A small directed graph with a hub, a matching, and some chain
    /// edges — enough structure for non-trivial triangles and 4-cycles.
    fn edge_relation() -> Relation {
        let mut rows: Vec<Vec<i64>> = Vec::new();
        for i in 0..8 {
            rows.push(vec![0, i]); // hub out-edges
            rows.push(vec![i, 0]); // hub in-edges
            rows.push(vec![i, (i + 1) % 8]); // ring
        }
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        r(&refs)
    }

    /// The standard cycle spec over `k` binary children in chain
    /// orientation: child p holds (v_p, v_{p+1 mod k}).
    fn cycle_spec(k: usize) -> MultiwaySpec {
        MultiwaySpec {
            cycle: (0..k)
                .map(|p| MultiwayLeaf {
                    child: p,
                    var_col: 0,
                    next_col: 1,
                })
                .collect(),
        }
    }

    /// The multiway kernel equals the reference pairwise join chain on
    /// triangles and 4-cycles at every worker count, with partition
    /// stats accounting for every output tuple.
    #[test]
    fn multiway_join_equals_reference_chain() {
        let e = edge_relation();
        let edge = || Expr::rel("R");
        // (E ⋈₂₌₁ E) ⋈_{4=1 ∧ 1=2} E
        let tri = edge()
            .join(Condition::eq(2, 1), edge())
            .join(Condition::eq_pairs([(4, 1), (1, 2)]), edge());
        // ((E ⋈₂₌₁ E) ⋈₄₌₁ E) ⋈_{6=1 ∧ 1=2} E
        let quad = edge()
            .join(Condition::eq(2, 1), edge())
            .join(Condition::eq(4, 1), edge())
            .join(Condition::eq_pairs([(6, 1), (1, 2)]), edge());
        for (k, chain) in [(3usize, tri), (4, quad)] {
            let want = reference(&e, &e, chain);
            assert!(!want.is_empty(), "the graph has {k}-cycles");
            let children: Vec<&Relation> = vec![&e; k];
            for workers in [1usize, 2, 4, 8] {
                let (got, stats) = multiway_join(&children, &cycle_spec(k), workers);
                assert_eq!(got, want, "k={k} @{workers}");
                assert_eq!(stats.is_empty(), workers <= 1, "serial: no partitions");
                if workers > 1 {
                    assert_eq!(stats.iter().map(|p| p.out_rows).sum::<usize>(), got.len());
                }
            }
        }
    }

    /// Degenerate multiway inputs: an empty child annihilates the
    /// output, and a relation with no closing edges produces nothing.
    #[test]
    fn multiway_join_empty_and_closed_cases() {
        let e = edge_relation();
        let empty = Relation::empty(2);
        let spec = cycle_spec(3);
        for workers in [1usize, 4] {
            let (got, _) = multiway_join(&[&e, &empty, &e], &spec, workers);
            assert!(got.is_empty(), "empty child @{workers}");
            assert_eq!(got.arity(), 6);
        }
        // An acyclic edge set (a DAG chain 0→1→2→…) has no triangles.
        let chain_rows: Vec<Vec<i64>> = (0..10).map(|i| vec![i, i + 1]).collect();
        let chain_refs: Vec<&[i64]> = chain_rows.iter().map(|r| r.as_slice()).collect();
        let dag = r(&chain_refs);
        let (got, _) = multiway_join(&[&dag, &dag, &dag], &spec, 2);
        assert!(got.is_empty(), "a DAG has no directed triangles");
    }
}
