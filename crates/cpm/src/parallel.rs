//! The Lightweight Parallel Clique Percolation Method.
//!
//! Gregori, Lenzini, Mainardi and Orsini's companion algorithm made CPM
//! feasible on the 2010 AS topology (93 h on 48 cores). Its insight — the
//! expensive phases are clique enumeration and clique-overlap counting,
//! both embarrassingly parallel, while the percolation itself is cheap —
//! is reproduced here on the persistent [`exec::Pool`]:
//!
//! 1. maximal cliques: the degeneracy outer loop under an atomic-counter
//!    work-stealing deal (delegated to [`cliques::parallel`]);
//! 2. overlap counting: clique ids claimed in chunks of [`OVERLAP_CHUNK`]
//!    from a shared [`ChunkQueue`], each worker counting with the
//!    `OverlapScratch` resident in its pool arena (stamp arrays and
//!    counters stay warm across calls); per-chunk strata are reassembled
//!    in chunk order, so the result is *identical* to the sequential
//!    construction — independent of thread count and scheduling races;
//! 3. the descending-k sweep: one `pool.run` for the whole drain — each
//!    stratum is claimed in chunks of [`UNION_CHUNK`] over a lock-free
//!    [`ConcurrentDsu`], and the job's reusable barrier separates the
//!    strata, with worker 0 snapshotting each level in between
//!    ([`percolate_from_strata_parallel`]). The workers stay resident
//!    from the first stratum to the last instead of being respawned
//!    `k_max` times.
//!
//! Thread counts are [`Threads`] everywhere (plain integers coerce):
//! `Threads::Auto` sizes each phase from its own work estimate and
//! falls back to the sequential path below the grain, so tiny inputs
//! never pay pool overhead.
//!
//! Output is bit-identical to the sequential [`crate::percolate`]; the
//! tests assert it and the bench suite measures the speedup.

use crate::dsu_concurrent::ConcurrentDsu;
use crate::mode::{emit_keys, KeyTable, Mode, SubsumptionStrata, KEY_MAX_L};
use crate::overlap::{build_vertex_index, overlap_uses_bitset, OverlapScratch, VertexCliqueIndex};
use crate::percolation::LevelSnapshotter;
use crate::result::{CpmResult, KLevel};
use crate::sweep::{chain_union_postings, percolate_from_strata, OverlapStrata};
use asgraph::Graph;
use cliques::{CliqueSet, Kernel};
use exec::{CancelToken, Cancelled, ChunkQueue, OrderedAbsorber, Pool, Threads};
use std::sync::{Mutex, RwLock};

/// Per-chunk (key, owner-clique) maps produced by the key phase,
/// tagged with their chunk index so the leader can merge them in
/// sequential order.
type ChunkKeyMaps = Vec<(usize, Vec<(u64, u32)>)>;

/// Clique ids claimed per queue chunk during parallel overlap counting.
/// Overlap counting per clique is much cheaper than a Bron–Kerbosch
/// subproblem, so chunks are coarser than the enumerator's to keep the
/// shared counter cold.
pub const OVERLAP_CHUNK: usize = 256;

/// Out-of-order overlap chunks buffered before a too-far-ahead worker
/// pauses ([`OrderedAbsorber`] window). Small: the buffer bounds the
/// phase's extra peak heap to a few chunks of pairs instead of a whole
/// second copy of the strata.
const OVERLAP_ABSORB_WINDOW: usize = 8;

/// Stratum pairs claimed per queue chunk while draining one overlap
/// stratum into the concurrent union–find. A union is a handful of
/// atomic ops, so chunks are coarse to keep the shared counter out of
/// the way.
pub const UNION_CHUNK: usize = 2048;

/// Below this many pairs a stratum is drained by worker 0 alone:
/// coordinating the team costs more than the unions.
pub(crate) const PAR_UNION_MIN: usize = 4 * UNION_CHUNK;

/// The `Threads::Auto` grain for overlap counting: total clique
/// memberships (the posting count, which bounds the counting work) per
/// worker before adding that worker pays.
const AUTO_MEMBERS_PER_WORKER: usize = 8_192;

/// The `Threads::Auto` work-volume grain for the *end-to-end*
/// almost-mode percolate entry points: graph edges per worker before
/// the whole pipeline's fan-out amortises. Individual phases have
/// their own (smaller) grains, but the committed `BENCH_pool.json`
/// shows every sub-crossover substrate (sparse300 at ~2.3k edges,
/// dense60, tiny-internet) losing to the sequential path at *every*
/// fixed multi-worker count — so below `2 × grain` edges, `auto`
/// snaps the entire run to one worker instead of letting a single
/// phase fan out.
pub const ALMOST_AUTO_EDGES_PER_WORKER: usize = 8_192;

/// Applies [`ALMOST_AUTO_EDGES_PER_WORKER`] at an almost-mode
/// percolate entry point: `Threads::Auto` below the crossover becomes
/// an explicit one-worker run (fixed counts pass through untouched;
/// above the crossover `auto` keeps its per-phase sizing).
pub(crate) fn almost_auto_threads(threads: Threads, g: &Graph) -> Threads {
    if threads.is_auto() && threads.resolve(g.edge_count(), ALMOST_AUTO_EDGES_PER_WORKER) == 1 {
        Threads::Fixed(1)
    } else {
        threads
    }
}

/// Runs the full CPM pipeline with `threads` workers (`usize` or
/// [`Threads`]; `Threads::Auto` scales every phase with its work) and
/// the default [`Kernel::Auto`] set kernel.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
///
/// let g = Graph::complete(6);
/// let seq = cpm::percolate(&g);
/// let par = cpm::parallel::percolate_parallel(&g, 4);
/// assert_eq!(seq.total_communities(), par.total_communities());
/// ```
pub fn percolate_parallel(g: &Graph, threads: impl Into<Threads>) -> CpmResult {
    percolate_parallel_with_kernel(g, threads, Kernel::Auto)
}

/// [`percolate_parallel`] with an explicit set [`Kernel`] for both the
/// clique enumeration and the overlap counting phases. The result is
/// identical whatever the kernel or thread count.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn percolate_parallel_with_kernel(
    g: &Graph,
    threads: impl Into<Threads>,
    kernel: Kernel,
) -> CpmResult {
    let threads = threads.into();
    let mut cliques = cliques::parallel::max_cliques_parallel_with(g, threads, kernel);
    // Same canonicalisation entry point as the sequential path: the
    // result is then identical whatever the thread count.
    cliques.canonicalize();
    let index = build_vertex_index(&cliques, g.node_count());
    // min_overlap = 2: the o = 1 stratum is never stored — the k = 2
    // level is chained straight off the posting lists.
    let strata = overlap_strata_parallel_min(&cliques, &index, threads, kernel, 2);
    percolate_from_strata_parallel(cliques, strata, threads, &index)
}

/// [`percolate_parallel_with_kernel`] with a [`CancelToken`] polled at
/// every phase's chunk boundaries — enumeration claims, overlap claims,
/// and stratum-drain claims. Cancellation never skips a barrier:
/// workers that stop claiming still run out through the job protocol,
/// so the pool is immediately reusable, and partial pipeline state is
/// simply dropped.
///
/// Until the token trips this is bit-identical to
/// [`percolate_parallel_with_kernel`] at every worker count.
///
/// # Errors
///
/// Returns [`Cancelled`] once the token trips.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn percolate_parallel_cancellable(
    g: &Graph,
    threads: impl Into<Threads>,
    kernel: Kernel,
    cancel: &CancelToken,
) -> Result<CpmResult, Cancelled> {
    let threads = threads.into();
    let mut cliques =
        cliques::parallel::max_cliques_parallel_cancellable(g, threads, kernel, cancel)?;
    cliques.canonicalize();
    let index = build_vertex_index(&cliques, g.node_count());
    let strata = overlap_strata_parallel_impl(&cliques, &index, threads, kernel, 2, Some(cancel))?;
    percolate_from_strata_parallel_impl(cliques, strata, threads, &index, Some(cancel))
}

/// Computes the overlap stratification with `threads` workers and the
/// default [`Kernel::Auto`].
///
/// Identical — stratum for stratum, pair for pair, in order — to the
/// sequential [`crate::overlap_strata`]: workers emit into per-chunk
/// mini-strata which are concatenated in ascending chunk order.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn overlap_strata_parallel(
    cliques: &CliqueSet,
    index: &VertexCliqueIndex,
    threads: impl Into<Threads>,
) -> OverlapStrata {
    overlap_strata_parallel_with(cliques, index, threads, Kernel::Auto)
}

/// [`overlap_strata_parallel`] with an explicit counting [`Kernel`].
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn overlap_strata_parallel_with(
    cliques: &CliqueSet,
    index: &VertexCliqueIndex,
    threads: impl Into<Threads>,
    kernel: Kernel,
) -> OverlapStrata {
    overlap_strata_parallel_min(cliques, index, threads, kernel, 1)
}

/// [`overlap_strata_parallel_with`] restricted to pairs with overlap ≥
/// `min_overlap` (see [`crate::overlap_strata_min`] for why the fused
/// pipeline passes 2).
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn overlap_strata_parallel_min(
    cliques: &CliqueSet,
    index: &VertexCliqueIndex,
    threads: impl Into<Threads>,
    kernel: Kernel,
    min_overlap: u32,
) -> OverlapStrata {
    overlap_strata_parallel_impl(cliques, index, threads.into(), kernel, min_overlap, None)
        .expect("uncancellable overlap counting cannot be cancelled")
}

fn overlap_strata_parallel_impl(
    cliques: &CliqueSet,
    index: &VertexCliqueIndex,
    threads: Threads,
    kernel: Kernel,
    min_overlap: u32,
    cancel: Option<&CancelToken>,
) -> Result<OverlapStrata, Cancelled> {
    let n = cliques.len();
    let mut workers = threads.resolve(cliques.total_members(), AUTO_MEMBERS_PER_WORKER);
    if n < 2 * workers {
        workers = 1;
    }
    let max_size = cliques.max_size();
    let use_bitset = overlap_uses_bitset(kernel, cliques);
    let pool = Pool::global();

    if workers == 1 {
        // Sequential, but with the worker-0 arena's warm scratch.
        return pool.leader(|mut w| {
            let scratch = w.scratch_with(OverlapScratch::default);
            scratch.reset_for(cliques, use_bitset);
            let mut strata = OverlapStrata::new(max_size);
            for i in 0..n {
                // Same cancellation granularity as the parallel path.
                if i % OVERLAP_CHUNK == 0 {
                    if let Some(token) = cancel {
                        token.check()?;
                    }
                }
                scratch.count_overlaps_of(cliques, index, i as u32, |a, b, o| {
                    strata.push(a, b, o);
                });
                // Unconditional emit + per-clique discard: see
                // `clear_below`.
                strata.clear_below(min_overlap);
            }
            Ok(strata)
        });
    }

    // Streaming chunk-ordered reassembly: each finished chunk folds
    // into the shared strata the moment it is next due, so the peak
    // heap is one copy of the pairs plus at most [`OVERLAP_ABSORB_WINDOW`]
    // buffered chunks — not a second copy of every stratum held until a
    // post-job sort (which used to double the phase's peak at 2+
    // workers).
    let queue = ChunkQueue::new(n, OVERLAP_CHUNK);
    let absorber = OrderedAbsorber::new(OVERLAP_ABSORB_WINDOW, OverlapStrata::new(max_size));
    pool.run(workers, |mut w| {
        let scratch = w.scratch_with(OverlapScratch::default);
        scratch.reset_for(cliques, use_bitset);
        let claim = || match cancel {
            Some(token) => queue.claim_unless(token),
            None => queue.claim(),
        };
        while let Some(range) = claim() {
            let start = range.start;
            let mut strata = OverlapStrata::new(max_size);
            for i in range {
                scratch.count_overlaps_of(cliques, index, i as u32, |a, b, o| {
                    strata.push(a, b, o);
                });
                strata.clear_below(min_overlap);
            }
            absorber.submit(start / OVERLAP_CHUNK, strata, |acc, mut chunk| {
                acc.absorb(&mut chunk);
            });
        }
    });
    if let Some(token) = cancel {
        token.check()?;
    }
    Ok(absorber.into_inner())
}

/// The parallel fused sweep: one resident pool job drains every
/// stratum in descending k over a lock-free [`ConcurrentDsu`], with the
/// job's reusable barrier between strata.
///
/// The barrier is what preserves Theorem 1: each level's communities and
/// the previous level's parent links are snapshotted (by worker 0, while
/// the other workers hold at the barrier) from quiescent union–find
/// state, after stratum `k−1` has fully drained and before stratum `k−2`
/// starts. Within a stratum, union order is free — union–find is
/// confluent, and union-by-index makes even the *roots* deterministic
/// (the minimum clique id of each component), so the result is
/// bit-identical to the sequential [`crate::percolate_from_strata`] at
/// every thread count. Strata smaller than the parallel threshold are
/// drained by worker 0 alone; each stratum's memory is released right
/// after its snapshot, preserving the descending-peak property of the
/// sequential sweep.
///
/// As in the sequential sweep, `index` must be the unfiltered inverted
/// index of `cliques`: it supplies the k = 2 level (posting-list
/// chaining) and stratum 1 is ignored.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn percolate_from_strata_parallel(
    cliques: CliqueSet,
    strata: OverlapStrata,
    threads: impl Into<Threads>,
    index: &VertexCliqueIndex,
) -> CpmResult {
    percolate_from_strata_parallel_impl(cliques, strata, threads.into(), index, None)
        .expect("uncancellable sweep cannot be cancelled")
}

fn percolate_from_strata_parallel_impl(
    cliques: CliqueSet,
    mut strata: OverlapStrata,
    threads: Threads,
    index: &VertexCliqueIndex,
    cancel: Option<&CancelToken>,
) -> Result<CpmResult, Cancelled> {
    let k_max = cliques.max_size();
    if k_max < 2 {
        return Ok(CpmResult {
            cliques,
            levels: Vec::new(),
        });
    }
    // Parallelism only pays where a single stratum clears the union
    // threshold: resolve the worker count from the largest one.
    let largest = (2..k_max.max(2))
        .map(|o| strata.stratum(o).len())
        .max()
        .unwrap_or(0);
    let workers = threads.resolve(largest, PAR_UNION_MIN);
    if workers == 1 && cancel.is_none() {
        return Ok(percolate_from_strata(cliques, strata, index));
    }

    let dsu = ConcurrentDsu::new(cliques.len());
    // Strata in drain order (descending k ⇒ descending overlap), moved
    // behind RwLocks: workers share them read-locked while draining,
    // worker 0 write-locks to free each one after its snapshot.
    let strata_desc: Vec<RwLock<Vec<(u32, u32)>>> = (3..=k_max)
        .rev()
        .map(|k| RwLock::new(strata.take(k - 1)))
        .collect();
    let queues: Vec<ChunkQueue> = strata_desc
        .iter()
        .map(|lock| {
            let len = lock.read().map(|p| p.len()).unwrap_or(0);
            // Sub-threshold strata get an empty queue: the team skips
            // them and worker 0 drains inline.
            ChunkQueue::new(if len >= PAR_UNION_MIN { len } else { 0 }, UNION_CHUNK)
        })
        .collect();
    let seq_parts = Mutex::new((
        LevelSnapshotter::new(cliques.len()),
        Vec::<KLevel>::with_capacity(k_max - 1),
    ));
    let cliques_ref = &cliques;
    let dsu_ref = &dsu;

    Pool::global().run(workers, |w| {
        for (si, lock) in strata_desc.iter().enumerate() {
            let k = k_max - si;
            // Cancellation must preserve the barrier flow: a worker
            // that stops claiming still reaches both barriers of every
            // stratum, so its peers and the leader never deadlock —
            // the whole team just drains through empty iterations.
            let cancelled = cancel.is_some_and(|token| token.is_cancelled());
            {
                let pairs = lock.read().expect("sweep worker panicked");
                if queues[si].is_empty() {
                    if w.is_leader() && !cancelled {
                        for chunk in pairs.chunks(UNION_CHUNK) {
                            if cancel.is_some_and(|token| token.is_cancelled()) {
                                break;
                            }
                            for &(a, b) in chunk {
                                dsu_ref.union(a, b);
                            }
                        }
                    }
                } else {
                    let claim = || match cancel {
                        Some(token) => queues[si].claim_unless(token),
                        None => queues[si].claim(),
                    };
                    while let Some(range) = claim() {
                        for &(a, b) in &pairs[range] {
                            dsu_ref.union(a, b);
                        }
                    }
                }
            }
            // Quiesce: every union of stratum k−1 happens-before the
            // snapshot below.
            w.barrier();
            if w.is_leader() {
                drop(std::mem::take(
                    &mut *lock.write().expect("sweep worker panicked"),
                ));
                // A cancelled run's levels are discarded with the Err,
                // so the leader skips the snapshot work too.
                if !cancel.is_some_and(|token| token.is_cancelled()) {
                    let (snap, levels) = &mut *seq_parts.lock().expect("sweep worker panicked");
                    let level =
                        snap.snapshot(cliques_ref, k, &mut |x| dsu_ref.find(x), levels.last_mut());
                    levels.push(level);
                }
            }
            // And hold stratum k−2 until the snapshot is taken.
            w.barrier();
        }
    });
    if let Some(token) = cancel {
        token.check()?;
    }

    let (mut snap, mut levels_desc) = seq_parts.into_inner().expect("sweep worker panicked");
    // k = 2 off the posting lists, as in the sequential sweep. The
    // chain is Σ |postings| unions — far below the parallel threshold
    // in practice — so it runs inline on the calling thread.
    drop(strata.take(1));
    chain_union_postings(index, &mut |a, b| {
        dsu.union(a, b);
    });
    let level = snap.snapshot(&cliques, 2, &mut |x| dsu.find(x), levels_desc.last_mut());
    levels_desc.push(level);
    levels_desc.reverse();
    Ok(CpmResult {
        cliques,
        levels: levels_desc,
    })
}

/// Clique ids claimed per queue chunk during the parallel key phase of
/// the almost-mode sweep. Key emission per clique is a handful of
/// hashes, so chunks match the overlap phase's coarseness.
pub const KEY_CHUNK: usize = OVERLAP_CHUNK;

/// [`percolate_parallel`] in an explicit [`Mode`]: `Exact` is the
/// overlap-counting pipeline above, `Almost` swaps the pairwise phase
/// for the (k−1)-clique-key engine (see [`crate::mode`]) on the same
/// [`exec::Pool`].
///
/// The almost path is thread-count invariant the same way the exact
/// one is: per-chunk key maps are merged in ascending chunk order, the
/// union–find is confluent and union-by-index, and every level is
/// snapshotted from quiescent state behind the job barrier — so the
/// output equals the sequential [`crate::percolate_mode`] at every
/// worker count.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use cpm::Mode;
///
/// let g = Graph::complete(6);
/// let seq = cpm::percolate_mode(&g, Mode::Almost);
/// let par = cpm::parallel::percolate_parallel_mode(&g, 4, Mode::Almost);
/// assert_eq!(seq.levels, par.levels);
/// ```
pub fn percolate_parallel_mode(g: &Graph, threads: impl Into<Threads>, mode: Mode) -> CpmResult {
    let threads = threads.into();
    match mode {
        Mode::Exact => percolate_parallel(g, threads),
        Mode::Almost => {
            let threads = almost_auto_threads(threads, g);
            let mut cliques =
                cliques::parallel::max_cliques_parallel_with(g, threads, Kernel::Auto);
            cliques.canonicalize();
            let strata = SubsumptionStrata::build(&cliques);
            almost_sweep_parallel_impl(cliques, strata, threads, None)
                .expect("uncancellable sweep cannot be cancelled")
        }
    }
}

/// [`percolate_parallel_cancellable`] in an explicit [`Mode`]. The
/// almost path polls the token at enumeration claims, key-phase claims,
/// and stratum-drain claims; the sequential subsumption prepass checks
/// it at entry and exit.
///
/// # Errors
///
/// Returns [`Cancelled`] once the token trips.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn percolate_parallel_cancellable_mode(
    g: &Graph,
    threads: impl Into<Threads>,
    kernel: Kernel,
    cancel: &CancelToken,
    mode: Mode,
) -> Result<CpmResult, Cancelled> {
    let threads = threads.into();
    match mode {
        Mode::Exact => percolate_parallel_cancellable(g, threads, kernel, cancel),
        Mode::Almost => {
            let threads = almost_auto_threads(threads, g);
            let mut cliques =
                cliques::parallel::max_cliques_parallel_cancellable(g, threads, kernel, cancel)?;
            cliques.canonicalize();
            cancel.check()?;
            let strata = SubsumptionStrata::build(&cliques);
            cancel.check()?;
            almost_sweep_parallel_impl(cliques, strata, threads, Some(cancel))
        }
    }
}

/// The parallel almost-mode sweep: one resident pool job runs the
/// descending-k levels over a lock-free [`ConcurrentDsu`].
///
/// Per level, two sources feed the union–find:
///
/// * **Per-chunk key maps** (levels with `k − 1 ≤` [`KEY_MAX_L`]):
///   workers claim clique chunks of [`KEY_CHUNK`] and hash each
///   clique's admitted (k−1)-subsets into the arena-resident
///   [`KeyTable`] (epoch-cleared per chunk). Repeats *within* a chunk
///   union immediately; each chunk's first-seen `(key, owner)` pairs
///   are collected and merged by the leader in ascending chunk order
///   into a global table — so cross-chunk sharing unions exactly the
///   pairs the sequential first-seen semantics would, while the other
///   workers proceed straight into the stratum drain (union–find is
///   confluent, so the interleave is free).
/// * **The subsumption stratum** of the level, claimed in chunks of
///   [`UNION_CHUNK`]; sub-threshold strata are drained by the leader
///   inline, as in the exact sweep.
///
/// The job's reusable barrier then quiesces the level for the leader's
/// snapshot, exactly like [`percolate_from_strata_parallel`].
fn almost_sweep_parallel_impl(
    cliques: CliqueSet,
    strata: SubsumptionStrata,
    threads: Threads,
    cancel: Option<&CancelToken>,
) -> Result<CpmResult, Cancelled> {
    let k_max = cliques.max_size();
    if k_max < 2 {
        return Ok(CpmResult {
            cliques,
            levels: Vec::new(),
        });
    }
    let largest = (2..=k_max).map(|k| strata.at(k).len()).max().unwrap_or(0);
    let workers = threads.resolve(largest.max(cliques.len()), PAR_UNION_MIN);
    if workers == 1 && cancel.is_none() {
        return Ok(crate::mode::almost_percolate_with_strata(cliques, strata));
    }

    let dsu = ConcurrentDsu::new(cliques.len());
    let ks: Vec<usize> = (2..=k_max).rev().collect();
    let strata_queues: Vec<ChunkQueue> = ks
        .iter()
        .map(|&k| {
            let len = strata.at(k).len();
            // Sub-threshold strata get an empty queue: the team skips
            // them and the leader drains inline.
            ChunkQueue::new(if len >= PAR_UNION_MIN { len } else { 0 }, UNION_CHUNK)
        })
        .collect();
    let key_queues: Vec<ChunkQueue> = ks
        .iter()
        .map(|&k| {
            // Levels above the keyed band have no key phase at all —
            // their queue is empty and every worker skips the branch.
            ChunkQueue::new(
                if k - 1 <= KEY_MAX_L { cliques.len() } else { 0 },
                KEY_CHUNK,
            )
        })
        .collect();
    let chunk_maps: Mutex<ChunkKeyMaps> = Mutex::new(Vec::new());
    let seq_parts = Mutex::new((
        KeyTable::new(),
        LevelSnapshotter::new(cliques.len()),
        Vec::<KLevel>::with_capacity(k_max - 1),
    ));
    let cliques_ref = &cliques;
    let strata_ref = &strata;
    let dsu_ref = &dsu;

    Pool::global().run(workers, |mut w| {
        for (si, &k) in ks.iter().enumerate() {
            let cancelled = || cancel.is_some_and(|token| token.is_cancelled());
            if !key_queues[si].is_empty() {
                {
                    let table = w.scratch_with(KeyTable::new);
                    let mut local: Vec<(usize, Vec<(u64, u32)>)> = Vec::new();
                    let claim = || match cancel {
                        Some(token) => key_queues[si].claim_unless(token),
                        None => key_queues[si].claim(),
                    };
                    while let Some(range) = claim() {
                        let start = range.start;
                        table.begin_level();
                        let mut firsts: Vec<(u64, u32)> = Vec::new();
                        for i in range {
                            if cliques_ref.size(i) < k {
                                continue;
                            }
                            emit_keys(cliques_ref.get(i), k - 1, &mut |key| match table
                                .first_seen(key, i as u32)
                            {
                                None => firsts.push((key, i as u32)),
                                Some(owner) if owner != i as u32 => {
                                    dsu_ref.union(owner, i as u32);
                                }
                                Some(_) => {}
                            });
                        }
                        local.push((start, firsts));
                    }
                    chunk_maps
                        .lock()
                        .expect("almost sweep worker panicked")
                        .extend(local);
                }
                // Every chunk map must be in before the leader merges;
                // the non-leaders fall through to the stratum drain.
                w.barrier();
                if w.is_leader() {
                    let mut maps = std::mem::take(
                        &mut *chunk_maps.lock().expect("almost sweep worker panicked"),
                    );
                    if !cancelled() {
                        maps.sort_unstable_by_key(|&(start, _)| start);
                        let (table, _, _) =
                            &mut *seq_parts.lock().expect("almost sweep worker panicked");
                        table.begin_level();
                        for (_, firsts) in maps {
                            for (key, owner) in firsts {
                                if let Some(prev) = table.first_seen(key, owner) {
                                    if prev != owner {
                                        dsu_ref.union(prev, owner);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            {
                let pairs = strata_ref.at(k);
                if strata_queues[si].is_empty() {
                    if w.is_leader() && !cancelled() {
                        for chunk in pairs.chunks(UNION_CHUNK) {
                            if cancelled() {
                                break;
                            }
                            for &(a, b) in chunk {
                                dsu_ref.union(a, b);
                            }
                        }
                    }
                } else {
                    let claim = || match cancel {
                        Some(token) => strata_queues[si].claim_unless(token),
                        None => strata_queues[si].claim(),
                    };
                    while let Some(range) = claim() {
                        for &(a, b) in &pairs[range] {
                            dsu_ref.union(a, b);
                        }
                    }
                }
            }
            // Quiesce: every union of level k happens-before the
            // snapshot below.
            w.barrier();
            if w.is_leader() && !cancelled() {
                let (_, snap, levels) =
                    &mut *seq_parts.lock().expect("almost sweep worker panicked");
                let level =
                    snap.snapshot(cliques_ref, k, &mut |x| dsu_ref.find(x), levels.last_mut());
                levels.push(level);
            }
            // And hold level k−1 until the snapshot is taken.
            w.barrier();
        }
    });
    if let Some(token) = cancel {
        token.check()?;
    }

    let (_, _, mut levels_desc) = seq_parts
        .into_inner()
        .expect("almost sweep worker panicked");
    levels_desc.reverse();
    Ok(CpmResult {
        cliques,
        levels: levels_desc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percolate;
    use crate::sweep::overlap_strata_with;

    fn random_graph(n: u32, p: f64, seed: u64) -> Graph {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = asgraph::GraphBuilder::with_nodes(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.random_bool(p) {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }

    #[test]
    fn parallel_percolation_matches_sequential() {
        let g = random_graph(60, 0.15, 9);
        let seq = percolate(&g);
        let par = percolate_parallel(&g, 4);
        assert_eq!(seq.levels.len(), par.levels.len());
        for (ls, lp) in seq.levels.iter().zip(par.levels.iter()) {
            assert_eq!(ls.k, lp.k);
            let mut ms: Vec<_> = ls.communities.iter().map(|c| c.members.clone()).collect();
            let mut mp: Vec<_> = lp.communities.iter().map(|c| c.members.clone()).collect();
            ms.sort();
            mp.sort();
            assert_eq!(ms, mp, "level {}", ls.k);
        }
    }

    #[test]
    fn parallel_strata_match_sequential_exactly() {
        let g = random_graph(50, 0.2, 3);
        let cliques = cliques::max_cliques(&g);
        let index = build_vertex_index(&cliques, g.node_count());
        for kernel in [Kernel::Auto, Kernel::Bitset, Kernel::Merge] {
            let seq = overlap_strata_with(&cliques, &index, kernel);
            for threads in 1..=4 {
                let par = overlap_strata_parallel_with(&cliques, &index, threads, kernel);
                // Chunk-ordered reassembly: same strata, same order.
                assert_eq!(seq, par, "kernel {kernel}, threads {threads}");
            }
        }
        assert_eq!(
            crate::overlap_strata(&cliques, &index),
            overlap_strata_parallel(&cliques, &index, 4)
        );
    }

    #[test]
    fn parallel_sweep_is_bit_identical_across_thread_counts() {
        let g = random_graph(60, 0.15, 9);
        let reference = percolate(&g);
        for threads in [1usize, 2, 3, 7] {
            let par = percolate_parallel(&g, threads);
            assert_eq!(reference.cliques, par.cliques, "threads {threads}");
            assert_eq!(reference.levels, par.levels, "threads {threads}");
        }
        let auto = percolate_parallel(&g, Threads::Auto);
        assert_eq!(reference.levels, auto.levels, "threads auto");
    }

    #[test]
    fn strata_sweep_crosses_the_parallel_union_threshold() {
        // Force the multi-threaded stratum drain (pairs >= PAR_UNION_MIN),
        // not just the small-stratum worker-0 fallback: a chain of
        // 3-cliques {i, i+1, i+2} puts every consecutive pair in stratum
        // 2 (the smallest stratum the sweep drains from pairs — o = 1
        // comes off the posting lists), and the chain is long enough to
        // clear the threshold.
        let n = 2 * PAR_UNION_MIN as u32;
        let mut cliques = CliqueSet::new();
        for i in 0..n {
            cliques.push(&[i, i + 1, i + 2]);
        }
        let index = build_vertex_index(&cliques, n as usize + 2);
        let strata = crate::overlap_strata(&cliques, &index);
        assert!(strata.stratum(2).len() >= PAR_UNION_MIN);
        let seq = percolate_from_strata(cliques.clone(), strata.clone(), &index);
        let par = percolate_from_strata_parallel(cliques, strata, 4, &index);
        assert_eq!(seq.levels, par.levels);
        for level in &par.levels {
            assert_eq!(level.communities.len(), 1, "chain fully merges at every k");
        }
    }

    #[test]
    fn auto_sweep_crosses_the_threshold_when_work_allows() {
        // Same substrate as above through the Auto heuristic: resolves
        // to >= 1 worker everywhere and still bit-identical.
        let n = 2 * PAR_UNION_MIN as u32;
        let mut cliques = CliqueSet::new();
        for i in 0..n {
            cliques.push(&[i, i + 1, i + 2]);
        }
        let index = build_vertex_index(&cliques, n as usize + 2);
        let strata = crate::overlap_strata(&cliques, &index);
        let seq = percolate_from_strata(cliques.clone(), strata.clone(), &index);
        let auto = percolate_from_strata_parallel(cliques, strata, Threads::Auto, &index);
        assert_eq!(seq.levels, auto.levels);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let g = Graph::complete(3);
        let _ = percolate_parallel(&g, 0);
    }

    #[test]
    fn cancellable_with_live_token_matches_plain() {
        let g = random_graph(60, 0.15, 9);
        let reference = percolate(&g);
        let token = exec::CancelToken::new();
        for threads in [1usize, 2, 4] {
            let got = percolate_parallel_cancellable(&g, threads, Kernel::Auto, &token)
                .expect("token never trips");
            assert_eq!(reference.levels, got.levels, "threads {threads}");
        }
    }

    #[test]
    fn tripped_token_cancels_and_leaves_the_pool_reusable() {
        let g = random_graph(60, 0.15, 9);
        let token = exec::CancelToken::new();
        token.cancel();
        for threads in [1usize, 2, 4] {
            let err = percolate_parallel_cancellable(&g, threads, Kernel::Auto, &token);
            assert!(err.is_err(), "threads {threads}");
        }
        // The cancelled runs ran out through the barrier protocol: the
        // very next plain run on the same pool is correct.
        let seq = percolate(&g);
        let par = percolate_parallel(&g, 4);
        assert_eq!(seq.levels, par.levels);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        let r = percolate_parallel(&g, 2);
        assert_eq!(r.total_communities(), 0);
    }

    #[test]
    fn parallel_almost_is_bit_identical_across_thread_counts() {
        let g = random_graph(60, 0.15, 9);
        let reference = crate::percolate_mode(&g, Mode::Almost);
        for threads in [1usize, 2, 3, 7] {
            let par = percolate_parallel_mode(&g, threads, Mode::Almost);
            assert_eq!(reference.cliques, par.cliques, "threads {threads}");
            assert_eq!(reference.levels, par.levels, "threads {threads}");
        }
        let auto = percolate_parallel_mode(&g, Threads::Auto, Mode::Almost);
        assert_eq!(reference.levels, auto.levels, "threads auto");
    }

    #[test]
    fn auto_never_fans_out_below_the_percolate_crossover() {
        // Sub-crossover substrate (sparse300-sized): auto must snap to
        // one worker at the entry point, while fixed counts are always
        // honoured and a super-crossover graph keeps auto's per-phase
        // sizing.
        let small = random_graph(300, 0.05, 7);
        assert!(small.edge_count() < 2 * ALMOST_AUTO_EDGES_PER_WORKER);
        assert_eq!(
            almost_auto_threads(Threads::Auto, &small),
            Threads::Fixed(1)
        );
        assert_eq!(
            almost_auto_threads(Threads::Fixed(4), &small),
            Threads::Fixed(4)
        );
        let big = random_graph(300, 0.4, 7);
        assert!(big.edge_count() >= 2 * ALMOST_AUTO_EDGES_PER_WORKER);
        if exec::available_parallelism() > 1 {
            assert_eq!(almost_auto_threads(Threads::Auto, &big), Threads::Auto);
        } else {
            // One hardware thread: auto resolves to one worker above
            // the crossover too, and the clamp just makes it explicit.
            assert_eq!(almost_auto_threads(Threads::Auto, &big), Threads::Fixed(1));
        }
    }

    #[test]
    fn parallel_mode_dispatch_covers_exact_too() {
        let g = random_graph(40, 0.2, 5);
        assert_eq!(
            percolate_parallel(&g, 3).levels,
            percolate_parallel_mode(&g, 3, Mode::Exact).levels
        );
    }

    #[test]
    fn parallel_almost_crosses_the_union_threshold() {
        // A chain of 4-cliques {i..i+3}: consecutive pairs share 3
        // vertices — above the keyed band (KEY_MAX_L = 2), so the
        // counting prepass records them all in the k = 4 stratum,
        // which then exceeds PAR_UNION_MIN and exercises the
        // multi-worker stratum drain (not just the leader-inline
        // fallback).
        let n = 2 * PAR_UNION_MIN as u32;
        let mut cliques = CliqueSet::new();
        for i in 0..n {
            cliques.push(&[i, i + 1, i + 2, i + 3]);
        }
        cliques.canonicalize();
        let strata = SubsumptionStrata::build(&cliques);
        assert!(strata.at(4).len() >= PAR_UNION_MIN);
        let seq = crate::mode::almost_percolate_with_strata(
            cliques.clone(),
            SubsumptionStrata::build(&cliques),
        );
        let par = almost_sweep_parallel_impl(cliques, strata, Threads::Fixed(4), None)
            .expect("uncancellable");
        assert_eq!(seq.levels, par.levels);
        for level in &par.levels {
            assert_eq!(level.communities.len(), 1, "chain fully merges at every k");
        }
    }

    #[test]
    fn cancellable_almost_with_live_token_matches_plain() {
        let g = random_graph(60, 0.15, 9);
        let reference = crate::percolate_mode(&g, Mode::Almost);
        let token = exec::CancelToken::new();
        for threads in [1usize, 2, 4] {
            let got = percolate_parallel_cancellable_mode(
                &g,
                threads,
                Kernel::Auto,
                &token,
                Mode::Almost,
            )
            .expect("token never trips");
            assert_eq!(reference.levels, got.levels, "threads {threads}");
        }
    }

    #[test]
    fn tripped_token_cancels_almost_and_leaves_the_pool_reusable() {
        let g = random_graph(60, 0.15, 9);
        let token = exec::CancelToken::new();
        token.cancel();
        for threads in [1usize, 2, 4] {
            let err = percolate_parallel_cancellable_mode(
                &g,
                threads,
                Kernel::Auto,
                &token,
                Mode::Almost,
            );
            assert!(err.is_err(), "threads {threads}");
        }
        let seq = crate::percolate_mode(&g, Mode::Almost);
        let par = percolate_parallel_mode(&g, 4, Mode::Almost);
        assert_eq!(seq.levels, par.levels);
    }
}
