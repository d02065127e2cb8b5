//! Single-k exact percolation: the communities of one level `k`,
//! computed without the multi-level machinery.
//!
//! Two maximal cliques are adjacent at level `k` when they share at
//! least `k − 1` vertices (Palla et al.'s k-clique adjacency lifted to
//! maximal cliques), and the level-`k` communities are the member
//! unions of the connected components of that adjacency. Kumpula et
//! al.'s SCP ([`crate::scp`]) builds the same partition one k at a
//! time from the edges; this engine builds it from the maximal cliques
//! in five steps:
//!
//! 1. **Size-pruned sink.** Cliques stream in from the pool-parallel
//!    enumerator and only those of size ≥ `k` are kept, in a member
//!    arena with an ordinal CSR. A pair sharing `k − 1` vertices has
//!    both sizes ≥ `k` (two distinct maximal cliques never contain one
//!    another), so the rest cannot join or mediate a union.
//! 2. **Prefix filter.** Vertices are totally ordered by ascending
//!    frequency among the kept cliques, ties by id, and each clique's
//!    members are reordered accordingly. Its *probe prefix* is its
//!    first `s − k + 2` members, and posting lists are built over
//!    prefixes only. This is the similarity-join prefix lemma with
//!    threshold `t = k − 1`: if `|x ∩ y| ≥ t`, let `c` be the
//!    lowest-ordered shared vertex. Every shared vertex sits at or
//!    after `c`, so at least `t` of `x`'s members do, and `c`'s position
//!    in `x` is at most `|x| − t` — inside `x`'s prefix of
//!    `|x| − t + 1`. The same holds for `y`, so `y` is on the postings
//!    of a vertex `x` probes. No qualifying pair is missed, and the
//!    frequent (hub) vertices, which sit last, are rarely in a prefix.
//! 3. **Parallel probe.** Ordinals are chunked over the [`Pool`]. Each
//!    clique `x` collects the candidates `y < x` on its prefix postings
//!    (deduplicated with a per-worker stamp), skips those already in
//!    its [`ConcurrentDsu`] component, and verifies `|x ∩ y| ≥ k − 1`
//!    against a per-worker vertex mark, stopping as soon as the count
//!    is reached (or can no longer be). A hit is a union. The partition
//!    is the connected components of a fixed pair set, and the skip
//!    only drops pairs that are already connected, so it is the same
//!    under every schedule and worker count.
//! 4. **`k = 2`.** Every clique is chained to the last clique seen at
//!    each of its members — one union per membership, where a prefix
//!    would be the whole clique.
//! 5. **Output.** Components are compacted root by root, their member
//!    unions canonicalised and the list sorted: the same bytes as the
//!    staged [`crate::percolate_at`] sorted.

use crate::dsu_concurrent::ConcurrentDsu;
use crate::result::canonical_members;
use asgraph::{Graph, NodeId};
use cliques::{CliqueConsumer, Kernel};
use exec::{CancelToken, Cancelled, ChunkQueue, Pool, Threads};

/// Ordinals per probe claim: small, because the work per ordinal grows
/// with the ordinal (only `y < x` is probed) and varies with clique
/// size, so coarse chunks would leave one worker holding the tail.
const PROBE_CHUNK: usize = 64;

/// `Threads::Auto` grain of the probe, in kept memberships per worker.
const PROBE_AUTO_MEMBERS_PER_WORKER: usize = 8_192;

/// Sentinel of the per-worker stamp arrays: no ordinal stamped yet.
const UNSTAMPED: u32 = u32::MAX;

/// The cliques of size ≥ `k`, in stream order, as a member arena with
/// an ordinal CSR (clique `x` is `mem[off[x]..off[x + 1]]`).
pub(crate) struct KeptCliques {
    k: usize,
    mem: Vec<NodeId>,
    off: Vec<u32>,
}

impl CliqueConsumer for KeptCliques {
    fn consume(&mut self, clique: &[NodeId]) {
        self.push(clique);
    }
}

impl KeptCliques {
    /// An empty sink for level `k ≥ 2`.
    pub(crate) fn new(k: usize) -> Self {
        debug_assert!(k >= 2);
        KeptCliques {
            k,
            mem: Vec::new(),
            off: vec![0],
        }
    }

    /// Keeps `clique` if it has at least `k` members.
    pub(crate) fn push(&mut self, clique: &[NodeId]) {
        if clique.len() >= self.k {
            self.mem.extend_from_slice(clique);
            let end = u32::try_from(self.mem.len()).expect("kept memberships fit in u32");
            self.off.push(end);
        }
    }

    fn count(&self) -> usize {
        self.off.len() - 1
    }

    fn clique(&self, x: usize) -> &[NodeId] {
        &self.mem[self.off[x] as usize..self.off[x + 1] as usize]
    }

    /// Percolates the kept cliques at level `k` over up to `threads`
    /// pool workers and returns the communities as sorted member lists,
    /// sorted. `n` bounds the vertex ids.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] once `cancel` trips; the pool stays
    /// reusable.
    pub(crate) fn finish(
        mut self,
        n: usize,
        threads: Threads,
        cancel: &CancelToken,
    ) -> Result<Vec<Vec<NodeId>>, Cancelled> {
        let dsu = ConcurrentDsu::new(self.count());
        if self.k == 2 {
            self.chain(n, &dsu);
        } else {
            self.order_by_frequency(n);
            self.probe(n, threads, cancel, &dsu);
        }
        cancel.check()?;
        Ok(self.extract(&dsu))
    }

    /// `k = 2`: two cliques sharing a vertex are adjacent, so chaining
    /// each clique to the previous holder of each of its members yields
    /// the same components with one union per membership.
    fn chain(&self, n: usize, dsu: &ConcurrentDsu) {
        let mut last = vec![UNSTAMPED; n];
        for x in 0..self.count() {
            for &v in self.clique(x) {
                let prev = std::mem::replace(&mut last[v as usize], x as u32);
                if prev != UNSTAMPED {
                    dsu.union(prev, x as u32);
                }
            }
        }
    }

    /// Reorders every clique's members by ascending frequency among the
    /// kept cliques, ties by id: the global order of the prefix filter.
    fn order_by_frequency(&mut self, n: usize) {
        let mut freq = vec![0u32; n];
        for &v in &self.mem {
            freq[v as usize] += 1;
        }
        let mut by_freq: Vec<NodeId> = (0..n as NodeId).collect();
        by_freq.sort_unstable_by_key(|&v| (freq[v as usize], v));
        let mut rank = freq;
        for (r, &v) in by_freq.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        for x in 0..self.count() {
            let (b, e) = (self.off[x] as usize, self.off[x + 1] as usize);
            self.mem[b..e].sort_unstable_by_key(|&v| rank[v as usize]);
        }
    }

    /// The probe prefix of clique `x`: its first `s − k + 2` members in
    /// the frequency order.
    fn prefix(&self, x: usize) -> &[NodeId] {
        let c = self.clique(x);
        &c[..c.len() + 2 - self.k]
    }

    /// Steps 2–3: prefix postings, then the pool-parallel probe that
    /// unions every pair sharing at least `k − 1` vertices into `dsu`.
    fn probe(&self, n: usize, threads: Threads, cancel: &CancelToken, dsu: &ConcurrentDsu) {
        let count = self.count();
        // Posting lists over prefixes only, as a CSR; ordinals are
        // appended ascending, so every list is ascending.
        let mut post_off = vec![0u32; n + 1];
        for x in 0..count {
            for &v in self.prefix(x) {
                post_off[v as usize + 1] += 1;
            }
        }
        for v in 0..n {
            post_off[v + 1] += post_off[v];
        }
        let mut fill = post_off.clone();
        let mut post = vec![0u32; post_off[n] as usize];
        for x in 0..count {
            for &v in self.prefix(x) {
                post[fill[v as usize] as usize] = x as u32;
                fill[v as usize] += 1;
            }
        }
        drop(fill);

        let need = self.k - 1;
        let workers = threads.resolve(self.mem.len(), PROBE_AUTO_MEMBERS_PER_WORKER);
        let queue = ChunkQueue::new(count, PROBE_CHUNK);
        Pool::global().run(workers, |_w| {
            // `seen[y] == x`: y already considered for x; `mark[v] == x`:
            // v is a member of x.
            let mut seen = vec![UNSTAMPED; count];
            let mut mark = vec![UNSTAMPED; n];
            while let Some(range) = queue.claim_unless(cancel) {
                for x in range {
                    let xs = x as u32;
                    for &v in self.clique(x) {
                        mark[v as usize] = xs;
                    }
                    for &v in self.prefix(x) {
                        let list =
                            &post[post_off[v as usize] as usize..post_off[v as usize + 1] as usize];
                        for &y in list {
                            if y >= xs {
                                break;
                            }
                            if std::mem::replace(&mut seen[y as usize], xs) == xs || dsu.same(xs, y)
                            {
                                continue;
                            }
                            if shares_at_least(self.clique(y as usize), &mark, xs, need) {
                                dsu.union(xs, y);
                            }
                        }
                    }
                }
            }
        });
    }

    /// Step 5: one community per component, member unions
    /// canonicalised, communities sorted.
    fn extract(&self, dsu: &ConcurrentDsu) -> Vec<Vec<NodeId>> {
        let mut group_of_root = vec![UNSTAMPED; self.count()];
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        for x in 0..self.count() {
            let root = dsu.find(x as u32) as usize;
            if group_of_root[root] == UNSTAMPED {
                group_of_root[root] = groups.len() as u32;
                groups.push(Vec::new());
            }
            groups[group_of_root[root] as usize].extend_from_slice(self.clique(x));
        }
        let mut out: Vec<Vec<NodeId>> = groups.into_iter().map(canonical_members).collect();
        out.sort_unstable();
        out
    }
}

/// Whether at least `need` members of `ys` carry the mark `x`, scanning
/// no further than the answer requires.
fn shares_at_least(ys: &[NodeId], mark: &[u32], x: u32, need: usize) -> bool {
    let mut hits = 0;
    for (i, &v) in ys.iter().enumerate() {
        if mark[v as usize] == x {
            hits += 1;
            if hits == need {
                return true;
            }
        } else if hits + (ys.len() - i - 1) < need {
            return false;
        }
    }
    false
}

/// Exact single-level percolation over up to `threads` pool workers,
/// polling `cancel` between enumerated chunks and at every probe claim:
/// the level-`k` communities as sorted member lists, sorted —
/// byte-identical to the sorted staged [`crate::percolate_at`] at every
/// worker count and kernel. `k < 2` yields no communities.
///
/// Only cliques of size ≥ `k` are kept, and only the candidate pairs
/// that pass a frequency-ordered prefix filter are verified (DESIGN.md,
/// "Single-k saturation", proves that no adjacent pair is missed), so
/// the working set is a fraction of the multi-level engines'.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use cliques::Kernel;
/// use exec::{CancelToken, Threads};
///
/// // Two triangles sharing vertex 2: separate at k = 3, one at k = 2.
/// let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
/// let token = CancelToken::new();
/// let at3 = cpm::percolate_at_cancellable(&g, 3, Threads::Auto, Kernel::Auto, &token);
/// assert_eq!(at3, Ok(vec![vec![0, 1, 2], vec![2, 3, 4]]));
/// let at2 = cpm::percolate_at_cancellable(&g, 2, Threads::Fixed(2), Kernel::Auto, &token);
/// assert_eq!(at2, Ok(vec![vec![0, 1, 2, 3, 4]]));
/// ```
///
/// # Errors
///
/// Returns [`Cancelled`] once `cancel` trips; the partial state is
/// discarded and the pool stays reusable.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn percolate_at_cancellable(
    g: &Graph,
    k: usize,
    threads: impl Into<Threads>,
    kernel: Kernel,
    cancel: &CancelToken,
) -> Result<Vec<Vec<NodeId>>, Cancelled> {
    if k < 2 {
        return Ok(Vec::new());
    }
    let threads = threads.into();
    let mut kept = KeptCliques::new(k);
    cliques::parallel::consume_max_cliques_parallel_cancellable(
        g, threads, kernel, cancel, &mut kept,
    )?;
    kept.finish(g.node_count(), threads, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_communities;
    use crate::{FusedPercolator, Mode};

    /// The engine at 1, 2 and 4 workers, checked against the staged
    /// [`crate::percolate_at`] and the literal definition.
    fn at_k_checked(g: &Graph, k: usize) -> Vec<Vec<NodeId>> {
        let mut staged = crate::percolate_at(g, k);
        staged.sort_unstable();
        assert_eq!(staged, naive_communities(g, k), "staged oracle, k {k}");
        let token = CancelToken::new();
        for workers in [1, 2, 4] {
            let got = percolate_at_cancellable(g, k, workers, Kernel::Auto, &token)
                .expect("a fresh token never cancels");
            assert_eq!(got, staged, "k {k}, {workers} workers");
        }
        staged
    }

    /// Edges of the clique on `members`.
    fn clique_edges(members: &[NodeId], edges: &mut Vec<(NodeId, NodeId)>) {
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                edges.push((u, v));
            }
        }
    }

    /// `k − 2` hub vertices `0..k−2` that are the most frequent among
    /// the size-≥-k cliques: `m` background cliques `hubs ∪ {a, b}`
    /// share only the hubs pairwise. Then two cliques `hubs ∪ {x, p}`
    /// and `hubs ∪ {y, q}`, with `x == y` when `share_extra`: they
    /// share `k − 1` vertices, `k − 2` of them hubs, or only the hubs.
    fn hub_pair(k: usize, m: usize, share_extra: bool) -> (Graph, Vec<NodeId>) {
        let hubs: Vec<NodeId> = (0..k as NodeId - 2).collect();
        let mut next = hubs.len() as NodeId;
        let mut fresh = || {
            next += 1;
            next - 1
        };
        let mut edges = Vec::new();
        for _ in 0..m {
            let mut c = hubs.clone();
            c.extend([fresh(), fresh()]);
            clique_edges(&c, &mut edges);
        }
        let x = fresh();
        let y = if share_extra { x } else { fresh() };
        let (p, q) = (fresh(), fresh());
        let mut left = hubs.clone();
        left.extend([x, p]);
        let mut right = hubs.clone();
        right.extend([y, q]);
        clique_edges(&left, &mut edges);
        clique_edges(&right, &mut edges);
        let mut pair = left;
        pair.extend(right);
        let pair = canonical_members(pair);
        (Graph::from_edges(next as usize, edges), pair)
    }

    /// A shared `k − 1` whose `k − 2` hubs sit outside both probe
    /// prefixes still merges: the remaining shared vertex is in both.
    #[test]
    fn pair_sharing_k_minus_1_behind_the_hubs_merges() {
        for k in 3..=6 {
            let (g, pair) = hub_pair(k, 6, true);
            let got = at_k_checked(&g, k);
            assert_eq!(got.len(), 7, "k {k}");
            assert!(got.contains(&pair), "k {k}: {got:?}");
        }
    }

    /// The same pair sharing only the `k − 2` hubs stays apart.
    #[test]
    fn pair_sharing_only_the_hubs_stays_apart() {
        for k in 3..=6 {
            let (g, pair) = hub_pair(k, 6, false);
            let got = at_k_checked(&g, k);
            assert_eq!(got.len(), 8, "k {k}");
            assert!(!got.contains(&pair), "k {k}: {got:?}");
        }
    }

    /// A pair sharing `k − 2` *rare* vertices, whose private pairs
    /// `{0, 1}` and `{2, 3}` are hubs of `m` background cliques each: the
    /// shared vertices fill both probe prefixes, so the pair is a
    /// candidate, and only the `k − 1` verification keeps it apart.
    #[test]
    fn candidate_pair_sharing_k_minus_2_fails_verification() {
        for k in 3..=6 {
            let m = 5;
            let shared: Vec<NodeId> = (4..k as NodeId + 2).collect();
            let mut next = k as NodeId + 2;
            let mut edges = Vec::new();
            for hubs in [[0, 1], [2, 3]] {
                for _ in 0..m {
                    let mut c = hubs.to_vec();
                    c.extend(next..next + k as NodeId - 2);
                    next += k as NodeId - 2;
                    clique_edges(&c, &mut edges);
                }
                let mut c = shared.clone();
                c.extend(hubs);
                clique_edges(&c, &mut edges);
            }
            let g = Graph::from_edges(next as usize, edges);
            let got = at_k_checked(&g, k);
            assert!(
                got.iter().all(|c| !(c.contains(&0) && c.contains(&2))),
                "k {k}: {got:?}"
            );
        }
    }

    /// The circulant ring `C_n(1, …, k−1)`: its maximal cliques are the
    /// `n` windows of `k` consecutive vertices, all of size exactly `k`,
    /// every vertex in `k` of them. With all frequencies equal only the
    /// id tie-break orders the prefixes, and consecutive windows
    /// (sharing `k − 1`) chain the whole ring into one community.
    #[test]
    fn equal_frequencies_and_exact_size_k_cliques_chain_the_ring() {
        for k in 2..=6usize {
            let n = 3 * k as NodeId + 2;
            let mut edges = Vec::new();
            for u in 0..n {
                for d in 1..k as NodeId {
                    edges.push((u, (u + d) % n));
                }
            }
            let g = Graph::from_edges(n as usize, edges);
            assert_eq!(
                at_k_checked(&g, k),
                vec![(0..n).collect::<Vec<_>>()],
                "k {k}"
            );
            assert!(at_k_checked(&g, k + 1).is_empty(), "k {}", k + 1);
        }
    }

    /// Above the largest clique, and below 2, the cover is empty.
    #[test]
    fn out_of_range_k_gives_an_empty_cover() {
        let (g, _) = hub_pair(4, 3, true);
        let token = CancelToken::new();
        for k in [0, 1, 5, 9] {
            assert_eq!(
                percolate_at_cancellable(&g, k, 2, Kernel::Auto, &token),
                Ok(vec![])
            );
        }
    }

    /// A token that has already tripped cancels the run.
    #[test]
    fn pre_tripped_token_cancels() {
        let (g, _) = hub_pair(4, 40, true);
        let token = CancelToken::new();
        token.cancel();
        for workers in [1, 2, 4] {
            assert_eq!(
                percolate_at_cancellable(&g, 4, workers, Kernel::Auto, &token),
                Err(Cancelled)
            );
        }
    }

    /// An exact [`FusedPercolator`] that has consumed the cliques hands
    /// level `k` to this engine, with the same answer.
    #[test]
    fn fused_exact_finish_at_delegates_here() {
        let (g, _) = hub_pair(5, 4, true);
        for k in 2..=6 {
            let mut p = FusedPercolator::new(g.node_count(), Mode::Exact);
            cliques::consume_max_cliques(&g, Kernel::Auto, &mut p);
            assert_eq!(p.finish_at(k), at_k_checked(&g, k), "k {k}");
        }
    }
}
