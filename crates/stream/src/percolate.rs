//! The online clique percolator: cliques in, communities out, nothing
//! quadratic in between.
//!
//! `cpm::percolate` keeps three big structures alive at once: the full
//! [`cliques::CliqueSet`], the vertex→clique index, and the materialised
//! clique-overlap edge list (the quadratic-ish term that dominates peak
//! memory on Internet-scale inputs). The streaming percolator consumes
//! each maximal clique the moment the enumerator (or the on-disk clique
//! log) produces it and folds it straight into a union–find, following
//! Baudin, Magnien & Tabourier's memory-efficient CPM: the only
//! per-clique state retained is what future overlap tests can still
//! need.
//!
//! Two fidelity modes, sharing the batch engine's [`cpm::Mode`]
//! vocabulary (the crate-local enum this module used to define is
//! unified away — [`Mode`] here *is* `cpm::Mode`):
//!
//! - [`Mode::Exact`] — per-node postings (`node → ids of cliques seen
//!   through it`). An incoming clique counts its overlap with exactly
//!   the cliques sharing at least one node, via one merge-count pass
//!   over its members' postings, and unions those overlapping in
//!   ≥ k−1 nodes. Memory: the postings (≤ total clique memberships — the
//!   same order as the batch path's vertex index) plus the DSU, but
//!   never the clique member arena *or* the overlap edge list.
//!   Community-equivalent to `cpm::percolate` (property-tested).
//! - [`Mode::Almost`] — Baudin et al.'s almost-exact variant in its
//!   streaming form (previously spelled `Mode::LastSeen`, now a
//!   [deprecated alias](LAST_SEEN)): each node remembers only the
//!   *last* clique seen through it, so percolation state is O(nodes) +
//!   DSU. A clique that overlaps an old clique in ≥ k−1 nodes without
//!   sharing k−1 nodes with any *latest* clique of those nodes can be
//!   missed, splitting one true community in two — communities are
//!   always unions of true sub-communities (never over-merged), which
//!   the property tests assert. The batch path's almost engine
//!   ([`cpm::mode`]) reaches the same end differently (subset keys +
//!   subsumption strata need the whole clique set); what the mode
//!   *means* — bounded state, refinement-only error — is identical,
//!   which is why the vocabulary is shared.
//!
//! [`StreamPercolator`] runs one level; the exact all-`k` sweep is one
//! replay into a nested union–find holding every level.

use crate::source::{consume_source, CliqueSource};
use crate::StreamError;
use asgraph::NodeId;
use cliques::CliqueConsumer;
use cpm::{canonical_members, Community, Dsu, KLevel};
use exec::Threads;

/// The engine selector — re-exported from the batch crate so every
/// pipeline (batch, parallel, streaming, CLI, serve) speaks one mode
/// vocabulary. In the streaming context [`Mode::Almost`] selects the
/// per-node last-clique-seen strategy (see module docs).
pub use cpm::Mode;

/// The pre-unification spelling of the streaming almost-exact
/// strategy.
#[deprecated(
    since = "0.2.0",
    note = "the mode vocabulary is unified with the batch engine: use `Mode::Almost`"
)]
pub const LAST_SEEN: Mode = Mode::Almost;

const NONE: u32 = u32::MAX;

/// Online single-`k` clique percolation over a stream of maximal
/// cliques.
///
/// Feed every maximal clique of the graph (any order) to
/// [`StreamPercolator::push`], then call [`StreamPercolator::finish`].
///
/// # Example
///
/// ```
/// use cpm_stream::StreamPercolator;
///
/// // Two triangles sharing an edge percolate into one k=3 community.
/// let mut p = StreamPercolator::new(4, 3);
/// p.push(&[0, 1, 2]);
/// p.push(&[1, 2, 3]);
/// let communities = p.finish();
/// assert_eq!(communities.len(), 1);
/// assert_eq!(communities[0].members, vec![0, 1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct StreamPercolator {
    k: usize,
    mode: Mode,
    /// Per accepted clique: its size.
    sizes: Vec<u32>,
    /// Per accepted clique: its ordinal in the full stream (also counting
    /// cliques below size k), so multi-k passes agree on clique identity.
    ordinals: Vec<u32>,
    dsu: Dsu,
    /// Exact: `node -> accepted cliques containing it`, ids ascending.
    postings: Vec<Vec<u32>>,
    /// Almost: `node -> last accepted clique containing it`.
    last_seen: Vec<u32>,
    /// Almost: member accumulator per DSU root (small-to-large merged).
    root_members: Vec<Vec<NodeId>>,
    /// Scratch: per accepted clique, overlap count with the incoming one.
    counts: Vec<u32>,
    touched: Vec<u32>,
    /// Cliques offered so far, accepted or not.
    seen: u32,
}

/// A [`StreamPercolator`] plugs directly into the sink-driven clique
/// pipeline: the Bron–Kerbosch drivers in [`cliques::sink`] (and the
/// fused percolator in `cpm`) deliver cliques through this same trait,
/// so the streaming engine, the fused engine, and the log writer all
/// share one delivery surface.
impl CliqueConsumer for StreamPercolator {
    fn consume(&mut self, clique: &[NodeId]) {
        self.push(clique);
    }
}

impl StreamPercolator {
    /// Creates an exact percolator for a graph of `n` vertices at level
    /// `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(n: usize, k: usize) -> Self {
        Self::with_mode(n, k, Mode::Exact)
    }

    /// Creates a percolator with an explicit fidelity [`Mode`].
    ///
    /// Overlap counts saturate at the threshold `k−1` and the union
    /// fires the instant a pair reaches it — counts are only ever *used*
    /// thresholded here, so every increment past `k−1` is wasted work —
    /// and pairs already in the same component are skipped outright.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn with_mode(n: usize, k: usize, mode: Mode) -> Self {
        assert!(k >= 2, "clique percolation needs k >= 2, got {k}");
        StreamPercolator {
            k,
            mode,
            sizes: Vec::new(),
            ordinals: Vec::new(),
            dsu: Dsu::new(0),
            postings: match mode {
                Mode::Exact => vec![Vec::new(); n],
                Mode::Almost => Vec::new(),
            },
            last_seen: match mode {
                Mode::Exact => Vec::new(),
                Mode::Almost => vec![NONE; n],
            },
            root_members: Vec::new(),
            counts: Vec::new(),
            touched: Vec::new(),
            seen: 0,
        }
    }

    /// The percolation level.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Cliques accepted so far (size ≥ k).
    pub fn clique_count(&self) -> usize {
        self.sizes.len()
    }

    /// Folds the next clique of the stream into the union–find. Members
    /// must be sorted strictly ascending; cliques smaller than `k` are
    /// counted (for stream ordinals) but otherwise ignored.
    ///
    /// # Panics
    ///
    /// Panics if a member id is outside the vertex space declared at
    /// construction.
    pub fn push(&mut self, clique: &[NodeId]) {
        debug_assert!(
            clique.windows(2).all(|w| w[0] < w[1]),
            "clique members must be sorted strictly ascending: {clique:?}"
        );
        let ordinal = self.seen;
        self.seen += 1;
        if clique.len() < self.k {
            return;
        }
        let id = self.dsu.push();
        self.sizes.push(clique.len() as u32);
        self.ordinals.push(ordinal);
        self.counts.push(0);
        let need = (self.k - 1) as u32;

        // Saturating overlap counts: the union fires the moment a pair
        // reaches the threshold, increments past it are skipped, and a
        // pair already connected is saturated at first touch.
        let (counts, touched, dsu) = (&mut self.counts, &mut self.touched, &mut self.dsu);
        let mut bump = |c: u32| {
            let cnt = &mut counts[c as usize];
            if *cnt == 0 {
                touched.push(c);
                if dsu.same(id, c) {
                    *cnt = need;
                    return;
                }
            }
            if *cnt < need {
                *cnt += 1;
                if *cnt == need {
                    dsu.union(id, c);
                }
            }
        };
        match self.mode {
            // One merge-count pass over the postings of the clique's
            // members: every prior clique sharing a node is counted.
            Mode::Exact => {
                for &v in clique {
                    self.postings[v as usize].iter().for_each(|&c| bump(c));
                }
            }
            // Count only against the snapshot of each member's last
            // clique — O(|clique|) state probes, O(n) total memory.
            Mode::Almost => {
                for &v in clique {
                    let c = self.last_seen[v as usize];
                    if c != NONE {
                        bump(c);
                    }
                }
            }
        }
        for &c in &self.touched {
            self.counts[c as usize] = 0;
        }
        self.touched.clear();

        match self.mode {
            Mode::Exact => {
                for &v in clique {
                    self.postings[v as usize].push(id);
                }
            }
            Mode::Almost => {
                for &v in clique {
                    self.last_seen[v as usize] = id;
                }
                // Accumulate members at the clique's current root,
                // merging small-to-large when unions moved roots.
                self.root_members.push(Vec::new());
                let root = self.dsu.find(id) as usize;
                let mut members = std::mem::take(&mut self.root_members[id as usize]);
                members.extend_from_slice(clique);
                if root != id as usize {
                    if self.root_members[root].len() < members.len() {
                        let old = std::mem::replace(&mut self.root_members[root], members);
                        self.root_members[root].extend_from_slice(&old);
                    } else {
                        self.root_members[root].extend_from_slice(&members);
                    }
                } else {
                    self.root_members[id as usize] = members;
                }
                // Unions may also have moved *other* roots under `root`;
                // sweep their member lists lazily in finish().
            }
        }
    }

    /// Closes the stream and returns the `k`-clique communities,
    /// deterministically ordered by their smallest member clique's stream
    /// ordinal. Each community carries its member vertices (sorted,
    /// deduplicated) and the stream ordinals of its cliques in
    /// `clique_ids`.
    pub fn finish(mut self) -> Vec<Community> {
        let clique_count = self.sizes.len();
        // Root-indexed compaction (no hashing): roots are clique ids, so
        // a plain vec maps root → community index in one find pass.
        let mut idx_of_root: Vec<u32> = vec![u32::MAX; clique_count];
        let mut communities: Vec<Community> = Vec::new();
        for id in 0..clique_count as u32 {
            let root = self.dsu.find(id) as usize;
            if idx_of_root[root] == u32::MAX {
                idx_of_root[root] = communities.len() as u32;
                communities.push(Community {
                    members: Vec::new(),
                    clique_ids: Vec::new(),
                    parent: None,
                });
            }
            communities[idx_of_root[root] as usize]
                .clique_ids
                .push(self.ordinals[id as usize]);
        }

        match self.mode {
            Mode::Exact => {
                // Members from the postings: node v belongs to every
                // community whose root owns one of v's cliques.
                for v in 0..self.postings.len() {
                    for i in 0..self.postings[v].len() {
                        let c = self.postings[v][i];
                        let idx = idx_of_root[self.dsu.find(c) as usize] as usize;
                        // Nodes arrive in ascending order, so a duplicate
                        // (node in several cliques of one community) is
                        // always the current tail.
                        if communities[idx].members.last() != Some(&(v as NodeId)) {
                            communities[idx].members.push(v as NodeId);
                        }
                    }
                }
            }
            Mode::Almost => {
                // Members were accumulated at roots as unions happened;
                // fold any list stranded at a non-root by later unions.
                for id in 0..clique_count {
                    let root = self.dsu.find(id as u32) as usize;
                    if root != id && !self.root_members[id].is_empty() {
                        let stranded = std::mem::take(&mut self.root_members[id]);
                        self.root_members[root].extend_from_slice(&stranded);
                    }
                }
                for (root, members) in self.root_members.into_iter().enumerate() {
                    if members.is_empty() {
                        continue;
                    }
                    let idx = idx_of_root[self.dsu.find(root as u32) as usize] as usize;
                    communities[idx].members = canonical_members(members);
                }
            }
        }
        communities
    }
}

/// The multi-level streaming result: one [`KLevel`] per `k` from 2 to
/// `k_max`, with parent links forming the k-clique community tree —
/// the streaming counterpart of [`cpm::CpmResult`], minus the retained
/// clique set (`clique_ids` are stream ordinals instead).
#[derive(Debug, Clone)]
pub struct StreamCpmResult {
    /// Levels for `k = 2..=k_max`, ascending; empty if no clique of size
    /// ≥ 2 was streamed.
    pub levels: Vec<KLevel>,
}

impl StreamCpmResult {
    /// The largest `k` with at least one community.
    pub fn k_max(&self) -> Option<u32> {
        self.levels.last().map(|l| l.k)
    }

    /// The communities at level `k`, if `2 <= k <= k_max`.
    pub fn level(&self, k: u32) -> Option<&KLevel> {
        if k < 2 {
            return None;
        }
        self.levels.get((k - 2) as usize)
    }

    /// Total community count across all levels.
    pub fn total_communities(&self) -> usize {
        self.levels.iter().map(|l| l.communities.len()).sum()
    }
}

/// Runs one streaming percolation pass at level `k` over `source`,
/// returning the communities' member lists in canonical order — the
/// streaming counterpart of [`cpm::percolate_at`].
///
/// # Errors
///
/// Fails only if the source does (I/O on a clique log).
pub fn stream_percolate_at<S: CliqueSource + ?Sized>(
    source: &mut S,
    k: usize,
) -> Result<Vec<Vec<NodeId>>, StreamError> {
    if k < 2 {
        return Ok(Vec::new());
    }
    let mut p = StreamPercolator::new(source.node_count(), k);
    consume_source(source, &mut p)?;
    let mut covers: Vec<Vec<NodeId>> = p.finish().into_iter().map(|c| c.members).collect();
    covers.sort_unstable();
    Ok(covers)
}

/// Runs the full all-`k` sweep in one replay of `source`, producing
/// every community and the community tree without ever holding the
/// clique set or overlap graph in memory — the streaming counterpart of
/// [`cpm::percolate`].
///
/// # Errors
///
/// Fails only if the source does (I/O on a clique log).
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use cpm_stream::GraphSource;
///
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// let result = cpm_stream::stream_percolate(&mut GraphSource::new(&g)).unwrap();
/// assert_eq!(result.k_max(), Some(3));
/// assert_eq!(result.level(3).unwrap().communities.len(), 1);
/// ```
pub fn stream_percolate<S: CliqueSource + ?Sized>(
    source: &mut S,
) -> Result<StreamCpmResult, StreamError> {
    stream_percolate_parallel(source, Threads::Auto)
}

/// [`stream_percolate`] with a worker-count policy, which the sweep
/// ignores (see [`stream_percolate_parallel_mode`]).
///
/// # Errors
///
/// Fails only if the source does (I/O on a clique log).
pub fn stream_percolate_parallel<S: CliqueSource + ?Sized>(
    source: &mut S,
    threads: impl Into<Threads>,
) -> Result<StreamCpmResult, StreamError> {
    stream_percolate_parallel_mode(source, threads, Mode::Exact)
}

/// The all-`k` streaming sweep with an explicit engine [`Mode`].
///
/// [`Mode::Exact`] replays `source` once, counting each clique pair's
/// overlap once into a nested union–find that holds every level, so
/// state is O(clique memberships) whatever the level count.
/// [`Mode::Almost`] runs the O(nodes) last-seen [`StreamPercolator`]
/// level by level, one replay each, so one level's state is alive at a
/// time; it may split (never merge) communities.
///
/// `threads` is kept for signature stability and ignored: the sweep
/// runs sequentially, off the worker pool, with the same result for
/// every value.
///
/// # Errors
///
/// Fails only if the source does (I/O on a clique log, or
/// [`StreamError::Interrupted`] when its cancel token trips).
pub fn stream_percolate_parallel_mode<S: CliqueSource + ?Sized>(
    source: &mut S,
    threads: impl Into<Threads>,
    mode: Mode,
) -> Result<StreamCpmResult, StreamError> {
    let _ = threads;
    let n = source.node_count();
    let mut levels = Vec::new();
    let clique_count = match mode {
        Mode::Exact => {
            let mut p = NestedPercolator {
                postings: vec![Vec::new(); n],
                base: vec![0],
                ..NestedPercolator::default()
            };
            source.replay(&mut |clique| p.push(clique))?;
            let count = p.counts.len();
            levels = p.finish();
            count
        }
        Mode::Almost => {
            // The level-2 replay also learns k_max.
            let mut k_max = 0;
            let mut p = StreamPercolator::with_mode(n, 2, mode);
            source.replay(&mut |clique| {
                k_max = k_max.max(clique.len());
                p.push(clique);
            })?;
            let count = p.seen as usize;
            if k_max >= 2 {
                levels.push(KLevel {
                    k: 2,
                    communities: p.finish(),
                });
            }
            for k in 3..=k_max {
                let mut p = StreamPercolator::with_mode(n, k, mode);
                consume_source(source, &mut p)?;
                levels.push(KLevel {
                    k: k as u32,
                    communities: p.finish(),
                });
            }
            count
        }
    };
    // Theorem 1 linking on stream ordinals: the parent of a level-(k+1)
    // community is the level-k community holding its first clique.
    let mut idx_of_ordinal = vec![u32::MAX; clique_count];
    for i in 1..levels.len() {
        let (lower, upper) = levels.split_at_mut(i);
        for (idx, c) in lower[i - 1].communities.iter().enumerate() {
            for &ordinal in &c.clique_ids {
                idx_of_ordinal[ordinal as usize] = idx as u32;
            }
        }
        for c in &mut upper[0].communities {
            c.parent = Some(idx_of_ordinal[c.clique_ids[0] as usize]);
        }
    }
    Ok(StreamCpmResult { levels })
}

/// The exact all-`k` engine. Clique `c` owns one union–find slot per
/// level `2..=|c|`, laid out raggedly (Σ(|c|−1) slots, no dense
/// `k_max × cliques` table); level `k` is a union–find over the cliques
/// of size ≥ k. A pair overlapping in `o` nodes is adjacent at every
/// level up to `o + 1` both reach, so a union at level `j` is also made
/// at every level below it and level `j`'s partition always refines
/// level `j−1`'s. DESIGN.md §7 has the full argument.
#[derive(Debug, Default)]
struct NestedPercolator {
    /// `node -> ids of cliques of size ≥ 2 containing it`, ascending.
    postings: Vec<Vec<u32>>,
    /// Clique `c` owns slots `base[c]..base[c + 1]`, one per level.
    base: Vec<u32>,
    /// Slot `base[c] + k − 2` holds `c`'s parent clique at level `k`.
    /// Unions link the larger root under the smaller, so a set's root
    /// is its smallest clique id.
    parent: Vec<u32>,
    /// Scratch: per clique, its overlap with the incoming one.
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl NestedPercolator {
    fn size(&self, c: u32) -> usize {
        (self.base[c as usize + 1] - self.base[c as usize]) as usize + 1
    }

    fn slot(&self, c: u32, k: usize) -> usize {
        self.base[c as usize] as usize + k - 2
    }

    /// Root of `c` at level `k`, with path halving.
    fn find(&mut self, mut c: u32, k: usize) -> u32 {
        loop {
            let s = self.slot(c, k);
            let p = self.parent[s];
            if p == c {
                return c;
            }
            self.parent[s] = self.parent[self.slot(p, k)];
            c = self.parent[s];
        }
    }

    /// Joins `a` and `b` at level `k`; `false` if they already were.
    fn union(&mut self, a: u32, b: u32, k: usize) -> bool {
        let (ra, rb) = (self.find(a, k), self.find(b, k));
        if ra == rb {
            return false;
        }
        let s = self.slot(ra.max(rb), k);
        self.parent[s] = ra.min(rb);
        true
    }

    fn push(&mut self, clique: &[NodeId]) {
        let id = self.counts.len() as u32;
        let s = clique.len();
        let end = u32::try_from(self.parent.len() + s.saturating_sub(1))
            .expect("clique memberships exceed the u32 slot space");
        self.base.push(end);
        self.parent.resize(end as usize, id);
        self.counts.push(0);
        if s < 2 {
            return;
        }
        // Level 2: cliques sharing a node are adjacent, and chaining to
        // the last earlier clique at each member connects them all.
        for &v in clique {
            if let Some(&last) = self.postings[v as usize].last() {
                self.union(id, last, 2);
            }
        }
        // Plain overlap counts with every earlier clique sharing a node.
        for &v in clique {
            for &c in &self.postings[v as usize] {
                let cnt = &mut self.counts[c as usize];
                if *cnt == 0 {
                    self.touched.push(c);
                }
                *cnt += 1;
            }
        }
        // Unite at levels min(o+1, s, |c|) down to 3, stopping at the
        // first level where the pair is already joined: by the nesting,
        // it is joined at every level below too.
        for i in 0..self.touched.len() {
            let c = self.touched[i];
            let o = std::mem::take(&mut self.counts[c as usize]) as usize;
            let top = (o + 1).min(s).min(self.size(c));
            for k in (3..=top).rev() {
                if !self.union(id, c, k) {
                    break;
                }
            }
        }
        self.touched.clear();
        for &v in clique {
            self.postings[v as usize].push(id);
        }
    }

    /// Extracts every level, ascending `k`, in the order a per-level
    /// [`StreamPercolator`] produces: communities by first clique,
    /// `clique_ids` as ascending stream ordinals, members from the
    /// postings. Parents are left unset.
    fn finish(mut self) -> Vec<KLevel> {
        let clique_count = self.counts.len() as u32;
        let k_max = (0..clique_count).map(|c| self.size(c)).max().unwrap_or(0);
        // Community index per clique at the level being extracted; a
        // root is its set's smallest id, so ascending ids meet it first.
        let mut idx_of_clique = vec![u32::MAX; clique_count as usize];
        let mut levels = Vec::new();
        for k in 2..=k_max {
            let mut communities: Vec<Community> = Vec::new();
            for c in 0..clique_count {
                if self.size(c) < k {
                    continue;
                }
                let root = self.find(c, k);
                if root == c {
                    idx_of_clique[c as usize] = communities.len() as u32;
                    communities.push(Community {
                        members: Vec::new(),
                        clique_ids: Vec::new(),
                        parent: None,
                    });
                }
                idx_of_clique[c as usize] = idx_of_clique[root as usize];
                communities[idx_of_clique[c as usize] as usize]
                    .clique_ids
                    .push(c);
            }
            for (v, cliques) in self.postings.iter().enumerate() {
                for &c in cliques.iter().filter(|&&c| self.size(c) >= k) {
                    // Nodes arrive ascending: a duplicate is the tail.
                    let members = &mut communities[idx_of_clique[c as usize] as usize].members;
                    if members.last() != Some(&(v as NodeId)) {
                        members.push(v as NodeId);
                    }
                }
            }
            levels.push(KLevel {
                k: k as u32,
                communities,
            });
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::GraphSource;
    use asgraph::Graph;

    #[test]
    fn two_k4s_sharing_triangle_merge_at_k4() {
        let g = Graph::from_edges(
            5,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (1, 4),
                (2, 4),
                (3, 4),
            ],
        );
        let covers = stream_percolate_at(&mut GraphSource::new(&g), 4).unwrap();
        assert_eq!(covers, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn bowtie_splits_at_k3() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let covers = stream_percolate_at(&mut GraphSource::new(&g), 3).unwrap();
        assert_eq!(covers, vec![vec![0, 1, 2], vec![2, 3, 4]]);
        let k2 = stream_percolate_at(&mut GraphSource::new(&g), 2).unwrap();
        assert_eq!(k2.len(), 1);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let r = stream_percolate(&mut GraphSource::new(&Graph::empty(0))).unwrap();
        assert!(r.levels.is_empty());
        let r = stream_percolate(&mut GraphSource::new(&Graph::empty(5))).unwrap();
        assert!(r.levels.is_empty());
        assert_eq!(r.total_communities(), 0);
    }

    #[test]
    fn last_seen_mode_never_over_merges() {
        // On a clique chain the last-seen heuristic is exact; assert it
        // agrees here and never merges what Exact keeps apart.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]);
        let mut exact = StreamPercolator::new(5, 3);
        let mut approx = StreamPercolator::with_mode(5, 3, Mode::Almost);
        let _ = cliques::for_each_max_clique(&g, |c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            exact.push(&c);
            approx.push(&c);
            std::ops::ControlFlow::Continue(())
        });
        let exact: Vec<_> = exact.finish().into_iter().map(|c| c.members).collect();
        let approx: Vec<_> = approx.finish().into_iter().map(|c| c.members).collect();
        assert_eq!(exact, approx);
    }

    /// `threads` is ignored by the sweep: every policy gives the same
    /// levels.
    #[test]
    fn parallel_waves_are_bit_identical_to_sequential() {
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        );
        let seq = stream_percolate_parallel(&mut GraphSource::new(&g), 1).unwrap();
        for threads in [
            Threads::Fixed(2),
            Threads::Fixed(4),
            Threads::Fixed(7),
            Threads::Auto,
        ] {
            let par = stream_percolate_parallel(&mut GraphSource::new(&g), threads).unwrap();
            assert_eq!(seq.levels, par.levels, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn k1_is_rejected() {
        let _ = StreamPercolator::new(3, 1);
    }
}
