//! Almost-exact percolation: (k−1)-clique-key unions instead of
//! pairwise overlap counting.
//!
//! The exact pipeline's bottleneck is clique-overlap counting: on the
//! medium Internet preset it is ~93 % of end-to-end percolate time and
//! touches a pair of cliques for every shared vertex — quadratic in the
//! posting-list lengths of hub ASes. Baudin, Magnien & Tabourier's
//! memory-efficient CPM (arXiv:2110.01213) removes the pairwise phase
//! entirely: two k-cliques are adjacent iff they share a (k−1)-clique,
//! so hashing each clique's (k−1)-sub-cliques into a *first-seen-owner*
//! table and unioning every later clique that hits an occupied key
//! reaches the same components through transitivity — no
//! overlap counting, no `OverlapEdge`s, memory bounded by the number of
//! emitted keys.
//!
//! Operating on *maximal* cliques (this repo's reduction), the full
//! decomposition of a size-`s` clique into k-cliques has `C(s, k−1)`
//! boundary keys — astronomically many mid-range on Internet substrates
//! (`C(29, 14)` ≈ 7.8 × 10⁷), and measured profiles show that even the
//! *countable* mid-range keys are mostly unique (all hashing cost, no
//! sharing). [`Mode::Almost`] therefore splits the work by where the
//! sharing actually is:
//!
//! * **Keys for the low levels only** (`l = k−1 ≤` [`KEY_MAX_L`]):
//!   per-vertex keys make `k = 2` exact connected components, and
//!   per-edge keys make `k = 3` exact — these keys are massively
//!   shared, cache-hot, and cover the two levels that hold the bulk of
//!   all cliques. ([`SUBSET_CAP`] additionally bounds any single
//!   clique's emission.)
//!
//! * **Everything from `k = 4` up** comes from the one-shot **prepass
//!   strata** (`SubsumptionStrata`), which record each detected pair
//!   at its exact *detection level* `m + 1` (`m` = overlap size); the
//!   union–find that persists through the descending-`k` sweep then
//!   carries every detection to all lower levels for free. Two exact
//!   sub-mechanisms split the pairs by size class: a *restricted
//!   counting pass* that is exact for every pair with a side of ≤
//!   [`SMALL_FULL`] members, and a *near-containment scan* over big
//!   cliques that finds every big×big pair whose smaller side misses
//!   at most [`MISS_DEPTH`] of its own members from the larger (hub
//!   cores nest, so on Internet substrates big×big overlaps that
//!   matter are near-containments or chains of them).
//!
//! Every mechanism only ever unions on a witnessed overlap ≥ k−1, so a
//! miss can only *split* a community, never invent one: almost-mode
//! covers are always refinements of exact ones (up to the ~2⁻⁶⁴ chance
//! of a 64-bit key collision). [`divergence`] quantifies the residual
//! gap, and the property tests plus the CI `mode-cross-check` job hold
//! it at **zero** on every InternetModel preset.

use crate::dsu::Dsu;
use crate::percolation::LevelSnapshotter;
use crate::result::{CpmResult, KLevel};
use asgraph::{Graph, NodeId};
use cliques::kclique::binomial;
use cliques::CliqueSet;
use std::fmt;
use std::str::FromStr;

/// Which percolation engine a pipeline runs — the single mode
/// vocabulary across the batch, parallel, and streaming paths
/// (`cpm_stream` re-exports this type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The exact maximal-clique reduction: pairwise overlap counting
    /// (batch) or per-node postings (streaming).
    #[default]
    Exact,
    /// Almost-exact (k−1)-clique-key unions: first-seen-owner key
    /// tables, bounded memory, no pairwise phase. May split (never
    /// merge) communities relative to [`Mode::Exact`]; see the module
    /// docs for the bound and [`divergence`] for measurement.
    Almost,
}

impl Mode {
    /// The CLI/JSON spelling (`"exact"` / `"almost"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Exact => "exact",
            Mode::Almost => "almost",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Mode::Exact),
            "almost" => Ok(Mode::Almost),
            other => Err(format!("unknown mode '{other}' (expected exact|almost)")),
        }
    }
}

/// Per-clique-per-level emission budget: a clique emits its full
/// (k−1)-subset decomposition while `C(s, k−1)` stays at or below
/// this, and nothing at the (mid-range) levels where it would exceed
/// it. Symmetry of the binomial makes one cap serve both the
/// low-level and the near-top tail (see the module docs).
pub const SUBSET_CAP: u64 = 4096;

/// Cliques at or below this size are *small*: every pair involving a
/// small clique gets its overlap counted exactly by the counting
/// prepass (`SubsumptionStrata`), whose posting lists hold small
/// cliques only — hub posting lists are dominated by large cliques,
/// so the restriction turns the quadratic pairwise phase into a
/// cache-resident pass an order of magnitude cheaper than the full
/// exact engine.
pub const SMALL_FULL: usize = 14;

/// The per-level key emission bound: shared vertices (`l = 1`, exact
/// `k = 2` components) and shared edges (`l = 2`, exact `k = 3`
/// strata) are keyed for every clique. Higher subset sizes are
/// mostly-unique keys — all cost, no sharing — so everything from
/// `k = 4` up is covered by the prepass strata instead.
pub const KEY_MAX_L: usize = 2;

/// Polynomial base for the key hash (odd, so powers never vanish).
pub(crate) const R: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: decorrelates member ids before they enter the
/// polynomial, so consecutive ids don't produce near-collisions.
#[inline]
pub(crate) fn mix(v: NodeId) -> u64 {
    let mut z = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exactly how many keys [`emit_keys`] produces for a clique of size
/// `s` at subset size `l`: the full `C(s, l)` at the keyed levels,
/// zero above them.
#[cfg(test)]
pub(crate) fn emission_count(s: usize, l: usize) -> usize {
    if !emits(s, l) {
        return 0;
    }
    binomial(s, l) as usize
}

/// The emission gate: whether a clique of size `s` keys its
/// `l`-subsets (see [`KEY_MAX_L`] / [`SUBSET_CAP`]).
#[inline]
pub(crate) fn emits(s: usize, l: usize) -> bool {
    l >= 1 && l <= s && l <= KEY_MAX_L && binomial(s, l) <= SUBSET_CAP
}

/// Emits the 64-bit key of every `l`-subset of `members` (sorted
/// clique members) that the gate admits (`l ≤` [`KEY_MAX_L`], so only
/// vertex and edge keys are ever produced). Each subset hashes to
/// `Σ_t mix(mᵗ)·Rᵗ` over its own sorted order, so equal subsets from
/// different cliques collide (that's the point) and position inside
/// the clique is irrelevant.
pub(crate) fn emit_keys(members: &[NodeId], l: usize, f: &mut impl FnMut(u64)) {
    let s = members.len();
    if !emits(s, l) {
        return;
    }
    match l {
        1 => {
            for &v in members {
                f(mix(v));
            }
        }
        _ => {
            for i in 0..s - 1 {
                let h0 = mix(members[i]);
                for &v in &members[i + 1..] {
                    f(h0.wrapping_add(mix(v).wrapping_mul(R)));
                }
            }
        }
    }
}

/// Open-addressed first-seen-owner table: `key → first clique that
/// emitted it`. One allocation serves the whole descending-`k` sweep:
/// [`KeyTable::begin_level`] invalidates every slot in O(1) by bumping
/// an epoch, and the table doubles when a level's live load reaches
/// 50 % — so it never drops a key (first-seen stays deterministic) and
/// its memory is bounded by twice the largest level's *distinct* key
/// count, not by the pairwise overlap multiset the exact engine walks.
pub(crate) struct KeyTable {
    /// `(fp, owner, epoch)` packed to 16 bytes so a probe touches one
    /// cache line instead of three parallel arrays.
    slots: Vec<KeySlot>,
    epoch: u32,
    mask: usize,
    used: usize,
}

#[derive(Clone, Copy, Default)]
struct KeySlot {
    fp: u64,
    owner: u32,
    epoch: u32,
}

impl KeyTable {
    /// An empty table (modest initial capacity; grows on demand).
    pub(crate) fn new() -> Self {
        let cap = 1 << 12;
        KeyTable {
            slots: vec![KeySlot::default(); cap],
            epoch: 1,
            mask: cap - 1,
            used: 0,
        }
    }

    /// Forgets every stored key (constant time), keeping the capacity.
    pub(crate) fn begin_level(&mut self) {
        self.used = 0;
        match self.epoch.checked_add(1) {
            Some(e) => self.epoch = e,
            None => {
                // Epoch wrap (needs 4 × 10⁹ levels): hard-reset stamps.
                for s in &mut self.slots {
                    s.epoch = 0;
                }
                self.epoch = 1;
            }
        }
    }

    /// Returns the first owner of `key`, or records `clique` as its
    /// owner and returns `None`.
    #[inline]
    pub(crate) fn first_seen(&mut self, key: u64, clique: u32) -> Option<u32> {
        // 0 would collide with the pre-epoch fill; remap it (the key
        // space is hashes, so the bias is measure-zero).
        let fp = if key == 0 { 1 } else { key };
        if 2 * (self.used + 1) > self.mask + 1 {
            self.grow();
        }
        let mut i = (fp as usize) & self.mask;
        loop {
            let s = &mut self.slots[i];
            if s.epoch != self.epoch {
                *s = KeySlot {
                    fp,
                    owner: clique,
                    epoch: self.epoch,
                };
                self.used += 1;
                return None;
            }
            if s.fp == fp {
                return Some(s.owner);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Doubles capacity, re-homing the current level's live entries.
    fn grow(&mut self) {
        let cap = (self.mask + 1) * 2;
        let mut next = KeyTable {
            slots: vec![KeySlot::default(); cap],
            epoch: 1,
            mask: cap - 1,
            used: 0,
        };
        for s in &self.slots {
            if s.epoch == self.epoch {
                let mut j = (s.fp as usize) & next.mask;
                while next.slots[j].epoch == 1 {
                    j = (j + 1) & next.mask;
                }
                next.slots[j] = KeySlot {
                    fp: s.fp,
                    owner: s.owner,
                    epoch: 1,
                };
                next.used += 1;
            }
        }
        *self = next;
    }
}

/// How nearly contained a big×big pair must be for the subsumption
/// pass to detect it: the smaller clique may miss up to this many of
/// its own members from the larger partner
/// (`|x ∩ y| ≥ |x| −` this).
pub const MISS_DEPTH: usize = 5;

/// The prepass strata: every overlap the per-level keys cannot see,
/// computed exactly, once, before the sweep — each pair recorded at
/// its *detection level* `m + 1` (`m = |x ∩ y|`), which the
/// persistent union–find then carries to every lower level.
///
/// The work splits by the size class of the pair. Only cliques of ≥ 3
/// members can overlap in `m ≥ 3` (below that the keys own the pair),
/// and every member a big clique has lives in the *hub vertex set* —
/// the union of all big cliques' members, which on Internet substrates
/// is tiny (203 ASes on the medium preset, against 10,000 nodes):
/// hub cores nest, so the big cliques are thousands of rungs of a
/// ladder over the same few hub vertices.
///
/// 1. **Small×small — restricted exact counting.** Walking small
///    cliques (3 ≤ members ≤ [`SMALL_FULL`]) in canonical order with
///    per-vertex posting lists of the earlier smalls, a dense
///    cache-resident counter accumulates `|x ∩ y|` per earlier
///    partner. Keeping the bigs out of the postings cuts the pairwise
///    volume by an order of magnitude (hub posting lists are dominated
///    by big cliques) while staying exact for every small×small pair.
///
/// 2. **Big-involving — hub bitmaps.** When the hub vertex set fits
///    in 256 bits (any Internet substrate; larger spaces fall back to
///    the counting pass plus a bloom-guarded merge), each big clique
///    becomes an exact 256-bit member bitmap and `|x ∩ y|` is four
///    `AND`+`popcount`s:
///    * *big×big*: an all-pairs loop in descending size order records
///      every near-containment — the smaller side missing at most
///      [`MISS_DEPTH`] of its own members (`m ≥ |x| − MISS_DEPTH`).
///    * *big×small*: a small clique can only reach `m ≥ 3` with a big
///      if ≥ 3 of its members are hub vertices; those few *hubby*
///      smalls get a hub bitmap too and are tested against every big.
///
/// What this leaves out — a big×big pair whose overlap is mid-range
/// (`3 ≤ m < |x| − MISS_DEPTH`) — is exactly where Internet substrates
/// are densest in *chains*: hub-core cliques overlap each other
/// through ladders of near-containments and through the hubby smalls,
/// which is why the oracle measures zero divergence on every preset.
pub(crate) struct SubsumptionStrata {
    /// `by_level[k]` lists the `(earlier, later)` clique pairs whose
    /// overlap was detected at level `k`.
    by_level: Vec<Vec<(u32, u32)>>,
}

impl SubsumptionStrata {
    /// Runs the prepass over canonical cliques.
    pub(crate) fn build(cliques: &CliqueSet) -> Self {
        let k_max = cliques.max_size();
        let mut by_level: Vec<Vec<(u32, u32)>> = vec![Vec::new(); k_max + 1];
        if cliques.is_empty() {
            return SubsumptionStrata { by_level };
        }
        let n = vertex_space(cliques);

        // Big cliques in descending size order (canonical id as
        // tie-break), and the hub vertex set they span.
        let mut bigs: Vec<u32> = (0..cliques.len() as u32)
            .filter(|&i| cliques.size(i as usize) > SMALL_FULL)
            .collect();
        bigs.sort_unstable_by_key(|&i| (std::cmp::Reverse(cliques.size(i as usize)), i));
        let mut bit: Vec<u32> = vec![u32::MAX; n];
        let mut hub_vertices = 0u32;
        for &i in &bigs {
            for &v in cliques.get(i as usize) {
                if bit[v as usize] == u32::MAX {
                    bit[v as usize] = hub_vertices;
                    hub_vertices += 1;
                }
            }
        }
        let exact_sig = hub_vertices <= 256;

        // Pass 1: small×small (plus, on the fallback path, everything
        // big-involving) by restricted exact counting.
        Self::count_pairs(cliques, &mut by_level, n, !exact_sig);

        if bigs.is_empty() {
            // No big cliques: the counting pass was the whole job.
            return SubsumptionStrata { by_level };
        }

        if exact_sig {
            // Pass 2, fast path: exact 256-bit hub bitmaps, one
            // AND+popcount row sweep per clique (see the type docs).
            let nb = bigs.len();
            let mut words: [Vec<u64>; 4] = std::array::from_fn(|_| vec![0u64; nb]);
            for (bi, &i) in bigs.iter().enumerate() {
                for &v in cliques.get(i as usize) {
                    let b = bit[v as usize];
                    words[(b >> 6) as usize][bi] |= 1u64 << (b & 63);
                }
            }
            let mut overlaps = vec![0u8; nb];

            // Big×big: descending size order, so each pair's miss
            // count d = |x| − m is measured from its smaller side.
            for xi in 1..nb {
                let sx = [words[0][xi], words[1][xi], words[2][xi], words[3][xi]];
                Self::and_popcount_rows(sx, &words, &mut overlaps[..xi]);
                let x = bigs[xi];
                let s = cliques.size(x as usize);
                // m ≥ s − MISS_DEPTH ⟺ d ≤ MISS_DEPTH; maximality of
                // distinct cliques makes d ≥ 1 (m ≤ s − 1), but clamp
                // the level anyway.
                let t = s - MISS_DEPTH;
                if t <= 127 {
                    Self::for_each_at_least(&overlaps[..xi], t as u8, |yi, m| {
                        let level = ((m as usize) + 1).min(s).max(2);
                        by_level[level].push((bigs[yi], x));
                    });
                } else {
                    for (yi, &m) in overlaps[..xi].iter().enumerate() {
                        if (m as usize) >= t {
                            let level = ((m as usize) + 1).min(s).max(2);
                            by_level[level].push((bigs[yi], x));
                        }
                    }
                }
            }

            // Big×small: a small reaches m ≥ 3 with a big only through
            // hub vertices, so non-hubby smalls (< 3 hub members) are
            // skipped outright. The qualifying few are matched against a
            // *transposed* index — per hub vertex, a bitmap over bigs —
            // by bit-sliced addition: a small's ~4 hub rows are summed
            // into four count planes (exact per-big counts ≤ SMALL_FULL
            // < 16) with word-parallel half-adders, and the m ≥ 3 bigs
            // fall out of a plane mask. This touches k·W words of plain
            // ALU work per small instead of one popcount row per big.
            drop(overlaps);
            let w_big = nb.div_ceil(64);
            let mut trans = vec![0u64; hub_vertices as usize * w_big];
            for (bi, &i) in bigs.iter().enumerate() {
                for &v in cliques.get(i as usize) {
                    let b = bit[v as usize] as usize;
                    trans[b * w_big + (bi >> 6)] |= 1u64 << (bi & 63);
                }
            }
            let mut planes = vec![0u64; 4 * w_big];
            for x in 0..cliques.len() as u32 {
                let members = cliques.get(x as usize);
                let s = members.len();
                if !(3..=SMALL_FULL).contains(&s) {
                    continue;
                }
                let hubby = members
                    .iter()
                    .filter(|&&v| bit[v as usize] != u32::MAX)
                    .count()
                    >= 3;
                if !hubby {
                    continue;
                }
                planes.fill(0);
                let (p01, p23) = planes.split_at_mut(2 * w_big);
                let (p0, p1) = p01.split_at_mut(w_big);
                let (p2, p3) = p23.split_at_mut(w_big);
                for &v in members {
                    let b = bit[v as usize];
                    if b == u32::MAX {
                        continue;
                    }
                    let row = &trans[b as usize * w_big..][..w_big];
                    // Ripple-carry one row of 0/1 bits into the planes;
                    // counts stay ≤ SMALL_FULL < 16, so four planes are
                    // exact and the top carry is always zero.
                    for w in 0..w_big {
                        let r = row[w];
                        let t0 = p0[w] & r;
                        p0[w] ^= r;
                        let t1 = p1[w] & t0;
                        p1[w] ^= t0;
                        let t2 = p2[w] & t1;
                        p2[w] ^= t1;
                        p3[w] ^= t2;
                    }
                }
                for w in 0..w_big {
                    // count ≥ 3 ⟺ bit1∧bit0, or any higher plane bit.
                    let mut hits = p3[w] | p2[w] | (p1[w] & p0[w]);
                    while hits != 0 {
                        let i = hits.trailing_zeros() as usize;
                        hits &= hits - 1;
                        let yi = (w << 6) | i;
                        let m = ((p0[w] >> i) & 1)
                            | (((p1[w] >> i) & 1) << 1)
                            | (((p2[w] >> i) & 1) << 2)
                            | (((p3[w] >> i) & 1) << 3);
                        // m = |x ∩ y| exactly (y's members are all
                        // hubs). x ⊄ y by maximality, so m + 1 ≤ s
                        // stays within both cliques' active levels;
                        // clamp anyway.
                        let level = ((m as usize) + 1).min(s).max(2);
                        by_level[level].push((bigs[yi], x));
                    }
                }
            }
        } else {
            // Pass 2, fallback (hub space too large for exact
            // bitmaps): big×small was already covered by the counting
            // pass; big×big near-containments are guarded by a 256-bit
            // member *bloom* — a member of x absent from y contributes
            // at most one bit to sig(x) & !sig(y), so the stray-bit
            // test never rejects a qualifying pair — and survivors are
            // confirmed by the early-abort merge.
            let sigs: Vec<[u64; 4]> = bigs
                .iter()
                .map(|&i| {
                    let mut sig = [0u64; 4];
                    for &v in cliques.get(i as usize) {
                        let h = mix(v) & 255;
                        sig[(h >> 6) as usize] |= 1u64 << (h & 63);
                    }
                    sig
                })
                .collect();
            for xi in 1..bigs.len() {
                let x = bigs[xi];
                let members = cliques.get(x as usize);
                let s = members.len();
                let sx = sigs[xi];
                for (yi, sy) in sigs[..xi].iter().enumerate() {
                    let stray = (sx[0] & !sy[0]).count_ones()
                        + (sx[1] & !sy[1]).count_ones()
                        + (sx[2] & !sy[2]).count_ones()
                        + (sx[3] & !sy[3]).count_ones();
                    if stray as usize > MISS_DEPTH {
                        continue;
                    }
                    if let Some(d) =
                        missing_at_most(members, cliques.get(bigs[yi] as usize), MISS_DEPTH)
                    {
                        // Overlap is s − d; maximality of distinct
                        // cliques makes d ≥ 1, but clamp anyway.
                        let level = (s - d + 1).min(s).max(2);
                        by_level[level].push((bigs[yi], x));
                    }
                }
            }
        }
        SubsumptionStrata { by_level }
    }

    /// `out[i] = popcount(sx AND column i)` over the transposed bitmap
    /// rows — branch-free, so the compiler vectorizes the popcounts.
    pub(crate) fn and_popcount_rows(sx: [u64; 4], words: &[Vec<u64>; 4], out: &mut [u8]) {
        let n = out.len();
        let rows = words[0][..n]
            .iter()
            .zip(&words[1][..n])
            .zip(&words[2][..n])
            .zip(&words[3][..n]);
        for (o, (((&a, &b), &c), &d)) in out.iter_mut().zip(rows) {
            *o = ((sx[0] & a).count_ones()
                + (sx[1] & b).count_ones()
                + (sx[2] & c).count_ones()
                + (sx[3] & d).count_ones()) as u8;
        }
    }

    /// Calls `f(i, v)` for every byte `v ≥ t` of `vals`, skipping the
    /// (overwhelmingly common) non-qualifying bulk eight bytes at a
    /// time with a SWAR high-bit test. Sound while `v + (128 − t)`
    /// cannot carry across bytes, which holds for every caller here:
    /// overlaps are bounded by the smaller clique's size, and the
    /// threshold is never more than `127` below it (callers guard with
    /// the scalar loop otherwise).
    pub(crate) fn for_each_at_least(vals: &[u8], t: u8, mut f: impl FnMut(usize, u8)) {
        debug_assert!((1..=127).contains(&t));
        let bias = (0x80 - t as u64) * 0x0101_0101_0101_0101;
        let chunks = vals.chunks_exact(8);
        let tail = chunks.remainder();
        for (ci, ch) in chunks.enumerate() {
            let w = u64::from_le_bytes(ch.try_into().unwrap());
            let mut hits = w.wrapping_add(bias) & 0x8080_8080_8080_8080;
            while hits != 0 {
                let b = (hits.trailing_zeros() / 8) as usize;
                let i = ci * 8 + b;
                f(i, vals[i]);
                hits &= hits - 1;
            }
        }
        let base = vals.len() - tail.len();
        for (i, &v) in tail.iter().enumerate() {
            if v >= t {
                f(base + i, v);
            }
        }
    }

    /// The restricted counting pass: per-vertex posting lists of the
    /// earlier cliques, a dense counter accumulating `|x ∩ y|` per
    /// partner sharing a vertex, pairs with `m ≥ 3` recorded at level
    /// `m + 1`. With `include_bigs` false only small×small pairs are
    /// counted (posting lists stay an order of magnitude shorter); the
    /// fallback path sets it to cover big×small pairs too, with bigs
    /// scanning the small postings and smalls the big postings so each
    /// mixed pair is counted exactly once.
    fn count_pairs(
        cliques: &CliqueSet,
        by_level: &mut [Vec<(u32, u32)>],
        n: usize,
        include_bigs: bool,
    ) {
        let mut small_postings: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut big_postings: Vec<Vec<u32>> = vec![Vec::new(); if include_bigs { n } else { 0 }];
        let mut counter: Vec<u8> = vec![0; cliques.len()];
        let mut touched: Vec<u32> = Vec::new();
        for x in 0..cliques.len() as u32 {
            let members = cliques.get(x as usize);
            let s = members.len();
            // Only cliques of ≥ 3 members can overlap in m ≥ 3, so
            // edges stay out of both the postings and the scan.
            if s < 3 {
                continue;
            }
            let small = s <= SMALL_FULL;
            if !small && !include_bigs {
                continue;
            }
            for &v in members {
                for &y in &small_postings[v as usize] {
                    if counter[y as usize] == 0 {
                        touched.push(y);
                    }
                    counter[y as usize] += 1;
                }
                if small && include_bigs {
                    for &y in &big_postings[v as usize] {
                        if counter[y as usize] == 0 {
                            touched.push(y);
                        }
                        counter[y as usize] += 1;
                    }
                }
            }
            for &y in &touched {
                let m = counter[y as usize] as usize;
                counter[y as usize] = 0;
                // m ≤ 2 is detected by the l ≤ KEY_MAX_L keys; m is
                // capped by the small side's size, so m + 1 never
                // exceeds either clique's active range.
                if m > KEY_MAX_L {
                    by_level[m + 1].push((y, x));
                }
            }
            touched.clear();
            let postings = if small {
                &mut small_postings
            } else {
                &mut big_postings
            };
            for &v in members {
                postings[v as usize].push(x);
            }
        }
    }

    /// The pairs whose overlap surfaces at level `k`.
    pub(crate) fn at(&self, k: usize) -> &[(u32, u32)] {
        self.by_level.get(k).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// How many members of sorted `a` are absent from sorted `b`, if at
/// most `max_miss` — `None` as soon as one more is proven absent, so a
/// non-qualifying candidate costs only a few merge steps.
pub(crate) fn missing_at_most(a: &[NodeId], b: &[NodeId], max_miss: usize) -> Option<usize> {
    let (mut i, mut j, mut miss) = (0usize, 0usize, 0usize);
    while i < a.len() {
        if j == b.len() || a[i] < b[j] {
            miss += 1;
            if miss > max_miss {
                return None;
            }
            i += 1;
        } else if a[i] == b[j] {
            i += 1;
            j += 1;
        } else {
            j += 1;
        }
    }
    Some(miss)
}

/// The union–find surface the level driver needs — just the union
/// (which is expected to no-op on same-set pairs). Implemented by the
/// sequential [`Dsu`] here; the pool path drives a `ConcurrentDsu`
/// through its own chunked drains instead.
pub(crate) trait UnionSink {
    fn union(&mut self, a: u32, b: u32);
}

impl UnionSink for Dsu {
    #[inline]
    fn union(&mut self, a: u32, b: u32) {
        Dsu::union(self, a, b);
    }
}

/// Scratch state for one almost-mode sweep, reused across levels: the
/// epoch-cleared key table plus the precomputed subsumption strata.
pub(crate) struct AlmostScratch {
    pub(crate) table: KeyTable,
    pub(crate) strata: SubsumptionStrata,
}

impl AlmostScratch {
    pub(crate) fn new(cliques: &CliqueSet) -> Self {
        AlmostScratch {
            table: KeyTable::new(),
            strata: SubsumptionStrata::build(cliques),
        }
    }
}

/// One level of the almost engine: every active clique, in canonical
/// order, emits its capped (k−1)-subset keys and unions with the
/// first-seen owner of any shared key; then the level's subsumption
/// stratum (near-containment pairs detected exactly at this level)
/// is replayed into the sink. Both mechanisms only union on a
/// witnessed overlap ≥ k−1, so the result is always a refinement of
/// the exact level.
pub(crate) fn almost_union_level(
    cliques: &CliqueSet,
    k: usize,
    scratch: &mut AlmostScratch,
    sink: &mut impl UnionSink,
) {
    scratch.table.begin_level();
    for i in 0..cliques.len() {
        if cliques.size(i) < k {
            continue;
        }
        let members = cliques.get(i);
        let table = &mut scratch.table;
        emit_keys(members, k - 1, &mut |key| {
            if let Some(owner) = table.first_seen(key, i as u32) {
                if owner != i as u32 {
                    sink.union(owner, i as u32);
                }
            }
        });
    }
    // `union` already no-ops on same-set pairs; a `same` pre-check
    // would only repeat its finds.
    for &(a, b) in scratch.strata.at(k) {
        sink.union(a, b);
    }
}

/// The vertex-space size a clique set spans (largest member id + 1) —
/// what sizes the per-vertex history when no graph is around.
pub(crate) fn vertex_space(cliques: &CliqueSet) -> usize {
    let mut n = 0usize;
    for i in 0..cliques.len() {
        if let Some(&last) = cliques.get(i).last() {
            n = n.max(last as usize + 1);
        }
    }
    n
}

/// The sequential almost-exact multi-k sweep over canonical cliques:
/// one persistent union–find descending k = k_max..=2, a fresh
/// first-seen key table per level plus the one-shot subsumption strata
/// (the (k−1)-keys *are* the stratum source — no overlap strata, no
/// pairwise counting), and the same [`LevelSnapshotter`]
/// level/Theorem-1-parent construction as the exact sweep.
pub(crate) fn almost_percolate_canonical(cliques: CliqueSet) -> CpmResult {
    almost_percolate_canonical_phases(cliques).0
}

/// Wall-clock attribution of one almost-mode sweep, for the bench
/// per-phase breakdown rows (`BENCH_pool.json`). Enumeration is timed
/// by the caller (it happens before the engine is entered).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlmostPhases {
    /// The subsumption prepass — building the near-containment strata
    /// (the engine's "key build": one pass, before any level runs).
    pub key_build: std::time::Duration,
    /// The per-level work: subset-key emission, first-seen unions,
    /// stratum replay.
    pub union: std::time::Duration,
    /// Materialising each level's communities from the union–find.
    pub snapshot: std::time::Duration,
}

/// [`almost_percolate_canonical`] with its [`AlmostPhases`] breakdown.
pub(crate) fn almost_percolate_canonical_phases(cliques: CliqueSet) -> (CpmResult, AlmostPhases) {
    let mut phases = AlmostPhases::default();
    if cliques.max_size() < 2 {
        return (
            CpmResult {
                cliques,
                levels: Vec::new(),
            },
            phases,
        );
    }
    let t0 = std::time::Instant::now();
    let scratch = AlmostScratch::new(&cliques);
    phases.key_build = t0.elapsed();
    let result = almost_sweep(cliques, scratch, &mut phases);
    (result, phases)
}

/// The sequential almost-mode sweep over a pre-built
/// [`SubsumptionStrata`] — the parallel path's single-worker fallback,
/// which must not rebuild the prepass it was handed.
pub(crate) fn almost_percolate_with_strata(
    cliques: CliqueSet,
    strata: SubsumptionStrata,
) -> CpmResult {
    if cliques.max_size() < 2 {
        return CpmResult {
            cliques,
            levels: Vec::new(),
        };
    }
    let scratch = AlmostScratch {
        table: KeyTable::new(),
        strata,
    };
    almost_sweep(cliques, scratch, &mut AlmostPhases::default())
}

fn almost_sweep(
    cliques: CliqueSet,
    mut scratch: AlmostScratch,
    phases: &mut AlmostPhases,
) -> CpmResult {
    let k_max = cliques.max_size();
    let mut dsu = Dsu::new(cliques.len());
    let mut snap = LevelSnapshotter::new(cliques.len());
    let mut levels_desc: Vec<KLevel> = Vec::with_capacity(k_max - 1);
    for k in (2..=k_max).rev() {
        // Unions at level k witness overlap ≥ k−1 ≥ the threshold of
        // every level below, so the union–find legitimately persists —
        // the same monotonicity the exact strata sweep exploits.
        let t = std::time::Instant::now();
        almost_union_level(&cliques, k, &mut scratch, &mut dsu);
        phases.union += t.elapsed();
        let t = std::time::Instant::now();
        let level = snap.snapshot(&cliques, k, &mut |x| dsu.find(x), levels_desc.last_mut());
        phases.snapshot += t.elapsed();
        levels_desc.push(level);
    }
    levels_desc.reverse();
    CpmResult {
        cliques,
        levels: levels_desc,
    }
}

/// Runs clique percolation in an explicit [`Mode`].
///
/// [`Mode::Exact`] is [`crate::percolate`]; [`Mode::Almost`] is the
/// (k−1)-clique-key engine (see the module docs).
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use cpm::Mode;
///
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// let exact = cpm::percolate_mode(&g, Mode::Exact);
/// let almost = cpm::percolate_mode(&g, Mode::Almost);
/// assert_eq!(exact.levels, almost.levels);
/// ```
pub fn percolate_mode(g: &Graph, mode: Mode) -> CpmResult {
    match mode {
        Mode::Exact => crate::percolate(g),
        Mode::Almost => {
            let mut cliques = cliques::max_cliques(g);
            cliques.canonicalize();
            almost_percolate_canonical(cliques)
        }
    }
}

/// [`percolate_mode`] over pre-computed maximal cliques. `n` is the
/// vertex-space size of the underlying graph (the exact path's inverted
/// index needs it; the almost path has no index at all).
///
/// # Panics
///
/// Panics (in the exact mode) if a clique member id is `>= n`.
pub fn percolate_with_cliques_mode(n: usize, mut cliques: CliqueSet, mode: Mode) -> CpmResult {
    match mode {
        Mode::Exact => crate::percolate_with_cliques(n, cliques),
        Mode::Almost => {
            cliques.canonicalize();
            almost_percolate_canonical(cliques)
        }
    }
}

/// Almost-mode percolation over pre-computed maximal cliques, also
/// returning the per-phase wall-clock breakdown — the hook behind the
/// bench `mode` column's phase rows (enumeration is timed by the
/// caller, since it happens before the engine is entered).
pub fn percolate_almost_phases(mut cliques: CliqueSet) -> (CpmResult, AlmostPhases) {
    cliques.canonicalize();
    almost_percolate_canonical_phases(cliques)
}

/// Single-level percolation in an explicit [`Mode`] — the modal
/// counterpart of [`crate::percolate_at`]. Returns sorted member lists
/// in canonical order.
pub fn percolate_at_mode(g: &Graph, k: usize, mode: Mode) -> Vec<Vec<NodeId>> {
    match mode {
        Mode::Exact => crate::percolate_at(g, k),
        Mode::Almost => {
            if k < 2 {
                return Vec::new();
            }
            let mut cliques = cliques::max_cliques(g);
            cliques.canonicalize();
            let mut dsu = Dsu::new(cliques.len());
            let mut scratch = AlmostScratch::new(&cliques);
            // Replay the descending sweep down to k: a pair whose
            // overlap exceeds k−1 is detected at *its* level and the
            // union persists, exactly as in the fused multi-k path —
            // a lone level-k pass would miss every above-cap overlap.
            for kk in (k..=cliques.max_size()).rev() {
                almost_union_level(&cliques, kk, &mut scratch, &mut dsu);
            }
            // Root-indexed compaction, as in the exact single-level path.
            let mut group_of_root = vec![u32::MAX; cliques.len()];
            let mut groups: Vec<Vec<NodeId>> = Vec::new();
            for i in 0..cliques.len() {
                if cliques.size(i) < k {
                    continue;
                }
                let root = dsu.find(i as u32) as usize;
                let gi = if group_of_root[root] == u32::MAX {
                    group_of_root[root] = groups.len() as u32;
                    groups.push(Vec::new());
                    groups.len() - 1
                } else {
                    group_of_root[root] as usize
                };
                groups[gi].extend_from_slice(cliques.get(i));
            }
            let mut out: Vec<Vec<NodeId>> = groups
                .into_iter()
                .map(crate::result::canonical_members)
                .collect();
            out.sort_unstable();
            out
        }
    }
}

/// Per-level comparison of an exact and an almost percolation of the
/// same graph, as produced by [`divergence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelDivergence {
    /// The percolation level.
    pub k: u32,
    /// Communities in the exact result.
    pub exact_communities: usize,
    /// Communities in the almost result.
    pub almost_communities: usize,
    /// Exact communities with no member-identical almost counterpart.
    pub unmatched_exact: usize,
    /// Almost communities with no member-identical exact counterpart
    /// (splits of an unmatched exact community).
    pub unmatched_almost: usize,
    /// Total membership slots inside unmatched communities, both sides
    /// — the size of the region where the covers disagree.
    pub moved_members: usize,
}

impl LevelDivergence {
    /// Whether this level's covers are identical.
    pub fn is_zero(&self) -> bool {
        self.unmatched_exact == 0
            && self.unmatched_almost == 0
            && self.exact_communities == self.almost_communities
    }
}

/// The definitional oracle's divergence report: how far an almost-mode
/// result is from the exact one, level by level.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Divergence {
    /// One entry per level present in either result, ascending k.
    pub levels: Vec<LevelDivergence>,
}

impl Divergence {
    /// Whether the two results have identical community covers at every
    /// level (the expected verdict on InternetModel substrates).
    pub fn is_zero(&self) -> bool {
        self.levels.iter().all(LevelDivergence::is_zero)
    }

    /// Total unmatched communities across levels (exact + almost side).
    pub fn total_unmatched(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.unmatched_exact + l.unmatched_almost)
            .sum()
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "zero divergence across {} levels", self.levels.len());
        }
        for l in &self.levels {
            if !l.is_zero() {
                writeln!(
                    f,
                    "k={}: exact {} vs almost {} communities, unmatched {}+{}, {} members moved",
                    l.k,
                    l.exact_communities,
                    l.almost_communities,
                    l.unmatched_exact,
                    l.unmatched_almost,
                    l.moved_members
                )?;
            }
        }
        Ok(())
    }
}

/// Quantifies how an almost-mode result diverges from the exact one:
/// community-count and membership deltas per level (zero expected on
/// InternetModel substrates; almost mode can only split communities,
/// so any unmatched exact community reappears as ≥ 2 unmatched almost
/// fragments).
pub fn divergence(exact: &CpmResult, almost: &CpmResult) -> Divergence {
    let k_hi = exact.k_max().unwrap_or(1).max(almost.k_max().unwrap_or(1));
    let mut levels = Vec::new();
    for k in 2..=k_hi {
        let cover = |r: &CpmResult| -> Vec<Vec<NodeId>> {
            let mut c: Vec<Vec<NodeId>> = r
                .level(k)
                .map(|l| l.communities.iter().map(|c| c.members.clone()).collect())
                .unwrap_or_default();
            c.sort_unstable();
            c
        };
        let e = cover(exact);
        let a = cover(almost);
        // Sorted two-pointer set difference over member lists.
        let (mut i, mut j) = (0usize, 0usize);
        let (mut ue, mut ua, mut moved) = (0usize, 0usize, 0usize);
        while i < e.len() || j < a.len() {
            if j == a.len() || (i < e.len() && e[i] < a[j]) {
                ue += 1;
                moved += e[i].len();
                i += 1;
            } else if i == e.len() || a[j] < e[i] {
                ua += 1;
                moved += a[j].len();
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
        levels.push(LevelDivergence {
            k,
            exact_communities: e.len(),
            almost_communities: a.len(),
            unmatched_exact: ue,
            unmatched_almost: ua,
            moved_members: moved,
        });
    }
    Divergence { levels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips_through_strings() {
        assert_eq!("exact".parse::<Mode>().unwrap(), Mode::Exact);
        assert_eq!("almost".parse::<Mode>().unwrap(), Mode::Almost);
        assert!("fast".parse::<Mode>().is_err());
        assert_eq!(Mode::Almost.to_string(), "almost");
        assert_eq!(Mode::default(), Mode::Exact);
    }

    #[test]
    fn emission_covers_exactly_the_keyed_levels() {
        // Vertex and edge keys are full; everything above KEY_MAX_L is
        // the prepass's territory and emits nothing.
        let members: Vec<NodeId> = (0..7).map(|i| i * 3 + 1).collect();
        for l in 1..=7 {
            let mut keys = Vec::new();
            emit_keys(&members, l, &mut |k| keys.push(k));
            let expect = if l <= KEY_MAX_L {
                binomial(7, l) as usize
            } else {
                0
            };
            assert_eq!(keys.len(), expect, "l = {l}");
            assert_eq!(emission_count(7, l), expect, "l = {l}");
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), expect, "l = {l}: collisions");
        }
    }

    #[test]
    fn small_full_is_the_largest_fully_countable_size() {
        // SMALL_FULL is exactly the largest size whose every binomial
        // stays under the cap — the size class whose pairwise overlaps
        // the counting prepass can afford to resolve exactly.
        assert!((1..=SMALL_FULL).all(|l| binomial(SMALL_FULL, l) <= SUBSET_CAP));
        assert!(binomial(SMALL_FULL + 1, SMALL_FULL.div_ceil(2)) > SUBSET_CAP);
    }

    #[test]
    fn shared_subsets_key_identically_across_cliques() {
        // Edge {3,5} inside two different cliques hashes the same even
        // at different offsets.
        let a: Vec<NodeId> = vec![2, 3, 5, 9];
        let b: Vec<NodeId> = vec![0, 3, 5, 7];
        let mut ka = Vec::new();
        let mut kb = Vec::new();
        emit_keys(&a, 2, &mut |k| ka.push(k));
        emit_keys(&b, 2, &mut |k| kb.push(k));
        let shared: Vec<&u64> = ka.iter().filter(|k| kb.contains(k)).collect();
        assert_eq!(shared.len(), 1); // exactly the {3,5} edge
    }

    #[test]
    fn prepass_strata_record_pairs_at_their_detection_level() {
        // Two K6s sharing 4 vertices: overlap m = 4 is above the keyed
        // levels, so the counting pass must record the pair at its
        // detection level m + 1 = 5.
        let mut edges = Vec::new();
        let a: Vec<NodeId> = vec![0, 1, 2, 3, 4, 5];
        let b: Vec<NodeId> = vec![2, 3, 4, 5, 6, 7];
        for c in [&a, &b] {
            for (i, &u) in c.iter().enumerate() {
                for &v in &c[i + 1..] {
                    edges.push((u, v));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let g = Graph::from_edges(8, edges);
        let mut cliques = cliques::max_cliques(&g);
        cliques.canonicalize();
        assert_eq!(cliques.len(), 2);
        let strata = SubsumptionStrata::build(&cliques);
        assert_eq!(strata.at(5), &[(0, 1)]);
        for k in (2..=4).chain(6..=6) {
            assert!(strata.at(k).is_empty(), "k = {k}");
        }
    }

    #[test]
    fn key_table_first_seen_semantics() {
        let mut t = KeyTable::new();
        assert_eq!(t.first_seen(42, 7), None);
        assert_eq!(t.first_seen(42, 9), Some(7));
        assert_eq!(t.first_seen(0, 1), None); // key 0 remaps, still works
        assert_eq!(t.first_seen(0, 2), Some(1));
        // Colliding slots probe onward rather than overwrite.
        let cap_key = |i: u64| i << 32 | 5;
        for i in 0..4 {
            assert_eq!(t.first_seen(cap_key(i), i as u32), None, "i = {i}");
        }
        for i in 0..4 {
            assert_eq!(t.first_seen(cap_key(i), 99), Some(i as u32), "i = {i}");
        }
        // A new level forgets everything...
        t.begin_level();
        assert_eq!(t.first_seen(42, 3), None);
        assert_eq!(t.first_seen(42, 4), Some(3));
    }

    #[test]
    fn key_table_growth_preserves_owners() {
        let mut t = KeyTable::new();
        t.begin_level();
        // Push far past the initial capacity to force several doublings.
        for i in 0..100_000u64 {
            assert_eq!(t.first_seen(mix(i as u32), i as u32), None, "i = {i}");
        }
        for i in 0..100_000u64 {
            assert_eq!(t.first_seen(mix(i as u32), 0), Some(i as u32), "i = {i}");
        }
    }

    #[test]
    fn almost_equals_exact_on_fixtures() {
        let fixtures: Vec<Graph> = vec![
            Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
            Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
            Graph::complete(6),
            Graph::empty(3),
        ];
        for g in &fixtures {
            let exact = crate::percolate(g);
            let almost = percolate_mode(g, Mode::Almost);
            assert_eq!(exact.levels, almost.levels);
            let d = divergence(&exact, &almost);
            assert!(d.is_zero(), "{d}");
            for k in 2..=exact.k_max().unwrap_or(1) as usize {
                let mut e = crate::percolate_at(g, k);
                e.sort_unstable();
                assert_eq!(e, percolate_at_mode(g, k, Mode::Almost), "k = {k}");
            }
        }
    }

    #[test]
    fn divergence_reports_splits() {
        // Doctor an almost result: split one community in two.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]);
        let exact = crate::percolate(&g);
        let mut forged = crate::percolate(&g);
        let l3 = forged.levels.iter_mut().find(|l| l.k == 3).unwrap();
        let whole = l3.communities.remove(0);
        let mut left = whole.clone();
        let mut right = whole.clone();
        left.members = vec![0, 1, 2, 3];
        right.members = vec![2, 3, 4];
        l3.communities.push(left);
        l3.communities.push(right);
        let d = divergence(&exact, &forged);
        assert!(!d.is_zero());
        let dl3 = d.levels.iter().find(|l| l.k == 3).unwrap();
        assert_eq!(dl3.exact_communities, 1);
        assert_eq!(dl3.almost_communities, 2);
        assert_eq!(dl3.unmatched_exact, 1);
        assert_eq!(dl3.unmatched_almost, 2);
        assert_eq!(dl3.moved_members, 5 + 4 + 3);
        assert_eq!(d.total_unmatched(), 3);
        assert!(d.to_string().contains("k=3"));
    }
}
