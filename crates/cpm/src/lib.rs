//! Clique Percolation Method (CPM) — the core algorithm of the
//! reproduced paper.
//!
//! A *k-clique community* (Palla, Derényi, Farkas, Vicsek, Nature 2005) is
//! the union of all k-cliques reachable from one another through a chain
//! of adjacent k-cliques, where two k-cliques are adjacent when they share
//! k−1 nodes. Communities of the same `k` may overlap, and every k-clique
//! community nests inside exactly one (k−1)-clique community — the
//! theorem the paper proves in §3.1 and turns into its *k-clique community
//! tree*.
//!
//! This crate computes the communities of **every** k in a single
//! descending sweep ([`percolate`]), emitting the nesting links as it
//! goes, and provides the multi-threaded pipeline of the companion
//! "Lightweight Parallel CPM" paper ([`parallel::percolate_parallel`]).
//! A single level has its own threaded, cancellable engine
//! ([`percolate_at_cancellable`]) that keeps only the cliques of size
//! ≥ k and verifies only prefix-filtered candidate pairs.
//! The literal definition is also implemented ([`naive`]) and used as a
//! cross-validation oracle in the property tests.
//!
//! # Example
//!
//! ```
//! use asgraph::Graph;
//!
//! // Two overlapping K4s sharing a triangle.
//! let g = Graph::from_edges(
//!     5,
//!     [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
//!      (1, 4), (2, 4), (3, 4)],
//! );
//! let result = cpm::percolate(&g);
//! // They merge into a single 4-clique community covering all 5 nodes.
//! assert_eq!(result.level(4).unwrap().communities.len(), 1);
//! assert_eq!(result.level(4).unwrap().communities[0].members.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod at_k;
pub mod consume;
pub mod directed;
mod dsu;
mod dsu_concurrent;
pub mod mode;
pub mod naive;
pub mod overlap;
pub mod parallel;
mod percolation;
mod result;
pub mod scp;
mod snapshot;
mod sweep;
pub mod weighted;

pub use at_k::percolate_at_cancellable;
pub use consume::{
    percolate_at_fused, percolate_at_fused_with_kernel, percolate_fused,
    percolate_fused_cancellable, percolate_fused_parallel, percolate_fused_phases,
    percolate_fused_phases_parallel, percolate_fused_phases_probed, percolate_fused_with_kernel,
    FusedCpmResult, FusedPercolator, FusedPhases, Pipeline,
};
pub use dsu::Dsu;
pub use dsu_concurrent::ConcurrentDsu;
pub use mode::{
    divergence, percolate_almost_phases, percolate_at_mode, percolate_mode,
    percolate_with_cliques_mode, AlmostPhases, Divergence, LevelDivergence, Mode,
};
pub use overlap::{
    build_vertex_index, build_vertex_index_min_size, overlap_edges, overlap_edges_with,
    OverlapEdge, VertexCliqueIndex,
};
pub use percolation::{
    percolate, percolate_at, percolate_at_with_kernel, percolate_with_cliques,
    percolate_with_cliques_kernel, percolate_with_kernel,
};
pub use result::{canonical_members, Community, CommunityId, CpmResult, KLevel};
pub use snapshot::{SnapCommunity, SnapLevel, SnapshotIndex, SNAPSHOT_MAGIC};
pub use sweep::{
    overlap_strata, overlap_strata_min, overlap_strata_with, percolate_from_strata, OverlapStrata,
};
