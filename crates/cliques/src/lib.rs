//! Maximal-clique enumeration for the clique percolation pipeline.
//!
//! The paper's §3 extracts all maximal k-cliques of the AS-level topology
//! (2.7 M of them, 88 % with k in `[18:28]`) as the input to the Clique
//! Percolation Method. This crate provides the corresponding machinery:
//!
//! - [`bron_kerbosch`] — the Bron–Kerbosch family: the textbook recursion,
//!   Tomita pivoting, and the Eppstein–Löffler–Strash degeneracy-ordered
//!   outer loop (the practical default for sparse Internet-like graphs).
//! - [`parallel`] — a multi-threaded enumerator partitioning the degeneracy
//!   outer loop across the persistent [`exec::Pool`] worker team; one half
//!   of the "Lightweight Parallel CPM" of Gregori et al.
//! - [`CliqueSet`] — the result container with the size histogram used for
//!   the paper's maximal-clique census.
//! - [`kclique`] — exhaustive listing of (not necessarily maximal)
//!   k-cliques, used only by the naive definitional CPM oracle in tests.
//!
//! # Example
//!
//! ```
//! use asgraph::Graph;
//! use cliques::max_cliques;
//!
//! // Two triangles sharing the edge {1, 2}.
//! let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
//! let cliques = max_cliques(&g);
//! assert_eq!(cliques.len(), 2);
//! assert_eq!(cliques.size_histogram(), vec![(3, 2)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bron_kerbosch;
mod clique_set;
pub mod kclique;
mod kernel;
pub mod parallel;
pub mod sink;

pub use clique_set::{Clique, CliqueSet};
pub use kernel::{Kernel, AUTO_BITSET_MAX_LOCAL};
pub use sink::{consume_max_cliques, consume_max_cliques_cancellable, CliqueConsumer};

use asgraph::{Graph, NodeId};
use std::ops::ControlFlow;

/// Enumerates all maximal cliques of `g` with the recommended algorithm
/// (degeneracy-ordered Bron–Kerbosch with Tomita pivoting) and the
/// default [`Kernel::Auto`] set kernel.
///
/// Isolated vertices count as maximal 1-cliques, matching the definition of
/// maximality (they extend no other clique).
pub fn max_cliques(g: &Graph) -> CliqueSet {
    bron_kerbosch::degeneracy(g)
}

/// [`max_cliques`] with an explicit set [`Kernel`]. Every kernel yields
/// identical cliques in identical order.
pub fn max_cliques_with(g: &Graph, kernel: Kernel) -> CliqueSet {
    bron_kerbosch::degeneracy_with(g, kernel)
}

/// Visits every maximal clique of `g` as it is found, without collecting
/// the clique set — the streaming counterpart of [`max_cliques`] and the
/// enumeration front-end of the `cpm-stream` crate.
///
/// Cliques are emitted by the same degeneracy-ordered Bron–Kerbosch
/// recursion as [`max_cliques`] (identical cliques, identical order), but
/// the only live state is the recursion stack: peak memory stays
/// proportional to the graph instead of the clique census. The visitor
/// receives each clique as a sorted member slice valid only for the
/// duration of the call, and can abort the enumeration early by
/// returning [`ControlFlow::Break`]; the function then returns `Break`
/// too.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use std::ops::ControlFlow;
///
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// let mut sizes = Vec::new();
/// cliques::for_each_max_clique(&g, |clique| {
///     sizes.push(clique.len());
///     ControlFlow::Continue(())
/// });
/// assert_eq!(sizes, vec![3, 3]); // two triangles
///
/// // Early exit: stop at the first clique of size >= 3.
/// let mut found = None;
/// cliques::for_each_max_clique(&g, |clique| {
///     if clique.len() >= 3 {
///         found = Some(clique.to_vec());
///         ControlFlow::Break(())
///     } else {
///         ControlFlow::Continue(())
///     }
/// });
/// assert!(found.is_some());
/// ```
pub fn for_each_max_clique<F>(g: &Graph, visit: F) -> ControlFlow<()>
where
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    for_each_max_clique_with(g, Kernel::Auto, visit)
}

/// [`for_each_max_clique`] with an explicit set [`Kernel`]. The stream of
/// cliques (contents and order) is identical whatever the kernel.
pub fn for_each_max_clique_with<F>(g: &Graph, kernel: Kernel, mut visit: F) -> ControlFlow<()>
where
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    let ordering = asgraph::ordering::degeneracy_order(g);
    let mut scratch = Default::default();
    for &v in &ordering.order {
        bron_kerbosch::top_level_visit_with(
            g,
            v,
            &ordering.rank,
            kernel,
            &mut scratch,
            &mut visit,
        )?;
    }
    ControlFlow::Continue(())
}

/// [`for_each_max_clique_with`] polling a [`CancelToken`](exec::CancelToken) between
/// top-level subproblems — the enumeration's natural chunk boundary.
///
/// Until the token trips, the visitor sees exactly the stream of
/// [`for_each_max_clique_with`] (a prefix of it once cancelled, cut at
/// a subproblem boundary). A visitor `Break` still stops the
/// enumeration and returns `Ok(())`; cancellation returns
/// `Err(Cancelled)` so callers can tell "done early by choice" from
/// "told to stop".
///
/// # Errors
///
/// Returns [`exec::Cancelled`] once `cancel` trips; cliques emitted
/// before that were a prefix of the deterministic stream, so a caller
/// that persisted them can resume from where the stream stopped.
pub fn for_each_max_clique_cancellable<F>(
    g: &Graph,
    kernel: Kernel,
    cancel: &exec::CancelToken,
    mut visit: F,
) -> Result<(), exec::Cancelled>
where
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    let ordering = asgraph::ordering::degeneracy_order(g);
    let mut scratch = Default::default();
    for &v in &ordering.order {
        cancel.check()?;
        if bron_kerbosch::top_level_visit_with(
            g,
            v,
            &ordering.rank,
            kernel,
            &mut scratch,
            &mut visit,
        )
        .is_break()
        {
            return Ok(());
        }
    }
    Ok(())
}
