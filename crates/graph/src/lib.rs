//! # bncg-graph
//!
//! Graph substrate for the reproduction of *The Impact of Cooperation in
//! Bilateral Network Creation* (Friedrich, Gawendowicz, Lenzner, Zahn;
//! PODC 2023).
//!
//! The game layer (`bncg-core`) models agents as nodes of a simple
//! undirected graph and needs, beyond basic adjacency:
//!
//! * hop distances and distance sums ([`bfs_distances`], [`DistanceMatrix`]),
//!   with word-parallel `u64`-bitset kernels for `n ≤ 64` ([`BitsetGraph`])
//!   behind the same scalar-reference contract,
//! * the rooted-tree machinery of the paper's Section 3.2 — layers,
//!   subtree sizes, depths, and 1-medians ([`RootedTree`]),
//! * the named topologies of the paper ([`generators`]): star and clique
//!   (social optima), cycles (Lemma 2.4), `d`-ary trees (Lemma 3.18), …
//! * exhaustive enumeration of small trees and connected graphs up to
//!   isomorphism ([`enumerate`]), backed by canonical forms and an exact
//!   isomorphism test ([`iso`]),
//! * the `graph6` interchange format for logging witnesses ([`graph6`]).
//!
//! # Examples
//!
//! ```
//! use bncg_graph::{generators, DistanceMatrix, root_at_median};
//!
//! let tree = generators::spider(3, 2);
//! let rooted = root_at_median(&tree)?;
//! assert_eq!(rooted.root(), 0);
//! let d = DistanceMatrix::new(&tree);
//! assert_eq!(d.diameter(), Some(4));
//! # Ok::<(), bncg_graph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bitset;
mod error;
#[allow(clippy::module_inception)]
mod graph;
mod traversal;
mod tree;

pub mod connectivity;
pub mod enumerate;
pub mod generators;
pub mod graph6;
pub mod iso;

pub use bitset::{BitsetGraph, BITSET_MAX_N};
pub use error::GraphError;
pub use graph::{fnv1a_lines, fnv1a_u64, Graph};
pub use traversal::{bfs_distances, diameter, DistanceMatrix, UNREACHABLE};
pub use tree::{root_at_median, tree_medians, RootedTree};

/// A seeded small RNG for deterministic tests and examples.
///
/// This is a convenience for the reproduction's own test suites; it is part
/// of the public API so downstream crates in the workspace can share the
/// same deterministic setup.
#[must_use]
pub fn test_rng(seed: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(seed)
}
