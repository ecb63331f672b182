//! # bncg-atlas — the precomputed stability corpus
//!
//! A disk-resident (or in-memory) atlas of exact stability verdicts
//! for **every** connected graph class up to a node ceiling, across
//! the solution-concept ladder and a pinned α grid. Built once under a
//! shared eval budget, the atlas answers stability queries at zero
//! solver cost: the serving layer's `atlas_lookup` op canonicalizes
//! the query graph, probes the corpus, and returns the stored verdict
//! (witnesses relabeled back into the query's own vertex labels).
//!
//! ## Layers
//!
//! - [`backing`] — the [`MemoryBacking`] storage trait with
//!   [`RamBacking`] and the append-only segment-file [`DiskBacking`]
//!   (torn-tail repair, manifest-pinned geometry).
//! - [`record`] — the one-line flat-JSON [`AtlasRecord`] and its
//!   [`StoredVerdict`].
//! - [`key`] — canonical graph6 keys, transliterated into an
//!   escape-free alphabet.
//! - [`atlas`] — the [`Atlas`] index: open/replay, append, and
//!   canonical-key [`Atlas::lookup`] with witness relabeling.
//! - [`builder`] — the deterministic, resumable, budget-pooled
//!   [`build`] walk and its serializable [`Cursor`].
//! - [`verify`] — seeded differential replay of stored entries against
//!   the live solver ([`verify::verify`]).
//!
//! ## Determinism
//!
//! The corpus is a pure function of the [`BuildSpec`] and the budget:
//! build order is pinned, and the budget pool's position is recoverable
//! as `Σ` of the stored `evals` column. Queries are solved speculatively
//! on every core but committed by one thread in walk order, and a
//! speculative result is kept only where the sequential walk provably
//! produces the same one, so every byte equals the one-thread walk's
//! at any budget. Interrupting and resuming a build — at any record
//! boundary, across process restarts, even after a torn-tail repair —
//! yields the byte-identical atlas (property-tested in the root
//! `tests/atlas.rs`, which also checks the build against a sequential
//! reference walk across budgets).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod atlas;
pub mod backing;
pub mod builder;
pub mod key;
pub mod record;
pub mod verify;

pub use atlas::{Atlas, Hit};
pub use backing::{DiskBacking, MemoryBacking, RamBacking};
pub use builder::{build, AlphaSpec, BuildReport, BuildSpec, Cursor};
pub use record::{AtlasRecord, StoredVerdict};
pub use verify::{verify as verify_atlas, VerifyReport};

/// An atlas over a type-erased backing — what long-lived embedders (the
/// daemon) hold so RAM- and disk-resident corpora share one type.
pub type DynAtlas = Atlas<Box<dyn MemoryBacking + Send + Sync>>;
