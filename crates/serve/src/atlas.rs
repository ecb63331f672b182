//! Atlas-backed serving: the daemon-side half of the `atlas_lookup` op.
//!
//! The daemon optionally holds a precomputed stability corpus
//! ([`bncg_atlas::DynAtlas`]). An `atlas_lookup` request canonicalizes
//! the query graph, probes the corpus, and — on a **conclusive** hit —
//! answers inline with the stored verdict at **zero solver cost**: no
//! scheduler submission, no slice, and not a single candidate
//! evaluation charged to the tenant's pool (`"evals":0,"slices":0`,
//! `"source":"atlas"`). Anything else — no atlas loaded, instance above
//! the enumeration ceiling, class not stored, or only an `exhausted`
//! record on file — is a **miss**: the request falls through to a
//! scheduled live check whose response carries `"source":"live"`.
//!
//! Hit and miss counters feed the `stats` op so operators can see what
//! share of lookup traffic the corpus is absorbing.

use crate::protocol::{Response, Source};
use bncg_atlas::DynAtlas;
use bncg_core::{Alpha, Concept, CostModelSpec};
use bncg_graph::Graph;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The daemon's view of the (optional) stability corpus, plus serving
/// counters. Shared read-only across connection threads — the atlas is
/// immutable once loaded, so lookups need no lock.
pub struct AtlasService {
    atlas: Option<DynAtlas>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl fmt::Debug for AtlasService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtlasService")
            .field("loaded", &self.atlas.is_some())
            .field("records", &self.atlas.as_ref().map_or(0, DynAtlas::len))
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl Default for AtlasService {
    fn default() -> Self {
        AtlasService::empty()
    }
}

impl AtlasService {
    /// A service with no corpus: every lookup misses through to a live
    /// check. This is the default daemon configuration.
    #[must_use]
    pub fn empty() -> Self {
        AtlasService {
            atlas: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A service answering from `atlas`.
    #[must_use]
    pub fn with_atlas(atlas: DynAtlas) -> Self {
        AtlasService {
            atlas: Some(atlas),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether a corpus is loaded.
    #[must_use]
    pub fn loaded(&self) -> bool {
        self.atlas.is_some()
    }

    /// Lookups answered from the corpus since startup.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a live check since startup.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Tries to answer an `atlas_lookup` from the corpus. `Some` is the
    /// complete response (a hit — the caller writes it and is done);
    /// `None` is a miss (the caller submits the equivalent live
    /// check). Counters are bumped either way. The corpus is built
    /// under the default cost model only, so a non-default
    /// `cost_model` is a counted miss without probing the index.
    #[must_use]
    pub fn try_answer(
        &self,
        id: u64,
        concept: Concept,
        graph: &Graph,
        alpha: Alpha,
        cost_model: CostModelSpec,
    ) -> Option<Response> {
        if !cost_model.is_default() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match self.probe(id, concept, graph, alpha) {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn probe(&self, id: u64, concept: Concept, graph: &Graph, alpha: Alpha) -> Option<Response> {
        let atlas = self.atlas.as_ref()?;
        // A lookup error (unkeyable graph, torn index) degrades to a
        // miss: the live path still produces a correct answer.
        let hit = atlas.lookup(graph, concept, alpha).ok().flatten()?;
        let witness = match hit.record.verdict.is_stable()? {
            true => None,
            false => Some(hit.witness?),
        };
        Some(Response::Verdict {
            id,
            source: Some(Source::Atlas),
            witness,
            evals: 0,
            slices: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_atlas::{build, Atlas, BuildSpec, MemoryBacking, RamBacking};
    use bncg_graph::generators;

    fn service_n4() -> AtlasService {
        let mut atlas = Atlas::open(RamBacking::new()).unwrap();
        build(&mut atlas, &BuildSpec::standard(4), 1_000_000, None).unwrap();
        // Re-open over a type-erased backing, as the daemon would.
        let mut boxed: Box<dyn MemoryBacking + Send + Sync> = Box::new(RamBacking::new());
        atlas
            .backing()
            .for_each_line(&mut |_, line| boxed.append_line(line).unwrap())
            .unwrap();
        AtlasService::with_atlas(Atlas::open(boxed).unwrap())
    }

    #[test]
    fn conclusive_hits_answer_inline_with_zero_cost() {
        let svc = service_n4();
        let g = generators::path(4);
        let hit = svc
            .try_answer(
                7,
                Concept::Bae,
                &g,
                Alpha::from_ratio(1, 2).unwrap(),
                CostModelSpec::SumDistances,
            )
            .expect("P4 BAE at α=1/2 is in the standard n≤4 grid");
        assert!(
            matches!(
                hit,
                Response::Verdict {
                    id: 7,
                    source: Some(Source::Atlas),
                    witness: Some(_),
                    evals: 0,
                    slices: 0,
                }
            ),
            "{hit:?}"
        );
        assert_eq!((svc.hits(), svc.misses()), (1, 0));
    }

    #[test]
    fn off_grid_and_oversize_queries_miss() {
        let svc = service_n4();
        // α = 7 is not on the standard grid for n = 4.
        let g = generators::path(4);
        assert!(svc
            .try_answer(
                1,
                Concept::Bae,
                &g,
                Alpha::integer(7).unwrap(),
                CostModelSpec::SumDistances,
            )
            .is_none());
        // n = 5 is beyond the built ceiling.
        assert!(svc
            .try_answer(
                2,
                Concept::Bae,
                &generators::path(5),
                Alpha::integer(2).unwrap(),
                CostModelSpec::SumDistances,
            )
            .is_none());
        // n far beyond the enumeration ceiling misses without keying.
        assert!(svc
            .try_answer(
                3,
                Concept::Re,
                &generators::path(64),
                Alpha::integer(2).unwrap(),
                CostModelSpec::SumDistances,
            )
            .is_none());
        assert_eq!((svc.hits(), svc.misses()), (0, 3));
    }

    #[test]
    fn non_default_cost_model_is_a_counted_miss() {
        let svc = service_n4();
        // P4 BAE at α=1/2 is a corpus hit under the default model; any
        // other model must fall through to live without probing.
        let g = generators::path(4);
        assert!(svc
            .try_answer(
                9,
                Concept::Bae,
                &g,
                Alpha::from_ratio(1, 2).unwrap(),
                "generalized:cap2".parse().unwrap(),
            )
            .is_none());
        assert_eq!((svc.hits(), svc.misses()), (0, 1));
    }

    #[test]
    fn empty_service_always_misses() {
        let svc = AtlasService::empty();
        assert!(!svc.loaded());
        assert!(svc
            .try_answer(
                1,
                Concept::Re,
                &generators::path(4),
                Alpha::integer(2).unwrap(),
                CostModelSpec::SumDistances,
            )
            .is_none());
        assert_eq!((svc.hits(), svc.misses()), (0, 1));
    }
}
