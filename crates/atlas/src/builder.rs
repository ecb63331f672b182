//! The resumable atlas builder: a deterministic walk over canonical
//! connected classes × concepts × a pinned α grid, metered by one
//! shared eval budget.
//!
//! ## Determinism contract
//!
//! The build order is a pure function of the [`BuildSpec`]: node counts
//! ascending, classes in [`bncg_graph::enumerate::connected_graph_classes`]
//! order (edge count, then canonical key), concepts in spec order, then
//! the per-instance resolved α grid ascending. The classes come from one
//! lazy walk over the levels ([`bncg_graph::enumerate::graph_class_levels`]),
//! so each node count is enumerated once, and never past the level an
//! interrupted build stops in; the walk's own threads never change the
//! order. Queries run strictly
//! sequentially (one worker) against a budget pool whose position is
//! `Σ` of the stored `evals` column — so a build interrupted at *any*
//! record boundary and resumed (even across process restarts, even
//! after a torn-tail repair re-derives the last record) appends exactly
//! the lines the uninterrupted build would have, byte for byte. The
//! root `tests/atlas.rs` suite property-tests this.
//!
//! Running dry is not an error: once the pool drains, remaining
//! exponential checks are stored as first-class `exhausted` records
//! (polynomial concepts complete eagerly and are never metered).

use crate::atlas::Atlas;
use crate::backing::MemoryBacking;
use crate::key;
use crate::record::{AtlasRecord, StoredVerdict};
use bncg_core::{Alpha, Concept, CostModelSpec, ExecPolicy, GameError, Solver, StabilityQuery};
use bncg_graph::{enumerate, graph6};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering;

/// One α grid entry: either a pinned price or the instance-dependent
/// price `α = n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlphaSpec {
    /// A fixed price, identical for every instance.
    Fixed(Alpha),
    /// The price `α = n` (the paper's large-α regime scales with the
    /// instance).
    N,
}

impl AlphaSpec {
    /// Resolves the entry for an `n`-node instance.
    ///
    /// # Errors
    ///
    /// [`GameError::InvalidAlpha`] if `n = 0` (no such instance).
    pub(crate) fn resolve(&self, n: u32) -> Result<Alpha, GameError> {
        match self {
            AlphaSpec::Fixed(a) => Ok(*a),
            AlphaSpec::N => Alpha::integer(i64::from(n)),
        }
    }
}

impl fmt::Display for AlphaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlphaSpec::Fixed(a) => write!(f, "{a}"),
            AlphaSpec::N => f.write_str("n"),
        }
    }
}

impl FromStr for AlphaSpec {
    type Err = GameError;

    fn from_str(s: &str) -> Result<Self, GameError> {
        if s.trim().eq_ignore_ascii_case("n") {
            Ok(AlphaSpec::N)
        } else {
            Ok(AlphaSpec::Fixed(s.parse()?))
        }
    }
}

/// What to build: the instance ceiling, the α grid, and the concepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildSpec {
    /// Largest node count to enumerate (1..=`max_n`), capped by
    /// [`enumerate::MAX_GRAPH_CLASS_NODES`].
    pub max_n: u32,
    /// The α grid, resolved per instance and deduplicated after
    /// resolution (at `n = 1` the entries `1` and `n` coincide).
    pub grid: Vec<AlphaSpec>,
    /// Concepts to check, in build order.
    pub concepts: Vec<Concept>,
}

impl BuildSpec {
    /// The pinned standard spec: α ∈ {1/2, 1, 2, n} over every concept
    /// of Table 1.
    ///
    /// # Panics
    ///
    /// Never — the grid constants are valid prices.
    #[must_use]
    pub fn standard(max_n: u32) -> BuildSpec {
        BuildSpec {
            max_n,
            grid: vec![
                AlphaSpec::Fixed(Alpha::from_ratio(1, 2).expect("1/2 is a valid price")),
                AlphaSpec::Fixed(Alpha::integer(1).expect("1 is a valid price")),
                AlphaSpec::Fixed(Alpha::integer(2).expect("2 is a valid price")),
                AlphaSpec::N,
            ],
            concepts: Concept::ALL.to_vec(),
        }
    }

    /// A stable textual fingerprint of the spec, embedded in the
    /// [`Cursor`] so a resume against a different spec is rejected
    /// instead of silently interleaving two walks.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let grid: Vec<String> = self.grid.iter().map(ToString::to_string).collect();
        let concepts: Vec<String> = self.concepts.iter().map(Concept::token).collect();
        format!(
            "v1;max_n={};grid={};concepts={}",
            self.max_n,
            grid.join(","),
            concepts.join(",")
        )
    }

    /// The per-instance α grid: resolved, ascending, deduplicated.
    ///
    /// # Errors
    ///
    /// Propagates [`AlphaSpec::resolve`] failures.
    pub(crate) fn resolved_grid(&self, n: u32) -> Result<Vec<Alpha>, GameError> {
        let mut grid = self
            .grid
            .iter()
            .map(|s| s.resolve(n))
            .collect::<Result<Vec<_>, _>>()?;
        grid.sort();
        grid.dedup();
        Ok(grid)
    }

    /// The per-class work items `(concept, α)` in build order.
    fn class_items(&self, n: u32) -> Result<Vec<(Concept, Alpha)>, GameError> {
        let grid = self.resolved_grid(n)?;
        Ok(self
            .concepts
            .iter()
            .flat_map(|c| grid.iter().map(move |a| (*c, *a)))
            .collect())
    }
}

/// A printable build position: how many records exist and how much
/// of the shared budget they consumed. Derived from the atlas itself
/// ([`Cursor::of_atlas`]), never stored beside it — the store cannot
/// drift from its own cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cursor {
    /// Fingerprint of the spec the records follow.
    pub spec: String,
    /// Records present.
    pub records: u64,
    /// Σ of the stored `evals` column (the budget-pool position).
    pub pool_used: u64,
}

impl Cursor {
    /// Derives the cursor of an atlas under `spec`.
    #[must_use]
    pub fn of_atlas<B: MemoryBacking>(atlas: &Atlas<B>, spec: &BuildSpec) -> Cursor {
        Cursor {
            spec: spec.fingerprint(),
            records: atlas.len(),
            pool_used: atlas.evals_total(),
        }
    }
}

impl fmt::Display for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{\"spec\":\"{}\",\"records\":{},\"pool_used\":{}}}",
            self.spec, self.records, self.pool_used
        )
    }
}

/// What one [`build`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildReport {
    /// Records appended by this call.
    pub appended: u64,
    /// Records already present and skipped (the resume prefix).
    pub skipped: u64,
    /// Evaluations charged to the pool by this call.
    pub evals_charged: u64,
    /// The pool position after this call (Σ stored evals).
    pub pool_used: u64,
    /// Whether the walk reached the end of the spec (false when a
    /// `step_limit` interrupted it; an exhausted *budget* still runs to
    /// completion, storing `exhausted` records).
    pub complete: bool,
    /// Torn tail lines the backing repaired at open; the records were
    /// re-derived by this walk, not lost.
    pub rederived_tail: u64,
}

/// Runs (or resumes) the build walk on `atlas`.
///
/// `budget` is the **total** eval budget of the whole atlas, not of
/// this call: the pool is seeded with `Σ` of the already-stored `evals`
/// column, so interrupt/resume chains and one-shot builds consume the
/// budget identically. `step_limit` caps the records appended by this
/// call (the interruption primitive; `None` runs to the end).
///
/// # Errors
///
/// [`GameError::Unsupported`] if the stored prefix does not match the
/// spec's walk (resuming against the wrong spec), plus any storage or
/// solver error.
pub fn build<B: MemoryBacking>(
    atlas: &mut Atlas<B>,
    spec: &BuildSpec,
    budget: u64,
    step_limit: Option<u64>,
) -> Result<BuildReport, GameError> {
    let done = atlas.len();
    let rederived_tail = atlas.dropped_tail();
    let pool = AtomicU64::new(atlas.evals_total());
    let evals_at_start = atlas.evals_total();
    // One worker, strictly in input order: the determinism basis for
    // byte-identical interrupt/resume chains.
    let solver = Solver::new(
        ExecPolicy::default()
            .with_threads(1)
            .with_batch_budget(budget),
    );

    let mut idx = 0u64; // global work-item index
    let mut appended = 0u64;
    let mut complete = true;

    // One walk over the class levels: each level is enumerated once and
    // only as far as the build actually reaches.
    'walk: for (n, level) in enumerate::graph_class_levels(spec.max_n as usize)? {
        let n = n as u32;
        let classes: Vec<_> = level.into_iter().filter(|g| g.is_connected()).collect();
        let items = spec.class_items(n)?;
        let per_class = items.len() as u64;
        for g in &classes {
            if idx + per_class <= done {
                // Fully stored class; spot-check the newest record if it
                // falls here, then skip without touching the solver.
                if done - idx <= per_class {
                    let at = usize::try_from(done - 1 - idx).expect("per-class count is small");
                    spot_check(atlas, done - 1, g, n, items[at])?;
                }
                idx += per_class;
                continue;
            }
            let start = usize::try_from(done.saturating_sub(idx)).expect("within one class");
            if start > 0 {
                spot_check(atlas, done - 1, g, n, items[start - 1])?;
            }
            let mut take = items.len() - start;
            if let Some(limit) = step_limit {
                let left = usize::try_from(limit - appended).unwrap_or(usize::MAX);
                take = take.min(left);
            }
            if take < items.len() - start {
                complete = false;
            }
            if take > 0 {
                let safe = class_key(g)?;
                let slice = &items[start..start + take];
                let queries: Vec<StabilityQuery> = slice
                    .iter()
                    .map(|(c, a)| StabilityQuery::new(*c, g, *a))
                    .collect();
                for ((concept, alpha), verdict) in
                    slice.iter().zip(solver.check_many_pooled(&queries, &pool))
                {
                    let (stored, evals) = StoredVerdict::of_verdict(&verdict?);
                    atlas.append(&AtlasRecord {
                        key: safe.clone(),
                        n,
                        concept: *concept,
                        alpha: *alpha,
                        model: CostModelSpec::SumDistances,
                        verdict: stored,
                        evals,
                    })?;
                    appended += 1;
                }
            }
            if !complete {
                break 'walk;
            }
            idx += per_class;
        }
    }

    if complete && done > idx {
        return Err(GameError::Unsupported {
            reason: format!(
                "atlas holds {done} records but the spec's walk has only {idx} \
                 work items — it was built under a different spec"
            ),
        });
    }
    atlas.flush()?;
    debug_assert_eq!(pool.load(Ordering::Relaxed), atlas.evals_total());
    Ok(BuildReport {
        appended,
        skipped: done,
        evals_charged: atlas.evals_total() - evals_at_start,
        pool_used: atlas.evals_total(),
        complete,
        rederived_tail,
    })
}

/// The safe key of an (already canonical) class representative.
fn class_key(g: &bncg_graph::Graph) -> Result<String, GameError> {
    let g6 = graph6::encode(g).map_err(|e| GameError::Unsupported {
        reason: format!("class representative does not encode as graph6: {e}"),
    })?;
    key::safe_key(&g6)
}

/// Confirms the stored record at `at` is the one the walk would have
/// produced there — the cheap guard against resuming a store built
/// under a different spec.
fn spot_check<B: MemoryBacking>(
    atlas: &Atlas<B>,
    at: u64,
    g: &bncg_graph::Graph,
    n: u32,
    (concept, alpha): (Concept, Alpha),
) -> Result<(), GameError> {
    let rec = atlas.record(at)?;
    let expected = class_key(g)?;
    if rec.key != expected || rec.n != n || rec.concept != concept || rec.alpha != alpha {
        return Err(GameError::Unsupported {
            reason: format!(
                "atlas record {at} is ({}, n={}, {}, α={}) but the spec's walk \
                 expects ({expected}, n={n}, {}, α={alpha}) — resume against the \
                 spec the store was built with",
                rec.key,
                rec.n,
                rec.concept.token(),
                rec.alpha,
                concept.token(),
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::RamBacking;

    fn small_spec() -> BuildSpec {
        BuildSpec {
            max_n: 4,
            grid: vec![
                AlphaSpec::Fixed(Alpha::from_ratio(1, 2).unwrap()),
                AlphaSpec::Fixed(Alpha::integer(2).unwrap()),
                AlphaSpec::N,
            ],
            concepts: vec![Concept::Re, Concept::Bae, Concept::Bne],
        }
    }

    fn atlas_lines(atlas: &Atlas<RamBacking>) -> Vec<String> {
        let mut out = Vec::new();
        atlas
            .backing()
            .for_each_line(&mut |_, l| out.push(l.to_string()))
            .unwrap();
        out
    }

    #[test]
    fn the_standard_n5_build_matches_its_golden_digest() {
        // FNV-1a over the record lines of `BuildSpec::standard(5)` under
        // a 1,000,000-eval budget, recorded before the bit-row class
        // walk: a changed representative, class order or record byte
        // fails here.
        let mut atlas = Atlas::open(RamBacking::new()).unwrap();
        let report = build(&mut atlas, &BuildSpec::standard(5), 1_000_000, None).unwrap();
        assert!(report.complete);
        assert_eq!((atlas.len(), atlas.evals_total()), (1098, 29_748));
        let lines = atlas_lines(&atlas);
        assert_eq!(
            bncg_graph::fnv1a_lines(lines.iter().map(String::as_str)),
            0x3092_b93e_e65a_c853
        );
    }

    #[test]
    fn alpha_specs_parse_and_resolve() {
        assert_eq!("n".parse::<AlphaSpec>().unwrap(), AlphaSpec::N);
        assert_eq!(
            "3/2".parse::<AlphaSpec>().unwrap(),
            AlphaSpec::Fixed(Alpha::from_ratio(3, 2).unwrap())
        );
        assert_eq!(AlphaSpec::N.resolve(7).unwrap(), Alpha::integer(7).unwrap());
        assert_eq!(AlphaSpec::N.to_string(), "n");
    }

    #[test]
    fn resolved_grid_dedups_after_resolution() {
        let spec = BuildSpec::standard(6);
        // At n = 1 and n = 2 the `n` entry collides with a fixed one.
        assert_eq!(spec.resolved_grid(1).unwrap().len(), 3);
        assert_eq!(spec.resolved_grid(2).unwrap().len(), 3);
        assert_eq!(spec.resolved_grid(6).unwrap().len(), 4);
    }

    #[test]
    fn cursor_derives_from_the_store() {
        let spec = small_spec();
        let mut atlas = Atlas::open(RamBacking::new()).unwrap();
        build(&mut atlas, &spec, 100_000, None).unwrap();
        let cursor = Cursor::of_atlas(&atlas, &spec);
        assert_eq!(cursor.records, atlas.len());
        assert_eq!(cursor.pool_used, atlas.evals_total());
    }

    #[test]
    fn interrupted_chains_reproduce_the_one_shot_build() {
        let spec = small_spec();
        let budget = 5_000u64;
        let mut oneshot = Atlas::open(RamBacking::new()).unwrap();
        let report = build(&mut oneshot, &spec, budget, None).unwrap();
        assert!(report.complete);
        assert!(report.appended > 0);

        // Resume in steps of 7 records until complete.
        let mut chained = Atlas::open(RamBacking::new()).unwrap();
        let mut rounds = 0;
        loop {
            let r = build(&mut chained, &spec, budget, Some(7)).unwrap();
            rounds += 1;
            assert!(rounds < 10_000, "chain failed to converge");
            if r.complete {
                break;
            }
            assert_eq!(r.appended, 7);
        }
        assert_eq!(atlas_lines(&oneshot), atlas_lines(&chained));
        assert_eq!(oneshot.evals_total(), chained.evals_total());
    }

    #[test]
    fn a_drained_budget_stores_exhausted_records_and_still_completes() {
        let spec = BuildSpec {
            max_n: 4,
            grid: vec![AlphaSpec::Fixed(Alpha::integer(3).unwrap())],
            concepts: vec![Concept::Bne],
        };
        let mut atlas = Atlas::open(RamBacking::new()).unwrap();
        let report = build(&mut atlas, &spec, 5, None).unwrap();
        assert!(report.complete);
        assert!(report.pool_used <= 5 + 64, "pool overrun: {report:?}");
        let mut exhausted = 0;
        atlas
            .for_each_record(&mut |_, r| {
                if matches!(r.verdict, StoredVerdict::Exhausted(_)) {
                    exhausted += 1;
                }
            })
            .unwrap();
        assert!(exhausted > 0, "a 5-eval budget cannot finish n ≤ 4 BNE");
    }

    #[test]
    fn resuming_under_a_different_spec_is_rejected() {
        let mut atlas = Atlas::open(RamBacking::new()).unwrap();
        build(&mut atlas, &small_spec(), 100_000, None).unwrap();
        let mut other = small_spec();
        other.concepts = vec![Concept::Bse, Concept::Re, Concept::Bae];
        assert!(build(&mut atlas, &other, 100_000, None).is_err());
    }

    #[test]
    fn the_walk_covers_every_class_concept_alpha_triple_exactly_once() {
        let spec = small_spec();
        let mut atlas = Atlas::open(RamBacking::new()).unwrap();
        build(&mut atlas, &spec, 100_000, None).unwrap();
        // Connected classes at n = 1..4: 1 + 1 + 2 + 6. Work per class:
        // 3 concepts × (3 α at n ≥ 3 — the grid is {1/2, 2, n}, which
        // collides at n = 2 only).
        let expected: u64 = [1u64, 1, 2, 6]
            .iter()
            .zip([3u64, 2, 3, 3])
            .map(|(classes, alphas)| classes * 3 * alphas)
            .sum();
        assert_eq!(atlas.len(), expected);
        let mut keys = std::collections::HashSet::new();
        atlas
            .for_each_record(&mut |_, r| {
                assert!(keys.insert(r.index_key()), "duplicate {}", r.index_key());
            })
            .unwrap();
    }
}
