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
//! order. The budget pool's position is `Σ` of the stored `evals`
//! column — so a build interrupted at *any* record boundary and resumed
//! (even across process restarts, even after a torn-tail repair
//! re-derives the last record) appends exactly the lines the
//! uninterrupted build would have, byte for byte. The root
//! `tests/atlas.rs` suite property-tests this.
//!
//! ## Parallel speculation, sequential commit
//!
//! The output is the one-thread walk's: each query checked in walk
//! order on one thread against the real pool. To use every core, each
//! level is taken in windows of `WINDOW` classes. Workers, one per
//! core, build one [`GameState`] per α for each class this call appends
//! whole, run its items one thread per query, and render each record
//! line and index key; all their scans drain one window counter capped
//! at the budget the pool has left. Then one thread commits the window
//! in walk order. It keeps a speculative record only if its scan
//! completed and `pool + evals < budget`, strictly: then no budget poll
//! inside the sequential scan could have stopped it, and a one-thread
//! scan's visit order does not depend on the counter, so the record is
//! the sequential one. Every other item — one the speculation stopped,
//! one at or past the drain point, a partly stored class, one cut by
//! `step_limit`, and every item once the pool reads drained at a window
//! start — is checked exactly as the sequential walk checks it. The
//! stored resume prefix is never re-checked.
//!
//! Running dry is not an error: once the pool drains, remaining
//! exponential checks are stored as first-class `exhausted` records
//! (polynomial concepts complete eagerly and are never metered).

use crate::atlas::Atlas;
use crate::backing::MemoryBacking;
use crate::key;
use crate::record::{AtlasRecord, StoredVerdict};
use bncg_core::{
    Alpha, Concept, CostModelSpec, ExecPolicy, GameError, GameState, Solver, StabilityQuery,
    Verdict,
};
use bncg_graph::{enumerate, graph6, Graph};
use std::fmt::{self, Write as _};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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

    /// The per-class work items in build order: each concept, then each
    /// of the `prices` grid entries.
    fn class_items(&self, prices: usize) -> Vec<Item> {
        self.concepts
            .iter()
            .flat_map(|&c| (0..prices).map(move |a| (c, a)))
            .collect()
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

/// Classes per speculation window: each window is solved and rendered
/// on every core, then committed in walk order. It bounds the results
/// held at once and the speculative work a drain or a step limit can
/// discard.
const WINDOW: usize = 64;

/// One work item of a class: the concept and the index of its price in
/// the level's resolved grid.
type Item = (Concept, usize);

/// One record line, rendered with its index key.
struct Rendered {
    line: String,
    index_key: String,
    evals: u64,
}

/// What a speculation worker made of one class: its key and, per item,
/// the rendered record if the item's scan completed.
struct Speculated {
    key: String,
    items: Vec<Option<Rendered>>,
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
    let evals_at_start = atlas.evals_total();
    let pool = AtomicU64::new(evals_at_start);
    // The committing solver: one worker, strictly in input order, the
    // reference every speculative result must equal.
    let solver = Solver::new(
        ExecPolicy::default()
            .with_threads(1)
            .with_batch_budget(budget),
    );
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    let mut idx = 0u64; // global work-item index
    let mut appended = 0u64;
    let mut complete = true;

    // One walk over the class levels: each level is enumerated once and
    // only as far as the build actually reaches.
    'walk: for (n, level) in enumerate::graph_class_levels(spec.max_n as usize)? {
        let n = n as u32;
        let classes: Vec<Graph> = level.into_iter().filter(Graph::is_connected).collect();
        let grid = spec.resolved_grid(n)?;
        let items = spec.class_items(grid.len());
        let per_class = items.len() as u64;
        let level_records = classes.len() as u64 * per_class;
        atlas
            .reserve(step_limit.map_or(level_records, |limit| level_records.min(limit - appended)));
        for window in classes.chunks(WINDOW) {
            // Speculate only on classes this call appends whole, and only
            // while the pool has budget left.
            let left = budget.saturating_sub(pool.load(Ordering::Relaxed));
            let mut todo = Vec::new();
            let mut room = step_limit.map_or(u64::MAX, |limit| limit - appended);
            for k in 0..window.len() {
                let (start, take) = class_span(idx + k as u64 * per_class, per_class, done, room);
                if left > 0 && start == 0 && take == per_class {
                    todo.push(k);
                }
                if take < per_class - start {
                    break;
                }
                room -= take;
            }
            let speculated = speculate(window, &todo, n, &grid, &items, left, threads);

            for (g, speculated) in window.iter().zip(speculated) {
                if idx < done && done <= idx + per_class {
                    // The newest stored record falls in this class.
                    let at = usize::try_from(done - 1 - idx).expect("per-class count is small");
                    let (concept, a) = items[at];
                    spot_check(atlas, done - 1, g, n, (concept, grid[a]))?;
                }
                let room = step_limit.map_or(u64::MAX, |limit| limit - appended);
                let (start, take) = class_span(idx, per_class, done, room);
                if take > 0 {
                    // Only whole classes are speculated on, so `ready` lines
                    // up with the span.
                    let (key, ready) = match speculated {
                        Some(s) => (s.key, s.items),
                        None => (class_key(g)?, Vec::new()),
                    };
                    let mut ready = ready.into_iter();
                    // One state per price, shared by every concept; built
                    // only if some item runs here.
                    let mut states: Option<Vec<GameState>> = None;
                    let span = usize::try_from(start).expect("per-class count is small")
                        ..usize::try_from(start + take).expect("per-class count is small");
                    for &(concept, a) in &items[span] {
                        // A completed speculative scan equals the committing
                        // scan whenever `pool + evals < budget`: no budget poll
                        // of a one-thread scan could have stopped it, and its
                        // visit order does not depend on the counter.
                        let record = match ready.next().flatten() {
                            Some(r)
                                if budget.saturating_sub(pool.load(Ordering::Relaxed))
                                    > r.evals =>
                            {
                                pool.fetch_add(r.evals, Ordering::Relaxed);
                                r
                            }
                            _ => {
                                let states = states.get_or_insert_with(|| class_states(g, &grid));
                                let query = StabilityQuery::on(concept, &states[a]);
                                let verdict = solver
                                    .check_many_pooled(std::slice::from_ref(&query), &pool)
                                    .pop()
                                    .expect("one query, one verdict")?;
                                render(&key, n, concept, grid[a], &verdict)
                            }
                        };
                        atlas.append_rendered(record.line, record.index_key, record.evals)?;
                        appended += 1;
                    }
                }
                if take < per_class - start {
                    complete = false;
                    break 'walk;
                }
                idx += per_class;
            }
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

/// The items `start..start + take` of the class whose first item has
/// walk index `idx` that this call appends: those past the `done`
/// stored records, at most `room` of them.
fn class_span(idx: u64, per_class: u64, done: u64, room: u64) -> (u64, u64) {
    let start = done.saturating_sub(idx).min(per_class);
    (start, (per_class - start).min(room))
}

/// Solves and renders the classes of `window` at positions `todo` on
/// `threads` cores (the calling thread included). Every scan runs on one
/// thread and all of them drain one counter capped at `left`, the budget
/// the pool has left, so speculation never spends more than the build
/// could. Classes not speculated on, or whose key failed, are `None`.
fn speculate(
    window: &[Graph],
    todo: &[usize],
    n: u32,
    grid: &[Alpha],
    items: &[Item],
    left: u64,
    threads: usize,
) -> Vec<Option<Speculated>> {
    let solver = Solver::new(
        ExecPolicy::default()
            .with_threads(1)
            .with_batch_budget(left),
    );
    let counter = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut made = Vec::new();
        while let Some(&k) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
            if let Ok(key) = class_key(&window[k]) {
                let states = class_states(&window[k], grid);
                let queries: Vec<StabilityQuery> = items
                    .iter()
                    .map(|&(concept, a)| StabilityQuery::on(concept, &states[a]))
                    .collect();
                let rendered = solver
                    .check_many_pooled(&queries, &counter)
                    .iter()
                    .zip(items)
                    .map(|(verdict, &(concept, a))| match verdict {
                        Ok(v) if v.is_stable().is_some() => {
                            Some(render(&key, n, concept, grid[a], v))
                        }
                        _ => None,
                    })
                    .collect();
                made.push((
                    k,
                    Speculated {
                        key,
                        items: rendered,
                    },
                ));
            }
        }
        made
    };
    let helpers = threads.min(todo.len()).saturating_sub(1);
    let finished = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut finished = work();
        for helper in spawned {
            finished.extend(helper.join().expect("a speculation worker panicked"));
        }
        finished
    });
    let mut out: Vec<Option<Speculated>> = Vec::new();
    out.resize_with(window.len(), || None);
    for (k, s) in finished {
        out[k] = Some(s);
    }
    out
}

/// One evaluation state per price of the level's grid.
fn class_states(g: &Graph, grid: &[Alpha]) -> Vec<GameState> {
    grid.iter().map(|&a| GameState::new(g.clone(), a)).collect()
}

/// Renders a verdict as its record line and index key.
fn render(key: &str, n: u32, concept: Concept, alpha: Alpha, verdict: &Verdict) -> Rendered {
    let (verdict, evals) = StoredVerdict::of_verdict(verdict);
    let record = AtlasRecord {
        key: key.to_string(),
        n,
        concept,
        alpha,
        model: CostModelSpec::SumDistances,
        verdict,
        evals,
    };
    Rendered {
        // Pre-sized: `to_string` regrows the buffer several times per line.
        line: {
            let mut line = String::with_capacity(128);
            write!(line, "{record}").expect("writing to a String cannot fail");
            line
        },
        index_key: record.index_key(),
        evals,
    }
}

/// The safe key of an (already canonical) class representative.
fn class_key(g: &Graph) -> Result<String, GameError> {
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
    g: &Graph,
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
