//! Empirical Price of Anarchy by exhaustive enumeration: for a given
//! `(n, α)` and solution concept, the worst social cost ratio over *all*
//! trees (or all connected graphs) on `n` nodes that are stable under the
//! concept. This regenerates Table 1's rows at laptop scale — the shape of
//! the measured curves is what the reproduction compares against the
//! paper's asymptotic bounds.
//!
//! Every instance's stability check routes through one
//! [`Solver::check_many`] batch: with `threads > 1` in the
//! [`ExecPolicy`] the enumeration sweep itself parallelizes (one query
//! per instance on one scoped pool), and budgeted or deadlined policies
//! degrade per instance into an `exhausted` count instead of aborting
//! the whole sweep. A policy with a
//! [`batch_budget`](ExecPolicy::batch_budget) goes further: the **whole
//! sweep** drains one shared atomic eval pool (held across the chunked
//! `check_many` calls via [`Solver::check_many_pooled`]), so a sweep can
//! be given a global work bound and load-sheds the tail of its
//! enumeration into the `exhausted` count — the shape Table 1's partial
//! rows surface.

use bncg_atlas::DynAtlas;
use bncg_core::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
use bncg_core::{social_cost_ratio, Alpha, Concept, CostModelSpec, GameError, GameState};
use bncg_graph::{enumerate, Graph};
use std::sync::atomic::AtomicU64;

/// The outcome of one exhaustive PoA evaluation.
#[derive(Debug, Clone)]
pub struct PoaPoint {
    /// Number of agents.
    pub n: usize,
    /// Edge price.
    pub alpha: Alpha,
    /// The concept quantified over.
    pub concept: Concept,
    /// Worst ρ among stable instances (`None` if no instance is stable).
    pub max_rho: Option<f64>,
    /// A worst-case stable instance.
    pub worst: Option<Graph>,
    /// How many enumerated instances were stable.
    pub stable_count: usize,
    /// How many instances were enumerated.
    pub total: usize,
    /// Instances whose check exhausted the execution policy (excluded
    /// from `max_rho`; always 0 under an unbounded policy).
    pub exhausted: usize,
    /// Instances whose verdict came from the precomputed atlas at zero
    /// solver cost (always 0 when no atlas was supplied).
    pub atlas_hits: usize,
    /// The cost model every stability check and social-cost evaluation
    /// priced under.
    pub model: CostModelSpec,
}

/// Exhaustive PoA over all free trees on `n` nodes at one α, under the
/// default model and policy.
///
/// # Errors
///
/// Forwards the enumeration guard and checker guards.
pub fn tree_poa(n: usize, alpha: Alpha, concept: Concept) -> Result<PoaPoint, GameError> {
    let model = CostModelSpec::SumDistances;
    let mut points = tree_poa_grid(n, &[alpha], concept, model, &ExecPolicy::default(), None)?;
    Ok(points.remove(0))
}

/// Exhaustive PoA over all connected graphs on `n` nodes: a one-α
/// [`graph_poa_grid`] under the default model and policy.
///
/// # Errors
///
/// Forwards the enumeration guard and checker guards.
pub(crate) fn graph_poa(n: usize, alpha: Alpha, concept: Concept) -> Result<PoaPoint, GameError> {
    let model = CostModelSpec::SumDistances;
    let mut points = graph_poa_grid(n, &[alpha], concept, model, &ExecPolicy::default(), None)?;
    Ok(points.remove(0))
}

/// A conclusive per-instance verdict, whatever produced it.
enum Resolved {
    Stable,
    Unstable,
    Exhausted,
}

#[allow(clippy::too_many_arguments)]
fn poa_over_pooled(
    instances: &[Graph],
    n: usize,
    alpha: Alpha,
    concept: Concept,
    model: CostModelSpec,
    policy: &ExecPolicy,
    pool: &AtomicU64,
    atlas: Option<&DynAtlas>,
) -> Result<PoaPoint, GameError> {
    let total = instances.len();
    // One engine state per instance serves the checker and the
    // social-cost evaluation alike; each batch shares one thread pool.
    // States are built per chunk, not for the whole enumeration —
    // connected_graphs(9) is ~261k instances, and an n² distance matrix
    // per instance held for the whole sweep would dwarf the enumeration
    // itself. Chunks of threads·16 keep every worker saturated while
    // bounding the resident set.
    let solver = Solver::new(policy.clone());
    let chunk_size = (policy.threads.max(1) * 16).max(64);
    let mut stable_count = 0usize;
    let mut exhausted = 0usize;
    let mut atlas_hits = 0usize;
    let mut best: Option<(f64, Graph)> = None;
    for chunk in instances.chunks(chunk_size) {
        // First pass: conclusive stored verdicts answer at zero solver
        // cost — the shared eval pool is never touched for a hit.
        let mut resolved: Vec<Option<Resolved>> = Vec::with_capacity(chunk.len());
        let mut live: Vec<usize> = Vec::new();
        for (i, g) in chunk.iter().enumerate() {
            // The corpus stores default-model verdicts only, so any
            // other model goes straight to the live solver.
            let hit = atlas
                .filter(|_| model.is_default())
                .and_then(|a| a.lookup(g, concept, alpha).ok().flatten())
                .and_then(|h| h.record.verdict.is_stable());
            match hit {
                Some(true) => {
                    atlas_hits += 1;
                    resolved.push(Some(Resolved::Stable));
                }
                Some(false) => {
                    atlas_hits += 1;
                    resolved.push(Some(Resolved::Unstable));
                }
                None => {
                    live.push(i);
                    resolved.push(None);
                }
            }
        }
        // Second pass: the misses run through one pooled solver batch.
        if !live.is_empty() {
            let states: Vec<GameState> = live
                .iter()
                .map(|&i| GameState::with_cost_model(chunk[i].clone(), alpha, model))
                .collect();
            let queries: Vec<StabilityQuery> = states
                .iter()
                .map(|s| StabilityQuery::on(concept, s))
                .collect();
            let verdicts = solver.check_many_pooled(&queries, pool);
            for (&i, verdict) in live.iter().zip(verdicts) {
                resolved[i] = Some(match verdict? {
                    Verdict::Stable { .. } => Resolved::Stable,
                    Verdict::Unstable { .. } => Resolved::Unstable,
                    Verdict::Exhausted { .. } => Resolved::Exhausted,
                });
            }
        }
        // Merge in enumeration order so the worst-witness tie-break is
        // independent of where each verdict came from.
        for (g, outcome) in chunk.iter().zip(resolved) {
            match outcome.expect("every instance resolved") {
                Resolved::Unstable => continue,
                Resolved::Exhausted => {
                    exhausted += 1;
                    continue;
                }
                Resolved::Stable => {}
            }
            stable_count += 1;
            let rho = if model.is_default() {
                social_cost_ratio(g, alpha)?.as_f64()
            } else {
                // Model-aware ρ: the model's social cost against the
                // *default* optimum — a fixed positive scale at fixed
                // n, so comparisons over one instance set are sound.
                GameState::with_cost_model(g.clone(), alpha, model)
                    .social_cost_ratio()?
                    .as_f64()
            };
            if best.as_ref().is_none_or(|(b, _)| rho > *b) {
                best = Some((rho, g.clone()));
            }
        }
    }
    let (max_rho, worst) = match best {
        Some((r, g)) => (Some(r), Some(g)),
        None => (None, None),
    };
    Ok(PoaPoint {
        n,
        alpha,
        concept,
        max_rho,
        worst,
        stable_count,
        total,
        exhausted,
        atlas_hits,
        model,
    })
}

/// Exhaustive tree PoA over a whole α grid at once: the instances are
/// enumerated a single time and each α point runs on its own scoped
/// thread. All points share **one** batch-budget pool (when the policy
/// carries one) — the budget bounds the entire grid's work, and which
/// points shed is a race between the sweeps, exactly like competing
/// tenants on one pool. Per-point results are otherwise deterministic
/// and identical to one-α calls. A supplied atlas
/// answers stored instances at zero solver cost ([`PoaPoint::atlas_hits`]).
///
/// Every stability check and social cost is priced under `model`
/// ([`CostModelSpec::SumDistances`] is the paper's objective); a
/// non-default model bypasses the atlas (the corpus stores
/// default-model verdicts only).
///
/// # Errors
///
/// Forwards the enumeration guard and solver errors.
pub(crate) fn tree_poa_grid(
    n: usize,
    alphas: &[Alpha],
    concept: Concept,
    model: CostModelSpec,
    policy: &ExecPolicy,
    atlas: Option<&DynAtlas>,
) -> Result<Vec<PoaPoint>, GameError> {
    let trees = enumerate::free_trees(n).map_err(GameError::Graph)?;
    poa_grid(&trees, n, alphas, concept, model, policy, atlas)
}

/// [`tree_poa_grid`] over all connected graphs instead of trees.
///
/// # Errors
///
/// Forwards the enumeration guard and solver errors.
pub(crate) fn graph_poa_grid(
    n: usize,
    alphas: &[Alpha],
    concept: Concept,
    model: CostModelSpec,
    policy: &ExecPolicy,
    atlas: Option<&DynAtlas>,
) -> Result<Vec<PoaPoint>, GameError> {
    let graphs = enumerate::connected_graphs(n).map_err(GameError::Graph)?;
    poa_grid(&graphs, n, alphas, concept, model, policy, atlas)
}

#[allow(clippy::too_many_arguments)]
fn poa_grid(
    instances: &[Graph],
    n: usize,
    alphas: &[Alpha],
    concept: Concept,
    model: CostModelSpec,
    policy: &ExecPolicy,
    atlas: Option<&DynAtlas>,
) -> Result<Vec<PoaPoint>, GameError> {
    // One pool spans every α point — a batch budget means "this much
    // work for the whole grid", matching the single-sweep semantics.
    let pool = AtomicU64::new(0);
    // The grid threads multiply against the solver's inner pool, so
    // split the configured worker count across the α points instead of
    // oversubscribing by |grid| × threads.
    let mut inner = policy.clone();
    inner.threads = (policy.threads.max(1) / alphas.len().max(1)).max(1);
    let (inner, pool) = (&inner, &pool);
    std::thread::scope(|s| {
        let handles: Vec<_> = alphas
            .iter()
            .map(|&alpha| {
                s.spawn(move || {
                    poa_over_pooled(instances, n, alpha, concept, model, inner, pool, atlas)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("α sweep thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_core::CostModelSpec::SumDistances;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    /// One tree PoA point under `policy`.
    fn tree_point(n: usize, alpha: Alpha, concept: Concept, policy: &ExecPolicy) -> PoaPoint {
        tree_poa_grid(n, &[alpha], concept, SumDistances, policy, None)
            .unwrap()
            .remove(0)
    }

    #[test]
    fn star_is_always_among_stable_trees() {
        // For α ≥ 1 the star is stable under every concept, so max_rho is
        // always defined and at least 1.
        for concept in [Concept::Ps, Concept::Bswe, Concept::Bge, Concept::Bne] {
            let point = tree_poa(7, a("2"), concept).unwrap();
            assert!(point.stable_count >= 1);
            assert!(point.max_rho.unwrap() >= 1.0 - 1e-12);
            assert_eq!(point.total, 11);
        }
    }

    #[test]
    fn poa_is_monotone_in_cooperation() {
        // More cooperation → fewer stable states → weakly smaller PoA.
        for alpha in ["3/2", "3", "6"] {
            let alpha = a(alpha);
            let ps = tree_poa(8, alpha, Concept::Ps).unwrap().max_rho.unwrap();
            let bge = tree_poa(8, alpha, Concept::Bge).unwrap().max_rho.unwrap();
            let bne = tree_poa(8, alpha, Concept::Bne).unwrap().max_rho.unwrap();
            let kbse = tree_poa(8, alpha, Concept::KBse(3))
                .unwrap()
                .max_rho
                .unwrap();
            assert!(bge <= ps + 1e-12);
            assert!(bne <= bge + 1e-12);
            assert!(kbse <= bge + 1e-12);
        }
    }

    #[test]
    fn theorem_3_6_bound_holds_empirically() {
        for n in 5..=9usize {
            for alpha in ["1", "2", "4", "8", "16"] {
                let alpha = a(alpha);
                let point = tree_poa(n, alpha, Concept::Bswe).unwrap();
                if let Some(rho) = point.max_rho {
                    let bound = bncg_core::bounds::theorem_3_6_bound(alpha);
                    assert!(
                        rho <= bound + 1e-9,
                        "Theorem 3.6 violated: ρ = {rho} > {bound} (n={n}, α={alpha})"
                    );
                }
            }
        }
    }

    #[test]
    fn theorem_3_15_bound_holds_empirically() {
        for n in 5..=8usize {
            for alpha in ["1", "3", "9", "27"] {
                let point = tree_poa(n, a(alpha), Concept::KBse(3)).unwrap();
                if let Some(rho) = point.max_rho {
                    assert!(rho <= 25.0, "Theorem 3.15 violated at n={n}, α={alpha}");
                }
            }
        }
    }

    #[test]
    fn threaded_sweep_matches_serial_point_exactly() {
        // check_many shards instances across the pool; verdicts, counts,
        // and the worst witness are deterministic regardless.
        let serial = tree_poa(8, a("2"), Concept::Bne).unwrap();
        let policy = ExecPolicy::default().with_threads(4);
        let pooled = tree_point(8, a("2"), Concept::Bne, &policy);
        assert_eq!(serial.max_rho, pooled.max_rho);
        assert_eq!(serial.stable_count, pooled.stable_count);
        assert_eq!(serial.worst, pooled.worst);
        assert_eq!(serial.exhausted, 0);
        assert_eq!(pooled.exhausted, 0);
    }

    #[test]
    fn exhausted_instances_are_counted_not_fatal() {
        // A zero deadline stops every scan large enough to reach its
        // first poll; small fully-pruned instances still complete, so
        // the sweep reports a mix instead of erroring out.
        let policy = ExecPolicy::default().with_deadline(std::time::Duration::ZERO);
        let point = tree_point(10, a("2"), Concept::Bne, &policy);
        assert!(point.exhausted > 0, "some scans must exhaust");
        assert_eq!(point.total, 106);
    }

    #[test]
    fn batch_budget_pool_sheds_the_sweep_tail() {
        // A tiny global pool spans the whole chunked sweep: once the
        // first instances drain it, the remaining exponential checks
        // load-shed into the exhausted count instead of running.
        let policy = ExecPolicy::default().with_batch_budget(5);
        let point = tree_point(10, a("2"), Concept::Bne, &policy);
        assert_eq!(point.total, 106);
        assert!(point.exhausted > 0, "a 5-eval pool must shed instances");
        assert!(point.stable_count + point.exhausted <= point.total);
        // The shed instances are a subset of the unbudgeted sweep's
        // work, so the certified-stable count can only shrink.
        let full = tree_poa(10, a("2"), Concept::Bne).unwrap();
        assert!(point.stable_count <= full.stable_count);
        assert_eq!(full.exhausted, 0);
    }

    #[test]
    fn grid_sweep_matches_serial_points_exactly() {
        // One scoped thread per α, shared pool unbudgeted: every point
        // must equal its serial counterpart bit for bit.
        let alphas: Vec<Alpha> = ["1", "2", "8"].map(a).to_vec();
        let grid = tree_poa_grid(
            8,
            &alphas,
            Concept::Bne,
            SumDistances,
            &ExecPolicy::default(),
            None,
        )
        .unwrap();
        assert_eq!(grid.len(), alphas.len());
        for (point, &alpha) in grid.iter().zip(&alphas) {
            let serial = tree_poa(8, alpha, Concept::Bne).unwrap();
            assert_eq!(point.alpha, alpha);
            assert_eq!(point.max_rho, serial.max_rho);
            assert_eq!(point.stable_count, serial.stable_count);
            assert_eq!(point.worst, serial.worst);
            assert_eq!(point.exhausted, 0);
            assert_eq!(point.atlas_hits, 0);
        }
    }

    #[test]
    fn grid_shares_one_batch_budget_pool() {
        // A tiny pool spans the whole α grid: the three concurrent
        // sweeps drain it together, so shedding shows up across the
        // grid's total rather than per point.
        let alphas: Vec<Alpha> = ["2", "4", "8"].map(a).to_vec();
        let policy = ExecPolicy::default().with_batch_budget(5);
        let grid = tree_poa_grid(10, &alphas, Concept::Bne, SumDistances, &policy, None).unwrap();
        let exhausted: usize = grid.iter().map(|p| p.exhausted).sum();
        assert!(exhausted > 0, "a 5-eval pool must shed most of the grid");
        for point in &grid {
            assert_eq!(point.total, 106);
        }
    }

    #[test]
    fn atlas_hits_serve_sweeps_at_zero_solver_cost() {
        use bncg_atlas::{build, AlphaSpec, Atlas, BuildSpec, MemoryBacking, RamBacking};
        // A corpus covering every connected class at n ≤ 7 for BNE at
        // α = 2 — trees included.
        let spec = BuildSpec {
            max_n: 7,
            grid: vec![AlphaSpec::Fixed(a("2"))],
            concepts: vec![Concept::Bne],
        };
        let backing: Box<dyn MemoryBacking + Send + Sync> = Box::new(RamBacking::new());
        let mut atlas = Atlas::open(backing).unwrap();
        build(&mut atlas, &spec, 10_000_000, None).unwrap();

        // Under a 1-eval budget the unaided sweep sheds almost
        // everything; the atlas-backed sweep touches the pool for
        // nothing and completes conclusively.
        let policy = ExecPolicy::default().with_batch_budget(1);
        let starved = tree_point(7, a("2"), Concept::Bne, &policy);
        assert!(starved.exhausted > 0, "the starved sweep must shed");
        let served = poa_grid(
            &enumerate::free_trees(7).unwrap(),
            7,
            &[a("2")],
            Concept::Bne,
            SumDistances,
            &policy,
            Some(&atlas),
        )
        .unwrap()
        .remove(0);
        assert_eq!(served.atlas_hits, served.total);
        assert_eq!(served.exhausted, 0);
        let unbudgeted = tree_poa(7, a("2"), Concept::Bne).unwrap();
        assert_eq!(served.max_rho, unbudgeted.max_rho);
        assert_eq!(served.stable_count, unbudgeted.stable_count);
        assert_eq!(served.worst, unbudgeted.worst);
    }

    #[test]
    fn identity_generalized_model_reproduces_the_default_sweep() {
        // Generalized(Identity) prices distance exactly like the
        // default model, so verdicts, counts, and ρ must coincide even
        // though the scan runs through the generic pricing arm.
        let id = CostModelSpec::Generalized(bncg_core::Utility::Identity);
        let base = tree_poa_grid(
            8,
            &[a("2")],
            Concept::Bne,
            SumDistances,
            &ExecPolicy::default(),
            None,
        )
        .unwrap();
        let under =
            tree_poa_grid(8, &[a("2")], Concept::Bne, id, &ExecPolicy::default(), None).unwrap();
        assert_eq!(base[0].stable_count, under[0].stable_count);
        assert_eq!(base[0].max_rho, under[0].max_rho);
        assert_eq!(base[0].worst, under[0].worst);
        assert_eq!(under[0].model, id);
    }

    #[test]
    fn non_default_model_sweeps_bypass_the_atlas() {
        use bncg_atlas::{build, AlphaSpec, Atlas, BuildSpec, MemoryBacking, RamBacking};
        let spec = BuildSpec {
            max_n: 6,
            grid: vec![AlphaSpec::Fixed(a("2"))],
            concepts: vec![Concept::Bne],
        };
        let backing: Box<dyn MemoryBacking + Send + Sync> = Box::new(RamBacking::new());
        let mut atlas = Atlas::open(backing).unwrap();
        build(&mut atlas, &spec, 10_000_000, None).unwrap();
        let capped = CostModelSpec::Generalized(bncg_core::Utility::Capped(2));
        let under = tree_poa_grid(
            6,
            &[a("2")],
            Concept::Bne,
            capped,
            &ExecPolicy::default(),
            Some(&atlas),
        )
        .unwrap();
        // Every verdict must come from the live solver: the corpus
        // stores default-model verdicts, which a capped model cannot
        // reuse.
        assert_eq!(under[0].atlas_hits, 0);
        assert_eq!(under[0].exhausted, 0);
        assert!(under[0].stable_count > 0, "the star is stable at α = 2");
    }

    #[test]
    fn graph_poa_runs_on_tiny_instances() {
        let point = graph_poa(5, a("1/2"), Concept::Bse).unwrap();
        // For α < 1 only the clique is BSE (Prop 3.16) and it is optimal.
        assert_eq!(point.stable_count, 1);
        assert!((point.max_rho.unwrap() - 1.0).abs() < 1e-12);
    }
}
