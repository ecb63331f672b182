//! The paper's solution concepts, ordered by increasing cooperation
//! (Section 1.1):
//!
//! | Concept | Stable against | Checker |
//! |---|---|---|
//! | RE, Remove Equilibrium (= NE, Prop. A.2) | single own-edge removal | [`single_edge`]: removals |
//! | BAE, Bilateral Add Equilibrium | bilateral single addition | [`single_edge`]: additions |
//! | PS, Pairwise Stability | RE ∩ BAE | [`single_edge`]: removals ∪ additions |
//! | BSwE, Bilateral Swap Equilibrium | consensual edge swap | [`single_edge`]: swaps |
//! | BGE, Bilateral Greedy Equilibrium | PS ∩ BSwE | [`single_edge`]: removals ∪ additions ∪ swaps |
//! | BNE, Bilateral Neighborhood Equilibrium | one-agent neighborhood rewiring | [`bne`]: exact to `n ≤ 64` (branch-and-bound generator, evaluation-budgeted) + sampled refuter |
//! | k-BSE, Bilateral k-Strong Equilibrium | coalitions of size ≤ k | [`kbse`]: exact + restricted refuter |
//! | BSE, Bilateral Strong Equilibrium | arbitrary coalitions | [`bse`]: exact to `n ≤ 11` |
//!
//! Every concept is checked through [`Concept`], which returns the
//! *witness move* on instability, so callers can replay and re-verify it
//! with the generic engine.

pub mod bne;
pub mod bse;
pub mod kbse;
pub mod single_edge;

use crate::alpha::Alpha;
use crate::error::GameError;
use crate::moves::Move;
use crate::solver::{ExecPolicy, Solver, StabilityQuery};
use crate::state::GameState;
use bncg_graph::Graph;
use std::fmt;
use std::str::FromStr;

/// Work budget for the exponential checkers (BNE, k-BSE, BSE). One unit is
/// one candidate-move evaluation.
///
/// [`Concept::find_violation`] spends [`CheckBudget::DEFAULT_MAX_EVALS`]
/// as an anytime evaluation cap on the [`crate::solver`] path. The
/// reference scans (`*_in_reference`, `bne::find_violation_in_dense`)
/// take an explicit budget and size their **raw** move space against it
/// before any work starts, refusing an oversized instance with
/// [`GameError::CheckTooLarge`]; [`crate::best_response()`] and
/// `round_robin::run` apply the same guard
/// ([`crate::check_enumeration_budget`]) at the default budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckBudget {
    /// Maximum number of candidate-move evaluations admitted.
    pub max_evals: u64,
}

impl CheckBudget {
    /// The default budget: 4·10⁷ candidate evaluations.
    ///
    /// What that means in wall-clock terms is *measured*, not assumed:
    /// the perf gate (`crates/bench/src/bin/ci_gate.rs`) derives the
    /// implied duration from its calibration kernels and records it as
    /// `budget_default_seconds` in `BENCH_ci.json` — on the baseline
    /// host a raw reference scan prices roughly 2–3 million candidates
    /// per second, so the default admits **on the order of 10–20 s of
    /// raw scanning**. The pruning layer skips ≳ 99.9% of the raw space
    /// on the pinned n = 16 instances, so most checks finish in
    /// milliseconds, far below the cap.
    pub const DEFAULT_MAX_EVALS: u64 = 40_000_000;

    /// A budget of `max_evals` candidate evaluations.
    #[must_use]
    pub fn new(max_evals: u64) -> Self {
        CheckBudget { max_evals }
    }

    /// The raw-space pre-guard of the reference scans: refuses a raw move
    /// space of `work` candidates past the budget with
    /// [`GameError::CheckTooLarge`] before any work starts (the solver
    /// path has no such guard — it exhausts instead). `space` names the
    /// space in the refusal.
    pub(crate) fn admit(self, work: u128, space: impl FnOnce() -> String) -> Result<(), GameError> {
        if work > u128::from(self.max_evals) {
            return Err(GameError::CheckTooLarge {
                reason: format!("{}, budget is {}", space(), self.max_evals),
            });
        }
        Ok(())
    }
}

impl Default for CheckBudget {
    fn default() -> Self {
        CheckBudget {
            max_evals: CheckBudget::DEFAULT_MAX_EVALS,
        }
    }
}

/// A solution concept of the bilateral game: the one checking surface
/// for all eight concepts. PS and BGE check the unions of the move kinds
/// of RE, BAE and BSwE in one scan ([`single_edge`]).
///
/// # Examples
///
/// ```
/// use bncg_core::{Alpha, Concept};
/// use bncg_graph::generators;
///
/// let star = generators::star(6);
/// let alpha = Alpha::integer(3)?;
/// // The star is in equilibrium for every concept when α ≥ 1 (paper §1.3).
/// for c in Concept::ALL {
///     assert!(c.is_stable(&star, alpha)?, "star unstable under {c}");
/// }
/// # Ok::<(), bncg_core::GameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Concept {
    /// Remove Equilibrium (equals the Pure Nash Equilibrium, Prop. A.2).
    Re,
    /// Bilateral Add Equilibrium.
    Bae,
    /// Pairwise Stability = RE ∩ BAE.
    Ps,
    /// Bilateral Swap Equilibrium.
    Bswe,
    /// Bilateral Greedy Equilibrium = PS ∩ BSwE.
    Bge,
    /// Bilateral Neighborhood Equilibrium.
    Bne,
    /// Bilateral k-Strong Equilibrium for the given coalition bound.
    KBse(u32),
    /// Bilateral Strong Equilibrium (= n-BSE).
    Bse,
}

impl Concept {
    /// The concepts of Table 1, with k-BSE instantiated at k ∈ {2, 3}.
    pub const ALL: [Concept; 9] = [
        Concept::Re,
        Concept::Bae,
        Concept::Ps,
        Concept::Bswe,
        Concept::Bge,
        Concept::Bne,
        Concept::KBse(2),
        Concept::KBse(3),
        Concept::Bse,
    ];

    /// Finds an improving move the concept forbids, or `None` if stable.
    ///
    /// # Errors
    ///
    /// The exponential checkers (BNE, k-BSE, BSE) return
    /// [`GameError::CheckTooLarge`] when the scan needs more than
    /// [`CheckBudget::DEFAULT_MAX_EVALS`] candidate evaluations — the
    /// work actually done, not the size of the raw move space — and
    /// [`GameError::Unsupported`] past a structural limit (`n ≤ 64` for
    /// BNE, `n ≤ 11` for BSE). Route through [`crate::solver::Solver`]
    /// for explicit budgets and a resumable `Verdict::Exhausted`.
    ///
    /// # Examples
    ///
    /// ```
    /// use bncg_core::{Alpha, Concept};
    /// use bncg_graph::generators;
    ///
    /// let alpha = Alpha::integer(2)?;
    /// assert!(Concept::Bne.find_violation(&generators::star(7), alpha)?.is_none());
    /// assert!(Concept::Bne.find_violation(&generators::path(7), alpha)?.is_some());
    /// // A 40·2³⁹ raw move space, solved exactly: the branch-and-bound
    /// // generator skips the pruned subtrees instead of iterating them.
    /// assert!(Concept::Bne.find_violation(&generators::star(40), alpha)?.is_none());
    /// // 3-BSE: the star survives, the long path does not.
    /// assert!(Concept::KBse(3).is_stable(&generators::star(7), alpha)?);
    /// assert!(!Concept::KBse(3).is_stable(&generators::path(7), alpha)?);
    /// // Proposition 3.16: for α < 1 the clique is the only BSE.
    /// let half: Alpha = "1/2".parse()?;
    /// assert!(Concept::Bse.is_stable(&generators::clique(5), half)?);
    /// assert!(!Concept::Bse.is_stable(&generators::star(5), half)?);
    /// # Ok::<(), bncg_core::GameError>(())
    /// ```
    pub fn find_violation(&self, g: &Graph, alpha: Alpha) -> Result<Option<Move>, GameError> {
        self.find_violation_in(&GameState::new(g.clone(), alpha))
    }

    /// [`Concept::find_violation`] against a caller-maintained
    /// [`GameState`]: every checker reuses the state's caches (its tree
    /// summary or distance matrix, and its pre-move costs), and no
    /// checker rebuilds a full
    /// [`bncg_graph::DistanceMatrix`] per candidate move. One sequential
    /// [`Solver`] call capped at [`CheckBudget::DEFAULT_MAX_EVALS`]
    /// evaluations; an `Exhausted` verdict maps to
    /// [`GameError::CheckTooLarge`] via [`crate::Verdict::into_violation`].
    ///
    /// # Errors
    ///
    /// Same as [`Concept::find_violation`].
    pub fn find_violation_in(&self, state: &GameState) -> Result<Option<Move>, GameError> {
        Solver::new(ExecPolicy::default().with_eval_budget(CheckBudget::DEFAULT_MAX_EVALS))
            .check(&StabilityQuery::on(*self, state))?
            .into_violation()
    }

    /// Whether `g` is stable for this concept at price `alpha`.
    ///
    /// # Errors
    ///
    /// Same as [`Concept::find_violation`].
    pub fn is_stable(&self, g: &Graph, alpha: Alpha) -> Result<bool, GameError> {
        Ok(self.find_violation(g, alpha)?.is_none())
    }

    /// Whether the state is stable for this concept.
    ///
    /// # Errors
    ///
    /// Same as [`Concept::find_violation`].
    pub fn is_stable_in(&self, state: &GameState) -> Result<bool, GameError> {
        Ok(self.find_violation_in(state)?.is_none())
    }
}

impl Concept {
    /// Whether this concept's exact checker scans an exponential
    /// candidate space (BNE, k-BSE, BSE) — the concepts whose checks
    /// the [`crate::solver`] meters, shards, and exhausts; the
    /// polynomial concepts complete eagerly.
    #[must_use]
    pub fn is_exponential(&self) -> bool {
        matches!(self, Concept::Bne | Concept::KBse(_) | Concept::Bse)
    }

    /// The canonical machine token (`re`, `bae`, `ps`, `bswe`, `bge`,
    /// `bne`, `kbse<k>`, `bse`) used by the `--concept` CLI flag and the
    /// solver's frontier serialization. Round-trips through
    /// [`Concept::from_str`].
    #[must_use]
    pub fn token(&self) -> String {
        match self {
            Concept::Re => "re".into(),
            Concept::Bae => "bae".into(),
            Concept::Ps => "ps".into(),
            Concept::Bswe => "bswe".into(),
            Concept::Bge => "bge".into(),
            Concept::Bne => "bne".into(),
            Concept::KBse(k) => format!("kbse{k}"),
            Concept::Bse => "bse".into(),
        }
    }
}

impl FromStr for Concept {
    type Err = GameError;

    /// Parses a concept name, case-insensitively: the machine tokens
    /// (`kbse2`), the paper-style [`fmt::Display`] names (`2-BSE`,
    /// `BSwE`), and `k-bse`-style spellings all round-trip.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        let simple = match t.as_str() {
            "re" => Some(Concept::Re),
            "bae" => Some(Concept::Bae),
            "ps" => Some(Concept::Ps),
            "bswe" => Some(Concept::Bswe),
            "bge" => Some(Concept::Bge),
            "bne" => Some(Concept::Bne),
            "bse" => Some(Concept::Bse),
            _ => None,
        };
        if let Some(c) = simple {
            return Ok(c);
        }
        let digits = t
            .strip_prefix("kbse")
            .or_else(|| t.strip_suffix("-bse"))
            .unwrap_or("");
        if let Ok(k) = digits.parse::<u32>() {
            if k >= 1 {
                return Ok(Concept::KBse(k));
            }
        }
        Err(GameError::Unsupported {
            reason: format!(
                "unknown concept {s:?}; expected one of re, bae, ps, bswe, \
                 bge, bne, kbse<k> (or <k>-BSE), bse"
            ),
        })
    }
}

impl fmt::Display for Concept {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Concept::Re => write!(f, "RE"),
            Concept::Bae => write!(f, "BAE"),
            Concept::Ps => write!(f, "PS"),
            Concept::Bswe => write!(f, "BSwE"),
            Concept::Bge => write!(f, "BGE"),
            Concept::Bne => write!(f, "BNE"),
            Concept::KBse(k) => write!(f, "{k}-BSE"),
            Concept::Bse => write!(f, "BSE"),
        }
    }
}

/// The unbounded solver verdict of `concept` on `state`, collapsed to a
/// witness, under `threads` scan workers — the exact path the
/// differential unit tests compare against the reference scans.
#[cfg(test)]
pub(crate) fn solve_with_threads(
    concept: Concept,
    state: &GameState,
    threads: usize,
) -> Option<Move> {
    Solver::new(ExecPolicy::default().with_threads(threads))
        .check(&StabilityQuery::on(concept, state))
        .and_then(crate::solver::Verdict::into_violation)
        .expect("unbounded solver checks complete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators;

    #[test]
    fn star_is_universally_stable_for_alpha_at_least_one() {
        // Paper footnote 6: for α ≥ 1 a star is an equilibrium for all
        // considered solution concepts.
        let star = generators::star(7);
        for alpha in ["1", "3/2", "10", "100"] {
            let alpha: Alpha = alpha.parse().unwrap();
            for c in Concept::ALL {
                assert!(
                    c.is_stable(&star, alpha).unwrap(),
                    "star must be stable under {c} at α = {alpha}"
                );
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Concept::KBse(3).to_string(), "3-BSE");
        assert_eq!(Concept::Bswe.to_string(), "BSwE");
    }

    #[test]
    fn token_and_display_round_trip_through_from_str() {
        for c in Concept::ALL {
            assert_eq!(c.token().parse::<Concept>().unwrap(), c, "token of {c}");
            assert_eq!(
                c.to_string().parse::<Concept>().unwrap(),
                c,
                "display of {c}"
            );
        }
    }

    #[test]
    fn from_str_accepts_cli_spellings() {
        assert_eq!("kbse2".parse::<Concept>().unwrap(), Concept::KBse(2));
        assert_eq!("KBSE3".parse::<Concept>().unwrap(), Concept::KBse(3));
        assert_eq!("2-bse".parse::<Concept>().unwrap(), Concept::KBse(2));
        assert_eq!(" BSwE ".parse::<Concept>().unwrap(), Concept::Bswe);
        assert_eq!("bse".parse::<Concept>().unwrap(), Concept::Bse);
        for bad in ["", "kbse", "kbse0", "0-bse", "nash", "k-bse"] {
            assert!(bad.parse::<Concept>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn every_violation_reported_is_truly_improving() {
        // Cross-check all concept checkers against the generic engine on a
        // corpus of small graphs and prices.
        let mut rng = bncg_graph::test_rng(4242);
        for _ in 0..30 {
            let g = generators::random_connected(7, 0.3, &mut rng);
            for alpha in ["1/2", "1", "2", "7/2", "20"] {
                let alpha: Alpha = alpha.parse().unwrap();
                for c in Concept::ALL {
                    if let Some(mv) = c.find_violation(&g, alpha).unwrap() {
                        assert!(
                            crate::delta::move_improves_all(&g, alpha, &mv).unwrap(),
                            "{c} reported a non-improving witness {mv} on α = {alpha}"
                        );
                    }
                }
            }
        }
    }
}
