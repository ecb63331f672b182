//! Exact stability windows in α.
//!
//! For a fixed graph every candidate move of the polynomial concepts (RE,
//! BAE, BSwE and their intersections) is improving on an *open rational
//! interval* of prices: an agent with `Δedges` extra edges and `Δdist`
//! saved distance improves iff `α·Δedges < Δdist` (strict), and
//! reachability changes are α-independent under the lexicographic cost.
//! Intersecting the consenting agents' intervals and uniting over all
//! candidate moves yields the exact *instability region*; its complement
//! is where the graph is stable.
//!
//! This reproduces, in one call, the α-range discussions threaded through
//! the paper (e.g. the cycle windows of Lemma 2.4 at the RE/PS level) with
//! exact rational endpoints instead of sampled grids.

use crate::alpha::Alpha;
use crate::concepts::{single_edge, Concept};
use crate::cost::{agent_cost, AgentCost};
use crate::error::GameError;
use crate::moves::Move;
use bncg_graph::Graph;
use std::cmp::Ordering;

/// An exact non-negative rational price bound; `None` in interval
/// endpoints denotes 0 (left) or ∞ (right).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threshold {
    num: i128,
    den: i128,
}

impl Threshold {
    fn new(num: i128, den: i128) -> Self {
        debug_assert!(den > 0);
        let g = gcd(num.abs().max(1), den);
        Threshold {
            num: num / g,
            den: den / g,
        }
    }

    /// Numerator of the reduced bound.
    #[must_use]
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator of the reduced bound (positive).
    #[must_use]
    pub fn den(&self) -> i128 {
        self.den
    }

    /// Approximate value for reporting.
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    fn cmp_alpha(&self, alpha: Alpha) -> Ordering {
        (self.num * i128::from(alpha.den())).cmp(&(i128::from(alpha.num()) * self.den))
    }
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl PartialOrd for Threshold {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Threshold {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl std::fmt::Display for Threshold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// An open interval `(lo, hi)` of prices on which some candidate move is
/// improving; `None` bounds mean 0 / ∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpenInterval {
    lo: Option<Threshold>,
    hi: Option<Threshold>,
}

/// A maximal price interval with a constant stability verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilityWindow {
    /// Left endpoint (`None` = 0). Stability regions are closed at their
    /// finite endpoints (improvements are strict inequalities).
    pub lo: Option<Threshold>,
    /// Right endpoint (`None` = ∞).
    pub hi: Option<Threshold>,
    /// Whether the graph is stable for prices in this window.
    pub stable: bool,
}

/// Computes the exact stability windows of `g` under a polynomial concept
/// (RE, BAE, BSwE, PS, or BGE).
///
/// # Errors
///
/// Returns [`GameError::CheckTooLarge`] for the exponential concepts
/// (BNE, k-BSE, BSE), whose move spaces are not enumerated here.
///
/// # Examples
///
/// ```
/// use bncg_core::{windows::stability_windows, Concept};
/// use bncg_graph::generators;
///
/// // Lemma 2.4 arithmetic: C6 is in RE exactly for α ≤ n(n−2)/4 = 6.
/// let w = stability_windows(&generators::cycle(6), Concept::Re)?;
/// assert_eq!(w.len(), 2);
/// assert!(w[0].stable);
/// assert_eq!(w[0].hi.unwrap().to_string(), "6");
/// assert!(!w[1].stable);
/// # Ok::<(), bncg_core::GameError>(())
/// ```
pub fn stability_windows(g: &Graph, concept: Concept) -> Result<Vec<StabilityWindow>, GameError> {
    if concept.is_exponential() {
        return Err(GameError::CheckTooLarge {
            reason: format!(
                "stability windows are only enumerable for polynomial concepts, not {concept}"
            ),
        });
    }
    let old: Vec<AgentCost> = g.nodes().map(|u| agent_cost(g, u)).collect();
    let mut improving: Vec<OpenInterval> = Vec::new();
    for mv in single_edge::moves(g, concept) {
        if let Some(interval) = move_interval(&mv.apply(g)?, &mv, &old) {
            improving.push(interval);
        }
    }
    Ok(windows_from_intervals(improving))
}

/// The open α-interval on which `mv` improves **all** consenting agents,
/// or `None` if empty.
fn move_interval(g2: &Graph, mv: &Move, old: &[AgentCost]) -> Option<OpenInterval> {
    let mut lo: Option<Threshold> = None; // max of lower bounds
    let mut hi: Option<Threshold> = None; // min of upper bounds
    for a in mv.consenting_agents() {
        let before = &old[a as usize];
        let after = agent_cost(g2, a);
        match after.unreachable.cmp(&before.unreachable) {
            Ordering::Greater => return None, // lexicographically worse always
            Ordering::Less => continue,       // improves at every price
            Ordering::Equal => {}
        }
        let de = i128::from(after.edges) - i128::from(before.edges);
        let dd = i128::from(before.dist) - i128::from(after.dist);
        match de.cmp(&0) {
            Ordering::Equal => {
                if dd <= 0 {
                    return None; // never strictly improving
                }
                // improves at every price: no constraint
            }
            Ordering::Greater => {
                // α < dd/de — requires dd > 0.
                if dd <= 0 {
                    return None;
                }
                let bound = Threshold::new(dd, de);
                hi = Some(match hi {
                    Some(h) => h.min(bound),
                    None => bound,
                });
            }
            Ordering::Less => {
                // α(−|de|) < dd ⟺ α > −dd/|de| — a real constraint only
                // when −dd/|de| > 0, i.e. dd < 0.
                if dd < 0 {
                    let bound = Threshold::new(-dd, -de);
                    lo = Some(match lo {
                        Some(l) => l.max(bound),
                        None => bound,
                    });
                }
            }
        }
    }
    // Empty if lo ≥ hi.
    if let (Some(l), Some(h)) = (lo, hi) {
        if l >= h {
            return None;
        }
    }
    if let Some(h) = hi {
        if h.num <= 0 {
            return None; // α must be positive
        }
    }
    Some(OpenInterval { lo, hi })
}

/// Merges open instability intervals and returns the alternating windows.
fn windows_from_intervals(intervals: Vec<OpenInterval>) -> Vec<StabilityWindow> {
    if intervals.is_empty() {
        return vec![StabilityWindow {
            lo: None,
            hi: None,
            stable: true,
        }];
    }
    // Collect all endpoints as breakpoints; evaluate stability on each
    // elementary piece using a representative price (midpoints / mediants).
    let mut points: Vec<Threshold> = Vec::new();
    for iv in &intervals {
        if let Some(l) = iv.lo {
            if l.num > 0 {
                points.push(l);
            }
        }
        if let Some(h) = iv.hi {
            if h.num > 0 {
                points.push(h);
            }
        }
    }
    points.sort();
    points.dedup();
    // Representatives: a point below the first breakpoint, between each
    // consecutive pair, above the last — plus the breakpoints themselves
    // (stability is closed at endpoints, so breakpoints belong to their
    // own evaluation).
    let unstable_at = |alpha_num: i128, alpha_den: i128| -> bool {
        intervals.iter().any(|iv| {
            let above_lo = iv.lo.is_none_or(|l| {
                // α > l ?
                alpha_num * l.den > l.num * alpha_den
            });
            let below_hi = iv.hi.is_none_or(|h| alpha_num * h.den < h.num * alpha_den);
            above_lo && below_hi
        })
    };
    // Build elementary pieces: (0, p1), [p1], (p1, p2), …, (pk, ∞).
    let mut verdicts: Vec<(Option<Threshold>, Option<Threshold>, bool)> = Vec::new();
    let mut prev: Option<Threshold> = None;
    for (i, &p) in points.iter().enumerate() {
        // Open piece before p.
        let rep = match prev {
            None => (p.num, p.den * 2),                                    // p/2
            Some(q) => (p.num * q.den + q.num * p.den, 2 * p.den * q.den), // midpoint
        };
        verdicts.push((prev, Some(p), !unstable_at(rep.0, rep.1)));
        // The breakpoint itself.
        verdicts.push((Some(p), Some(p), !unstable_at(p.num, p.den)));
        prev = Some(p);
        if i == points.len() - 1 {
            // Open piece after the last breakpoint.
            verdicts.push((Some(p), None, !unstable_at(p.num + p.den, p.den)));
        }
    }
    // Merge adjacent pieces with equal verdicts into maximal windows.
    let mut out: Vec<StabilityWindow> = Vec::new();
    for (lo, hi, stable) in verdicts {
        match out.last_mut() {
            Some(last) if last.stable == stable => {
                last.hi = hi;
            }
            _ => out.push(StabilityWindow { lo, hi, stable }),
        }
    }
    out
}

/// Whether `alpha` lies in a stable window (closed at stable endpoints).
#[must_use]
pub fn windows_contain(windows: &[StabilityWindow], alpha: Alpha, stable: bool) -> bool {
    for w in windows {
        if w.stable != stable {
            continue;
        }
        let above = w.lo.is_none_or(|l| l.cmp_alpha(alpha) != Ordering::Greater);
        let below = w.hi.is_none_or(|h| h.cmp_alpha(alpha) != Ordering::Less);
        if above && below {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn trees_are_re_stable_everywhere() {
        let w = stability_windows(&generators::path(6), Concept::Re).unwrap();
        assert_eq!(
            w,
            vec![StabilityWindow {
                lo: None,
                hi: None,
                stable: true
            }]
        );
    }

    #[test]
    fn cycle_re_breakpoint_matches_lemma_2_4_arithmetic() {
        // Even n: stable iff α ≤ n(n−2)/4; odd n: α ≤ (n−1)²/4.
        for (n, bound) in [(4usize, "2"), (5, "4"), (6, "6"), (7, "9"), (8, "12")] {
            let w = stability_windows(&generators::cycle(n), Concept::Re).unwrap();
            assert_eq!(w.len(), 2, "C{n} must have one breakpoint");
            assert!(w[0].stable && !w[1].stable);
            assert_eq!(w[0].hi.unwrap().to_string(), bound, "C{n} breakpoint");
        }
    }

    #[test]
    fn windows_agree_with_checkers_on_sampled_prices() {
        let mut rng = bncg_graph::test_rng(95);
        for _ in 0..10 {
            let g = generators::random_connected(7, 0.3, &mut rng);
            for concept in [
                Concept::Re,
                Concept::Bae,
                Concept::Bswe,
                Concept::Ps,
                Concept::Bge,
            ] {
                let w = stability_windows(&g, concept).unwrap();
                for alpha in ["1/3", "1/2", "1", "3/2", "2", "3", "9/2", "7", "12", "100"] {
                    let alpha = a(alpha);
                    let direct = concept.is_stable(&g, alpha).unwrap();
                    assert_eq!(
                        windows_contain(&w, alpha, true),
                        direct,
                        "window verdict diverges from {concept} checker at α = {alpha}"
                    );
                }
            }
        }
    }

    #[test]
    fn windows_agree_at_their_own_breakpoints() {
        // Boundary semantics: stability is closed (strict improvement).
        let mut rng = bncg_graph::test_rng(96);
        for _ in 0..6 {
            let g = generators::random_connected(6, 0.35, &mut rng);
            for concept in [Concept::Re, Concept::Bae, Concept::Bge] {
                let w = stability_windows(&g, concept).unwrap();
                for win in &w {
                    for bound in [win.lo, win.hi].into_iter().flatten() {
                        if bound.num() > 0
                            && bound.num() < i128::from(i64::MAX)
                            && bound.den() < i128::from(i64::MAX)
                        {
                            let alpha =
                                Alpha::from_ratio(bound.num() as i64, bound.den() as i64).unwrap();
                            let direct = concept.is_stable(&g, alpha).unwrap();
                            assert_eq!(windows_contain(&w, alpha, true), direct);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn star_is_stable_above_one_under_ps() {
        let w = stability_windows(&generators::star(6), Concept::Ps).unwrap();
        // Unstable for α < 1 (leaf pairs add), stable from 1 on.
        assert!(windows_contain(&w, a("1/2"), false));
        assert!(windows_contain(&w, a("1"), true));
        assert!(windows_contain(&w, a("1000"), true));
    }

    #[test]
    fn exponential_concepts_are_rejected() {
        let g = generators::path(4);
        assert!(stability_windows(&g, Concept::Bne).is_err());
        assert!(stability_windows(&g, Concept::Bse).is_err());
    }
}
