//! Witnesses for the Venn diagram of Figure 1b (Proposition A.1): RE, BAE,
//! and BSwE are pairwise incomparable — every one of the 2³ membership
//! combinations is realized by some graph and price.
//!
//! The paper lists eight example graphs `G1..G8` with prices
//! `α ∈ {5, 3, ½, 2, 2, ½, 3, 2}` but does not spell out their edge sets;
//! this module *finds* a certified witness for each region by exhaustive
//! search over small connected graphs and an α grid containing the
//! figure's values.

use bncg_core::{Alpha, Concept, GameError};
use bncg_graph::{enumerate, Graph};

/// One of the eight regions of the RE/BAE/BSwE Venn diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VennRegion {
    /// In Remove Equilibrium.
    pub re: bool,
    /// In Bilateral Add Equilibrium.
    pub bae: bool,
    /// In Bilateral Swap Equilibrium.
    pub bswe: bool,
}

impl VennRegion {
    /// All eight regions, ordered like a 3-bit counter (RE, BAE, BSwE).
    #[must_use]
    pub fn all() -> [VennRegion; 8] {
        let mut out = [VennRegion {
            re: false,
            bae: false,
            bswe: false,
        }; 8];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = VennRegion {
                re: i & 4 != 0,
                bae: i & 2 != 0,
                bswe: i & 1 != 0,
            };
        }
        out
    }
}

impl std::fmt::Display for VennRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mark = |b: bool| if b { "∈" } else { "∉" };
        write!(
            f,
            "{} RE, {} BAE, {} BSwE",
            mark(self.re),
            mark(self.bae),
            mark(self.bswe)
        )
    }
}

/// A certified region witness.
#[derive(Debug, Clone)]
pub struct VennWitness {
    /// The region realized.
    pub region: VennRegion,
    /// The witness graph.
    pub graph: Graph,
    /// The price at which the memberships hold.
    pub alpha: Alpha,
}

/// The default α grid: the figure's prices plus a few fillers (the
/// RE ∩ BAE ∩ ¬BSwE region first appears on an 8-node tree at α = 6).
///
/// # Panics
///
/// Never — all constants are valid prices.
#[must_use]
pub fn default_alpha_grid() -> Vec<Alpha> {
    [
        "1/2", "1", "3/2", "2", "5/2", "3", "4", "5", "6", "7", "9", "12",
    ]
    .iter()
    .map(|s| s.parse().expect("valid grid entry"))
    .collect()
}

/// Finds one witness per realized region by scanning all connected graphs
/// with up to `max_graph_n` nodes plus all free trees with up to
/// `max_tree_n` nodes against the α grid (trees extend the reach cheaply:
/// they are always in RE, and the region `RE ∩ BAE ∩ ¬BSwE` needs eight
/// nodes). Regions come back in the order of [`VennRegion::all`];
/// unrealized regions yield `None`.
///
/// # Errors
///
/// Forwards the enumeration size guards.
pub fn find_all_witnesses(
    max_graph_n: usize,
    max_tree_n: usize,
    alphas: &[Alpha],
) -> Result<Vec<(VennRegion, Option<VennWitness>)>, GameError> {
    let mut found: Vec<(VennRegion, Option<VennWitness>)> =
        VennRegion::all().iter().map(|&r| (r, None)).collect();
    let mut remaining = found.len();
    let mut corpus: Vec<Graph> = Vec::new();
    for n in 2..=max_graph_n {
        corpus.extend(enumerate::connected_graphs(n).map_err(GameError::Graph)?);
    }
    for n in (max_graph_n + 1)..=max_tree_n {
        corpus.extend(enumerate::free_trees(n).map_err(GameError::Graph)?);
    }
    for g in &corpus {
        for &alpha in alphas {
            let region = VennRegion {
                re: Concept::Re.is_stable(g, alpha)?,
                bae: Concept::Bae.is_stable(g, alpha)?,
                bswe: Concept::Bswe.is_stable(g, alpha)?,
            };
            let slot = found
                .iter_mut()
                .find(|(r, _)| *r == region)
                .expect("all regions enumerated");
            if slot.1.is_none() {
                slot.1 = Some(VennWitness {
                    region,
                    graph: g.clone(),
                    alpha,
                });
                remaining -= 1;
                if remaining == 0 {
                    return Ok(found);
                }
            }
        }
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_regions_are_realized() {
        // Proposition A.1: every RE/BAE/BSwE combination has a witness.
        let grid = default_alpha_grid();
        let witnesses = find_all_witnesses(6, 8, &grid).unwrap();
        for (region, w) in &witnesses {
            let w = w
                .as_ref()
                .unwrap_or_else(|| panic!("region {region} must be realized by the corpus"));
            // Re-certify the membership pattern.
            assert_eq!(Concept::Re.is_stable(&w.graph, w.alpha).unwrap(), region.re);
            assert_eq!(
                Concept::Bae.is_stable(&w.graph, w.alpha).unwrap(),
                region.bae
            );
            assert_eq!(
                Concept::Bswe.is_stable(&w.graph, w.alpha).unwrap(),
                region.bswe
            );
        }
    }

    #[test]
    fn regions_enumerate_all_combinations() {
        let regions = VennRegion::all();
        assert_eq!(regions.len(), 8);
        let mut set: Vec<_> = regions.iter().map(|r| (r.re, r.bae, r.bswe)).collect();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn display_is_readable() {
        let r = VennRegion {
            re: true,
            bae: false,
            bswe: true,
        };
        let s = r.to_string();
        assert!(s.contains("RE") && s.contains("BAE") && s.contains("BSwE"));
    }
}
