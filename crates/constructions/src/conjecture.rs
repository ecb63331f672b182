//! Disproving the Corbo–Parkes conjecture (Proposition 2.3, Figure 2).
//!
//! The conjecture claimed every unilateral-NE graph is pairwise stable in
//! the bilateral game. The paper refutes it with a small graph that is in
//! NE under a suitable edge assignment while some agent profits from
//! *bilaterally* dropping an edge she does not own (in the bilateral game
//! she pays for it too, so dropping refunds her α).
//!
//! This module finds such witnesses by exhaustive search over small
//! connected graphs and edge assignments, with two sound prunings:
//!
//! 1. NE implies unilateral add stability, which implies BAE
//!    (Proposition 2.1) — and add stability does not depend on the
//!    assignment; graphs failing it are skipped.
//! 2. In a NE no owner wants to drop an owned edge, so only assignments
//!    giving every edge a "content" owner are enumerated.

use bncg_core::unilateral::UnilateralState;
use bncg_core::{agent_cost, Alpha, Concept, GameError, Move};
use bncg_graph::{enumerate, Graph};

/// A certified counterexample to the Corbo–Parkes conjecture.
#[derive(Debug, Clone)]
pub struct ConjectureWitness {
    /// The unilateral state (graph + edge assignment) in NE.
    pub state: UnilateralState,
    /// The edge price.
    pub alpha: Alpha,
    /// The bilateral removal that breaks pairwise stability.
    pub removal: Move,
}

/// Searches all connected graphs with up to `max_n` nodes (up to
/// isomorphism) and all compatible edge assignments for a unilateral NE
/// that is not pairwise stable in the BNCG.
///
/// # Errors
///
/// Forwards [`GameError::CheckTooLarge`] if `max_n` exceeds the exhaustive
/// enumeration guard.
///
/// # Examples
///
/// ```no_run
/// use bncg_constructions::conjecture::find_ne_not_ps;
/// use bncg_core::Alpha;
///
/// let witness = find_ne_not_ps(5, &[Alpha::integer(4)?])?.expect("exists");
/// println!("found: {}", witness.removal);
/// # Ok::<(), bncg_core::GameError>(())
/// ```
pub fn find_ne_not_ps(
    max_n: usize,
    alphas: &[Alpha],
) -> Result<Option<ConjectureWitness>, GameError> {
    for n in 3..=max_n {
        let graphs = enumerate::connected_graphs(n).map_err(GameError::Graph)?;
        for g in graphs {
            if g.is_tree() {
                // Trees are always in bilateral RE, and NE ⟹ BAE, so a
                // tree can never witness ¬PS.
                continue;
            }
            for &alpha in alphas {
                if let Some(w) = check_graph(&g, alpha)? {
                    return Ok(Some(w));
                }
            }
        }
    }
    Ok(None)
}

/// Checks a single graph across all NE-compatible assignments.
fn check_graph(g: &Graph, alpha: Alpha) -> Result<Option<ConjectureWitness>, GameError> {
    // Who would profit from a bilateral removal? (Also: which owners are
    // content keeping their edge?)
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let old: Vec<_> = (0..g.n() as u32).map(|u| agent_cost(g, u)).collect();
    let mut scratch = g.clone();
    let mut wants_drop = Vec::with_capacity(edges.len());
    for &(u, v) in &edges {
        scratch.remove_edge(u, v).expect("edge exists");
        let u_wants = agent_cost(&scratch, u).better_than(&old[u as usize], alpha);
        let v_wants = agent_cost(&scratch, v).better_than(&old[v as usize], alpha);
        scratch.add_edge(u, v).expect("restore");
        wants_drop.push((u_wants, v_wants));
    }
    // Pairwise stability must fail; with BAE enforced below this means a
    // bilateral removal must be profitable.
    let Some(removal) = wants_drop
        .iter()
        .zip(&edges)
        .find_map(|(&(uw, vw), &(u, v))| {
            if uw {
                Some(Move::Remove {
                    agent: u,
                    target: v,
                })
            } else if vw {
                Some(Move::Remove {
                    agent: v,
                    target: u,
                })
            } else {
                None
            }
        })
    else {
        return Ok(None);
    };
    // NE ⟹ BAE (Prop. 2.1): skip graphs that fail BAE.
    if !Concept::Bae.is_stable(g, alpha)? {
        return Ok(None);
    }
    // Valid owners per edge: endpoints that do NOT want to drop.
    let mut allowed: Vec<Vec<u32>> = Vec::with_capacity(edges.len());
    for (&(u, v), &(uw, vw)) in edges.iter().zip(&wants_drop) {
        let mut owners = Vec::new();
        if !uw {
            owners.push(u);
        }
        if !vw {
            owners.push(v);
        }
        if owners.is_empty() {
            return Ok(None); // no NE-compatible assignment
        }
        allowed.push(owners);
    }
    // Enumerate the product of allowed owners.
    let mut choice = vec![0usize; edges.len()];
    loop {
        let owners = edges
            .iter()
            .zip(&choice)
            .map(|(&(u, v), &c)| ((u, v), allowed_owner(&allowed, &edges, u, v, c)));
        let state = UnilateralState::new(g.clone(), owners).expect("endpoint owners");
        if state.is_ne(alpha)? {
            return Ok(Some(ConjectureWitness {
                state,
                alpha,
                removal,
            }));
        }
        // Next choice vector.
        let mut i = 0;
        loop {
            if i == edges.len() {
                return Ok(None);
            }
            choice[i] += 1;
            if choice[i] < allowed[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

fn allowed_owner(allowed: &[Vec<u32>], edges: &[(u32, u32)], u: u32, v: u32, c: usize) -> u32 {
    let idx = edges
        .iter()
        .position(|&(a, b)| (a, b) == (u, v))
        .expect("edge present");
    allowed[idx][c]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjecture_is_disproved_on_small_graphs() {
        // Proposition 2.3: a unilateral NE that is not pairwise stable.
        let alphas: Vec<Alpha> = ["4", "3", "2", "7/2", "5"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let witness = find_ne_not_ps(5, &alphas)
            .unwrap()
            .expect("a witness must exist among graphs with ≤ 5 nodes");
        // Certify both sides end to end.
        assert!(witness.state.is_ne(witness.alpha).unwrap());
        assert!(bncg_core::delta::move_improves_all(
            witness.state.graph(),
            witness.alpha,
            &witness.removal
        )
        .unwrap());
        assert!(!Concept::Ps
            .is_stable(witness.state.graph(), witness.alpha)
            .unwrap());
    }

    #[test]
    fn no_tree_is_ever_reported() {
        let alphas = [Alpha::integer(4).unwrap()];
        if let Some(w) = find_ne_not_ps(4, &alphas).unwrap() {
            assert!(!w.state.graph().is_tree());
        }
    }
}
