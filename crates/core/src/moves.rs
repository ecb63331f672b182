//! Strategy changes (moves) in the bilateral game.
//!
//! Every solution concept is defined by the set of moves it must be stable
//! against; checkers return a concrete [`Move`] as the witness of
//! instability, and dynamics replay these moves. A move can always be
//! applied to a graph state, producing the successor state.

use crate::error::GameError;
use bncg_graph::{BitsetGraph, Graph};
use std::fmt;

/// A strategy change in the bilateral game, annotated with the agents that
/// must consent (i.e. strictly improve) for the corresponding solution
/// concept.
///
/// # Examples
///
/// ```
/// use bncg_core::Move;
/// use bncg_graph::generators;
///
/// let g = generators::path(3);
/// let m = Move::BilateralAdd { u: 0, v: 2 };
/// let g2 = m.apply(&g)?;
/// assert!(g2.has_edge(0, 2));
/// assert_eq!(m.consenting_agents(), vec![0, 2]);
/// # Ok::<(), bncg_core::GameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Move {
    /// Agent `agent` unilaterally stops paying for `target`; the edge
    /// disappears (Remove Equilibrium).
    Remove {
        /// The agent performing the removal.
        agent: u32,
        /// The neighbor whose edge is dropped.
        target: u32,
    },
    /// Agents `u` and `v` jointly create the edge `{u, v}`; both pay `α`
    /// (Bilateral Add Equilibrium).
    BilateralAdd {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
    },
    /// Agent `agent` swaps its edge to `old` for a new edge to `new`; the
    /// buying cost of `agent` is unchanged, `new` pays for one extra edge
    /// (Bilateral Swap Equilibrium). `old` is not asked.
    Swap {
        /// The swapping agent.
        agent: u32,
        /// Current neighbor to drop.
        old: u32,
        /// New partner to connect to (must consent).
        new: u32,
    },
    /// A neighborhood change around `center`: simultaneously remove the
    /// edges to `remove` and create edges to `add`. The center and *all*
    /// agents in `add` must strictly improve (Bilateral Neighborhood
    /// Equilibrium).
    Neighborhood {
        /// The agent rearranging its neighborhood.
        center: u32,
        /// Current neighbors to disconnect from.
        remove: Vec<u32>,
        /// New partners to connect to.
        add: Vec<u32>,
    },
    /// A coalitional move by `members` (Bilateral k-Strong Equilibrium):
    /// delete `remove_edges` (each touching the coalition) and create
    /// `add_edges` (both endpoints inside the coalition). All members must
    /// strictly improve.
    Coalition {
        /// The coalition Γ.
        members: Vec<u32>,
        /// Edges to delete; every edge must have an endpoint in Γ.
        remove_edges: Vec<(u32, u32)>,
        /// Edges to create; both endpoints must lie in Γ.
        add_edges: Vec<(u32, u32)>,
    },
}

impl Move {
    /// The agents whose strict improvement the move requires.
    #[must_use]
    pub fn consenting_agents(&self) -> Vec<u32> {
        match self {
            Move::Remove { agent, .. } => vec![*agent],
            Move::BilateralAdd { u, v } => vec![*u, *v],
            Move::Swap { agent, new, .. } => vec![*agent, *new],
            Move::Neighborhood { center, add, .. } => {
                let mut agents = vec![*center];
                agents.extend_from_slice(add);
                agents
            }
            Move::Coalition { members, .. } => members.clone(),
        }
    }

    /// Renders the move in the repo's flat escape-free JSON dialect
    /// ([`crate::jsonio`]) — the wire format the daemon's responses and
    /// the atlas's stored witnesses share. Vertex pairs travel packed one
    /// per u64 as `(u << 32) | v`, never as nested arrays.
    #[must_use]
    pub fn render_json(&self) -> String {
        use crate::jsonio::render_u64_list;
        let pack = |u: u32, v: u32| (u64::from(u) << 32) | u64::from(v);
        match self {
            Move::Remove { agent, target } => {
                format!("{{\"kind\":\"remove\",\"agent\":{agent},\"target\":{target}}}")
            }
            Move::BilateralAdd { u, v } => {
                format!("{{\"kind\":\"add\",\"u\":{u},\"v\":{v}}}")
            }
            Move::Swap { agent, old, new } => {
                format!("{{\"kind\":\"swap\",\"agent\":{agent},\"old\":{old},\"new\":{new}}}")
            }
            Move::Neighborhood {
                center,
                remove,
                add,
            } => {
                let rem: Vec<u64> = remove.iter().map(|&v| u64::from(v)).collect();
                let add: Vec<u64> = add.iter().map(|&v| u64::from(v)).collect();
                format!(
                    "{{\"kind\":\"neighborhood\",\"center\":{center},\"remove\":{},\"add\":{}}}",
                    render_u64_list(&rem),
                    render_u64_list(&add)
                )
            }
            Move::Coalition {
                members,
                remove_edges,
                add_edges,
            } => {
                let mem: Vec<u64> = members.iter().map(|&v| u64::from(v)).collect();
                let rem: Vec<u64> = remove_edges.iter().map(|&(u, v)| pack(u, v)).collect();
                let add: Vec<u64> = add_edges.iter().map(|&(u, v)| pack(u, v)).collect();
                format!(
                    "{{\"kind\":\"coalition\",\"members\":{},\"remove_edges\":{},\"add_edges\":{}}}",
                    render_u64_list(&mem),
                    render_u64_list(&rem),
                    render_u64_list(&add)
                )
            }
        }
    }

    /// Parses a move rendered by [`Move::render_json`]. The inverse holds
    /// exactly: `parse_json(render_json(m)) == Ok(m)`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::Unsupported`] on an unknown `kind` or missing
    /// fields — stored witnesses are replayed, so a silently defaulted
    /// field would replay the wrong move.
    pub fn parse_json(json: &str) -> Result<Move, GameError> {
        use crate::jsonio::{str_field, u64_field, u64_list_field};
        let missing = |field: &str| GameError::Unsupported {
            reason: format!("move object is missing '{field}'"),
        };
        let vertex = |field: &str| -> Result<u32, GameError> {
            let raw = u64_field(json, field).ok_or_else(|| missing(field))?;
            u32::try_from(raw).map_err(|_| GameError::Unsupported {
                reason: format!("move field '{field}' is not a vertex id"),
            })
        };
        let vertex_list = |field: &str| -> Result<Vec<u32>, GameError> {
            u64_list_field(json, field)
                .ok_or_else(|| missing(field))?
                .into_iter()
                .map(|raw| {
                    u32::try_from(raw).map_err(|_| GameError::Unsupported {
                        reason: format!("move field '{field}' holds a non-vertex value"),
                    })
                })
                .collect()
        };
        let unpack = |p: u64| ((p >> 32) as u32, (p & u32::MAX as u64) as u32);
        let edge_list = |field: &str| -> Result<Vec<(u32, u32)>, GameError> {
            Ok(u64_list_field(json, field)
                .ok_or_else(|| missing(field))?
                .into_iter()
                .map(unpack)
                .collect())
        };
        match str_field(json, "kind").ok_or_else(|| missing("kind"))? {
            "remove" => Ok(Move::Remove {
                agent: vertex("agent")?,
                target: vertex("target")?,
            }),
            "add" => Ok(Move::BilateralAdd {
                u: vertex("u")?,
                v: vertex("v")?,
            }),
            "swap" => Ok(Move::Swap {
                agent: vertex("agent")?,
                old: vertex("old")?,
                new: vertex("new")?,
            }),
            "neighborhood" => Ok(Move::Neighborhood {
                center: vertex("center")?,
                remove: vertex_list("remove")?,
                add: vertex_list("add")?,
            }),
            "coalition" => Ok(Move::Coalition {
                members: vertex_list("members")?,
                remove_edges: edge_list("remove_edges")?,
                add_edges: edge_list("add_edges")?,
            }),
            other => Err(GameError::Unsupported {
                reason: format!("unknown move kind {other:?}"),
            }),
        }
    }

    /// The move with every vertex id mapped through `map` (`map[old]` is
    /// the new id). Used to translate a witness found on a canonical
    /// representative back to the labels of an isomorphic query graph.
    ///
    /// # Panics
    ///
    /// Panics if a vertex id of the move is outside `map`.
    #[must_use]
    pub fn relabeled(&self, map: &[u32]) -> Move {
        let m = |v: u32| map[v as usize];
        match self {
            Move::Remove { agent, target } => Move::Remove {
                agent: m(*agent),
                target: m(*target),
            },
            Move::BilateralAdd { u, v } => Move::BilateralAdd { u: m(*u), v: m(*v) },
            Move::Swap { agent, old, new } => Move::Swap {
                agent: m(*agent),
                old: m(*old),
                new: m(*new),
            },
            Move::Neighborhood {
                center,
                remove,
                add,
            } => Move::Neighborhood {
                center: m(*center),
                remove: remove.iter().map(|&v| m(v)).collect(),
                add: add.iter().map(|&v| m(v)).collect(),
            },
            Move::Coalition {
                members,
                remove_edges,
                add_edges,
            } => Move::Coalition {
                members: members.iter().map(|&v| m(v)).collect(),
                remove_edges: remove_edges.iter().map(|&(u, v)| (m(u), m(v))).collect(),
                add_edges: add_edges.iter().map(|&(u, v)| (m(u), m(v))).collect(),
            },
        }
    }

    /// Validates the move against a graph state and returns the successor
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidMove`] if the move does not type-check
    /// against the state (adding present edges, removing absent ones,
    /// coalition constraints violated, …).
    pub fn apply(&self, g: &Graph) -> Result<Graph, GameError> {
        let mut out = g.clone();
        self.apply_in_place(&mut out)?;
        Ok(out)
    }

    /// Validates the move and applies it to `g` **in place**, returning the
    /// edge toggles performed so the caller can replay or undo them (the
    /// incremental [`GameState`](crate::GameState) engine updates its
    /// distance cache one toggle at a time).
    ///
    /// On error the graph is left exactly as it was: toggles applied before
    /// the failing step are rolled back.
    ///
    /// # Errors
    ///
    /// Same contract as [`Move::apply`].
    pub(crate) fn apply_in_place(&self, g: &mut Graph) -> Result<AppliedMove, GameError> {
        let n = g.n();
        let check_node = |x: u32| -> Result<(), GameError> {
            if (x as usize) < n {
                Ok(())
            } else {
                Err(GameError::NodeOutOfRange { node: x, n })
            }
        };
        let mut applied = AppliedMove {
            toggles: Vec::new(),
        };
        let result = (|| -> Result<(), GameError> {
            match self {
                Move::Remove { agent, target } => {
                    check_node(*agent)?;
                    check_node(*target)?;
                    applied.remove(g, *agent, *target)?;
                }
                Move::BilateralAdd { u, v } => {
                    check_node(*u)?;
                    check_node(*v)?;
                    applied.add(g, *u, *v)?;
                }
                Move::Swap { agent, old, new } => {
                    check_node(*agent)?;
                    check_node(*old)?;
                    check_node(*new)?;
                    if old == new {
                        return Err(GameError::InvalidMove(
                            "swap must change the partner".into(),
                        ));
                    }
                    applied.remove(g, *agent, *old)?;
                    applied.add(g, *agent, *new)?;
                }
                Move::Neighborhood {
                    center,
                    remove,
                    add,
                } => {
                    check_node(*center)?;
                    if remove.is_empty() && add.is_empty() {
                        return Err(GameError::InvalidMove(
                            "neighborhood move must change something".into(),
                        ));
                    }
                    for &r in remove {
                        check_node(r)?;
                        applied.remove(g, *center, r)?;
                    }
                    for &a in add {
                        check_node(a)?;
                        applied.add(g, *center, a)?;
                    }
                }
                Move::Coalition {
                    members,
                    remove_edges,
                    add_edges,
                } => {
                    if members.is_empty() {
                        return Err(GameError::InvalidMove("empty coalition".into()));
                    }
                    if remove_edges.is_empty() && add_edges.is_empty() {
                        return Err(GameError::InvalidMove(
                            "coalition move must change something".into(),
                        ));
                    }
                    for &m in members {
                        check_node(m)?;
                    }
                    let in_coalition = |x: u32| members.contains(&x);
                    for &(u, v) in remove_edges {
                        if !in_coalition(u) && !in_coalition(v) {
                            return Err(GameError::InvalidMove(format!(
                                "removed edge {{{u}, {v}}} does not touch the coalition"
                            )));
                        }
                        applied.remove(g, u, v)?;
                    }
                    for &(u, v) in add_edges {
                        if !in_coalition(u) || !in_coalition(v) {
                            return Err(GameError::InvalidMove(format!(
                                "added edge {{{u}, {v}}} leaves the coalition"
                            )));
                        }
                        applied.add(g, u, v)?;
                    }
                }
            }
            Ok(())
        })();
        match result {
            Ok(()) => Ok(applied),
            Err(e) => {
                applied.undo(g);
                Err(e)
            }
        }
    }
}

/// The record of a [`Move`] applied in place: the edge toggles performed,
/// in application order (`true` marks an addition).
#[derive(Debug, Clone)]
pub struct AppliedMove {
    toggles: Vec<(u32, u32, bool)>,
}

impl AppliedMove {
    /// The performed toggles `(u, v, added)` in application order.
    #[must_use]
    pub(crate) fn toggles(&self) -> &[(u32, u32, bool)] {
        &self.toggles
    }

    /// Reverts every recorded toggle, restoring the pre-move graph.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not the graph the toggles were applied to.
    pub(crate) fn undo(&self, g: &mut Graph) {
        for &(u, v, added) in self.toggles.iter().rev() {
            if added {
                g.remove_edge(u, v).expect("undoing a recorded addition");
            } else {
                g.add_edge(u, v).expect("undoing a recorded removal");
            }
        }
    }

    /// Replays the recorded toggles on a word-parallel bitset mirror of
    /// the pre-move graph, so candidate pricing can run on the bitset
    /// kernels without re-converting the whole adjacency per move.
    ///
    /// # Panics
    ///
    /// Panics if a toggled endpoint is out of the bitset's range.
    pub(crate) fn redo_on_bits(&self, bits: &mut BitsetGraph) {
        for &(u, v, added) in &self.toggles {
            if added {
                bits.add_edge(u, v);
            } else {
                bits.remove_edge(u, v);
            }
        }
    }

    /// Reverts the recorded toggles on the bitset mirror (inverse of
    /// [`AppliedMove::redo_on_bits`]).
    ///
    /// # Panics
    ///
    /// Panics if a toggled endpoint is out of the bitset's range.
    pub(crate) fn undo_on_bits(&self, bits: &mut BitsetGraph) {
        for &(u, v, added) in self.toggles.iter().rev() {
            if added {
                bits.remove_edge(u, v);
            } else {
                bits.add_edge(u, v);
            }
        }
    }

    fn add(&mut self, g: &mut Graph, u: u32, v: u32) -> Result<(), GameError> {
        g.add_edge(u, v)
            .map_err(|e| GameError::InvalidMove(e.to_string()))?;
        self.toggles.push((u, v, true));
        Ok(())
    }

    fn remove(&mut self, g: &mut Graph, u: u32, v: u32) -> Result<(), GameError> {
        g.remove_edge(u, v)
            .map_err(|e| GameError::InvalidMove(e.to_string()))?;
        self.toggles.push((u, v, false));
        Ok(())
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::Remove { agent, target } => write!(f, "remove: {agent} drops edge to {target}"),
            Move::BilateralAdd { u, v } => write!(f, "add: {u} and {v} build {{{u}, {v}}}"),
            Move::Swap { agent, old, new } => {
                write!(f, "swap: {agent} trades edge to {old} for edge to {new}")
            }
            Move::Neighborhood {
                center,
                remove,
                add,
            } => write!(
                f,
                "neighborhood around {center}: remove {remove:?}, add {add:?}"
            ),
            Move::Coalition {
                members,
                remove_edges,
                add_edges,
            } => write!(
                f,
                "coalition {members:?}: remove {remove_edges:?}, add {add_edges:?}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators;

    #[test]
    fn apply_remove_and_add() {
        let g = generators::path(4);
        let g2 = Move::Remove {
            agent: 1,
            target: 2,
        }
        .apply(&g)
        .unwrap();
        assert!(!g2.has_edge(1, 2));
        let g3 = Move::BilateralAdd { u: 0, v: 3 }.apply(&g).unwrap();
        assert!(g3.has_edge(0, 3));
    }

    #[test]
    fn apply_swap() {
        let g = generators::star(4); // center 0
        let m = Move::Swap {
            agent: 1,
            old: 0,
            new: 2,
        };
        let g2 = m.apply(&g).unwrap();
        assert!(!g2.has_edge(1, 0));
        assert!(g2.has_edge(1, 2));
        assert_eq!(m.consenting_agents(), vec![1, 2]);
    }

    #[test]
    fn apply_neighborhood() {
        let g = generators::star(5);
        let m = Move::Neighborhood {
            center: 0,
            remove: vec![1, 2],
            add: vec![],
        };
        let g2 = m.apply(&g).unwrap();
        assert_eq!(g2.degree(0), 2);
        assert!(Move::Neighborhood {
            center: 0,
            remove: vec![],
            add: vec![]
        }
        .apply(&g)
        .is_err());
    }

    #[test]
    fn coalition_constraints() {
        let g = generators::path(5);
        // Legal: coalition {0, 4} adds {0, 4} and removes {3, 4}.
        let m = Move::Coalition {
            members: vec![0, 4],
            remove_edges: vec![(3, 4)],
            add_edges: vec![(0, 4)],
        };
        let g2 = m.apply(&g).unwrap();
        assert!(g2.has_edge(0, 4));
        assert!(!g2.has_edge(3, 4));

        // Illegal: removed edge does not touch the coalition.
        let bad = Move::Coalition {
            members: vec![0],
            remove_edges: vec![(2, 3)],
            add_edges: vec![],
        };
        assert!(matches!(bad.apply(&g), Err(GameError::InvalidMove(_))));

        // Illegal: added edge leaves the coalition.
        let bad = Move::Coalition {
            members: vec![0],
            remove_edges: vec![],
            add_edges: vec![(0, 2)],
        };
        assert!(matches!(bad.apply(&g), Err(GameError::InvalidMove(_))));

        // Illegal: empty coalition or empty move.
        assert!(Move::Coalition {
            members: vec![],
            remove_edges: vec![],
            add_edges: vec![(0, 1)]
        }
        .apply(&g)
        .is_err());
        assert!(Move::Coalition {
            members: vec![0],
            remove_edges: vec![],
            add_edges: vec![]
        }
        .apply(&g)
        .is_err());
    }

    #[test]
    fn invalid_moves_are_rejected() {
        let g = generators::path(3);
        assert!(Move::Remove {
            agent: 0,
            target: 2
        }
        .apply(&g)
        .is_err());
        assert!(Move::BilateralAdd { u: 0, v: 1 }.apply(&g).is_err());
        assert!(Move::Swap {
            agent: 0,
            old: 1,
            new: 1
        }
        .apply(&g)
        .is_err());
        assert!(matches!(
            Move::Remove {
                agent: 9,
                target: 0
            }
            .apply(&g),
            Err(GameError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn consenting_agents_per_move() {
        assert_eq!(
            Move::Remove {
                agent: 3,
                target: 1
            }
            .consenting_agents(),
            vec![3]
        );
        assert_eq!(
            Move::Neighborhood {
                center: 0,
                remove: vec![1],
                add: vec![2, 3]
            }
            .consenting_agents(),
            vec![0, 2, 3]
        );
        assert_eq!(
            Move::Coalition {
                members: vec![4, 5],
                remove_edges: vec![],
                add_edges: vec![]
            }
            .consenting_agents(),
            vec![4, 5]
        );
    }

    #[test]
    fn apply_in_place_rolls_back_on_error() {
        let g0 = generators::path(5);
        let mut g = g0.clone();
        // The second removal fails (edge {0, 2} does not exist); the first
        // removal must be rolled back.
        let bad = Move::Coalition {
            members: vec![0, 1, 2],
            remove_edges: vec![(0, 1), (0, 2)],
            add_edges: vec![],
        };
        assert!(bad.apply_in_place(&mut g).is_err());
        assert_eq!(g, g0, "failed move must leave the graph untouched");

        // A successful application records its toggles and undoes cleanly.
        let good = Move::Neighborhood {
            center: 0,
            remove: vec![1],
            add: vec![3, 4],
        };
        let applied = good.apply_in_place(&mut g).unwrap();
        assert_eq!(
            applied.toggles(),
            &[(0, 1, false), (0, 3, true), (0, 4, true)]
        );
        assert!(g.has_edge(0, 4) && !g.has_edge(0, 1));
        applied.undo(&mut g);
        assert_eq!(g, g0);
    }

    #[test]
    fn bitset_mirror_tracks_redo_and_undo() {
        let g = generators::path(6);
        let mut scratch = g.clone();
        let mut bits = BitsetGraph::from_graph(&g).unwrap();
        let mv = Move::Neighborhood {
            center: 0,
            remove: vec![1],
            add: vec![3, 5],
        };
        let applied = mv.apply_in_place(&mut scratch).unwrap();
        applied.redo_on_bits(&mut bits);
        assert_eq!(bits, BitsetGraph::from_graph(&scratch).unwrap());
        applied.undo(&mut scratch);
        applied.undo_on_bits(&mut bits);
        assert_eq!(scratch, g);
        assert_eq!(bits, BitsetGraph::from_graph(&g).unwrap());
    }

    #[test]
    fn display_is_informative() {
        let m = Move::Swap {
            agent: 1,
            old: 0,
            new: 2,
        };
        let s = m.to_string();
        assert!(s.contains("swap"));
        assert!(s.contains('1') && s.contains('0') && s.contains('2'));
    }

    fn wire_samples() -> Vec<Move> {
        vec![
            Move::Remove {
                agent: 3,
                target: 7,
            },
            Move::BilateralAdd { u: 0, v: 9 },
            Move::Swap {
                agent: 2,
                old: 1,
                new: 5,
            },
            Move::Neighborhood {
                center: 4,
                remove: vec![1, 2],
                add: vec![6, 8, 9],
            },
            Move::Neighborhood {
                center: 0,
                remove: vec![],
                add: vec![3],
            },
            Move::Coalition {
                members: vec![0, 2, 5],
                remove_edges: vec![(0, 1), (2, 4)],
                add_edges: vec![(0, 5)],
            },
            Move::Coalition {
                members: vec![1, 2],
                remove_edges: vec![],
                add_edges: vec![(1, 2)],
            },
        ]
    }

    #[test]
    fn wire_json_round_trips() {
        for mv in wire_samples() {
            let json = mv.render_json();
            assert_eq!(
                Move::parse_json(&json).unwrap(),
                mv,
                "round-trip failed for {json}"
            );
        }
    }

    #[test]
    fn wire_json_rejects_malformed_objects() {
        assert!(Move::parse_json("{}").is_err());
        assert!(Move::parse_json("{\"kind\":\"teleport\"}").is_err());
        assert!(Move::parse_json("{\"kind\":\"add\",\"u\":0}").is_err());
        assert!(Move::parse_json("{\"kind\":\"neighborhood\",\"center\":1}").is_err());
    }

    #[test]
    fn relabeling_maps_every_vertex() {
        // map: 0→4, 1→3, 2→2, 3→1, 4→0, 5→5, …
        let map = [4, 3, 2, 1, 0, 5, 6, 7, 8, 9];
        let relabeled: Vec<Move> = wire_samples().iter().map(|m| m.relabeled(&map)).collect();
        assert_eq!(
            relabeled[0],
            Move::Remove {
                agent: 1,
                target: 7
            }
        );
        assert_eq!(relabeled[1], Move::BilateralAdd { u: 4, v: 9 });
        assert_eq!(
            relabeled[3],
            Move::Neighborhood {
                center: 0,
                remove: vec![3, 2],
                add: vec![6, 8, 9],
            }
        );
        // An involution applied twice is the identity.
        let back: Vec<Move> = relabeled.iter().map(|m| m.relabeled(&map)).collect();
        assert_eq!(back, wire_samples());
    }
}
