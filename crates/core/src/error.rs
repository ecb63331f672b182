//! Error types for the game layer.

use std::error::Error;
use std::fmt;

/// Errors raised by game construction, move application, and equilibrium
/// checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GameError {
    /// An `Alpha` was constructed with a non-positive value or a zero
    /// denominator.
    InvalidAlpha,
    /// A move referenced a node outside the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the game graph.
        n: usize,
    },
    /// A move tried to add an edge that exists or remove one that does not,
    /// or was otherwise structurally invalid.
    InvalidMove(String),
    /// An exact check ran past its budget: a `Concept` shorthand spent
    /// the default evaluation cap, or a direct reference scan's raw move
    /// space exceeded its explicit [`crate::CheckBudget`].
    /// [`crate::solver::Solver`] queries never raise it — they return
    /// [`crate::solver::Verdict::Exhausted`] instead.
    CheckTooLarge {
        /// Human-readable description of the exceeded budget.
        reason: String,
    },
    /// The request itself cannot be executed: a malformed or mismatched
    /// solver resume token, an unknown concept name, or an instance past
    /// a structural representation limit (not a budget — budgets
    /// exhaust, they do not error).
    Unsupported {
        /// Human-readable description of what was rejected.
        reason: String,
    },
    /// The operation requires a connected graph.
    Disconnected,
    /// The operation requires a tree.
    NotATree,
    /// An error bubbled up from the graph substrate.
    Graph(bncg_graph::GraphError),
}

impl fmt::Display for GameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GameError::InvalidAlpha => write!(f, "alpha must be a positive rational"),
            GameError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for game with {n} agents")
            }
            GameError::InvalidMove(why) => write!(f, "invalid move: {why}"),
            GameError::CheckTooLarge { reason } => {
                write!(f, "exact check exceeds its budget: {reason}")
            }
            GameError::Unsupported { reason } => {
                write!(f, "unsupported request: {reason}")
            }
            GameError::Disconnected => write!(f, "operation requires a connected graph"),
            GameError::NotATree => write!(f, "operation requires a tree"),
            GameError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for GameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GameError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<bncg_graph::GraphError> for GameError {
    fn from(e: bncg_graph::GraphError) -> Self {
        GameError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(GameError::InvalidAlpha.to_string().contains("alpha"));
        assert!(GameError::Disconnected.to_string().contains("connected"));
        let wrapped = GameError::from(bncg_graph::GraphError::NotATree);
        assert!(wrapped.to_string().contains("graph error"));
        use std::error::Error;
        assert!(wrapped.source().is_some());
        assert!(GameError::InvalidAlpha.source().is_none());
    }
}
