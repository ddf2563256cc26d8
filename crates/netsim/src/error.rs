//! Error type for the network simulator.

use std::fmt;

use fdn_graph::{GraphError, NodeId};

/// Errors surfaced by [`crate::Simulation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The number of reactors handed to the simulation does not match the
    /// number of graph nodes.
    NodeCountMismatch { nodes: usize, reactors: usize },
    /// A warm-start link table was registered for a different topology than
    /// the graph it is being reused with: the directed-link counts differ.
    LinkCountMismatch { links: usize, expected: usize },
    /// A warm-start link table has the right link count but lacks a link for
    /// one of the graph's adjacencies — it was registered for a different
    /// graph that merely has the same size.
    LinkTopologyMismatch { from: NodeId, to: NodeId },
    /// A reactor attempted to send to a node that is not its neighbour in the
    /// communication graph.
    NotNeighbor { from: NodeId, to: NodeId },
    /// A reactor attempted to send an empty message; the paper's model always
    /// transfers at least one bit (a pulse), and an empty payload could be
    /// confused with a deleted message.
    EmptyPayload { from: NodeId, to: NodeId },
    /// The noise model delivered an empty payload on `from -> to`: a
    /// delivered message carries at least one bit, an empty one could not be
    /// told apart from a deleted message.
    EmptyDelivery { from: NodeId, to: NodeId },
    /// The step limit was exhausted before the network reached quiescence.
    StepLimitExceeded { limit: u64 },
    /// The network is quiescent but `delivered + dropped != sent`: a message
    /// left the links without being delivered or dropped (e.g. the step that
    /// popped it failed with [`SimError::EmptyDelivery`] and the run was
    /// resumed).
    AccountingMismatch {
        sent: u64,
        delivered: u64,
        dropped: u64,
    },
    /// An underlying graph error.
    Graph(GraphError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NodeCountMismatch { nodes, reactors } => {
                write!(
                    f,
                    "graph has {nodes} nodes but {reactors} reactors were provided"
                )
            }
            SimError::LinkCountMismatch { links, expected } => {
                write!(
                    f,
                    "link table holds {links} links but the graph needs {expected}"
                )
            }
            SimError::LinkTopologyMismatch { from, to } => {
                write!(
                    f,
                    "link table has no link for the graph adjacency {from} -> {to}"
                )
            }
            SimError::NotNeighbor { from, to } => {
                write!(f, "node {from} attempted to send to non-neighbour {to}")
            }
            SimError::EmptyPayload { from, to } => {
                write!(f, "node {from} attempted to send an empty message to {to}")
            }
            SimError::EmptyDelivery { from, to } => {
                write!(f, "noise delivered an empty payload on link {from} -> {to}")
            }
            SimError::StepLimitExceeded { limit } => {
                write!(
                    f,
                    "step limit of {limit} deliveries exceeded before quiescence"
                )
            }
            SimError::AccountingMismatch {
                sent,
                delivered,
                dropped,
            } => {
                write!(
                    f,
                    "quiescent run lost messages: {sent} sent, {delivered} delivered, {dropped} dropped"
                )
            }
            SimError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for SimError {
    fn from(e: GraphError) -> Self {
        SimError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        let errs: Vec<SimError> = vec![
            SimError::NodeCountMismatch {
                nodes: 3,
                reactors: 2,
            },
            SimError::LinkCountMismatch {
                links: 8,
                expected: 10,
            },
            SimError::LinkTopologyMismatch {
                from: NodeId(3),
                to: NodeId(4),
            },
            SimError::NotNeighbor {
                from: NodeId(0),
                to: NodeId(5),
            },
            SimError::EmptyPayload {
                from: NodeId(0),
                to: NodeId(1),
            },
            SimError::EmptyDelivery {
                from: NodeId(1),
                to: NodeId(2),
            },
            SimError::StepLimitExceeded { limit: 100 },
            SimError::AccountingMismatch {
                sent: 3,
                delivered: 1,
                dropped: 1,
            },
            SimError::Graph(GraphError::NotConnected),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn graph_error_converts_and_sources() {
        let e: SimError = GraphError::NotTwoEdgeConnected.into();
        assert!(matches!(e, SimError::Graph(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&SimError::StepLimitExceeded { limit: 1 }).is_none());
    }
}
