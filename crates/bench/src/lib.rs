//! Experiment harness for the fully-defective-networks reproduction.
//!
//! The paper is a theory paper: its "evaluation" consists of communication-
//! complexity claims (Lemmas 7, 9, 13, 14, 19 and Theorems 4, 10, 15) rather
//! than measured tables. This crate regenerates a *measured* counterpart for
//! every claim:
//!
//! * the library functions here run a workload and return the paper's cost
//!   metrics (pulses sent, `CCinit`, `CCoverhead`, cycle length);
//! * the `report` binary prints one markdown table per experiment (E1–E8,
//!   each described in that binary's docs);
//! * the Criterion benches in `benches/` time the same workloads so
//!   `cargo bench` tracks performance regressions.

use fdn_core::full::full_simulators;
use fdn_core::reactors::cycle_simulators;
use fdn_core::{construction_simulators, Encoding};
use fdn_graph::{robbins, Graph, NodeId, RobbinsCycle};
use fdn_netsim::{FullCorruption, InnerProtocol, ProtocolIo, RandomScheduler, Reactor, Simulation};
use fdn_protocols::FloodBroadcast;

/// Cost metrics of carrying a single simulated message over a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageCost {
    /// Number of nodes in the graph.
    pub nodes: usize,
    /// Length `|C|` of the cycle used.
    pub cycle_len: usize,
    /// Payload length in bytes of the simulated message.
    pub payload_bytes: usize,
    /// Pulses sent to deliver the message (the paper's `CCoverhead`).
    pub pulses: u64,
}

/// A single node broadcasts one message of `payload_bytes` bytes over the
/// given cycle; returns the pulse count (`CCoverhead(m)`, Lemmas 7/9/13/14).
pub fn message_overhead(
    graph: &Graph,
    cycle: &RobbinsCycle,
    encoding: Encoding,
    payload_bytes: usize,
    seed: u64,
) -> MessageCost {
    let payload = vec![0xA5u8; payload_bytes];
    let sender = cycle.root();
    let nodes = cycle_simulators(graph, cycle, encoding, |v| {
        FloodBroadcastOnce::new(v, sender, payload.clone())
    })
    .expect("valid cycle");
    let mut sim = Simulation::new(graph.clone(), nodes)
        .expect("one reactor per node")
        .with_noise(FullCorruption::new(seed))
        .with_scheduler(RandomScheduler::new(seed ^ 0xABCD));
    sim.run().expect("run to quiescence");
    MessageCost {
        nodes: graph.node_count(),
        cycle_len: cycle.len(),
        payload_bytes,
        pulses: sim.stats().sent_total,
    }
}

/// Like [`FloodBroadcast`] but the value is *not* re-flooded by receivers:
/// exactly one simulated message traverses the network, which isolates the
/// per-message overhead the lemmas talk about.
#[derive(Debug, Clone)]
pub struct FloodBroadcastOnce {
    node: NodeId,
    root: NodeId,
    value: Vec<u8>,
    output: Option<Vec<u8>>,
}

impl FloodBroadcastOnce {
    /// Creates the per-node instance.
    pub fn new(node: NodeId, root: NodeId, value: Vec<u8>) -> Self {
        FloodBroadcastOnce {
            node,
            root,
            value,
            output: None,
        }
    }
}

impl InnerProtocol for FloodBroadcastOnce {
    fn on_init(&mut self, io: &mut ProtocolIo) {
        if self.node == self.root {
            self.output = Some(self.value.clone());
            io.broadcast(self.value.clone());
        }
    }

    fn on_deliver(&mut self, _from: NodeId, payload: &[u8], _io: &mut ProtocolIo) {
        if self.output.is_none() {
            self.output = Some(payload.to_vec());
        }
    }

    fn output(&self) -> Option<Vec<u8>> {
        self.output.clone()
    }
}

/// Cost metrics of the distributed Robbins-cycle construction (Theorem 15 /
/// Lemma 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructionCost {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Length `|C|` of the constructed Robbins cycle.
    pub cycle_len: usize,
    /// Length of the centralized reference cycle (for comparison).
    pub reference_len: usize,
    /// Total pulses sent by the construction (`CCinit`).
    pub pulses: u64,
}

/// Runs the content-oblivious construction on `graph` and returns its cost.
pub fn construction_cost(graph: &Graph, root: NodeId, seed: u64) -> ConstructionCost {
    let nodes = construction_simulators(graph, root, Encoding::binary()).expect("valid input");
    let mut sim = Simulation::new(graph.clone(), nodes)
        .expect("one reactor per node")
        .with_noise(FullCorruption::new(seed))
        .with_scheduler(RandomScheduler::new(seed.wrapping_add(1)));
    sim.run().expect("construction terminates");
    let cycle = sim
        .node(root)
        .cycle()
        .expect("construction finished")
        .clone();
    cycle.validate(graph).expect("valid cycle");
    assert!(cycle.covers_all_edges(graph));
    let reference = robbins::reference_robbins_cycle(graph, root).expect("2EC");
    ConstructionCost {
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        cycle_len: cycle.len(),
        reference_len: reference.len(),
        pulses: sim.stats().sent_total,
    }
}

/// Cost metrics of a full Theorem 2 run (construction plus online phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndToEndCost {
    /// Number of nodes.
    pub nodes: usize,
    /// Length of the constructed cycle.
    pub cycle_len: usize,
    /// Pulses spent in the pre-processing phase (`CCinit`).
    pub cc_init: u64,
    /// Pulses spent in the online phase.
    pub online_pulses: u64,
    /// Messages the inner protocol exchanged in the noiseless baseline (for
    /// the per-message overhead column).
    pub baseline_messages: u64,
}

/// Runs a full broadcast workload end-to-end and splits the pulse cost into
/// pre-processing and online shares.
pub fn end_to_end_cost(graph: &Graph, seed: u64) -> EndToEndCost {
    let value = vec![0x5Au8; 4];
    // Baseline message count.
    let baseline_nodes: Vec<_> = graph
        .nodes()
        .map(|v| fdn_netsim::DirectRunner::new(FloodBroadcast::new(v, NodeId(0), value.clone())))
        .collect();
    let mut baseline = Simulation::new(graph.clone(), baseline_nodes).expect("baseline");
    baseline.run().expect("baseline run");
    let baseline_messages = baseline.stats().sent_total;

    let nodes = full_simulators(graph, NodeId(0), Encoding::binary(), |v| {
        FloodBroadcast::new(v, NodeId(0), value.clone())
    })
    .expect("2EC input");
    let mut sim = Simulation::new(graph.clone(), nodes)
        .expect("one reactor per node")
        .with_noise(FullCorruption::new(seed))
        .with_scheduler(RandomScheduler::new(seed ^ 0xBEEF));
    sim.run().expect("run to quiescence");
    let cc_init: u64 = graph
        .nodes()
        .map(|v| sim.node(v).construction_pulses())
        .sum();
    let total = sim.stats().sent_total;
    let cycle_len = sim
        .node(NodeId(0))
        .cycle()
        .map(RobbinsCycle::len)
        .unwrap_or(0);
    for v in graph.nodes() {
        assert_eq!(sim.node(v).output(), Some(value.clone()));
    }
    EndToEndCost {
        nodes: graph.node_count(),
        cycle_len,
        cc_init,
        online_pulses: total - cc_init,
        baseline_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdn_graph::generators;

    #[test]
    fn message_overhead_binary_scales_linearly_in_cycle_length() {
        let g = generators::cycle(6).unwrap();
        let c = robbins::reference_robbins_cycle(&g, NodeId(0)).unwrap();
        let one = message_overhead(&g, &c, Encoding::binary(), 1, 1);
        let four = message_overhead(&g, &c, Encoding::binary(), 4, 1);
        assert!(one.pulses > 0);
        // Lemma 9: cost grows roughly linearly with the payload.
        assert!(four.pulses > one.pulses);
        assert!(four.pulses < one.pulses * 8);
    }

    #[test]
    fn message_overhead_unary_is_exponential() {
        let g = generators::cycle(4).unwrap();
        let c = robbins::reference_robbins_cycle(&g, NodeId(0)).unwrap();
        let unary = message_overhead(&g, &c, Encoding::unary(), 0, 2);
        let binary = message_overhead(&g, &c, Encoding::binary(), 0, 2);
        // Even a 0-byte payload (2 header bytes) costs ~2^16 circulations in
        // unary versus a few dozen bits in binary.
        assert!(unary.pulses > 100 * binary.pulses);
    }

    #[test]
    fn construction_cost_reports_valid_cycle() {
        let g = generators::figure3();
        let cost = construction_cost(&g, NodeId(0), 3);
        assert_eq!(cost.nodes, 5);
        assert_eq!(cost.edges, 6);
        assert!(cost.cycle_len >= cost.edges);
        assert!(cost.pulses > 0);
    }

    #[test]
    fn end_to_end_cost_splits_phases() {
        let g = generators::figure3();
        let cost = end_to_end_cost(&g, 4);
        assert!(cost.cc_init > 0);
        assert!(cost.online_pulses > 0);
        assert!(cost.baseline_messages > 0);
        assert_eq!(cost.cycle_len, 8);
    }
}
