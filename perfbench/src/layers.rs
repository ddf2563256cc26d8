//! Isolated drives of single layers, on a workload's own graph.
//!
//! The link table and the counters sit inside `Simulation::step` with no
//! public seam to wrap, so the traced run measures them apart: a real
//! [`LinkTable`] held at a fixed queue depth, and a real [`Stats`] fed the
//! send, depth and delivery records one message costs.

use std::hint::black_box;

use fdn_graph::{Graph, GraphFamily, NodeId};
use fdn_lab::TopologyCache;
use fdn_netsim::{DirectRunner, Envelope, LinkTable, Simulation, Stats};
use fdn_protocols::{BoxedProtocol, WorkloadSpec};

use crate::clock::{timed, Clock};
use crate::drive::{step_all, SCHED_SALT};
use crate::estimate::median;

/// Repetitions of each isolated drive; the median is reported.
const REPS: usize = 5;

/// Every directed link of `graph`, as one envelope each.
fn envelopes(graph: &Graph) -> Vec<Envelope> {
    let mut seq = 0u64;
    let mut out = Vec::new();
    for u in graph.nodes() {
        for &v in graph.neighbors(u) {
            out.push(Envelope {
                from: u,
                to: v,
                payload: vec![0u8].into(),
                seq,
            });
            seq += 1;
        }
    }
    out
}

/// Nanoseconds per pop-and-push pair on a [`LinkTable`] of `graph` whose
/// first (up to) eight directed links each hold `depth` messages: the pair
/// keeps every queue at that depth, as a steady-state delivery does.
pub fn link_push_pop_ns(graph: &Graph, depth: usize, pairs: u64) -> f64 {
    let mut table = LinkTable::new(graph);
    let used: Vec<Envelope> = envelopes(graph).into_iter().take(8).collect();
    let mut links = Vec::new();
    for env in &used {
        for _ in 0..depth {
            let (link, _) = table.push(env.clone());
            if !links.contains(&link) {
                links.push(link);
            }
        }
    }
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let clock = Clock::start();
            for i in 0..pairs {
                let link = links[(i % links.len() as u64) as usize];
                let env = table.pop(link).expect("queue held at depth");
                black_box(table.push(env));
            }
            clock.now_ns() as f64 / pairs as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Nanoseconds per message of counter updates on a [`Stats`] of `graph`:
/// one `record_send`, one `record_queue_depth` and one `record_delivery`,
/// round-robin over every directed link.
pub fn stats_record_ns(graph: &Graph, messages: u64) -> f64 {
    let envs = envelopes(graph);
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut stats = Stats::new(graph.node_count());
            let clock = Clock::start();
            for i in 0..messages {
                let env = &envs[(i % envs.len() as u64) as usize];
                stats.record_send(env);
                stats.record_queue_depth(env.from, env.to, 1, 1);
                stats.record_delivery();
            }
            black_box(&stats);
            clock.now_ns() as f64 / messages as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Milliseconds of cold [`TopologyCache`] lookups (graph plus reference
/// Robbins cycle) for every family in `families`, median of repeats.
pub fn topology_ms(families: &[GraphFamily]) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let cache = TopologyCache::new();
            let ((), secs) = timed(|| {
                for &f in families {
                    black_box(cache.get(f).ok());
                }
            });
            secs * 1e3
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// One noiseless direct-baseline run, rebuilt as the lab's runner builds it.
#[derive(Debug, Clone, Copy)]
pub struct BaselineRun {
    /// Messages sent (the lab's `baseline_messages`).
    pub messages: u64,
    /// Wall milliseconds of the run.
    pub ms: f64,
}

/// Runs the direct baseline of `workload` on `graph` under the scheduler
/// seed the lab derives from `seed`.
///
/// # Errors
///
/// Fails when the run fails; the lab then records a baseline error.
pub fn baseline_run(
    graph: &Graph,
    workload: WorkloadSpec,
    scheduler: fdn_netsim::SchedulerSpec,
    seed: u64,
    max_steps: u64,
) -> Result<BaselineRun, String> {
    let (result, secs) = timed(|| {
        let nodes: Vec<DirectRunner<BoxedProtocol>> = graph
            .nodes()
            .map(|v: NodeId| DirectRunner::new(workload.build(graph, v)))
            .collect();
        let mut sim = Simulation::new(graph.clone(), nodes)
            .map_err(|e| e.to_string())?
            .with_scheduler_boxed(scheduler.build(seed ^ SCHED_SALT))
            .with_max_steps(max_steps);
        step_all(&mut sim, max_steps, None, &mut Vec::new())?;
        Ok::<u64, String>(sim.stats().sent_total)
    });
    Ok(BaselineRun {
        messages: result?,
        ms: secs * 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdn_graph::generators;

    #[test]
    fn isolated_drives_report_positive_costs() {
        let g = generators::figure3();
        assert!(link_push_pop_ns(&g, 3, 1_000) > 0.0);
        assert!(link_push_pop_ns(&g, 128, 1_000) > 0.0);
        assert!(stats_record_ns(&g, 1_000) > 0.0);
        assert!(topology_ms(&[GraphFamily::Figure3]) > 0.0);
    }
}
