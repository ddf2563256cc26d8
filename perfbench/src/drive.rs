//! Rebuilding and stepping one lab scenario through the library's public API.
//!
//! `fdn-lab`'s runner builds a scenario's reactors, noise model and scheduler
//! and calls `Simulation::run`. The benchmark needs the same run with a timer
//! between deliveries (and, when tracing, wrapped components), so it rebuilds
//! the scenario here from the same public pieces and steps the simulation
//! itself. The workloads compare the rebuilt run's [`StatsSnapshot`] with the
//! lab runner's, so a rebuild that drifts from the lab — a wrong seed salt,
//! a missed link store — fails the benchmark instead of timing another run.

use std::rc::Rc;

use fdn_core::{
    construction_simulators, cycle_simulators_prevalidated, full_simulators, replay_simulators,
    ConstructionCheckpoint, ConstructionSimulator,
};
use fdn_graph::{Graph, NodeId};
use fdn_lab::{Caches, EngineMode, ReplayKey, Scenario, TopologyCache, CONSTRUCTION_MAX_STEPS};
use fdn_netsim::{InnerProtocol, LinkTable, NoiseSpec, Reactor, Simulation, StatsSnapshot};
use fdn_protocols::WorkloadSpec;

use crate::clock::Clock;
use crate::trace::{Layer, Node, Traced, TracedNoise, TracedScheduler, Tracer, SAMPLE_EVERY};

/// Noise-stream seed salt of `fdn-lab`'s runner (crate-private there).
pub const NOISE_SALT: u64 = 0x4E01_5E00;
/// Scheduler-stream seed salt of `fdn-lab`'s runner (crate-private there).
pub const SCHED_SALT: u64 = 0x5C4E_D000;

/// Deliveries per timing block: long enough that one clock read per block
/// costs nothing, short enough that a run yields hundreds of blocks.
pub const BLOCK: u64 = 65_536;

/// The result of one rebuilt scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct Rebuilt {
    /// Frozen counters.
    pub stats: StatsSnapshot,
    /// Engine or step-limit error, as the lab renders it.
    pub error: Option<String>,
    /// Whether the run reached quiescence and the workload's success
    /// predicate held.
    pub success: bool,
    /// Link-queue operations of the run.
    pub queue_ops: u64,
    /// Seconds spent building the reactors (a checkpoint restore in replay
    /// mode).
    pub build_s: f64,
    /// Seconds spent stepping.
    pub run_s: f64,
}

/// Rebuilds `scenario` with inner protocols from `make` and steps it to the
/// end. With a tracer, the scheduler, noise and nodes are wrapped and one
/// step in [`SAMPLE_EVERY`] is timed. Every full [`BLOCK`] of deliveries
/// appends its ns per delivery to `blocks`.
///
/// # Errors
///
/// Fails when the scenario cannot be built (a cache or engine setup error);
/// errors *during* the run are part of the result, as in the lab.
pub fn rebuild<P: InnerProtocol>(
    caches: &Caches,
    scenario: &Scenario,
    make: impl Fn(&Graph, NodeId) -> P,
    tracer: Option<&Rc<Tracer>>,
    blocks: &mut Vec<f64>,
) -> Result<Rebuilt, String> {
    let cell = scenario.cell;
    let topo = caches.topology.get(cell.family)?;
    let graph = &topo.graph;
    let encoding = cell.encoding.build();
    let clock = Clock::start();
    let factory = |v| make(graph, v);
    match cell.mode {
        EngineMode::CycleOnly => {
            let cycle = topo.cycle.as_ref().map_err(Clone::clone)?;
            let nodes = cycle_simulators_prevalidated(graph, cycle, encoding, factory)
                .map_err(|e| e.to_string())?;
            let build_s = clock.secs();
            finish(scenario, graph, None, nodes, tracer, build_s, blocks)
        }
        EngineMode::Full => {
            let nodes = full_simulators(graph, WorkloadSpec::ROOT, encoding, factory)
                .map_err(|e| e.to_string())?;
            let build_s = clock.secs();
            finish(scenario, graph, None, nodes, tracer, build_s, blocks)
        }
        EngineMode::Replay => {
            let construction = caches
                .construction
                .get(&caches.topology, replay_key(scenario))?;
            let clock = Clock::start();
            let nodes = replay_simulators(graph, &construction.checkpoint, factory)
                .map_err(|e| e.to_string())?;
            let build_s = clock.secs();
            let links = construction.links.clone();
            finish(scenario, graph, Some(links), nodes, tracer, build_s, blocks)
        }
    }
}

/// The construct-once key of a replay scenario, as the lab's runner forms it.
pub fn replay_key(scenario: &Scenario) -> ReplayKey {
    ReplayKey {
        family: scenario.cell.family,
        encoding: scenario.cell.encoding,
        scheduler: scenario.cell.scheduler,
        construction_seed: scenario.construction_seed,
    }
}

fn finish<R: Node>(
    scenario: &Scenario,
    graph: &Graph,
    links: Option<LinkTable>,
    nodes: Vec<R>,
    tracer: Option<&Rc<Tracer>>,
    build_s: f64,
    blocks: &mut Vec<f64>,
) -> Result<Rebuilt, String> {
    match tracer {
        Some(t) => run(
            scenario,
            graph,
            links,
            Traced::all(nodes, t),
            tracer,
            build_s,
            blocks,
        ),
        None => run(scenario, graph, links, nodes, None, build_s, blocks),
    }
}

fn run<R: Node>(
    scenario: &Scenario,
    graph: &Graph,
    links: Option<LinkTable>,
    nodes: Vec<R>,
    tracer: Option<&Rc<Tracer>>,
    build_s: f64,
    blocks: &mut Vec<f64>,
) -> Result<Rebuilt, String> {
    let cell = scenario.cell;
    let built = match links {
        Some(links) => Simulation::from_parts(graph.clone(), links, nodes),
        None => Simulation::new(graph.clone(), nodes),
    };
    let mut noise = cell.noise.build(scenario.seed ^ NOISE_SALT);
    let mut scheduler = cell.scheduler.build(scenario.seed ^ SCHED_SALT);
    if let Some(t) = tracer {
        noise = TracedNoise::boxed(noise, t);
        scheduler = TracedScheduler::boxed(scheduler, t);
    }
    let mut sim = built
        .map_err(|e| e.to_string())?
        .with_link_store(scenario.link_store)
        .with_noise_boxed(noise)
        .with_scheduler_boxed(scheduler)
        .with_max_steps(scenario.max_steps);
    let clock = Clock::start();
    let stepped = step_all(&mut sim, scenario.max_steps, tracer, blocks);
    let run_s = clock.secs();
    let node_error = graph.nodes().find_map(|v| sim.node(v).error_text());
    let error = match stepped {
        Ok(()) => node_error,
        Err(e) => Some(e),
    };
    let quiescent = sim.is_quiescent();
    let success = error.is_none() && quiescent && cell.workload.is_success(graph, &sim.outputs());
    Ok(Rebuilt {
        stats: sim.stats().snapshot(),
        error,
        success,
        queue_ops: sim.link_queue_ops(),
        build_s,
        run_s,
    })
}

/// Steps `sim` until quiescence, failing like `Simulation::run` once
/// `max_steps` deliveries did not suffice.
pub fn step_all<R: Reactor>(
    sim: &mut Simulation<R>,
    max_steps: u64,
    tracer: Option<&Rc<Tracer>>,
    blocks: &mut Vec<f64>,
) -> Result<(), String> {
    sim.start().map_err(|e| e.to_string())?;
    let clock = Clock::start();
    let mut mark = clock.now_ns();
    let mut steps = 0u64;
    while !sim.is_quiescent() {
        if steps >= max_steps {
            return Err(fdn_netsim::SimError::StepLimitExceeded { limit: max_steps }.to_string());
        }
        let stepped = match tracer {
            Some(t) if steps.is_multiple_of(SAMPLE_EVERY) => {
                t.set_sampling(true);
                let open = t.open(Layer::Step);
                let r = sim.step();
                t.close(open);
                t.set_sampling(false);
                t.calibrate_once();
                r
            }
            _ => sim.step(),
        };
        stepped.map_err(|e| e.to_string())?;
        steps += 1;
        if steps.is_multiple_of(BLOCK) {
            let now = clock.now_ns();
            blocks.push((now - mark) as f64 / BLOCK as f64);
            mark = now;
        }
    }
    Ok(())
}

/// What a traced construct-once run produced, for comparison with the lab's
/// cached construction.
#[derive(Debug)]
pub struct TracedConstruction {
    /// The captured boundary state.
    pub checkpoint: ConstructionCheckpoint,
    /// Deliveries the construction took.
    pub steps: u64,
}

/// Runs the construct-once construction of `key` the way the lab's replay
/// cache does, with every component wrapped by `tracer`.
///
/// # Errors
///
/// Fails like the lab's cache: build error, step limit or engine error.
pub fn traced_construction(
    topology: &TopologyCache,
    key: ReplayKey,
    tracer: &Rc<Tracer>,
) -> Result<TracedConstruction, String> {
    let topo = topology.get(key.family)?;
    let graph = &topo.graph;
    let nodes = construction_simulators(graph, WorkloadSpec::ROOT, key.encoding.build())
        .map_err(|e| e.to_string())?;
    let noise = NoiseSpec::FullCorruption.build(key.construction_seed ^ NOISE_SALT);
    let scheduler = key.scheduler.build(key.construction_seed ^ SCHED_SALT);
    let mut sim = Simulation::new(graph.clone(), Traced::all(nodes, tracer))
        .map_err(|e| e.to_string())?
        .with_noise_boxed(TracedNoise::boxed(noise, tracer))
        .with_scheduler_boxed(TracedScheduler::boxed(scheduler, tracer));
    step_all(
        &mut sim,
        CONSTRUCTION_MAX_STEPS,
        Some(tracer),
        &mut Vec::new(),
    )?;
    let steps = sim.stats().delivered_total;
    let (_, _, traced) = sim.into_parts();
    let nodes: Vec<ConstructionSimulator> = traced.into_iter().map(Traced::into_node).collect();
    if let Some(e) = nodes.iter().find_map(|n| n.error()) {
        return Err(format!("construction error: {e}"));
    }
    let checkpoint = ConstructionCheckpoint::capture(
        nodes
            .into_iter()
            .map(ConstructionSimulator::into_construction)
            .collect(),
    )
    .map_err(|e| e.to_string())?;
    Ok(TracedConstruction { checkpoint, steps })
}
