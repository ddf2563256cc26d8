//! The benchmark's three workloads, their pinned counts, and the metrics each
//! run reports.
//!
//! * `ring-flood` — `cycle(400)`, cycle mode, binary encoding, `flood(2)`,
//!   full corruption, random scheduler: the per-delivery hot path with queues
//!   at most 3 deep (ROADMAP reference cell 1).
//! * `chorded-replay` — `random2ec(30,15,s1)`, one construct-once checkpoint
//!   in set-up, then a sweep of online seeds over a 191-long non-simple cycle
//!   with queues about 40x deeper (ROADMAP reference cells 3 and 4).
//! * `standard-campaign` — the `standard` preset through the lab runner on two
//!   threads, plus JSON/CSV/markdown rendering: 1,200 tiny scenarios where
//!   per-scenario set-up, memos and rendering carry the cost (ROADMAP
//!   reference cell 2).

use std::hint::black_box;

use fdn_core::{cycle_simulators_prevalidated, fnv1a64, replay_simulators};
use fdn_graph::{Graph, GraphFamily, NodeId};
use fdn_lab::{
    aggregate, run_scenario_with, BaselineCache, Caches, Campaign, CampaignReport, Cell,
    EncodingSpec, EngineMode, ReplayCache, Scenario, ScenarioOutcome, SeedRange, TopologyCache,
};
use fdn_netsim::{LinkStore, NoiseSpec, SchedulerSpec, Simulation};
use fdn_protocols::{BoxedProtocol, WorkloadSpec};
use rayon::prelude::*;

use crate::clock::{timed, Clock};
use crate::drive::{rebuild, replay_key, traced_construction, Rebuilt, BLOCK};
use crate::estimate::{median, quantile};
use crate::layers;
use crate::trace::{LayerTotals, TimedInner, Tracer};

/// Simulated pulses (= deliveries) of one `ring-flood` run, on every seed.
pub const RING_PULSES: u64 = 8_640_398;
/// Most messages in flight at once in a `ring-flood` run.
pub const RING_MAX_INFLIGHT: u64 = 3;
/// `CCinit` of the `chorded-replay` construct-once checkpoint.
pub const CHORDED_CC_INIT: u64 = 6_189_573;
/// Length of the Robbins cycle the `chorded-replay` construction learns.
pub const CHORDED_CYCLE_LEN: usize = 191;
/// Online pulses of one `chorded-replay` seed, on every seed.
pub const CHORDED_ONLINE_PULSES: u64 = 726_063;
/// Construction seed of the `chorded-replay` checkpoint (the lab pins a
/// replay sweep's construction to its first seed; the pinned `CCinit`
/// belongs to this one).
pub const CHORDED_CONSTRUCTION_SEED: u64 = 1;
/// Scenarios of the `standard` preset.
pub const STANDARD_SCENARIOS: usize = 1_200;
/// FNV-1a 64 of `fdn-lab run --preset standard`'s `standard.json`.
pub const STANDARD_JSON_FNV: u64 = 0x4fbe_e7c7_bdc7_fe46;
/// FNV-1a 64 of `fdn-lab run --preset standard`'s `standard.csv`.
pub const STANDARD_CSV_FNV: u64 = 0xfce0_06a6_34c3_ed45;
/// FNV-1a 64 of the `standard` report's markdown without wall-clock header.
pub const STANDARD_MD_FNV: u64 = 0xf9db_0fcd_2f9f_6ab2;

/// Set-up repetitions per run (median reported); the construct-once
/// checkpoint of `chorded-replay` costs seconds, so it repeats fewer times.
const SETUP_REPS: usize = 7;
const CHORDED_SETUP_REPS: usize = 3;
/// Worker threads of `standard-campaign` (capped by the host's cores).
const CAMPAIGN_THREADS: usize = 2;
/// The traced `standard-campaign` run rebuilds every this-many-th scenario.
const CAMPAIGN_TRACE_STRIDE: usize = 8;
/// Timing blocks dropped at the start of the timed phase (warm-up).
const WARMUP_BLOCKS: usize = 8;
/// Step budget of the benchmark's own ring and replay scenarios.
const MAX_STEPS: u64 = 20_000_000;
/// Isolated-drive sizes.
const LINK_PAIRS: u64 = 2_000_000;
const STATS_MESSAGES: u64 = 2_000_000;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ring-flood`.
    RingFlood,
    /// `chorded-replay`.
    ChordedReplay,
    /// `standard-campaign`.
    StandardCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::RingFlood,
        Workload::ChordedReplay,
        Workload::StandardCampaign,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RingFlood => "ring-flood",
            Workload::ChordedReplay => "chorded-replay",
            Workload::StandardCampaign => "standard-campaign",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one benchmark invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How it was measured (sample count, estimator).
    pub note: String,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Scenarios (or constructions) whose outputs were checked.
    pub attempted: u64,
    /// Of those, how many deviated from the pinned expectations.
    pub failed: u64,
    /// The first deviations, as text.
    pub deviations: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Facts about the run (seeds, sample counts) for the human-readable
    /// lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked unit and its deviations.
    fn checked(&mut self, what: &str, deviations: Vec<String>) {
        self.attempted += 1;
        if !deviations.is_empty() {
            self.failed += 1;
            for d in deviations {
                if self.deviations.len() < 20 {
                    self.deviations.push(format!("{what}: {d}"));
                }
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }
}

/// Runs `workload` under `settings`.
///
/// # Errors
///
/// Fails when a workload cannot be set up at all (a build or cache error);
/// deviations of a run that did happen are counted in the [`Outcome`].
pub fn run(workload: Workload, settings: Settings) -> Result<Outcome, String> {
    match workload {
        Workload::RingFlood => ring_flood(settings),
        Workload::ChordedReplay => chorded_replay(settings),
        Workload::StandardCampaign => standard_campaign(settings),
    }
}

fn ring_cell() -> Cell {
    Cell {
        family: GraphFamily::Cycle { n: 400 },
        mode: EngineMode::CycleOnly,
        encoding: EncodingSpec::Binary,
        workload: WorkloadSpec::Flood { payload_bytes: 2 },
        noise: NoiseSpec::FullCorruption,
        scheduler: SchedulerSpec::Random,
        link_store: LinkStore::Exact,
    }
}

fn chorded_cell() -> Cell {
    Cell {
        family: GraphFamily::RandomTwoEdgeConnected {
            n: 30,
            extra_edges: 15,
            seed: 1,
        },
        mode: EngineMode::Replay,
        encoding: EncodingSpec::Binary,
        workload: WorkloadSpec::Flood { payload_bytes: 4 },
        noise: NoiseSpec::FullCorruption,
        scheduler: SchedulerSpec::Random,
        link_store: LinkStore::Exact,
    }
}

fn scenario(cell: Cell, seed: u64, construction_seed: u64) -> Scenario {
    Scenario {
        index: 0,
        cell,
        seed,
        construction_seed,
        max_steps: MAX_STEPS,
        link_store: cell.link_store,
    }
}

/// Online seed `k` of a `chorded-replay` run with workload seed `seed`.
fn online_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// The checks every ring or replay unit must pass.
fn unit_deviations(r: &Rebuilt, pulses: u64, max_inflight: Option<u64>) -> Vec<String> {
    let mut d = Vec::new();
    if let Some(e) = &r.error {
        d.push(format!("error: {e}"));
    }
    if !r.success {
        d.push("not every node output the flooded value".to_string());
    }
    if r.stats.sent_total != pulses {
        d.push(format!("{} pulses, expected {pulses}", r.stats.sent_total));
    }
    if r.stats.delivered_total != r.stats.sent_total || r.stats.dropped_total != 0 {
        d.push(format!(
            "{} delivered and {} dropped of {} sent",
            r.stats.delivered_total, r.stats.dropped_total, r.stats.sent_total
        ));
    }
    if let Some(max) = max_inflight {
        if r.stats.max_inflight > max {
            d.push(format!(
                "{} in flight, expected at most {max}",
                r.stats.max_inflight
            ));
        }
    }
    d
}

/// Deviations of a rebuilt run from the lab runner's outcome of the same
/// scenario.
fn lab_deviations(r: &Rebuilt, lab: &ScenarioOutcome) -> Vec<String> {
    let mut d = Vec::new();
    if r.stats != lab.stats {
        d.push(format!(
            "counters differ from the lab runner's ({} vs {} pulses, max in flight {} vs {})",
            r.stats.sent_total, lab.stats.sent_total, r.stats.max_inflight, lab.stats.max_inflight
        ));
    }
    if r.success != lab.success || r.error != lab.error {
        d.push("outcome differs from the lab runner's".to_string());
    }
    d
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".to_string())
}

/// A one-cell campaign describing `scenarios`, for report rendering.
fn campaign_of(name: &str, cell: Cell, scenarios: &[Scenario]) -> Campaign {
    Campaign {
        families: vec![cell.family],
        modes: vec![cell.mode],
        encodings: vec![cell.encoding],
        workloads: vec![cell.workload],
        noises: vec![cell.noise],
        schedulers: vec![cell.scheduler],
        seeds: SeedRange {
            start: scenarios.first().map_or(0, |s| s.seed),
            count: u32::try_from(scenarios.len()).unwrap_or(u32::MAX),
        },
        max_steps: MAX_STEPS,
        ..Campaign::new(name)
    }
}

/// The three report formats the lab writes, and the seconds rendering took.
fn render_all(report: &CampaignReport) -> ([String; 3], f64) {
    timed(|| {
        [
            report.to_json_string(),
            report.to_csv(),
            report.to_markdown(),
        ]
    })
}

/// The block quantile reported as `ns_per_delivery`. The host this was
/// tuned on runs at one of two speeds, about 2x apart, switching every few
/// seconds; some 30-second runs never see the fast one, but every run
/// spends well over a tenth of its time in the slow one. The median block
/// lands on either speed from run to run; the 90th percentile reads the
/// slow (contended) speed in every run.
const BLOCK_QUANTILE: f64 = 0.9;

/// Samples of the timed phase of a ring or replay run.
#[derive(Debug, Default)]
struct Samples {
    /// ns per delivery of every full block of untraced units.
    blocks: Vec<f64>,
    /// Measured wall seconds of every untraced unit.
    walls: Vec<f64>,
    /// Seconds each untraced unit spent building its reactors.
    builds: Vec<f64>,
}

/// The end-to-end metrics of the ring and replay workloads, whose unit of
/// work is one simulation of `pulses` deliveries.
fn end_to_end(
    out: &mut Outcome,
    samples: &Samples,
    setups: &[f64],
    pulses: u64,
    unit: &str,
) -> Result<(), String> {
    let kept = &samples.blocks[WARMUP_BLOCKS.min(samples.blocks.len())..];
    let ns = quantile(kept, BLOCK_QUANTILE).ok_or("no full timing block was measured")?;
    let build = median(&samples.builds).ok_or("no unit was timed")?;
    let setup = median(setups).ok_or("no set-up was timed")?;
    // A unit's wall time at that delivery rate: measured unit walls
    // straddle both host speeds (they are printed below, unbounded).
    let wall = pulses as f64 * ns * 1e-9 + build;
    out.metric(
        "ns_per_delivery",
        ns,
        "ns",
        format!(
            "90th percentile of {} blocks of {BLOCK} deliveries (median {:.1})",
            kept.len(),
            median(kept).unwrap_or(0.0)
        ),
    );
    out.metric(
        "wall_s",
        wall,
        "s",
        format!("one {unit}: {pulses} deliveries at that rate plus its median reactor build"),
    );
    out.metric(
        "setup_s",
        setup,
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    out.metric(
        "scenarios_per_s",
        1.0 / wall,
        "1/s",
        format!("{unit}s per second at that rate"),
    );
    out.metric("peak_rss_mb", peak_rss_mb()?, "MB", "VmHWM".to_string());
    out.metric(
        "pulses",
        pulses as f64,
        "count",
        format!("simulated pulses of one {unit}"),
    );
    scenario_quantiles(out, &samples.walls, unit);
    Ok(())
}

/// Median and 99th percentile of per-scenario times, reported unbounded: on
/// a host that switches speed they move with the share of slow time.
fn scenario_quantiles(out: &mut Outcome, walls: &[f64], unit: &str) {
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    for (name, q) in [("scenario_ms_p50", 0.5), ("scenario_ms_p99", 0.99)] {
        out.metric(
            name,
            quantile(&ms, q).unwrap_or(0.0),
            "ms",
            format!("measured, {} {unit}s", ms.len()),
        );
    }
}

/// Everything a traced run gathers besides the end-to-end samples.
#[derive(Debug, Default)]
struct LayerRun {
    totals: LayerTotals,
    traced_blocks: Vec<f64>,
    untraced_run_s: f64,
    untraced_deliveries: u64,
    traced_run_s: f64,
    restore_ms: Vec<f64>,
    runner_ms: Vec<f64>,
    pulses: u64,
    inner_sends: u64,
    max_inflight: u64,
    queue_ops: Vec<f64>,
    cc_init: u64,
    topology_ms: f64,
    baseline_ms: Vec<f64>,
    hit_ratio: f64,
    render_ms: Vec<f64>,
    report_bytes: f64,
    busy_frac: Vec<f64>,
    link_ns_d3: f64,
    link_ns_d128: f64,
    stats_ns: f64,
}

fn per_call(total_ns: f64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns / calls as f64
    }
}

/// Emits every per-layer metric of a traced run.
fn per_layer(out: &mut Outcome, l: &LayerRun, untraced_blocks: &[f64]) {
    let t = &l.totals;
    // Alternating traced and untraced units see the same host; blocks give
    // a median, whole runs (campaign scenarios are shorter than a block) a
    // ratio of sums.
    let untraced_ns = median(untraced_blocks)
        .unwrap_or(l.untraced_run_s * 1e9 / l.untraced_deliveries.max(1) as f64);
    let overhead = match median(&l.traced_blocks) {
        Some(traced) if !untraced_blocks.is_empty() => traced / untraced_ns - 1.0,
        _ => l.traced_run_s / l.untraced_run_s - 1.0,
    };
    let steps = t.step.calls;
    let m = |v: &[f64]| median(v).unwrap_or(0.0);
    let sampled = format!("{steps} timed steps");
    out.metric(
        "scheduler.next_link_ns",
        t.scheduler.self_per_call(),
        "ns",
        sampled.clone(),
    );
    out.metric(
        "noise.deliver_ns",
        t.noise.self_per_call(),
        "ns",
        sampled.clone(),
    );
    out.metric(
        "sim.self_ns",
        t.step.self_per_call(),
        "ns",
        "step minus scheduler, noise and reactor".to_string(),
    );
    out.metric(
        "links.push_pop_ns_d3",
        l.link_ns_d3,
        "ns",
        "isolated LinkTable drive".to_string(),
    );
    out.metric(
        "links.push_pop_ns_d128",
        l.link_ns_d128,
        "ns",
        "isolated LinkTable drive".to_string(),
    );
    out.metric(
        "links.max_inflight",
        l.max_inflight as f64,
        "count",
        String::new(),
    );
    out.metric(
        "links.queue_ops",
        m(&l.queue_ops),
        "count",
        "per unit of work".to_string(),
    );
    out.metric(
        "stats.record_ns",
        l.stats_ns,
        "ns",
        "isolated Stats drive".to_string(),
    );
    out.metric(
        "engine.on_message_ns",
        t.engine.self_per_call(),
        "ns",
        format!("{} timed calls, inner protocol excluded", t.engine.calls),
    );
    out.metric(
        "engine.pulses_per_inner_msg",
        if l.inner_sends == 0 {
            0.0
        } else {
            l.pulses as f64 / l.inner_sends as f64
        },
        "ratio",
        String::new(),
    );
    out.metric(
        "construction.on_message_ns",
        t.construction.self_per_call(),
        "ns",
        format!("{} timed calls", t.construction.calls),
    );
    out.metric(
        "construction.cc_init",
        l.cc_init as f64,
        "count",
        String::new(),
    );
    out.metric(
        "checkpoint.restore_ms",
        m(&l.restore_ms),
        "ms",
        format!("{} restores", l.restore_ms.len()),
    );
    out.metric(
        "graph.topology_ms",
        l.topology_ms,
        "ms",
        "cold TopologyCache lookups".to_string(),
    );
    out.metric(
        "inner.on_deliver_ns",
        t.inner.self_per_call(),
        "ns",
        format!("{} calls", t.inner.calls),
    );
    out.metric(
        "baseline.run_ms",
        m(&l.baseline_ms),
        "ms",
        format!("{} direct runs", l.baseline_ms.len()),
    );
    out.metric(
        "runner.scenario_ms",
        m(&l.runner_ms),
        "ms",
        format!("{} lab runner scenarios", l.runner_ms.len()),
    );
    out.metric(
        "cache.baseline_hit_ratio",
        l.hit_ratio,
        "ratio",
        String::new(),
    );
    out.metric(
        "report.render_ms",
        m(&l.render_ms),
        "ms",
        "JSON, CSV and markdown".to_string(),
    );
    out.metric("report.bytes", l.report_bytes, "bytes", String::new());
    out.metric("rayon.busy_frac", m(&l.busy_frac), "ratio", String::new());
    out.metric(
        "trace.step_ns",
        per_call(t.whole_ns, steps),
        "ns",
        format!(
            "traced whole per timed step, tracer cost ({:.1} ns per span) removed; untraced {:.1} ns per delivery",
            t.cal.span_ns, untraced_ns
        ),
    );
    out.metric(
        "trace.overhead_frac",
        overhead,
        "ratio",
        "traced over untraced ns per delivery, minus 1".to_string(),
    );
}

/// Runs units of one cell back to back until `seconds` have passed (at least
/// one). `seeds` gives each unit's scenario. In a traced run every unit is
/// first run by the lab's own runner and the rebuilt run is compared with it;
/// units then alternate between untraced and traced rebuilds.
#[allow(clippy::too_many_arguments)]
fn unit_loop(
    caches: &Caches,
    seeds: impl Fn(u64) -> Scenario,
    mut between_units: impl FnMut() -> Result<(), String>,
    settings: Settings,
    check: impl Fn(&Rebuilt) -> Vec<String>,
    out: &mut Outcome,
    samples: &mut Samples,
    layers: &mut LayerRun,
    lab_outcomes: &mut Vec<ScenarioOutcome>,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let phase = Clock::start();
    let mut k = 0u64;
    let mut unit_secs = 0.0;
    let mut last_secs = 0.0;
    // Stop when another unit would end past the deadline by more than half
    // of itself, so a run overshoots `seconds` by at most half a unit.
    while k == 0 || phase.secs() + last_secs / 2.0 < settings.seconds {
        let unit_start = phase.secs();
        between_units()?;
        let s = seeds(k);
        let traced = settings.trace && k % 2 == 1;
        let lab = if settings.trace {
            let (o, secs) = timed(|| run_scenario_with(caches, s));
            layers.runner_ms.push(secs * 1e3);
            unit_secs += secs;
            Some(o)
        } else {
            None
        };
        let sends_before = tracer.inner_sends();
        let make = |g: &Graph, v: NodeId| s.cell.workload.build(g, v);
        let mut unit_blocks = Vec::new();
        let (r, secs) = if traced {
            timed(|| {
                rebuild(
                    caches,
                    &s,
                    |g, v| TimedInner::new(make(g, v), &tracer),
                    Some(&tracer),
                    &mut unit_blocks,
                )
            })
        } else {
            timed(|| rebuild(caches, &s, make, None, &mut unit_blocks))
        };
        let r = r?;
        unit_secs += secs;
        let mut d = check(&r);
        if let Some(lab) = &lab {
            d.extend(lab_deviations(&r, lab));
        }
        out.checked(&format!("seed {}", s.seed), d);
        if traced {
            layers.traced_blocks.extend(&unit_blocks);
            layers.traced_run_s += r.run_s;
            layers.pulses += r.stats.sent_total;
            layers.inner_sends += tracer.inner_sends() - sends_before;
        } else {
            layers.untraced_run_s += r.run_s;
            layers.untraced_deliveries += r.stats.delivered_total;
            samples.blocks.extend(&unit_blocks);
            samples.walls.push(secs);
            samples.builds.push(r.build_s);
            layers.restore_ms.push(r.build_s * 1e3);
        }
        layers.max_inflight = layers.max_inflight.max(r.stats.max_inflight);
        layers.queue_ops.push(r.queue_ops as f64);
        if let Some(lab) = lab {
            lab_outcomes.push(lab);
        }
        k += 1;
        last_secs = phase.secs() - unit_start;
    }
    layers.busy_frac.push(unit_secs / phase.secs());
    if settings.trace {
        layers.totals = tracer.analyse()?;
        write_spans(&tracer, out);
    }
    Ok(())
}

/// Spans written out per traced run (the analysis uses all of them).
const WRITTEN_SPANS: usize = 200_000;

/// Writes the first [`WRITTEN_SPANS`] spans of a traced run to
/// `.bench_out/spans.tsv` under the working directory, and notes where.
fn write_spans(tracer: &Tracer, out: &mut Outcome) {
    let mut text = String::from("layer\tparent\tstart_ns\tend_ns\n");
    tracer.write_spans(&mut text, WRITTEN_SPANS);
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join("spans.tsv");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => out.notes.push(format!(
            "spans: the first {} of {} written to {}",
            WRITTEN_SPANS.min(tracer.span_count()),
            tracer.span_count(),
            path.display()
        )),
        Err(e) => out.notes.push(format!(
            "spans: {} kept, not written: {e}",
            tracer.span_count()
        )),
    }
}

/// The layer facts every traced ring or replay run adds after its units.
fn finish_layers(
    layers: &mut LayerRun,
    caches: &Caches,
    cell: Cell,
    name: &str,
    graph: &Graph,
    lab_outcomes: &[ScenarioOutcome],
) -> Result<(), String> {
    layers.link_ns_d3 = layers::link_push_pop_ns(graph, 3, LINK_PAIRS);
    layers.link_ns_d128 = layers::link_push_pop_ns(graph, 128, LINK_PAIRS);
    layers.stats_ns = layers::stats_record_ns(graph, STATS_MESSAGES);
    layers.topology_ms = layers::topology_ms(&[cell.family]);
    for o in lab_outcomes.iter().take(3) {
        let b = layers::baseline_run(
            graph,
            cell.workload,
            cell.scheduler,
            o.scenario.seed,
            MAX_STEPS,
        )?;
        if b.messages != o.baseline_messages {
            return Err(format!(
                "rebuilt baseline sent {} messages, the lab runner {}",
                b.messages, o.baseline_messages
            ));
        }
        layers.baseline_ms.push(b.ms);
    }
    let lookups = lab_outcomes.len() as f64;
    layers.hit_ratio = (lookups - caches.baseline.len() as f64) / lookups;
    let scenarios: Vec<Scenario> = lab_outcomes.iter().map(|o| o.scenario).collect();
    let report = aggregate(
        &campaign_of(name, cell, &scenarios),
        lab_outcomes,
        &[],
        &caches.topology,
    );
    let (texts, secs) = render_all(&report);
    layers.render_ms.push(secs * 1e3);
    layers.report_bytes = texts.iter().map(String::len).sum::<usize>() as f64;
    Ok(())
}

/// One `ring-flood` set-up from cold caches: topology and reference cycle,
/// reactors, simulator. Returns the warm caches and the seconds it took.
fn ring_setup(cell: Cell) -> Result<(Caches, f64), String> {
    let caches = Caches::new();
    let (built, secs) = timed(|| -> Result<(), String> {
        let topo = caches.topology.get(cell.family)?;
        let graph = &topo.graph;
        let cycle = topo.cycle.as_ref().map_err(Clone::clone)?;
        let nodes = cycle_simulators_prevalidated(graph, cycle, cell.encoding.build(), |v| {
            cell.workload.build(graph, v)
        })
        .map_err(|e| e.to_string())?;
        black_box(Simulation::new(graph.clone(), nodes).map_err(|e| e.to_string())?);
        Ok(())
    });
    built?;
    Ok((caches, secs))
}

fn ring_flood(settings: Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cell = ring_cell();
    let mut setups = Vec::new();
    let mut caches = Caches::new();
    for _ in 0..SETUP_REPS {
        let (warm, secs) = ring_setup(cell)?;
        setups.push(secs);
        caches = warm;
    }
    out.notes
        .push(format!("ring-flood: seed {}", settings.seed));
    let mut samples = Samples::default();
    let mut layers = LayerRun::default();
    let mut lab_outcomes = Vec::new();
    unit_loop(
        &caches,
        |_| scenario(cell, settings.seed, settings.seed),
        // Set-up takes under a millisecond: repeating it between units
        // spreads its samples over both host speeds.
        || {
            setups.push(ring_setup(cell)?.1);
            Ok(())
        },
        settings,
        |r| unit_deviations(r, RING_PULSES, Some(RING_MAX_INFLIGHT)),
        &mut out,
        &mut samples,
        &mut layers,
        &mut lab_outcomes,
    )?;
    if settings.trace {
        let topo = caches.topology.get(cell.family)?;
        // Ring units build fresh reactors; there is no checkpoint to restore.
        layers.restore_ms.clear();
        finish_layers(
            &mut layers,
            &caches,
            cell,
            "ring-flood",
            &topo.graph,
            &lab_outcomes,
        )?;
        per_layer(&mut out, &layers, &samples.blocks);
    } else {
        end_to_end(&mut out, &samples, &setups, RING_PULSES, "run")?;
    }
    Ok(out)
}

fn chorded_replay(settings: Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cell = chorded_cell();
    let key = replay_key(&scenario(cell, 0, CHORDED_CONSTRUCTION_SEED));
    let mut setups = Vec::new();
    let mut caches = Caches::new();
    for _ in 0..CHORDED_SETUP_REPS {
        let fresh = Caches::new();
        let (built, secs) = timed(|| -> Result<(), String> {
            let topo = fresh.topology.get(cell.family)?;
            let graph = &topo.graph;
            let c = fresh.construction.get(&fresh.topology, key)?;
            let nodes = replay_simulators(graph, &c.checkpoint, |v| cell.workload.build(graph, v))
                .map_err(|e| e.to_string())?;
            black_box(
                Simulation::from_parts(graph.clone(), c.links.clone(), nodes)
                    .map_err(|e| e.to_string())?,
            );
            Ok(())
        });
        built?;
        setups.push(secs);
        let c = fresh.construction.get(&fresh.topology, key)?;
        let mut d = Vec::new();
        if c.checkpoint.cc_init() != CHORDED_CC_INIT {
            d.push(format!(
                "CCinit {}, expected {CHORDED_CC_INIT}",
                c.checkpoint.cc_init()
            ));
        }
        if c.checkpoint.cycle().len() != CHORDED_CYCLE_LEN {
            d.push(format!(
                "|C| = {}, expected {CHORDED_CYCLE_LEN}",
                c.checkpoint.cycle().len()
            ));
        }
        out.checked("construction", d);
        caches = fresh;
    }
    out.notes.push(format!(
        "chorded-replay: construction seed {CHORDED_CONSTRUCTION_SEED}, online seeds {}, {}, ... from seed {}",
        online_seed(settings.seed, 0),
        online_seed(settings.seed, 1),
        settings.seed
    ));
    let mut layers = LayerRun::default();
    if settings.trace {
        let tracer = Tracer::new();
        let lab = caches.construction.get(&caches.topology, key)?;
        let traced = traced_construction(&caches.topology, key, &tracer)?;
        let mut d = Vec::new();
        if traced.checkpoint.cc_init() != lab.checkpoint.cc_init()
            || traced.checkpoint.cycle() != lab.checkpoint.cycle()
            || traced.steps != lab.construction_steps
        {
            d.push("traced construction differs from the lab's".to_string());
        }
        out.checked("traced construction", d);
        layers.totals = tracer.analyse()?;
        layers.cc_init = lab.checkpoint.cc_init();
    }
    let construction_totals = layers.totals;
    let mut samples = Samples::default();
    let mut lab_outcomes = Vec::new();
    unit_loop(
        &caches,
        |k| {
            scenario(
                cell,
                online_seed(settings.seed, k),
                CHORDED_CONSTRUCTION_SEED,
            )
        },
        || Ok(()),
        settings,
        |r| unit_deviations(r, CHORDED_ONLINE_PULSES, None),
        &mut out,
        &mut samples,
        &mut layers,
        &mut lab_outcomes,
    )?;
    if settings.trace {
        // The timed phase is the online one: only the construction layer
        // comes from the traced construct-once run.
        layers.totals.construction = construction_totals.construction;
        let topo = caches.topology.get(cell.family)?;
        finish_layers(
            &mut layers,
            &caches,
            cell,
            "chorded-replay",
            &topo.graph,
            &lab_outcomes,
        )?;
        per_layer(&mut out, &layers, &samples.blocks);
    } else {
        end_to_end(&mut out, &samples, &setups, CHORDED_ONLINE_PULSES, "seed")?;
    }
    Ok(out)
}

/// The `standard` preset, expanded, with a warm topology tier.
struct Prepared {
    campaign: Campaign,
    scenarios: Vec<Scenario>,
    skipped: Vec<fdn_lab::SkippedCell>,
    topology: TopologyCache,
}

fn prepare_standard() -> Result<Prepared, String> {
    let campaign = Campaign::preset("standard").map_err(|e| e.to_string())?;
    let (scenarios, skipped) = campaign.expand_with_skips();
    let topology = TopologyCache::new();
    for &f in &campaign.families {
        black_box(topology.get(f).ok());
    }
    Ok(Prepared {
        campaign,
        scenarios,
        skipped,
        topology,
    })
}

/// One timed campaign: what the lab's `run_campaign` does (parallel
/// `run_scenario_with` over shared caches, then `aggregate`), with each
/// scenario timed, plus rendering of the three report formats.
struct CampaignRun {
    outcomes: Vec<ScenarioOutcome>,
    texts: [String; 3],
    baseline_misses: usize,
    times: CampaignTimes,
}

/// The timings of one campaign.
struct CampaignTimes {
    /// Per scenario, in expansion order.
    scenario_ms: Vec<f64>,
    /// The parallel sweep.
    sweep_s: f64,
    /// Aggregation and rendering after the sweep.
    tail_s: f64,
    /// Rendering alone.
    render_s: f64,
}

fn campaign_once(p: &mut Prepared) -> CampaignRun {
    let caches = Caches {
        topology: std::mem::take(&mut p.topology),
        construction: ReplayCache::new(),
        baseline: BaselineCache::new(),
    };
    let clock = Clock::start();
    let timed_outcomes: Vec<(ScenarioOutcome, f64)> = p
        .scenarios
        .clone()
        .into_par_iter()
        .map(|s| {
            let start = clock.now_ns();
            let o = run_scenario_with(&caches, s);
            (o, (clock.now_ns() - start) as f64 * 1e-6)
        })
        .collect();
    let sweep_s = clock.secs();
    let (outcomes, scenario_ms): (Vec<_>, Vec<_>) = timed_outcomes.into_iter().unzip();
    let report = aggregate(&p.campaign, &outcomes, &p.skipped, &caches.topology);
    let (texts, render_s) = render_all(&report);
    let tail_s = clock.secs() - sweep_s;
    let baseline_misses = caches.baseline.len();
    p.topology = caches.topology;
    CampaignRun {
        outcomes,
        texts,
        baseline_misses,
        times: CampaignTimes {
            scenario_ms,
            sweep_s,
            tail_s,
            render_s,
        },
    }
}

fn campaign_deviations(run: &CampaignRun) -> (Vec<String>, u64) {
    let mut d = Vec::new();
    let mut bad = 0u64;
    for o in &run.outcomes {
        // Deletion-noise cells break the paper's no-deletion assumption and
        // fail by design; the report digest pins how they fail.
        if !o.scenario.cell.noise.deletes() && !o.success {
            bad += 1;
            if d.len() < 5 {
                d.push(format!("{} did not succeed", o.scenario.id()));
            }
        }
    }
    let pinned = [
        ("json", STANDARD_JSON_FNV),
        ("csv", STANDARD_CSV_FNV),
        ("markdown", STANDARD_MD_FNV),
    ];
    let mut digest_ok = true;
    for ((what, want), text) in pinned.iter().zip(&run.texts) {
        let got = fnv1a64(text.as_bytes());
        if got != *want {
            digest_ok = false;
            d.push(format!(
                "{what} report digest {got:#018x}, expected {want:#018x}"
            ));
        }
    }
    if run.outcomes.len() != STANDARD_SCENARIOS {
        digest_ok = false;
        d.push(format!(
            "{} scenarios, expected {STANDARD_SCENARIOS}",
            run.outcomes.len()
        ));
    }
    // A digest mismatch cannot say which scenario deviated: all count.
    let failed = if digest_ok {
        bad
    } else {
        run.outcomes.len() as u64
    };
    (d, failed)
}

fn standard_campaign(settings: Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let threads = CAMPAIGN_THREADS.min(
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    );
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| e.to_string())?;
    out.notes.push(format!(
        "standard-campaign: {threads} threads; the preset fixes its own seeds"
    ));
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (p, secs) = timed(prepare_standard);
        setups.push(secs);
        prepared = Some(p?);
    }
    let mut p = prepared.ok_or("no set-up ran")?;
    let phase = Clock::start();
    let mut first: Option<CampaignRun> = None;
    let mut times: Vec<CampaignTimes> = Vec::new();
    // At least two campaigns (the estimator below compares them); beyond
    // that, as in `unit_loop`, overshoot `seconds` by at most half a one.
    while times.len() < 2
        || times
            .last()
            .is_some_and(|t| phase.secs() + (t.sweep_s + t.tail_s) / 2.0 < settings.seconds)
    {
        // Set-up takes under a millisecond: repeating it between campaigns
        // spreads its samples over both host speeds.
        for _ in 0..SETUP_REPS {
            let (fresh, secs) = timed(prepare_standard);
            fresh?;
            setups.push(secs);
        }
        let run = campaign_once(&mut p);
        let (d, failed) = campaign_deviations(&run);
        out.attempted += run.outcomes.len() as u64;
        out.failed += failed;
        out.deviations.extend(d);
        times.push(run.times);
        if first.is_none() {
            first = Some(CampaignRun {
                times: CampaignTimes {
                    scenario_ms: Vec::new(),
                    sweep_s: 0.0,
                    tail_s: 0.0,
                    render_s: 0.0,
                },
                ..run
            });
        }
    }
    let first = first.ok_or("no campaign ran")?;
    let deliveries: u64 = first.outcomes.iter().map(|o| o.steps).sum();
    let pulses: u64 = first.outcomes.iter().map(|o| o.stats.sent_total).sum();
    let scenario_ms: Vec<f64> = times.iter().flat_map(|t| t.scenario_ms.clone()).collect();
    if settings.trace {
        let mut layers = LayerRun::default();
        let lookups = first
            .outcomes
            .iter()
            .filter(|o| o.scenario.cell.workload.supports_direct())
            .count() as f64;
        layers.hit_ratio = (lookups - first.baseline_misses as f64) / lookups;
        layers.runner_ms = scenario_ms;
        layers.render_ms = times.iter().map(|t| t.render_s * 1e3).collect();
        layers.report_bytes = first.texts.iter().map(String::len).sum::<usize>() as f64;
        layers.busy_frac = times
            .iter()
            .map(|t| t.scenario_ms.iter().sum::<f64>() * 1e-3 / (t.sweep_s * threads as f64))
            .collect();
        layers.cc_init = first.outcomes.iter().map(|o| o.cc_init).sum();
        layers.topology_ms = layers::topology_ms(&p.campaign.families);
        trace_campaign_subset(&mut out, &mut layers, &first)?;
        per_layer(&mut out, &layers, &[]);
    } else {
        // Each scenario at its slowest over the run's campaigns: like the
        // 90th-percentile block of the other workloads, the host's contended
        // speed, which every run visits (a whole campaign averages over both
        // speeds in a share that changes from run to run). The sweep's
        // threads share that work, then aggregation and rendering follow.
        let contended_s: f64 = (0..STANDARD_SCENARIOS)
            .map(|i| {
                times
                    .iter()
                    .filter_map(|t| t.scenario_ms.get(i))
                    .fold(0.0, |a: f64, &b| a.max(b))
            })
            .sum::<f64>()
            * 1e-3;
        let tail = median(&times.iter().map(|t| t.tail_s).collect::<Vec<_>>()).unwrap_or(0.0);
        let wall = contended_s / threads as f64 + tail;
        let measured: Vec<f64> = times.iter().map(|t| t.sweep_s + t.tail_s).collect();
        out.metric(
            "ns_per_delivery",
            wall * 1e9 / deliveries as f64,
            "ns",
            format!("wall_s over the campaign's {deliveries} deliveries"),
        );
        out.metric(
            "wall_s",
            wall,
            "s",
            format!(
                "slowest of {} campaigns per scenario, over {threads} threads, plus aggregation and rendering",
                times.len()
            ),
        );
        out.metric(
            "setup_s",
            median(&setups).unwrap_or(0.0),
            "s",
            format!("median of {} set-ups", setups.len()),
        );
        out.metric(
            "scenarios_per_s",
            STANDARD_SCENARIOS as f64 / wall,
            "1/s",
            "scenarios over wall_s".to_string(),
        );
        out.metric(
            "campaign_wall_s",
            median(&measured).unwrap_or(0.0),
            "s",
            format!("measured, median of {} campaigns", measured.len()),
        );
        let scenario_s: Vec<f64> = scenario_ms.iter().map(|ms| ms * 1e-3).collect();
        scenario_quantiles(&mut out, &scenario_s, "scenario");
        out.metric("peak_rss_mb", peak_rss_mb()?, "MB", "VmHWM".to_string());
        out.metric(
            "pulses",
            pulses as f64,
            "count",
            "simulated pulses of one campaign".to_string(),
        );
    }
    Ok(out)
}

/// Rebuilds every [`CAMPAIGN_TRACE_STRIDE`]-th scenario of the campaign
/// twice, untraced and traced, single-threaded, and checks both against the
/// campaign's own outcome.
fn trace_campaign_subset(
    out: &mut Outcome,
    layers: &mut LayerRun,
    run: &CampaignRun,
) -> Result<(), String> {
    let caches = Caches::new();
    let tracer = Tracer::new();
    let mut largest: Option<&Graph> = None;
    let mut topos = Vec::new();
    for o in run.outcomes.iter().step_by(CAMPAIGN_TRACE_STRIDE) {
        let s = o.scenario;
        let make = |g: &Graph, v: NodeId| -> BoxedProtocol { s.cell.workload.build(g, v) };
        let plain = rebuild(&caches, &s, make, None, &mut Vec::new())?;
        let sends_before = tracer.inner_sends();
        let traced = rebuild(
            &caches,
            &s,
            |g, v| TimedInner::new(make(g, v), &tracer),
            Some(&tracer),
            &mut Vec::new(),
        )?;
        let mut d = lab_deviations(&plain, o);
        d.extend(lab_deviations(&traced, o));
        out.checked(&format!("rebuilt {}", s.id()), d);
        layers.untraced_run_s += plain.run_s;
        layers.untraced_deliveries += plain.stats.delivered_total;
        layers.traced_run_s += traced.run_s;
        layers.max_inflight = layers.max_inflight.max(traced.stats.max_inflight);
        layers.queue_ops.push(traced.queue_ops as f64);
        if s.cell.mode == EngineMode::CycleOnly {
            layers.pulses += traced.stats.sent_total;
            layers.inner_sends += tracer.inner_sends() - sends_before;
        }
        if s.cell.workload.supports_direct() && layers.baseline_ms.len() < 50 {
            let topo = caches.topology.get(s.cell.family)?;
            let b = layers::baseline_run(
                &topo.graph,
                s.cell.workload,
                s.cell.scheduler,
                s.seed,
                s.max_steps,
            )?;
            if b.messages != o.baseline_messages {
                return Err(format!(
                    "{}: rebuilt baseline sent {} messages, the lab runner {}",
                    s.id(),
                    b.messages,
                    o.baseline_messages
                ));
            }
            layers.baseline_ms.push(b.ms);
        }
        topos.push(caches.topology.get(s.cell.family)?);
    }
    for t in &topos {
        if largest.is_none_or(|g| t.graph.edge_count() > g.edge_count()) {
            largest = Some(&t.graph);
        }
    }
    let graph = largest.ok_or("no scenario was traced")?;
    layers.link_ns_d3 = layers::link_push_pop_ns(graph, 3, LINK_PAIRS);
    layers.link_ns_d128 = layers::link_push_pop_ns(graph, 128, LINK_PAIRS);
    layers.stats_ns = layers::stats_record_ns(graph, STATS_MESSAGES);
    layers.totals = tracer.analyse()?;
    write_spans(&tracer, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure3(mode: EngineMode) -> Scenario {
        let cell = Cell {
            family: GraphFamily::Figure3,
            mode,
            encoding: EncodingSpec::Binary,
            workload: WorkloadSpec::Flood { payload_bytes: 3 },
            noise: NoiseSpec::FullCorruption,
            scheduler: SchedulerSpec::Random,
            link_store: LinkStore::Exact,
        };
        Scenario {
            max_steps: 2_000_000,
            ..scenario(cell, 7, 3)
        }
    }

    #[test]
    fn decorators_are_transparent_on_figure3_in_every_engine_mode() {
        for mode in EngineMode::ALL {
            let s = figure3(mode);
            let caches = Caches::new();
            let lab = run_scenario_with(&caches, s);
            assert!(lab.success, "{mode}: the lab run succeeds");
            let tracer = Tracer::new();
            let make = |g: &Graph, v: NodeId| s.cell.workload.build(g, v);
            let plain = rebuild(&caches, &s, make, None, &mut Vec::new()).unwrap();
            let traced = rebuild(
                &caches,
                &s,
                |g, v| TimedInner::new(make(g, v), &tracer),
                Some(&tracer),
                &mut Vec::new(),
            )
            .unwrap();
            assert!(lab_deviations(&plain, &lab).is_empty(), "{mode}: untraced");
            assert!(lab_deviations(&traced, &lab).is_empty(), "{mode}: traced");
            let t = tracer.analyse().unwrap();
            assert!(t.step.calls > 0 && t.scheduler.calls == t.step.calls);
            assert!(tracer.inner_sends() > 0);
        }
    }

    #[test]
    fn a_rebuild_with_other_seeds_trips_the_lab_comparison() {
        let s = figure3(EngineMode::CycleOnly);
        let caches = Caches::new();
        let lab = run_scenario_with(&caches, s);
        let mut reseeded = s;
        reseeded.seed ^= 1;
        let make = |g: &Graph, v: NodeId| s.cell.workload.build(g, v);
        let other = rebuild(&caches, &reseeded, make, None, &mut Vec::new()).unwrap();
        assert!(!lab_deviations(&other, &lab).is_empty());
    }

    #[test]
    fn traced_construction_matches_the_lab_cache() {
        let s = figure3(EngineMode::Replay);
        let caches = Caches::new();
        let key = replay_key(&s);
        let lab = caches.construction.get(&caches.topology, key).unwrap();
        let tracer = Tracer::new();
        let traced = traced_construction(&caches.topology, key, &tracer).unwrap();
        assert_eq!(traced.checkpoint.cc_init(), lab.checkpoint.cc_init());
        assert_eq!(traced.checkpoint.cycle(), lab.checkpoint.cycle());
        assert_eq!(traced.steps, lab.construction_steps);
        assert!(tracer.analyse().unwrap().construction.calls > 0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("ring"), None);
    }

    #[test]
    fn online_seeds_are_distinct_and_reproducible() {
        let a: Vec<u64> = (0..5).map(|k| online_seed(9, k)).collect();
        let b: Vec<u64> = (0..5).map(|k| online_seed(9, k)).collect();
        assert_eq!(a, b);
        assert_ne!(online_seed(9, 0), online_seed(10, 0));
    }
}
