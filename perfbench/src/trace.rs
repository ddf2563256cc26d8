//! Transparent tracing decorators and the span analysis behind the per-layer
//! metrics.
//!
//! The traced run wraps the real objects through the library's public traits
//! only: a [`Scheduler`] and a [`NoiseModel`] (installed with
//! `with_*_boxed`), every node's [`Reactor`], and every node's
//! [`InnerProtocol`]. Each wrapper forwards every call unchanged, so a traced
//! run delivers the same messages in the same order as an untraced one; the
//! workloads check that by comparing [`fdn_netsim::StatsSnapshot`]s.
//!
//! Timing every delivery doubles the cost of a cheap one, so only one step in
//! [`SAMPLE_EVERY`] is timed: the stepping loop opens a `Step` span around
//! `Simulation::step`, and while that span is open the scheduler, noise and
//! reactor wrappers open child spans. Inner-protocol deliveries are rare and
//! always timed. Spans stay in memory until the run ends, when
//! [`Tracer::analyse`] turns them into per-layer self times.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;

use fdn_core::{ConstructionSimulator, CycleSimulator, FullSimulator};
use fdn_graph::NodeId;
use fdn_netsim::{
    Context, Envelope, InnerProtocol, LinkId, LinkView, NoiseModel, ProtocolIo, Reactor, Scheduler,
};

use crate::clock::Clock;
use crate::estimate::median;

/// One step in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Parent index of a span opened outside any other span.
const ROOT: u32 = u32::MAX;

/// Spans per storage chunk: fixed-size chunks never move, so a timed step
/// never pays for copying the spans recorded before it.
const CHUNK: usize = 1 << 16;

/// The layer a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `Simulation::step`: its self time is the simulator's own work
    /// (links, stats, `Context`, adjacency copy).
    Step,
    /// `Scheduler::next_link`.
    Scheduler,
    /// `NoiseModel::deliver`.
    Noise,
    /// A reactor delivery in the online simulation engine.
    Engine,
    /// A reactor delivery during the Robbins-cycle construction.
    Construction,
    /// `InnerProtocol::on_deliver`.
    Inner,
    /// An empty pair of nested spans recorded after every timed step: the
    /// tracer's own cost, in the host state of that moment.
    Tracer,
}

impl Layer {
    fn label(self) -> &'static str {
        match self {
            Layer::Step => "step",
            Layer::Scheduler => "scheduler",
            Layer::Noise => "noise",
            Layer::Engine => "engine",
            Layer::Construction => "construction",
            Layer::Inner => "inner",
            Layer::Tracer => "tracer",
        }
    }
}

/// One timed interval, in nanoseconds of the tracer's clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer the interval is charged to.
    pub layer: Layer,
    /// Index of the enclosing span, or `ROOT`.
    pub parent: u32,
    /// Start time.
    pub start: u64,
    /// End time (0 while open).
    pub end: u64,
}

/// The in-memory span store shared by every wrapper of one traced run.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    sampling: Cell<bool>,
    parent: Cell<u32>,
    spans: RefCell<Vec<Vec<Span>>>,
    inner_sends: Cell<u64>,
}

/// A handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: u32,
    prev_parent: u32,
}

impl Tracer {
    /// A tracer with no spans, not sampling.
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            clock: Clock::start(),
            sampling: Cell::new(false),
            parent: Cell::new(ROOT),
            spans: RefCell::new(Vec::new()),
            inner_sends: Cell::new(0),
        })
    }

    /// Whether the current step is timed.
    pub fn sampling(&self) -> bool {
        self.sampling.get()
    }

    /// Marks the next step as timed or not.
    pub fn set_sampling(&self, on: bool) {
        self.sampling.set(on);
    }

    /// Opens a span of `layer` inside the innermost open span.
    pub fn open(&self, layer: Layer) -> Open {
        let mut chunks = self.spans.borrow_mut();
        if chunks.last().is_none_or(|c| c.len() == CHUNK) {
            chunks.push(Vec::with_capacity(CHUNK));
        }
        let last = chunks.len() - 1;
        let index = u32::try_from(last * CHUNK + chunks[last].len())
            .expect("fewer than 2^32 spans per run");
        let prev_parent = self.parent.get();
        chunks[last].push(Span {
            layer,
            parent: prev_parent,
            start: self.clock.now_ns(),
            end: 0,
        });
        self.parent.set(index);
        Open { index, prev_parent }
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, open: Open) {
        let end = self.clock.now_ns();
        let i = open.index as usize;
        self.spans.borrow_mut()[i / CHUNK][i % CHUNK].end = end;
        self.parent.set(open.prev_parent);
    }

    /// Records one empty pair of nested spans, from which the analysis
    /// measures what the tracer itself adds to a span.
    pub fn calibrate_once(&self) {
        let outer = self.open(Layer::Tracer);
        let inner = self.open(Layer::Tracer);
        self.close(inner);
        self.close(outer);
    }

    /// Messages the inner protocols sent (on start and on delivery).
    pub fn inner_sends(&self) -> u64 {
        self.inner_sends.get()
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.borrow().iter().map(Vec::len).sum()
    }

    /// Every span, in opening order.
    fn all_spans(&self) -> Vec<Span> {
        self.spans.borrow().iter().flatten().copied().collect()
    }

    /// Writes the first `limit` spans, one tab-separated line each: layer,
    /// parent index (-1 for none), start and end in nanoseconds.
    pub fn write_spans(&self, out: &mut String, limit: usize) {
        for s in self.spans.borrow().iter().flatten().take(limit) {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}",
                s.layer.label(),
                parent,
                s.start,
                s.end
            );
        }
    }

    /// Turns the recorded spans into per-layer self times, with the tracer's
    /// own cost, measured on the calibration pairs recorded alongside the
    /// timed steps, taken out of every span.
    ///
    /// # Errors
    ///
    /// Fails when a span was left open or a child span lies outside its
    /// parent — either means a wrapper missed a call.
    pub fn analyse(&self) -> Result<LayerTotals, String> {
        let spans = self.all_spans();
        let (mut empty, mut outer) = (Vec::new(), Vec::new());
        for pair in spans.windows(2) {
            let (o, i) = (&pair[0], &pair[1]);
            if o.layer == Layer::Tracer && o.parent == ROOT && i.layer == Layer::Tracer {
                let inner = i.end.saturating_sub(i.start) as f64;
                empty.push(inner);
                outer.push(o.end.saturating_sub(o.start) as f64 - inner);
            }
        }
        let span_ns = median(&empty).unwrap_or(0.0);
        let cal = Calibration {
            span_ns,
            per_child_ns: median(&outer).map_or(0.0, |o| o - span_ns),
        };
        analyse_spans(&spans, cal)
    }
}

/// [`Tracer::analyse`] with a given calibration.
fn analyse_spans(spans: &[Span], cal: Calibration) -> Result<LayerTotals, String> {
    let mut children_ns = vec![0u64; spans.len()];
    let mut children = vec![0u32; spans.len()];
    for s in spans {
        if s.end == 0 || s.end < s.start {
            return Err(format!("{} span left open", s.layer.label()));
        }
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            if s.start < p.start || s.end > p.end {
                return Err(format!(
                    "{} span outside its {} parent",
                    s.layer.label(),
                    p.layer.label()
                ));
            }
            children_ns[s.parent as usize] += s.end - s.start;
            children[s.parent as usize] += 1;
        }
    }
    let mut t = LayerTotals {
        cal,
        ..LayerTotals::default()
    };
    // Spans are stored in opening order, so a parent precedes its children
    // and one pass marks every span inside a timed step.
    let mut in_step = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_step[i] = s.layer == Layer::Step || (s.parent != ROOT && in_step[s.parent as usize]);
        let own = (s.end - s.start - children_ns[i]) as f64
            - cal.span_ns
            - f64::from(children[i]) * cal.per_child_ns;
        if in_step[i] {
            t.whole_ns += own;
        }
        match s.layer {
            Layer::Step => t.step.add(own),
            Layer::Scheduler => t.scheduler.add(own),
            Layer::Noise => t.noise.add(own),
            Layer::Engine => t.engine.add(own),
            Layer::Construction => t.construction.add(own),
            Layer::Inner => t.inner.add(own),
            Layer::Tracer => {}
        }
    }
    Ok(t)
}

/// What the tracer itself adds to the spans it records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Calibration {
    /// Duration of a span with nothing inside it.
    pub span_ns: f64,
    /// Extra time an empty child span adds to its parent beyond its own
    /// duration.
    pub per_child_ns: f64,
}

/// Calls and summed self time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerSum {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time: durations minus child spans and tracer cost.
    pub self_ns: f64,
}

impl LayerSum {
    fn add(&mut self, own: f64) {
        self.calls += 1;
        self.self_ns += own;
    }

    /// Mean self time per call (0 without calls).
    pub fn self_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns / self.calls as f64
        }
    }
}

/// Per-layer totals of one traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Timed steps (`self_ns` is the simulator's own share).
    pub step: LayerSum,
    /// Scheduler picks inside timed steps.
    pub scheduler: LayerSum,
    /// Noise calls inside timed steps.
    pub noise: LayerSum,
    /// Online-engine reactor calls inside timed steps (self time excludes
    /// the inner protocol).
    pub engine: LayerSum,
    /// Construction reactor calls inside timed steps.
    pub construction: LayerSum,
    /// Every inner-protocol delivery, timed step or not.
    pub inner: LayerSum,
    /// Self time of every span inside a timed step: the traced whole, which
    /// the step self time and the layer parts add up to.
    pub whole_ns: f64,
    /// The tracer cost taken out of every span.
    pub cal: Calibration,
}

/// Times `Scheduler::next_link` on timed steps.
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    tracer: Rc<Tracer>,
}

impl TracedScheduler {
    /// Wraps `inner`.
    pub fn boxed(inner: Box<dyn Scheduler>, tracer: &Rc<Tracer>) -> Box<dyn Scheduler> {
        Box::new(TracedScheduler {
            inner,
            tracer: Rc::clone(tracer),
        })
    }
}

impl Scheduler for TracedScheduler {
    fn next_link(&mut self, view: &LinkView<'_>) -> LinkId {
        if !self.tracer.sampling() {
            return self.inner.next_link(view);
        }
        let open = self.tracer.open(Layer::Scheduler);
        let link = self.inner.next_link(view);
        self.tracer.close(open);
        link
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times `NoiseModel::deliver` on timed steps.
pub struct TracedNoise {
    inner: Box<dyn NoiseModel>,
    tracer: Rc<Tracer>,
}

impl TracedNoise {
    /// Wraps `inner`.
    pub fn boxed(inner: Box<dyn NoiseModel>, tracer: &Rc<Tracer>) -> Box<dyn NoiseModel> {
        Box::new(TracedNoise {
            inner,
            tracer: Rc::clone(tracer),
        })
    }
}

impl NoiseModel for TracedNoise {
    fn corrupt(&mut self, env: &Envelope) -> Vec<u8> {
        self.inner.corrupt(env)
    }

    fn deliver(&mut self, env: &Envelope) -> Option<Vec<u8>> {
        if !self.tracer.sampling() {
            return self.inner.deliver(env);
        }
        let open = self.tracer.open(Layer::Noise);
        let out = self.inner.deliver(env);
        self.tracer.close(open);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A node reactor of one of the library's simulators: which layer its
/// deliveries belong to, and the engine error it holds, if any.
pub trait Node: Reactor {
    /// The layer the next delivery to this node is charged to.
    fn layer(&self) -> Layer;
    /// The node's engine error rendered as text.
    fn error_text(&self) -> Option<String>;
}

impl<P: InnerProtocol> Node for CycleSimulator<P> {
    fn layer(&self) -> Layer {
        Layer::Engine
    }

    fn error_text(&self) -> Option<String> {
        self.error().map(ToString::to_string)
    }
}

impl<P: InnerProtocol> Node for FullSimulator<P> {
    fn layer(&self) -> Layer {
        if self.is_online() {
            Layer::Engine
        } else {
            Layer::Construction
        }
    }

    fn error_text(&self) -> Option<String> {
        self.error().map(ToString::to_string)
    }
}

impl Node for ConstructionSimulator {
    fn layer(&self) -> Layer {
        Layer::Construction
    }

    fn error_text(&self) -> Option<String> {
        self.error().map(ToString::to_string)
    }
}

/// Times a node's deliveries on timed steps.
pub struct Traced<R> {
    node: R,
    tracer: Rc<Tracer>,
}

impl<R> Traced<R> {
    /// Wraps every node of `nodes`.
    pub fn all(nodes: Vec<R>, tracer: &Rc<Tracer>) -> Vec<Traced<R>> {
        nodes
            .into_iter()
            .map(|node| Traced {
                node,
                tracer: Rc::clone(tracer),
            })
            .collect()
    }

    /// Unwraps the node.
    pub fn into_node(self) -> R {
        self.node
    }
}

impl<R: Node> Reactor for Traced<R> {
    fn on_start(&mut self, ctx: &mut Context) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context) {
        if !self.tracer.sampling() {
            return self.node.on_message(from, payload, ctx);
        }
        let open = self.tracer.open(self.node.layer());
        self.node.on_message(from, payload, ctx);
        self.tracer.close(open);
    }

    fn output(&self) -> Option<Vec<u8>> {
        self.node.output()
    }
}

impl<R: Node> Node for Traced<R> {
    fn layer(&self) -> Layer {
        self.node.layer()
    }

    fn error_text(&self) -> Option<String> {
        self.node.error_text()
    }
}

/// Times every inner-protocol delivery and counts the messages the protocol
/// sends.
pub struct TimedInner<P> {
    inner: P,
    tracer: Rc<Tracer>,
}

impl<P> TimedInner<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, tracer: &Rc<Tracer>) -> Self {
        TimedInner {
            inner,
            tracer: Rc::clone(tracer),
        }
    }

    fn count_sends(&self, before: usize, io: &ProtocolIo) {
        let sent = io.pending().saturating_sub(before) as u64;
        self.tracer
            .inner_sends
            .set(self.tracer.inner_sends.get() + sent);
    }
}

impl<P: InnerProtocol> InnerProtocol for TimedInner<P> {
    fn on_init(&mut self, io: &mut ProtocolIo) {
        let before = io.pending();
        self.inner.on_init(io);
        self.count_sends(before, io);
    }

    fn on_deliver(&mut self, from: NodeId, payload: &[u8], io: &mut ProtocolIo) {
        let before = io.pending();
        let open = self.tracer.open(Layer::Inner);
        self.inner.on_deliver(from, payload, io);
        self.tracer.close(open);
        self.count_sends(before, io);
    }

    fn output(&self) -> Option<Vec<u8>> {
        self.inner.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_splits_steps_into_parts_and_self_time() {
        let tracer = Tracer::new();
        let step = tracer.open(Layer::Step);
        let sched = tracer.open(Layer::Scheduler);
        tracer.close(sched);
        let reactor = tracer.open(Layer::Engine);
        let inner = tracer.open(Layer::Inner);
        tracer.close(inner);
        tracer.close(reactor);
        tracer.close(step);
        let spans = tracer.all_spans();
        let t = analyse_spans(&spans, Calibration::default()).unwrap();
        assert_eq!(t.step.calls, 1);
        assert_eq!(t.scheduler.calls, 1);
        assert_eq!(t.engine.calls, 1);
        assert_eq!(t.inner.calls, 1);
        let parts = t.step.self_ns + t.scheduler.self_ns + t.engine.self_ns + t.inner.self_ns;
        assert!(
            (t.whole_ns - parts).abs() < 1e-6,
            "parts add up to the whole"
        );
        let corrected = analyse_spans(
            &spans,
            Calibration {
                span_ns: 1.0,
                per_child_ns: 2.0,
            },
        )
        .unwrap();
        // Four spans lose 1 ns each; three parent-child links lose 2 ns each.
        assert!((t.whole_ns - corrected.whole_ns - 10.0).abs() < 1e-6);
        let mut text = String::new();
        tracer.write_spans(&mut text, usize::MAX);
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("step\t-1\t"));
    }

    #[test]
    fn an_open_span_fails_the_analysis() {
        let tracer = Tracer::new();
        let _never_closed = tracer.open(Layer::Step);
        assert!(tracer.analyse().is_err());
    }

    #[test]
    fn calibration_pairs_measure_the_tracer_and_stay_out_of_the_layers() {
        let tracer = Tracer::new();
        for _ in 0..100 {
            tracer.calibrate_once();
        }
        let t = tracer.analyse().unwrap();
        assert!(t.cal.span_ns > 0.0);
        assert!(t.cal.per_child_ns.is_finite());
        assert_eq!(t.step.calls + t.inner.calls, 0);
        assert_eq!(t.whole_ns, 0.0);
    }
}
