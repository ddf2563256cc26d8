//! Communication accounting.
//!
//! The paper's complexity measures count the number and total length of
//! *sent* messages (pulses), before any corruption: `CCinit` for the
//! pre-processing phase and `CCoverhead(m)` per simulated message. The
//! simulator tracks exactly those quantities, per node and per edge.

use fdn_graph::graph::Edge;
use fdn_graph::NodeId;

use crate::envelope::Envelope;
use crate::links::{LinkId, LinkTable};

/// Counters of one directed link `from -> to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkCounts {
    from: NodeId,
    to: NodeId,
    /// Messages sent on the link.
    sent: u64,
    /// Deepest FIFO queue recorded on the link, once any depth was recorded
    /// (a recorded depth of 0 still counts as a mark).
    high_water: Option<u64>,
}

impl LinkCounts {
    fn zeroed(from: NodeId, to: NodeId) -> Self {
        LinkCounts {
            from,
            to,
            sent: 0,
            high_water: None,
        }
    }

    /// Raises the high-water mark to `depth`.
    fn mark_depth(&mut self, depth: u64) {
        self.high_water = Some(self.high_water.map_or(depth, |mark| mark.max(depth)));
    }
}

/// Counters maintained by a [`crate::Simulation`].
///
/// The per-link counters live in one flat vector sorted by `(from, to)`,
/// cut into one row per sender by an offset table, so a `(from, to)` record
/// is a short binary search in the sender's row and never hashes. A
/// simulation's `Stats` is registered over its [`LinkTable`]: every link
/// has its (zeroed) entry from the start, at the index of its [`LinkId`]
/// (ids follow the same order, see [`crate::links`]), so recording a send
/// whose link is already resolved is a plain index. [`Stats::new`] starts
/// empty instead, and a pair gets its entry on its first send or
/// queue-depth record. [`Stats::snapshot`] folds the vector into sorted
/// per-edge and per-link vectors; entries that never counted anything do
/// not show. `==` compares the layout too, so compare snapshots to ask
/// whether registered and unregistered counters recorded the same.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Total messages (pulses) sent.
    pub sent_total: u64,
    /// Total messages delivered so far.
    pub delivered_total: u64,
    /// Total messages deleted by the noise model (always 0 under the paper's
    /// alteration-only contract; deletion-side adversaries may drop).
    pub dropped_total: u64,
    /// Total payload bits sent (the paper's `CC` counts bits of sent
    /// messages).
    pub bits_sent: u64,
    /// High-water mark of the total number of messages in flight at any
    /// instant of the run (queue-depth observability of the link-indexed
    /// event core). Cumulative over the whole run: unlike the send/delivery
    /// counters it is *not* differenced by [`StatsSnapshot::since`].
    pub max_inflight: u64,
    /// Messages sent per node (indexed by node id).
    pub per_node_sent: Vec<u64>,
    /// The per-link counters, sorted by `(from, to)`.
    counts: Vec<LinkCounts>,
    /// Row `r` of `counts` is `offsets[r]..offsets[r + 1]` (`n + 2`
    /// entries): row `i < n` holds the links leaving node `i`, row `n`
    /// those of every sender id `>= n`, so an out-of-range id costs one
    /// entry, never a row per id.
    offsets: Vec<u32>,
}

impl Default for Stats {
    fn default() -> Self {
        Stats::new(0)
    }
}

impl Stats {
    /// Creates zeroed counters for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Stats {
            sent_total: 0,
            delivered_total: 0,
            dropped_total: 0,
            bits_sent: 0,
            max_inflight: 0,
            per_node_sent: vec![0; n],
            counts: Vec::new(),
            offsets: vec![0; n + 2],
        }
    }

    /// Zeroed counters for a graph with `n` nodes, registered over its
    /// `links`: one entry per link, at its id, so
    /// [`record_enqueue`](Self::record_enqueue) needs no search.
    pub(crate) fn registered(n: usize, links: &LinkTable) -> Self {
        let (ends, offsets) = links.registry();
        let mut stats = Stats::new(n);
        stats.counts = ends
            .iter()
            .map(|&(from, to)| LinkCounts::zeroed(from, to))
            .collect();
        // Every link joins two of the graph's nodes, so a table registered
        // over more nodes has empty rows past `n`, and rows the table does
        // not have are empty too.
        for (row, end) in stats.offsets.iter_mut().enumerate() {
            *end = offsets.get(row).copied().unwrap_or(ends.len() as u32);
        }
        stats
    }

    /// Records a send.
    pub fn record_send(&mut self, env: &Envelope) {
        self.count_send(env.from, env.bits());
        self.link_mut(env.from, env.to).sent += 1;
    }

    /// [`record_send`](Self::record_send) of a `bits`-long message on
    /// `link` (`from -> to`) plus
    /// [`record_queue_depth`](Self::record_queue_depth) of the enqueue that
    /// followed. On registered counters the link's entry is `counts[link]`.
    pub(crate) fn record_enqueue(
        &mut self,
        link: LinkId,
        from: NodeId,
        to: NodeId,
        bits: u64,
        link_depth: u64,
        total_inflight: u64,
    ) {
        self.max_inflight = self.max_inflight.max(total_inflight);
        self.count_send(from, bits);
        let counts = self.link_at(link, from, to);
        counts.sent += 1;
        counts.mark_depth(link_depth);
    }

    /// Records a delivery.
    pub fn record_delivery(&mut self) {
        self.delivered_total += 1;
    }

    /// Records a message deleted by the noise model.
    pub fn record_drop(&mut self) {
        self.dropped_total += 1;
    }

    /// Records the queue depth observed right after an enqueue: `link_depth`
    /// messages on the directed link `from -> to`, `total_inflight` across
    /// the whole network. Maintains the high-water marks.
    pub fn record_queue_depth(
        &mut self,
        from: NodeId,
        to: NodeId,
        link_depth: u64,
        total_inflight: u64,
    ) {
        self.max_inflight = self.max_inflight.max(total_inflight);
        self.link_mut(from, to).mark_depth(link_depth);
    }

    /// Messages sent by a specific node.
    pub fn sent_by(&self, node: NodeId) -> u64 {
        self.per_node_sent.get(node.index()).copied().unwrap_or(0)
    }

    /// Messages sent over a specific undirected edge (both directions).
    pub fn sent_on_edge(&self, e: Edge) -> u64 {
        let sent = |from: NodeId, to: NodeId| self.link(from, to).map_or(0, |l| l.sent);
        sent(e.lo(), e.hi()) + sent(e.hi(), e.lo())
    }

    /// The maximum number of messages sent by any single node.
    pub fn max_sent_by_node(&self) -> u64 {
        self.per_node_sent.iter().copied().max().unwrap_or(0)
    }

    /// Freezes the counters into a cheap, ordered, aggregation-friendly
    /// [`StatsSnapshot`]: the two directions of each edge are summed, and
    /// both per-edge and per-link counters come out sorted, so two
    /// snapshots of equal runs are equal values and serialize identically.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut per_edge_sent: Vec<(Edge, u64)> = Vec::new();
        let mut per_link_high_water: Vec<((NodeId, NodeId), u64)> = Vec::new();
        for l in &self.counts {
            if l.sent > 0 {
                per_edge_sent.push((Edge::new(l.from, l.to), l.sent));
            }
            if let Some(mark) = l.high_water {
                per_link_high_water.push(((l.from, l.to), mark));
            }
        }
        per_edge_sent.sort_unstable();
        per_edge_sent.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        StatsSnapshot {
            sent_total: self.sent_total,
            delivered_total: self.delivered_total,
            dropped_total: self.dropped_total,
            bits_sent: self.bits_sent,
            max_inflight: self.max_inflight,
            per_node_sent: self.per_node_sent.clone(),
            per_edge_sent,
            per_link_high_water,
        }
    }

    /// Counts one `bits`-long send by `from` in every total but the
    /// per-link one.
    fn count_send(&mut self, from: NodeId, bits: u64) {
        self.sent_total += 1;
        self.bits_sent += bits;
        if let Some(slot) = self.per_node_sent.get_mut(from.index()) {
            *slot += 1;
        }
    }

    /// The entries of `from`'s row.
    fn row(&self, from: NodeId) -> std::ops::Range<usize> {
        let r = from.index().min(self.offsets.len() - 2);
        self.offsets[r] as usize..self.offsets[r + 1] as usize
    }

    /// Position of `from -> to` in `counts`, or where it would be inserted.
    fn search(&self, from: NodeId, to: NodeId) -> Result<usize, usize> {
        let row = self.row(from);
        self.counts[row.clone()]
            .binary_search_by_key(&(from, to), |l| (l.from, l.to))
            .map(|i| row.start + i)
            .map_err(|i| row.start + i)
    }

    fn link(&self, from: NodeId, to: NodeId) -> Option<&LinkCounts> {
        self.search(from, to).ok().map(|i| &self.counts[i])
    }

    /// The counters of `link` (`from -> to`): on registered counters, the
    /// entry at its index. The entry's ends are checked before the index is
    /// trusted, so counters without that entry there (unregistered, or
    /// shifted by a pair recorded outside the registry) fall back to
    /// [`link_mut`](Self::link_mut).
    fn link_at(&mut self, link: LinkId, from: NodeId, to: NodeId) -> &mut LinkCounts {
        let i = link.index();
        if self
            .counts
            .get(i)
            .is_some_and(|l| (l.from, l.to) == (from, to))
        {
            return &mut self.counts[i];
        }
        self.link_mut(from, to)
    }

    /// The counters of `from -> to`, created zeroed on first use.
    fn link_mut(&mut self, from: NodeId, to: NodeId) -> &mut LinkCounts {
        let i = match self.search(from, to) {
            Ok(i) => i,
            Err(i) => {
                self.counts.insert(i, LinkCounts::zeroed(from, to));
                let r = from.index().min(self.offsets.len() - 2);
                for end in &mut self.offsets[r + 1..] {
                    *end += 1;
                }
                i
            }
        };
        &mut self.counts[i]
    }
}

/// A frozen, ordered view of a [`Stats`] at one instant.
///
/// Unlike [`Stats`] (whose per-link counters sit in one entry per
/// direction, zeroed entries included), a snapshot is a plain value: `Clone`/`PartialEq`/
/// `Eq`, per-edge counters summed over both directions and sorted by edge,
/// and therefore safe to diff, aggregate across parallel runs, and
/// serialize byte-identically. This is the type report
/// aggregation consumes instead of copying counters field by field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total messages (pulses) sent.
    pub sent_total: u64,
    /// Total messages delivered.
    pub delivered_total: u64,
    /// Total messages deleted by the noise model.
    pub dropped_total: u64,
    /// Total payload bits sent.
    pub bits_sent: u64,
    /// High-water mark of messages simultaneously in flight (run-cumulative).
    pub max_inflight: u64,
    /// Messages sent per node (indexed by node id).
    pub per_node_sent: Vec<u64>,
    /// Messages sent per undirected edge, sorted by edge.
    pub per_edge_sent: Vec<(Edge, u64)>,
    /// Per-directed-link FIFO queue-depth high-water marks, sorted by link
    /// (run-cumulative).
    pub per_link_high_water: Vec<((NodeId, NodeId), u64)>,
}

impl StatsSnapshot {
    /// The maximum number of messages sent by any single node.
    pub fn max_sent_by_node(&self) -> u64 {
        self.per_node_sent.iter().copied().max().unwrap_or(0)
    }

    /// The deepest per-link FIFO queue observed at any instant of the run.
    pub fn max_link_high_water(&self) -> u64 {
        self.per_link_high_water
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
    }

    /// The heaviest per-edge load (messages on the busiest edge).
    pub fn max_sent_on_edge(&self) -> u64 {
        self.per_edge_sent
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
    }

    /// Per-counter difference relative to an `earlier` snapshot of the same
    /// run (edges that did not change are omitted). Used to measure the cost
    /// of a single phase, e.g. `CCoverhead` of one message. High-water marks
    /// (`max_inflight`, `per_link_high_water`) are run-cumulative, not
    /// phase-differencible, so the later values are carried through
    /// unchanged.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut per_edge_sent = Vec::new();
        let mut before = earlier.per_edge_sent.iter().copied().peekable();
        for &(e, now) in &self.per_edge_sent {
            let mut prev = 0;
            while let Some(&(be, bc)) = before.peek() {
                if be < e {
                    before.next();
                } else {
                    if be == e {
                        prev = bc;
                    }
                    break;
                }
            }
            if now > prev {
                per_edge_sent.push((e, now - prev));
            }
        }
        StatsSnapshot {
            sent_total: self.sent_total - earlier.sent_total,
            delivered_total: self.delivered_total - earlier.delivered_total,
            dropped_total: self.dropped_total - earlier.dropped_total,
            bits_sent: self.bits_sent - earlier.bits_sent,
            max_inflight: self.max_inflight,
            per_node_sent: self
                .per_node_sent
                .iter()
                .zip(earlier.per_node_sent.iter().chain(std::iter::repeat(&0)))
                .map(|(now, before)| now - before)
                .collect(),
            per_edge_sent,
            per_link_high_water: self.per_link_high_water.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use fdn_graph::generators;

    use super::*;

    fn env(from: u32, to: u32, len: usize) -> Envelope {
        Envelope {
            from: NodeId(from),
            to: NodeId(to),
            payload: vec![0; len].into(),
            seq: 0,
        }
    }

    #[test]
    fn record_and_query() {
        let mut s = Stats::new(3);
        s.record_send(&env(0, 1, 2));
        s.record_send(&env(1, 0, 1));
        s.record_send(&env(1, 2, 1));
        s.record_delivery();
        assert_eq!(s.sent_total, 3);
        assert_eq!(s.delivered_total, 1);
        assert_eq!(s.bits_sent, 32);
        assert_eq!(s.sent_by(NodeId(1)), 2);
        assert_eq!(s.sent_by(NodeId(9)), 0);
        assert_eq!(s.sent_on_edge(Edge::new(NodeId(0), NodeId(1))), 2);
        assert_eq!(s.sent_on_edge(Edge::new(NodeId(0), NodeId(2))), 0);
        assert_eq!(s.max_sent_by_node(), 2);
    }

    #[test]
    fn default_is_zero() {
        let s = Stats::default();
        assert_eq!(s.sent_total, 0);
        assert_eq!(s.dropped_total, 0);
        assert_eq!(s.max_sent_by_node(), 0);
    }

    #[test]
    fn drops_are_counted_and_diffed() {
        let mut s = Stats::new(2);
        s.record_send(&env(0, 1, 1));
        s.record_drop();
        let first = s.snapshot();
        s.record_drop();
        s.record_drop();
        assert_eq!(s.dropped_total, 3);
        assert_eq!(s.snapshot().dropped_total, 3);
        assert_eq!(s.snapshot().since(&first).dropped_total, 2);
    }

    #[test]
    fn snapshot_is_sorted_and_value_equal() {
        let mut s = Stats::new(4);
        // Insert edges in non-sorted order.
        s.record_send(&env(2, 3, 1));
        s.record_send(&env(0, 1, 1));
        s.record_send(&env(1, 2, 1));
        s.record_send(&env(0, 1, 1));
        let snap = s.snapshot();
        assert_eq!(snap.sent_total, 4);
        assert_eq!(snap.max_sent_by_node(), 2);
        let edges: Vec<Edge> = snap.per_edge_sent.iter().map(|&(e, _)| e).collect();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        assert_eq!(edges, sorted);
        assert_eq!(snap.max_sent_on_edge(), 2);
        // Two snapshots of equal stats are equal values.
        assert_eq!(snap, s.clone().snapshot());
    }

    #[test]
    fn queue_depth_high_water_marks() {
        let mut s = Stats::new(3);
        assert_eq!(s.max_inflight, 0);
        s.record_queue_depth(NodeId(0), NodeId(1), 1, 1);
        s.record_queue_depth(NodeId(0), NodeId(1), 2, 2);
        s.record_queue_depth(NodeId(1), NodeId(0), 1, 3);
        // Depths later shrink; the marks do not.
        s.record_queue_depth(NodeId(0), NodeId(1), 1, 1);
        assert_eq!(s.max_inflight, 3);
        let snap = s.snapshot();
        assert_eq!(snap.max_inflight, 3);
        assert_eq!(
            snap.per_link_high_water,
            vec![((NodeId(0), NodeId(1)), 2), ((NodeId(1), NodeId(0)), 1),]
        );
        assert_eq!(snap.max_link_high_water(), 2);
        // High-water marks are cumulative: `since` carries them through.
        let earlier = Stats::new(3).snapshot();
        assert_eq!(snap.since(&earlier).max_inflight, 3);
        assert_eq!(snap.since(&earlier).max_link_high_water(), 2);
    }

    #[test]
    fn rows_match_an_ordered_map_reference() {
        // Random sends and queue-depth marks in both directions of each
        // pair, on node ids past `n` too (up to the largest id), with
        // depth-0 marks and links that are marked but never sent on. Each
        // sequence is recorded twice: by `(from, to)` into `Stats::new(n)`,
        // and by link id into counters registered over a graph's links
        // (pairs that are no link go by `(from, to)` there too, inserting
        // entries among the registered ones). Both must fold into exactly
        // the snapshot an ordered map per counter gives.
        const N: u32 = 6;
        let mut graph = generators::cycle(N as usize).unwrap();
        graph.add_edge(NodeId(0), NodeId(3)).unwrap();
        let links = LinkTable::new(&graph);
        let ids: Vec<NodeId> = (0..N + 2).chain([u32::MAX]).map(NodeId).collect();
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut by_pair = Stats::new(N as usize);
            let mut by_link = Stats::registered(N as usize, &links);
            // The reference: one ordered map per counter, keyed by
            // undirected edge and by directed link.
            let mut per_edge_sent: BTreeMap<Edge, u64> = BTreeMap::new();
            let mut per_link_high_water: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
            for _ in 0..rng.gen_range(0..300u32) {
                let from = ids[rng.gen_range(0..ids.len())];
                let to = loop {
                    let to = ids[rng.gen_range(0..ids.len())];
                    if to != from {
                        break to;
                    }
                };
                let link = links.link_between(from, to);
                if rng.gen_bool(0.5) {
                    by_pair.record_send(&env(from.0, to.0, 1));
                    match link {
                        Some(l) => {
                            by_link.count_send(from, 8);
                            by_link.link_at(l, from, to).sent += 1;
                        }
                        None => by_link.record_send(&env(from.0, to.0, 1)),
                    }
                    *per_edge_sent.entry(Edge::new(from, to)).or_insert(0) += 1;
                } else {
                    let depth = rng.gen_range(0..4u64);
                    by_pair.record_queue_depth(from, to, depth, depth);
                    match link {
                        Some(l) => {
                            by_link.max_inflight = by_link.max_inflight.max(depth);
                            by_link.link_at(l, from, to).mark_depth(depth);
                        }
                        None => by_link.record_queue_depth(from, to, depth, depth),
                    }
                    let mark = per_link_high_water.entry((from, to)).or_insert(0);
                    *mark = (*mark).max(depth);
                }
            }
            let edges: Vec<(Edge, u64)> = per_edge_sent.iter().map(|(&e, &c)| (e, c)).collect();
            let marks: Vec<((NodeId, NodeId), u64)> =
                per_link_high_water.iter().map(|(&l, &c)| (l, c)).collect();
            for stats in [&by_pair, &by_link] {
                let snap = stats.snapshot();
                assert_eq!(snap.per_edge_sent, edges, "seed {seed}");
                assert_eq!(snap.per_link_high_water, marks, "seed {seed}");
                for (i, &u) in ids.iter().enumerate() {
                    for &v in &ids[i + 1..] {
                        let e = Edge::new(u, v);
                        let expected = per_edge_sent.get(&e).copied().unwrap_or(0);
                        assert_eq!(stats.sent_on_edge(e), expected, "seed {seed}, {e:?}");
                    }
                }
            }
            assert_eq!(by_pair.snapshot(), by_link.snapshot(), "seed {seed}");
        }
    }

    #[test]
    fn record_enqueue_equals_the_public_pair() {
        // The simulation's indexed send record must leave exactly the
        // counters of `record_send` followed by `record_queue_depth`, on
        // registered and on unregistered counters (where the id indexes
        // nothing and the record falls back to the search), including for
        // sender ids past `n` and pairs that are no link.
        const N: u32 = 5;
        let links = LinkTable::new(&generators::cycle(N as usize).unwrap());
        let ids: Vec<NodeId> = (0..N + 2).chain([u32::MAX]).map(NodeId).collect();
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for fresh in [
                Stats::new(N as usize),
                Stats::registered(N as usize, &links),
            ] {
                let mut fused = fresh.clone();
                let mut pair = fresh;
                for _ in 0..200 {
                    let from = ids[rng.gen_range(0..ids.len())];
                    let to = ids[rng.gen_range(0..ids.len())];
                    let link = links
                        .link_between(from, to)
                        .unwrap_or(LinkId(rng.gen_range(0..2 * N)));
                    let e = env(from.0, to.0, rng.gen_range(1..4usize));
                    let depth = rng.gen_range(1..6u64);
                    let inflight = depth + rng.gen_range(0..4u64);
                    fused.record_enqueue(link, from, to, e.bits(), depth, inflight);
                    pair.record_send(&e);
                    pair.record_queue_depth(from, to, depth, inflight);
                }
                assert_eq!(fused, pair, "seed {seed}");
            }
        }
    }

    #[test]
    fn snapshot_since_diffs_counters() {
        let mut s = Stats::new(3);
        s.record_send(&env(0, 1, 1));
        let first = s.snapshot();
        s.record_send(&env(0, 1, 1));
        s.record_send(&env(1, 0, 3));
        s.record_send(&env(1, 2, 2));
        s.record_delivery();
        let d = s.snapshot().since(&first);
        assert_eq!(d.sent_total, 3);
        assert_eq!(d.delivered_total, 1);
        assert_eq!(d.bits_sent, 48);
        assert_eq!(d.per_node_sent, vec![1, 2, 0]);
        assert_eq!(
            d.per_edge_sent,
            vec![
                (Edge::new(NodeId(0), NodeId(1)), 2),
                (Edge::new(NodeId(1), NodeId(2)), 1),
            ]
        );
    }
}
