//! Shared discovery state: what a trace has learned so far.
//!
//! Both the MDA and the MDA-Lite accumulate the same kind of evidence —
//! "flow f probed at TTL t was answered by interface a" — and derive
//! everything else from it: the vertices at each hop, the flow→vertex maps
//! node control relies on, and the edges (a flow observed at consecutive
//! TTLs witnesses an edge between the two responding interfaces).
//! [`Discovery`] is that evidence base; the algorithms differ only in how
//! they decide which probe to send next.

use mlpt_wire::{FlowId, ZERO_PORT_FLOW};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Evidence accumulated by a trace in progress.
///
/// Index invariant: every flow whose path binds `ttl → vertex` is listed
/// under `vertex` in the per-hop index at `ttl` ([`Discovery::record`]
/// writes both, [`Discovery::remove_record`] and
/// [`Discovery::invalidate_from`] clear both). The converse does not
/// hold: re-recording a flow at the same TTL under another responder
/// rebinds its path but leaves it listed under the old vertex too. So the
/// queries below walk the index for candidates and re-check each one
/// against the flow's path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Discovery {
    /// Per hop index (ttl - 1): vertex → flows observed reaching it.
    hops: Vec<BTreeMap<Ipv4Addr, BTreeSet<FlowId>>>,
    /// Discovery order of vertices per hop (stable iteration for
    /// deterministic algorithms).
    hop_order: Vec<Vec<Ipv4Addr>>,
    /// Flow → (ttl → responder): each flow's observed path. Ordered so
    /// that iteration (edge derivation, suffix invalidation) visits
    /// flows in a stable order — determinism rules 3 and 5 (MLPT-W003).
    flow_paths: BTreeMap<FlowId, BTreeMap<u8, Ipv4Addr>>,
    /// Flows probed at each ttl (whether or not answered). Ordered for
    /// the same reason as `flow_paths`.
    probed_at: BTreeMap<u8, BTreeSet<FlowId>>,
    /// Probes sent per hop index (for the paper's per-hop accounting).
    probes_per_hop: Vec<u64>,
    /// Every flow ID ever used.
    used_flows: BTreeSet<FlowId>,
    /// Smallest TTL at which the destination answered.
    destination_ttl: Option<u8>,
}

impl Discovery {
    /// Fresh, empty state.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_hop(&mut self, index: usize) {
        while self.hops.len() <= index {
            self.hops.push(BTreeMap::new());
            self.hop_order.push(Vec::new());
            self.probes_per_hop.push(0);
        }
    }

    /// Notes that a probe was *sent* at `ttl` with `flow` (counted even if
    /// it goes unanswered).
    pub fn note_probe_sent(&mut self, flow: FlowId, ttl: u8) {
        assert!(ttl >= 1);
        self.ensure_hop(usize::from(ttl - 1));
        self.probes_per_hop[usize::from(ttl - 1)] += 1;
        self.probed_at.entry(ttl).or_default().insert(flow);
        self.used_flows.insert(flow);
    }

    /// Notes a whole round of probes as sent (the batched analogue of
    /// [`Discovery::note_probe_sent`]).
    pub fn note_probes_sent(&mut self, specs: &[crate::prober::ProbeSpec]) {
        for spec in specs {
            self.note_probe_sent(spec.flow, spec.ttl);
        }
    }

    /// Records a whole round's observations, in spec order (the batched
    /// analogue of [`Discovery::record`]; unanswered slots are skipped).
    pub fn record_batch(
        &mut self,
        specs: &[crate::prober::ProbeSpec],
        results: &[Option<crate::prober::ProbeObservation>],
    ) {
        debug_assert_eq!(specs.len(), results.len());
        for (spec, result) in specs.iter().zip(results) {
            if let Some(obs) = result {
                self.record(spec.flow, spec.ttl, obs.responder, obs.at_destination);
            }
        }
    }

    /// Records a successful observation.
    pub fn record(&mut self, flow: FlowId, ttl: u8, responder: Ipv4Addr, at_destination: bool) {
        assert!(ttl >= 1);
        let h = usize::from(ttl - 1);
        self.ensure_hop(h);
        let entry = self.hops[h].entry(responder).or_insert_with(|| {
            self.hop_order[h].push(responder);
            BTreeSet::new()
        });
        entry.insert(flow);
        self.flow_paths
            .entry(flow)
            .or_default()
            .insert(ttl, responder);
        if at_destination {
            self.destination_ttl = Some(match self.destination_ttl {
                Some(t) => t.min(ttl),
                None => ttl,
            });
        }
    }

    /// Route-change recovery: wipes every committed fact at or beyond
    /// `ttl` — vertices, flow bindings, probe accounting and (if it fell
    /// in the wiped suffix) the destination TTL — so the stopping rules
    /// see the suffix as virgin territory and re-probe it from scratch.
    /// `used_flows` survives: the flow allocator must never re-issue an
    /// identifier just because its evidence was invalidated. Returns the
    /// wiped `(ttl, vertex)` pairs in hop/discovery order, for
    /// vanished-branch accounting.
    pub fn invalidate_from(&mut self, ttl: u8) -> Vec<(u8, Ipv4Addr)> {
        assert!(ttl >= 1);
        let h = usize::from(ttl - 1);
        let mut wiped = Vec::new();
        for (idx, order) in self.hop_order.iter().enumerate().skip(h) {
            for &vertex in order {
                wiped.push(((idx + 1) as u8, vertex));
            }
        }
        for idx in h..self.hops.len() {
            self.hops[idx].clear();
            self.hop_order[idx].clear();
            self.probes_per_hop[idx] = 0;
        }
        for path in self.flow_paths.values_mut() {
            let _ = path.split_off(&ttl);
        }
        self.flow_paths.retain(|_, path| !path.is_empty());
        self.probed_at.retain(|&t, _| t < ttl);
        self.invalidate_destination_ttl(ttl);
        wiped
    }

    /// Removes one committed `(flow, ttl)` binding, dropping the vertex
    /// entirely if no other flow witnesses it. Returns the interface the
    /// binding pointed at. Used to repair stale stop-set adoptions in
    /// place without invalidating the whole suffix.
    pub fn remove_record(&mut self, flow: FlowId, ttl: u8) -> Option<Ipv4Addr> {
        let h = usize::from(ttl.saturating_sub(1));
        let path = self.flow_paths.get_mut(&flow)?;
        let addr = path.remove(&ttl)?;
        if path.is_empty() {
            self.flow_paths.remove(&flow);
        }
        if let Some(map) = self.hops.get_mut(h) {
            if let Some(flows) = map.get_mut(&addr) {
                flows.remove(&flow);
                if flows.is_empty() {
                    map.remove(&addr);
                    if let Some(order) = self.hop_order.get_mut(h) {
                        order.retain(|&v| v != addr);
                    }
                }
            }
        }
        Some(addr)
    }

    /// Forgets the destination TTL if it lies at or beyond `ttl` (the
    /// evidence that placed it there was invalidated).
    pub fn invalidate_destination_ttl(&mut self, ttl: u8) {
        if self.destination_ttl.is_some_and(|t| t >= ttl) {
            self.destination_ttl = None;
        }
    }

    /// True if `addr` is currently recorded as a vertex at any hop.
    pub fn has_vertex(&self, addr: Ipv4Addr) -> bool {
        self.hops.iter().any(|m| m.contains_key(&addr))
    }

    /// Number of hops with any recorded state.
    pub fn num_hops(&self) -> usize {
        self.hops.len()
    }

    /// Vertices discovered at `ttl`, in discovery order.
    pub fn vertices_at(&self, ttl: u8) -> &[Ipv4Addr] {
        let h = usize::from(ttl.saturating_sub(1));
        self.hop_order.get(h).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Flows observed reaching `vertex` at `ttl`.
    pub fn flows_reaching(&self, ttl: u8, vertex: Ipv4Addr) -> BTreeSet<FlowId> {
        self.flows_at(ttl, vertex).clone()
    }

    /// Borrowed view of [`Discovery::flows_reaching`]: the per-hop index
    /// entry itself, or an empty set.
    pub(crate) fn flows_at(&self, ttl: u8, vertex: Ipv4Addr) -> &BTreeSet<FlowId> {
        static NONE: BTreeSet<FlowId> = BTreeSet::new();
        let h = usize::from(ttl.saturating_sub(1));
        self.hops
            .get(h)
            .and_then(|m| m.get(&vertex))
            .unwrap_or(&NONE)
    }

    /// The vertex `flow` was observed to reach at `ttl`, if known.
    pub fn flow_vertex(&self, ttl: u8, flow: FlowId) -> Option<Ipv4Addr> {
        self.flow_paths
            .get(&flow)
            .and_then(|p| p.get(&ttl))
            .copied()
    }

    /// True if `flow` was already probed at `ttl`.
    pub fn flow_probed_at(&self, ttl: u8, flow: FlowId) -> bool {
        self.probed_at.get(&ttl).is_some_and(|s| s.contains(&flow))
    }

    /// Probes sent at `ttl` so far.
    pub fn probes_at(&self, ttl: u8) -> u64 {
        let h = usize::from(ttl.saturating_sub(1));
        self.probes_per_hop.get(h).copied().unwrap_or(0)
    }

    /// Total probes noted across hops.
    pub fn total_probes(&self) -> u64 {
        self.probes_per_hop.iter().sum()
    }

    /// Smallest TTL where the destination answered, if reached.
    pub fn destination_ttl(&self) -> Option<u8> {
        self.destination_ttl
    }

    /// Largest TTL at which any vertex was recorded (0 if none).
    pub fn max_observed_ttl(&self) -> u8 {
        for (h, order) in self.hop_order.iter().enumerate().rev() {
            if !order.is_empty() {
                return (h + 1) as u8;
            }
        }
        0
    }

    /// All flows ever used.
    pub fn used_flows(&self) -> &BTreeSet<FlowId> {
        &self.used_flows
    }

    /// Node-control accounting: over flows *probed* at `ttl` whose vertex
    /// at `ttl - 1` is `parent`, returns (probes sent, distinct successors
    /// observed). This is the per-vertex state the MDA's stopping rule
    /// applies to. Walks only the flows indexed under `parent` at
    /// `ttl - 1`, keeping those probed at `ttl` whose path still binds
    /// `ttl - 1 → parent` (see the index invariant on [`Discovery`]).
    pub fn probes_via(&self, parent: Ipv4Addr, ttl: u8) -> (u64, BTreeSet<Ipv4Addr>) {
        assert!(ttl >= 2, "probes_via needs a previous hop");
        let mut sent = 0u64;
        let mut successors = BTreeSet::new();
        let Some(probed) = self.probed_at.get(&ttl) else {
            return (sent, successors);
        };
        for f in self.flows_at(ttl - 1, parent) {
            if !probed.contains(f) {
                continue;
            }
            let Some(path) = self.flow_paths.get(f) else {
                continue;
            };
            if path.get(&(ttl - 1)) == Some(&parent) {
                sent += 1;
                if let Some(&v) = path.get(&ttl) {
                    successors.insert(v);
                }
            }
        }
        (sent, successors)
    }

    /// Calls `f(from, to)` for every flow bound at both `ttl` and
    /// `ttl + 1`, walking the flows indexed at `ttl` rather than every
    /// path. A flow indexed under two vertices yields its pair twice.
    fn for_each_edge(&self, ttl: u8, mut f: impl FnMut(Ipv4Addr, Ipv4Addr)) {
        let Some(index) = self.hops.get(usize::from(ttl.saturating_sub(1))) else {
            return;
        };
        for flow in index.values().flatten() {
            if let Some(path) = self.flow_paths.get(flow) {
                if let (Some(&from), Some(&to)) = (path.get(&ttl), path.get(&(ttl + 1))) {
                    f(from, to);
                }
            }
        }
    }

    /// Successor map between `ttl` and `ttl + 1` derived from flows
    /// observed at both: vertex at `ttl` → set of vertices at `ttl + 1`.
    /// Walks the flows indexed at `ttl`.
    pub fn edges_from(&self, ttl: u8) -> BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> {
        let mut edges: BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        self.for_each_edge(ttl, |from, to| {
            edges.entry(from).or_default().insert(to);
        });
        edges
    }

    /// Predecessor map between `ttl` and `ttl + 1`: vertex at `ttl + 1` →
    /// set of vertices at `ttl`. Walks the flows indexed at `ttl`.
    pub fn reverse_edges_from(&self, ttl: u8) -> BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> {
        let mut edges: BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        self.for_each_edge(ttl, |from, to| {
            edges.entry(to).or_default().insert(from);
        });
        edges
    }

    /// Total distinct edges witnessed across all hop pairs.
    pub fn total_edges(&self) -> usize {
        let mut count = 0usize;
        let max_ttl = self.hops.len() as u8;
        for ttl in 1..max_ttl {
            count += self
                .edges_from(ttl)
                .values()
                .map(BTreeSet::len)
                .sum::<usize>();
        }
        count
    }

    /// Total vertices discovered across hops (destination and duplicates
    /// at different hops each count as topological vertices).
    pub fn total_vertices(&self) -> usize {
        self.hop_order.iter().map(Vec::len).sum()
    }

    /// Flows observed reaching any vertex at `ttl`, in discovery order of
    /// their vertices — the MDA-Lite's preferred reuse order ("one flow
    /// identifier from each of the vertices … then additional
    /// previously-used flow identifiers").
    pub fn reuse_queue(&self, ttl: u8) -> Vec<FlowId> {
        let mut queue = Vec::new();
        let mut enqueued: BTreeSet<FlowId> = BTreeSet::new();
        let vertices = self.vertices_at(ttl);
        // Round-robin across vertices: first one flow per vertex, then
        // seconds, and so on.
        let mut per_vertex: Vec<_> = vertices
            .iter()
            .map(|&v| self.flows_at(ttl, v).iter())
            .collect();
        loop {
            let mut any = false;
            for flows in &mut per_vertex {
                if let Some(&f) = flows.next() {
                    any = true;
                    if enqueued.insert(f) {
                        queue.push(f);
                    }
                }
            }
            if !any {
                return queue;
            }
        }
    }
}

/// Allocator handing out previously unused flow identifiers, seeded and
/// deterministic. It never hands out [`ZERO_PORT_FLOW`], whose probes
/// would carry the invalid source port 0.
#[derive(Debug)]
pub struct FlowAllocator {
    rng: ChaCha8Rng,
    /// Flows no longer drawable: those handed out or reserved, and
    /// [`ZERO_PORT_FLOW`] from the start.
    handed_out: BTreeSet<FlowId>,
}

/// Size of the 16-bit flow-ID space, [`ZERO_PORT_FLOW`] included.
const FLOW_SPACE: usize = 1 << 16;

impl FlowAllocator {
    /// Creates an allocator with its own stream of randomness.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_F10E_5EED_F10E),
            handed_out: BTreeSet::from([ZERO_PORT_FLOW]),
        }
    }

    /// Draws a fresh flow ID never handed out before.
    ///
    /// # Panics
    /// Panics if the flow space is exhausted (65 535 usable flows — far
    /// beyond any trace's needs; a trace that hungry is a bug).
    pub fn fresh(&mut self) -> FlowId {
        self.try_fresh().expect("flow space exhausted")
    }

    /// Draws a fresh flow ID, or `None` once all 65 535 usable flows are
    /// taken. Sessions whose flow hunts can run long (node control
    /// against a route that keeps changing) use this to give up on the
    /// hunt honestly instead of panicking mid-sweep.
    pub fn try_fresh(&mut self) -> Option<FlowId> {
        if self.handed_out.len() >= FLOW_SPACE {
            return None;
        }
        loop {
            let candidate = FlowId(self.rng.gen());
            if self.handed_out.insert(candidate) {
                return Some(candidate);
            }
        }
    }

    /// Marks externally used flows as taken (when resuming from existing
    /// state).
    pub fn reserve<I: IntoIterator<Item = FlowId>>(&mut self, flows: I) {
        self.handed_out.extend(flows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_topo::graph::addr;
    use proptest::prelude::*;

    /// Reference `probes_via`: scans every flow probed at `ttl`.
    fn scan_probes_via(d: &Discovery, parent: Ipv4Addr, ttl: u8) -> (u64, BTreeSet<Ipv4Addr>) {
        let mut sent = 0u64;
        let mut successors = BTreeSet::new();
        if let Some(probed) = d.probed_at.get(&ttl) {
            for &f in probed {
                if d.flow_vertex(ttl - 1, f) == Some(parent) {
                    sent += 1;
                    if let Some(v) = d.flow_vertex(ttl, f) {
                        successors.insert(v);
                    }
                }
            }
        }
        (sent, successors)
    }

    /// Reference `edges_from`: scans every flow path of the trace.
    fn scan_edges_from(d: &Discovery, ttl: u8) -> BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> {
        let mut edges: BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for path in d.flow_paths.values() {
            if let (Some(&from), Some(&to)) = (path.get(&ttl), path.get(&(ttl + 1))) {
                edges.entry(from).or_default().insert(to);
            }
        }
        edges
    }

    /// Reference `reverse_edges_from`: scans every flow path of the trace.
    fn scan_reverse_edges_from(d: &Discovery, ttl: u8) -> BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> {
        let mut edges: BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for path in d.flow_paths.values() {
            if let (Some(&from), Some(&to)) = (path.get(&ttl), path.get(&(ttl + 1))) {
                edges.entry(to).or_default().insert(from);
            }
        }
        edges
    }

    #[derive(Debug, Clone)]
    enum Op {
        Sent(u16, u8),
        Record(u16, u8, u8),
        Remove(u16, u8),
        Invalidate(u8),
    }

    const MAX_TTL: u8 = 5;

    /// Few flows, TTLs and responders, so that re-recording a
    /// `(flow, ttl)` under another responder happens often. Weights:
    /// 4 sends, 6 records, 1 removal, 1 invalidation in 12.
    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..12, 0u16..6, 1u8..=MAX_TTL, 0u8..3).prop_map(|(kind, f, t, r)| match kind {
            0..=3 => Op::Sent(f, t),
            4..=9 => Op::Record(f, t, r),
            10 => Op::Remove(f, t),
            _ => Op::Invalidate(t),
        })
    }

    proptest! {
        #[test]
        fn indexed_queries_match_full_scans(ops in proptest::collection::vec(arb_op(), 0..60)) {
            let mut d = Discovery::new();
            for op in ops {
                match op {
                    Op::Sent(f, t) => d.note_probe_sent(FlowId(f), t),
                    Op::Record(f, t, r) => d.record(FlowId(f), t, addr(0, r.into()), false),
                    Op::Remove(f, t) => {
                        d.remove_record(FlowId(f), t);
                    }
                    Op::Invalidate(t) => {
                        d.invalidate_from(t);
                    }
                }
                // No empty path survives, and every binding is indexed.
                for (&f, path) in &d.flow_paths {
                    prop_assert!(!path.is_empty());
                    for (&t, &v) in path {
                        prop_assert!(d.flows_at(t, v).contains(&f));
                    }
                }
                for ttl in 0..=MAX_TTL + 1 {
                    prop_assert_eq!(d.edges_from(ttl), scan_edges_from(&d, ttl));
                    prop_assert_eq!(d.reverse_edges_from(ttl), scan_reverse_edges_from(&d, ttl));
                }
                for ttl in 2..=MAX_TTL + 1 {
                    for r in 0..3 {
                        let parent = addr(0, r);
                        prop_assert_eq!(d.probes_via(parent, ttl), scan_probes_via(&d, parent, ttl));
                    }
                }
            }
        }
    }

    #[test]
    fn probes_via_skips_flows_rebound_to_another_parent() {
        let (a, b, c) = (addr(1, 0), addr(1, 1), addr(2, 0));
        let mut d = Discovery::new();
        d.note_probe_sent(FlowId(1), 1);
        d.record(FlowId(1), 1, a, false);
        // Re-recorded under `b`: the index still lists the flow under `a`.
        d.record(FlowId(1), 1, b, false);
        assert!(d.flows_at(1, a).contains(&FlowId(1)));
        d.note_probe_sent(FlowId(1), 2);
        d.record(FlowId(1), 2, c, false);
        assert_eq!(d.probes_via(a, 2), (0, BTreeSet::new()));
        assert_eq!(d.probes_via(b, 2), (1, BTreeSet::from([c])));
        assert_eq!(d.probes_via(a, 2), scan_probes_via(&d, a, 2));
        assert_eq!(d.edges_from(1), BTreeMap::from([(b, BTreeSet::from([c]))]));
    }

    #[test]
    fn record_and_query() {
        let mut d = Discovery::new();
        d.note_probe_sent(FlowId(1), 1);
        d.record(FlowId(1), 1, addr(0, 0), false);
        d.note_probe_sent(FlowId(2), 1);
        d.record(FlowId(2), 1, addr(0, 0), false);
        assert_eq!(d.vertices_at(1), &[addr(0, 0)]);
        assert_eq!(d.flows_reaching(1, addr(0, 0)).len(), 2);
        assert_eq!(d.probes_at(1), 2);
        assert_eq!(d.flow_vertex(1, FlowId(1)), Some(addr(0, 0)));
        assert_eq!(d.flow_vertex(2, FlowId(1)), None);
        assert!(d.flow_probed_at(1, FlowId(1)));
        assert!(!d.flow_probed_at(2, FlowId(1)));
    }

    #[test]
    fn edges_from_flow_paths() {
        let mut d = Discovery::new();
        for (flow, v1, v2) in [
            (FlowId(1), addr(1, 0), addr(2, 0)),
            (FlowId(2), addr(1, 0), addr(2, 1)),
            (FlowId(3), addr(1, 1), addr(2, 1)),
        ] {
            d.record(flow, 1, v1, false);
            d.record(flow, 2, v2, false);
        }
        let edges = d.edges_from(1);
        assert_eq!(edges[&addr(1, 0)], BTreeSet::from([addr(2, 0), addr(2, 1)]));
        assert_eq!(edges[&addr(1, 1)], BTreeSet::from([addr(2, 1)]));
        let rev = d.reverse_edges_from(1);
        assert_eq!(rev[&addr(2, 1)], BTreeSet::from([addr(1, 0), addr(1, 1)]));
        assert_eq!(d.total_edges(), 3);
        assert_eq!(d.total_vertices(), 4);
    }

    #[test]
    fn destination_ttl_minimum() {
        let mut d = Discovery::new();
        d.record(FlowId(1), 5, addr(5, 0), true);
        d.record(FlowId(2), 4, addr(5, 0), true);
        assert_eq!(d.destination_ttl(), Some(4));
    }

    #[test]
    fn reuse_queue_round_robin() {
        let mut d = Discovery::new();
        // Vertex A discovered first with flows 1, 3; vertex B with flow 2.
        d.record(FlowId(1), 2, addr(1, 0), false);
        d.record(FlowId(2), 2, addr(1, 1), false);
        d.record(FlowId(3), 2, addr(1, 0), false);
        let queue = d.reuse_queue(2);
        // One per vertex first (A's lowest flow, then B's), then the rest.
        assert_eq!(queue, vec![FlowId(1), FlowId(2), FlowId(3)]);
    }

    #[test]
    fn allocator_unique_and_deterministic() {
        let mut a = FlowAllocator::new(9);
        let mut b = FlowAllocator::new(9);
        let fa: Vec<FlowId> = (0..100).map(|_| a.fresh()).collect();
        let fb: Vec<FlowId> = (0..100).map(|_| b.fresh()).collect();
        assert_eq!(fa, fb);
        let unique: BTreeSet<_> = fa.iter().collect();
        assert_eq!(unique.len(), fa.len());
    }

    #[test]
    fn allocator_drains_every_usable_flow_and_never_the_zero_port_one() {
        use mlpt_wire::probe::{build_udp_probe, parse_udp_probe, ProbePacket};
        let mut a = FlowAllocator::new(3);
        let mut drawn = BTreeSet::new();
        while let Some(flow) = a.try_fresh() {
            assert!(drawn.insert(flow), "{flow} handed out twice");
        }
        assert_eq!(drawn.len(), 65_535);
        assert!(!drawn.contains(&FlowId(32102)));
        for &flow in &drawn {
            let probe = ProbePacket {
                source: addr(0, 1),
                destination: addr(9, 9),
                flow,
                ttl: 7,
                sequence: flow.value(),
            };
            assert_eq!(parse_udp_probe(&build_udp_probe(&probe)), Ok(probe));
        }
    }

    #[test]
    fn allocator_respects_reservations() {
        let mut a = FlowAllocator::new(1);
        let f = FlowId(12345);
        a.reserve([f]);
        for _ in 0..1000 {
            assert_ne!(a.fresh(), f);
        }
    }

    #[test]
    fn invalidate_from_wipes_the_suffix_only() {
        let mut d = Discovery::new();
        for ttl in 1..=4u8 {
            d.note_probe_sent(FlowId(1), ttl);
            d.record(FlowId(1), ttl, addr(ttl.into(), 0), ttl == 4);
        }
        d.note_probe_sent(FlowId(2), 3);
        d.record(FlowId(2), 3, addr(3, 1), false);
        let wiped = d.invalidate_from(3);
        assert_eq!(
            wiped,
            vec![(3, addr(3, 0)), (3, addr(3, 1)), (4, addr(4, 0))]
        );
        // The prefix survives intact.
        assert_eq!(d.flow_vertex(2, FlowId(1)), Some(addr(2, 0)));
        assert_eq!(d.probes_at(2), 1);
        assert!(d.flow_probed_at(2, FlowId(1)));
        // The suffix is virgin again: no vertices, no probe accounting,
        // no probed-flow memory, no destination TTL.
        assert!(d.vertices_at(3).is_empty());
        assert!(d.vertices_at(4).is_empty());
        assert_eq!(d.probes_at(3), 0);
        assert!(!d.flow_probed_at(3, FlowId(1)));
        assert_eq!(d.destination_ttl(), None);
        assert_eq!(d.max_observed_ttl(), 2);
        // The flow allocator's exclusion set survives invalidation.
        assert!(d.used_flows().contains(&FlowId(2)));
    }

    #[test]
    fn remove_record_drops_unwitnessed_vertices() {
        let mut d = Discovery::new();
        d.record(FlowId(1), 2, addr(1, 0), false);
        d.record(FlowId(2), 2, addr(1, 0), false);
        assert_eq!(d.remove_record(FlowId(1), 2), Some(addr(1, 0)));
        // Another flow still witnesses the vertex: it survives.
        assert_eq!(d.vertices_at(2), &[addr(1, 0)]);
        assert_eq!(d.remove_record(FlowId(2), 2), Some(addr(1, 0)));
        assert!(d.vertices_at(2).is_empty());
        assert!(!d.has_vertex(addr(1, 0)));
        assert_eq!(d.remove_record(FlowId(2), 2), None);
    }

    #[test]
    fn probes_counted_even_unanswered() {
        let mut d = Discovery::new();
        d.note_probe_sent(FlowId(9), 3);
        assert_eq!(d.probes_at(3), 1);
        assert!(d.vertices_at(3).is_empty());
        assert_eq!(d.total_probes(), 1);
    }
}
