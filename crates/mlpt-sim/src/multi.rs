//! Multi-destination routing: one transport, many simulated networks.
//!
//! A sweep traces many destinations at once, but the probe engine has
//! exactly one [`PacketTransport`] under the prober. [`MultiNetwork`]
//! closes that gap: it hosts one [`SimNetwork`] **lane** per destination
//! and routes every injected probe to its lane by the packet's
//! destination address (UDP probes by traced destination, ICMP echoes by
//! target interface), exactly as one vantage-point NIC faces many remote
//! networks.
//!
//! # Determinism under interleaving
//!
//! Every lane keeps its *own* RNG stream, virtual clock, IP-ID engine and
//! fault state — the full per-destination [`SimNetwork`] — and only ever
//! advances when one of its own packets crosses. Probes for different
//! destinations therefore cannot perturb each other no matter how a
//! scheduler interleaves them: the byte streams (and per-lane timestamps)
//! a lane produces are bit-identical to running the same packets through
//! a standalone `SimNetwork` built with the same seed. This is the
//! transport half of the sweep engine's headline invariant — concurrent
//! sweeps reproduce sequential traces exactly.
//!
//! The vectorized [`PacketTransport::send_batch`] path can optionally
//! process lanes on worker threads ([`MultiNetwork::with_workers`]):
//! because lanes are disjoint, the merged reply batch is identical
//! regardless of thread timing, so parallelism is invisible except in
//! wall-clock time. The threads are a **persistent pool** (the
//! crate-private `pool` module) — long-lived workers parked between
//! crossings — so the parallel path engages at any batch size instead
//! of only above a spawn-amortization threshold.

use crate::network::{PendingBatch, SimNetwork, TrafficCounters};
use crate::pool::WorkerPool;
use mlpt_wire::ipv4::{Ipv4Header, PROTO_ICMP, PROTO_UDP};
use mlpt_wire::transport::{PacketBatch, PacketTransport, ReplyBatch, SplitTransport};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// Minimum routed probes in a batch before the worker pool engages.
///
/// The old per-crossing `thread::scope` spawn only amortized above ~64
/// probes *per worker* (a spawn/join costs ~10–30 µs); the persistent
/// pool's per-crossing cost is two channel hops per worker (~1 µs), so
/// the measured crossover drops to single-digit batches: any crossing
/// with at least two probes to split between lanes is worth handing to
/// the pool. Batches of one probe (and single-lane networks) keep the
/// serial path — there is nothing to parallelize.
const POOL_MIN_PROBES: usize = 2;

/// The default simulator worker count: the `MLPT_SIM_WORKERS`
/// environment variable when set (CI exercises the pool suite-wide
/// with `MLPT_SIM_WORKERS=2`), else 1 (fully sequential). Worker count
/// is purely a wall-clock knob — replies are bit-identical for any
/// value — which is what makes an environment override safe.
pub fn env_default_workers() -> usize {
    std::env::var("MLPT_SIM_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(1, |w| w.max(1))
}

/// Errors detected while assembling a [`MultiNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiNetworkError {
    /// Two lanes simulate the same traced destination; probes could not
    /// be routed unambiguously.
    DuplicateDestination(Ipv4Addr),
}

impl std::fmt::Display for MultiNetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiNetworkError::DuplicateDestination(d) => {
                write!(f, "two lanes simulate destination {d}")
            }
        }
    }
}

impl std::error::Error for MultiNetworkError {}

/// One shared transport over per-destination [`SimNetwork`] lanes.
pub struct MultiNetwork {
    /// The lanes, shared with pool workers **only while a crossing is
    /// in flight**: workers drop their `Arc` clone before acking, so
    /// between crossings this is the unique reference and every `&mut
    /// self` accessor recovers lock-free `&mut SimNetwork` access via
    /// [`Arc::get_mut`].
    lanes: Arc<Vec<Mutex<SimNetwork>>>,
    /// Sorted (destination, lane) pairs for UDP routing.
    dests: Vec<(u32, usize)>,
    /// Sorted (interface, lane) pairs for echo routing; an interface
    /// shared by several lanes (e.g. a common core) routes to the first.
    interfaces: Vec<(u32, usize)>,
    workers: usize,
    /// The persistent worker pool, spawned lazily on the first parallel
    /// crossing (serial-only networks never pay for threads).
    pool: Option<WorkerPool>,
    /// Virtual ticks every lane's clock advances after each `send_batch`.
    cycle_gap: u64,
    /// In-flight batch of the split (send/recv) transport exchange.
    pending: PendingBatch,
}

/// Unwraps a lane's mutex under the exclusive-between-crossings
/// invariant (poisoning would mean a pool worker panicked mid-job,
/// which already aborted the crossing).
fn unpoisoned(lane: &mut Mutex<SimNetwork>) -> &mut SimNetwork {
    lane.get_mut().expect("lane mutex poisoned")
}

impl MultiNetwork {
    /// Builds the shared transport over `lanes`. Destinations must be
    /// unique across lanes.
    pub fn new(lanes: Vec<SimNetwork>) -> Result<Self, MultiNetworkError> {
        let mut dests: Vec<(u32, usize)> = Vec::with_capacity(lanes.len());
        for (i, lane) in lanes.iter().enumerate() {
            let d = u32::from(lane.topology().destination());
            if dests.iter().any(|&(existing, _)| existing == d) {
                return Err(MultiNetworkError::DuplicateDestination(Ipv4Addr::from(d)));
            }
            dests.push((d, i));
        }
        dests.sort_unstable();
        let mut interfaces: Vec<(u32, usize)> = Vec::new();
        for (i, lane) in lanes.iter().enumerate() {
            for addr in lane.topology().all_addresses() {
                interfaces.push((u32::from(addr), i));
            }
        }
        // First lane wins for shared interfaces: sort by (addr, lane) and
        // keep the first entry per address.
        interfaces.sort_unstable();
        interfaces.dedup_by_key(|&mut (addr, _)| addr);
        Ok(Self {
            lanes: Arc::new(lanes.into_iter().map(Mutex::new).collect()),
            dests,
            interfaces,
            workers: env_default_workers(),
            pool: None,
            cycle_gap: 0,
            pending: PendingBatch::default(),
        })
    }

    /// Sets how many worker threads `send_batch` may spread lanes over
    /// (default: [`env_default_workers`] — 1 unless `MLPT_SIM_WORKERS`
    /// overrides it). Purely a wall-clock knob: the replies are
    /// identical for any worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        let workers = workers.max(1);
        if workers != self.workers {
            self.workers = workers;
            // Resized pools respawn lazily on the next parallel crossing.
            self.pool = None;
        }
        self
    }

    /// Splits this transport into `shards` independent transports, each
    /// owning the lanes `assign` maps to it (by the lane's traced
    /// destination, so a sharded sweep's sessions and their lanes land
    /// on the same shard). The handoff for
    /// `mlpt_core::shard::ShardedSweepEngine`: lane state, worker count
    /// and cycle gap carry over verbatim; shards the assignment leaves
    /// empty are valid (they simply answer nothing). Lane order within
    /// a shard preserves this network's lane order.
    ///
    /// Sharding assumes the standard per-destination lane construction
    /// (disjoint address blocks): an interface shared by lanes on
    /// *different* shards would be answered by each shard's own first
    /// owning lane, where the unsharded network routes all echoes to
    /// the global first.
    pub fn split_by<F>(self, shards: usize, assign: F) -> Vec<MultiNetwork>
    where
        F: Fn(Ipv4Addr) -> usize,
    {
        let shards = shards.max(1);
        let MultiNetwork {
            lanes,
            workers,
            cycle_gap,
            ..
        } = self;
        let lanes = Arc::try_unwrap(lanes)
            .map_err(|_| ())
            .expect("a crossing is still in flight")
            .into_iter()
            .map(|m| m.into_inner().expect("lane mutex poisoned"));
        let mut per_shard: Vec<Vec<SimNetwork>> = (0..shards).map(|_| Vec::new()).collect();
        for lane in lanes {
            let shard = assign(lane.topology().destination()) % shards;
            per_shard[shard].push(lane);
        }
        per_shard
            .into_iter()
            .map(|sub| {
                MultiNetwork::new(sub)
                    .expect("a subset of unique destinations stays unique")
                    .with_workers(workers)
                    .with_cycle_gap(cycle_gap)
            })
            .collect()
    }

    /// Advances every lane's virtual clock by `ticks` after each
    /// `send_batch`, modelling the round-trip pause between a scheduler's
    /// dispatch cycles. With a gap, per-router ICMP token buckets
    /// ([`crate::FaultPlan::with_rate_limit_window`]) refill between
    /// cycles, so *burst size per cycle* — not just total probe count —
    /// determines how many replies a rate limiter suppresses. That is the
    /// behaviour an adaptive in-flight budget exploits by backing off.
    ///
    /// The default gap of 0 keeps the pre-existing semantics: lane clocks
    /// advance only on their own packets, so batching is invisible and
    /// sweeps stay bit-identical to sequential traces even under
    /// rate-limiting fault plans.
    pub fn with_cycle_gap(mut self, ticks: u64) -> Self {
        self.cycle_gap = ticks;
        self
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// A lane's simulator. (`&mut self` because lane access recovers
    /// exclusive ownership from the pool-shared storage; no lock is
    /// taken.)
    pub fn lane(&mut self, index: usize) -> &SimNetwork {
        self.lane_mut(index)
    }

    /// Mutable access to a lane's simulator.
    pub fn lane_mut(&mut self, index: usize) -> &mut SimNetwork {
        let lanes = Arc::get_mut(&mut self.lanes).expect("a crossing is still in flight");
        unpoisoned(&mut lanes[index])
    }

    /// Aggregated traffic counters across all lanes.
    pub fn counters(&self) -> TrafficCounters {
        let mut total = TrafficCounters::default();
        for lane in self.lanes.iter() {
            let lane = lane.lock().expect("lane mutex poisoned");
            let c = lane.counters();
            total.probes_received += c.probes_received;
            total.probes_lost += c.probes_lost;
            total.replies_sent += c.replies_sent;
            total.replies_rate_limited += c.replies_rate_limited;
            total.replies_lost += c.replies_lost;
            total.probes_blackholed += c.probes_blackholed;
            total.mutations_applied += c.mutations_applied;
            total.mutations_rejected += c.mutations_rejected;
        }
        total
    }

    /// Advances every lane's clock by the configured inter-cycle gap
    /// (no-op at the default gap of 0).
    fn apply_cycle_gap(&mut self) {
        if self.cycle_gap > 0 {
            let gap = self.cycle_gap;
            let lanes = Arc::get_mut(&mut self.lanes).expect("a crossing is still in flight");
            for lane in lanes.iter_mut() {
                unpoisoned(lane).advance_clock(gap);
            }
        }
    }

    /// The lane a packet routes to, if any: UDP probes go to the lane
    /// simulating their destination, echoes to the lane owning the
    /// target interface.
    fn lane_for(&self, packet: &[u8]) -> Option<usize> {
        let (header, _) = Ipv4Header::parse(packet).ok()?;
        let dest = u32::from(header.destination);
        match header.protocol {
            PROTO_UDP => self
                .dests
                .binary_search_by_key(&dest, |&(d, _)| d)
                .ok()
                .map(|i| self.dests[i].1),
            PROTO_ICMP => self
                .interfaces
                .binary_search_by_key(&dest, |&(a, _)| a)
                .ok()
                .map(|i| self.interfaces[i].1),
            _ => None,
        }
    }
}

impl PacketTransport for MultiNetwork {
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        let lane = self.lane_for(packet)?;
        self.lane_mut(lane).send_packet(packet)
    }

    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        match self.lane_for(packet) {
            Some(lane) => self.lane_mut(lane).send_packet_into(packet, reply),
            None => false,
        }
    }

    /// Total virtual time across lanes (each lane's clock ticks only for
    /// its own packets). Per-probe timestamps — the values observations
    /// carry — come from the owning lane via `send_batch`.
    fn now(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.lock().expect("lane mutex poisoned").clock())
            .sum()
    }

    /// Routes each packet to its lane and stamps each reply slot with the
    /// *lane's* clock, so a session's observations carry the same
    /// timestamps a dedicated per-destination simulator would produce.
    /// With more than one worker, disjoint lanes are processed in
    /// parallel and the replies merged back in slot order.
    fn send_batch(&mut self, probes: &PacketBatch, replies: &mut ReplyBatch) {
        replies.clear();
        let lane_of: Vec<Option<usize>> = probes.iter().map(|p| self.lane_for(p)).collect();

        // The persistent pool engages at any batch worth splitting (see
        // [`POOL_MIN_PROBES`]); one worker, one lane or a single probe
        // keeps the lock-free sequential path.
        if self.workers <= 1 || self.lanes.len() <= 1 || probes.len() < POOL_MIN_PROBES {
            let lanes = Arc::get_mut(&mut self.lanes).expect("a crossing is still in flight");
            for (slot, packet) in probes.iter().enumerate() {
                match lane_of[slot] {
                    Some(l) => {
                        let lane = unpoisoned(&mut lanes[l]);
                        let mut answered = false;
                        replies.push_with(0, |buf| {
                            answered = lane.send_packet_into(packet, buf);
                            answered
                        });
                        let t = unpoisoned(&mut lanes[l]).clock();
                        replies.set_last_timestamp(t);
                    }
                    None => replies.push_with(0, |_| false),
                }
            }
            self.apply_cycle_gap();
            return;
        }

        // Parallel path: per-lane slot lists, disjoint lane sets handed
        // to the persistent workers, outputs merged in slot order. Lane
        // state is disjoint, so the result is identical to the
        // sequential path whatever the thread timing.
        let num_lanes = self.lanes.len();
        let mut slots_of: Vec<Vec<usize>> = vec![Vec::new(); num_lanes];
        for (slot, lane) in lane_of.iter().enumerate() {
            if let Some(l) = lane {
                slots_of[*l].push(slot);
            }
        }
        // Only lanes with routed probes are assigned; contiguous chunks
        // of them spread across the workers (deterministic assignment,
        // though any assignment would merge identically).
        let busy: Vec<(usize, Vec<usize>)> = slots_of
            .into_iter()
            .enumerate()
            .filter(|(_, slots)| !slots.is_empty())
            .collect();
        let workers = self.workers;
        let pool = self.pool.get_or_insert_with(|| WorkerPool::new(workers));
        let chunk = busy.len().div_ceil(pool.len()).max(1);
        let mut per_worker: Vec<Vec<(usize, Vec<usize>)>> = Vec::with_capacity(pool.len());
        let mut busy = busy.into_iter();
        loop {
            let assignments: Vec<(usize, Vec<usize>)> = busy.by_ref().take(chunk).collect();
            if assignments.is_empty() {
                break;
            }
            per_worker.push(assignments);
        }
        let mut outputs: Vec<Option<(Option<Vec<u8>>, u64)>> = vec![None; probes.len()];
        pool.dispatch(
            &self.lanes,
            Arc::new(probes.clone()),
            per_worker,
            |records| {
                for (slot, reply, clock) in records {
                    outputs[slot] = Some((reply, clock));
                }
            },
        );
        for (slot, out) in outputs.into_iter().enumerate() {
            match out {
                Some((Some(bytes), t)) => {
                    replies.push_with(t, |buf| {
                        buf.extend_from_slice(&bytes);
                        true
                    });
                }
                // Routed but unanswered: the slot still carries its
                // lane's clock, as the sequential path stamps it.
                Some((None, t)) => replies.push_with(t, |_| false),
                None => {
                    debug_assert!(
                        lane_of[slot].is_none(),
                        "routed slot missing a reply record"
                    );
                    replies.push_with(0, |_| false);
                }
            }
        }
        self.apply_cycle_gap();
    }
}

/// The split exchange rides the vectorized `send_batch` path (worker
/// threads included): the send half runs the whole batch and records
/// each slot's lane-local send tick and the reply latency its lane's
/// schedule imposed at that tick; the recv half suppresses replies that
/// missed their per-probe deadline. Receiving advances no lane clocks,
/// so with latency-free schedules the exchange is byte-identical to
/// `send_batch` — the lane-isolation invariant is untouched.
impl SplitTransport for MultiNetwork {
    fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]) {
        debug_assert_eq!(probes.len(), timeouts.len(), "one timeout per probe");
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        pending.timeouts.extend_from_slice(timeouts);
        self.send_batch(probes, &mut pending.replies);
        for (slot, packet) in probes.iter().enumerate() {
            let latency = match self.lane_for(packet) {
                // The slot's timestamp is its lane-local processing tick
                // (stamped by send_batch); the schedule step in force at
                // that tick dictates the reply's lateness, spread by the
                // lane's own jitter stream. Slots visit each lane in its
                // own dispatch order, so the draws a lane consumes are a
                // pure function of its probe sequence.
                Some(lane) => {
                    let at = pending.replies.timestamp(slot);
                    self.lane_mut(lane).sample_latency_at(at)
                }
                None => 0,
            };
            pending.latencies.push(latency);
        }
        self.pending = pending;
    }

    fn recv_replies(&mut self, replies: &mut ReplyBatch) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.resolve_into(replies);
        self.pending = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_topo::canonical;
    use mlpt_wire::probe::{build_udp_probe_into, parse_reply, ProbePacket};
    use mlpt_wire::FlowId;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    /// Canonical topologies all share addresses, so lanes are built from
    /// translated copies occupying disjoint address blocks.
    fn lanes(n: u32, base_seed: u64) -> Vec<SimNetwork> {
        (0..n)
            .map(|i| {
                let topo = canonical::fig1_meshed().translated(0x0100_0000 * (i + 1));
                SimNetwork::new(topo, base_seed + u64::from(i))
            })
            .collect()
    }

    fn probe_bytes(dst: Ipv4Addr, flow: u16, ttl: u8, seq: u16) -> Vec<u8> {
        let mut buf = Vec::new();
        build_udp_probe_into(
            &ProbePacket {
                source: SRC,
                destination: dst,
                flow: FlowId(flow),
                ttl,
                sequence: seq,
            },
            &mut buf,
        );
        buf
    }

    #[test]
    fn duplicate_destinations_rejected() {
        let topo = canonical::simplest_diamond();
        let lanes = vec![
            SimNetwork::new(topo.clone(), 1),
            SimNetwork::new(topo.clone(), 2),
        ];
        assert_eq!(
            MultiNetwork::new(lanes).err(),
            Some(MultiNetworkError::DuplicateDestination(topo.destination()))
        );
    }

    #[test]
    fn routes_by_destination() {
        let lanes = lanes(3, 7);
        let dests: Vec<Ipv4Addr> = lanes.iter().map(|l| l.topology().destination()).collect();
        let mut net = MultiNetwork::new(lanes).expect("unique destinations");
        for (i, &dst) in dests.iter().enumerate() {
            let reply = net
                .send_packet(&probe_bytes(dst, 3, 1, 1))
                .expect("routed and answered");
            let parsed = parse_reply(&reply).expect("valid reply");
            assert!(
                net.lane(i)
                    .topology()
                    .all_addresses()
                    .contains(&parsed.responder),
                "lane {i} must answer its own probe"
            );
        }
        // Unknown destination: silently unanswered.
        assert!(net
            .send_packet(&probe_bytes(Ipv4Addr::new(8, 8, 8, 8), 0, 1, 1))
            .is_none());
    }

    /// The headline invariant at the transport level: a lane's byte
    /// stream is bit-identical to a standalone SimNetwork with the same
    /// seed, regardless of how other lanes' packets interleave.
    #[test]
    fn lanes_unperturbed_by_interleaving() {
        let all = lanes(2, 40);
        let d0 = all[0].topology().destination();
        let d1 = all[1].topology().destination();
        let mut multi = MultiNetwork::new(all).expect("unique destinations");
        let mut standalone = lanes(2, 40).remove(0);

        for step in 0..60u16 {
            let ttl = (step % 4 + 1) as u8;
            // Interleave: lane-1 traffic between every lane-0 packet.
            let noise = probe_bytes(d1, step, ttl, step);
            let _ = multi.send_packet(&noise);
            let probe = probe_bytes(d0, step, ttl, step);
            assert_eq!(
                multi.send_packet(&probe),
                standalone.send_packet(&probe),
                "lane 0 diverged at step {step}"
            );
        }
        assert_eq!(multi.lane(0).counters(), standalone.counters());
    }

    /// send_batch stamps each slot with the owning lane's clock and is
    /// identical to sequential single-packet dispatch.
    #[test]
    fn batch_matches_sequential_with_lane_clocks() {
        let all = lanes(3, 9);
        let dests: Vec<Ipv4Addr> = all.iter().map(|l| l.topology().destination()).collect();
        let mut batch = PacketBatch::new();
        for round in 0..8u16 {
            for (i, &dst) in dests.iter().enumerate() {
                let flow = round * 4 + i as u16;
                batch.push(&probe_bytes(dst, flow, (round % 4 + 1) as u8, flow));
            }
        }

        let mut batched = MultiNetwork::new(all).expect("unique destinations");
        let mut replies = ReplyBatch::new();
        batched.send_batch(&batch, &mut replies);

        let mut sequential = MultiNetwork::new(lanes(3, 9)).expect("unique destinations");
        for (slot, packet) in batch.iter().enumerate() {
            let expected = sequential.send_packet(packet);
            assert_eq!(
                replies.get(slot).map(<[u8]>::to_vec),
                expected,
                "slot {slot}"
            );
            if expected.is_some() {
                let lane = sequential.lane_for(packet).expect("routed");
                assert_eq!(
                    replies.timestamp(slot),
                    sequential.lane(lane).clock(),
                    "slot {slot} must carry its lane's clock"
                );
            }
        }
    }

    /// Worker threads change nothing but wall-clock time.
    #[test]
    fn parallel_workers_are_invisible() {
        let dests: Vec<Ipv4Addr> = lanes(4, 21)
            .iter()
            .map(|l| l.topology().destination())
            .collect();
        let mut batch = PacketBatch::new();
        // A large batch: plenty of lane work to spread over the pool.
        for round in 0..64u16 {
            for (i, &dst) in dests.iter().enumerate() {
                batch.push(&probe_bytes(
                    dst,
                    round,
                    (round % 4 + 1) as u8,
                    round * 7 + i as u16,
                ));
            }
        }
        // One unroutable packet mid-batch.
        batch.push(&probe_bytes(Ipv4Addr::new(9, 9, 9, 9), 0, 1, 0));

        let mut seq_replies = ReplyBatch::new();
        MultiNetwork::new(lanes(4, 21))
            .expect("unique")
            .send_batch(&batch, &mut seq_replies);

        let mut par_replies = ReplyBatch::new();
        MultiNetwork::new(lanes(4, 21))
            .expect("unique")
            .with_workers(3)
            .send_batch(&batch, &mut par_replies);

        assert_eq!(seq_replies.len(), par_replies.len());
        for slot in 0..seq_replies.len() {
            assert_eq!(
                seq_replies.get(slot),
                par_replies.get(slot),
                "slot {slot} reply"
            );
            assert_eq!(
                seq_replies.timestamp(slot),
                par_replies.timestamp(slot),
                "slot {slot} timestamp"
            );
        }
    }

    /// Satellite regression for the persistent pool: with spawn
    /// amortization gone, the parallel path engages at any batch size —
    /// so 1-worker and N-worker crossings must stay bit-identical at
    /// *every* batch size, including a single probe, and across
    /// repeated crossings of one long-lived pool.
    #[test]
    fn worker_counts_bit_identical_at_every_batch_size() {
        let dests: Vec<Ipv4Addr> = lanes(4, 33)
            .iter()
            .map(|l| l.topology().destination())
            .collect();
        for batch_size in [1usize, 2, 3, 5, 9, 17, 64] {
            let batches: Vec<PacketBatch> = (0..3u16)
                .map(|crossing| {
                    let mut batch = PacketBatch::new();
                    for i in 0..batch_size {
                        let seq = crossing * 100 + i as u16;
                        batch.push(&probe_bytes(
                            dests[i % dests.len()],
                            seq,
                            (i % 4 + 1) as u8,
                            seq,
                        ));
                    }
                    batch
                })
                .collect();
            let run = |workers: usize| -> Vec<ReplyBatch> {
                let mut net = MultiNetwork::new(lanes(4, 33))
                    .expect("unique")
                    .with_workers(workers);
                batches
                    .iter()
                    .map(|batch| {
                        let mut replies = ReplyBatch::new();
                        net.send_batch(batch, &mut replies);
                        replies
                    })
                    .collect()
            };
            let baseline = run(1);
            for workers in [2usize, 3, 8] {
                let parallel = run(workers);
                for (crossing, (want, got)) in baseline.iter().zip(&parallel).enumerate() {
                    assert_eq!(want.len(), got.len());
                    for slot in 0..want.len() {
                        assert_eq!(
                            want.get(slot),
                            got.get(slot),
                            "workers {workers} batch {batch_size} crossing {crossing} slot {slot} reply"
                        );
                        assert_eq!(
                            want.timestamp(slot),
                            got.timestamp(slot),
                            "workers {workers} batch {batch_size} crossing {crossing} slot {slot} timestamp"
                        );
                    }
                }
            }
        }
    }

    /// `split_by` hands each lane (with its full state) to the shard its
    /// destination maps to: every shard answers exactly its own
    /// destinations, empty shards are valid, and the shards' replies are
    /// bit-identical to the unsharded network's.
    #[test]
    fn split_by_partitions_lanes_and_preserves_state() {
        let all = lanes(4, 55);
        let dests: Vec<Ipv4Addr> = all.iter().map(|l| l.topology().destination()).collect();
        let assign = |d: Ipv4Addr| usize::from(u32::from(d) % 2 == 0);
        // Shard 2 stays empty on purpose.
        let mut shards = MultiNetwork::new(all)
            .expect("unique")
            .with_cycle_gap(3)
            .split_by(3, assign);
        assert_eq!(shards.len(), 3);
        assert_eq!(
            shards.iter().map(MultiNetwork::num_lanes).sum::<usize>(),
            dests.len()
        );
        assert_eq!(shards[2].num_lanes(), 0);
        let mut unsharded = MultiNetwork::new(lanes(4, 55)).expect("unique");
        for (i, &dst) in dests.iter().enumerate() {
            let probe = probe_bytes(dst, i as u16, 2, i as u16);
            let expected = unsharded.send_packet(&probe);
            assert!(expected.is_some(), "destination {dst} must answer");
            for (s, shard) in shards.iter_mut().enumerate() {
                let reply = shard.send_packet(&probe);
                if s == assign(dst) {
                    assert_eq!(reply, expected, "owning shard {s} must answer {dst}");
                } else {
                    assert!(reply.is_none(), "shard {s} must not own {dst}");
                }
            }
        }
    }

    /// With an inter-cycle gap, a rate-limited lane suppresses oversized
    /// bursts but recovers between dispatch cycles — the signal an
    /// adaptive budget backs off from. Without a gap, batch slicing is
    /// invisible to the limiter (clocks only tick on own packets).
    #[test]
    fn cycle_gap_refills_rate_limited_lanes() {
        use crate::faults::FaultPlan;
        let topo = canonical::simplest_diamond().translated(0x0100_0000);
        let d = topo.destination();
        // Every reply comes from the same last-hop router at TTL 3; allow
        // 2 replies per 8-tick window.
        let build = || {
            crate::SimNetwork::builder(topo.clone())
                .faults(FaultPlan::with_rate_limit_window(2, 8))
                .seed(1)
                .build()
        };
        let batch_of = |n: u16| {
            let mut batch = PacketBatch::new();
            for i in 0..n {
                batch.push(&probe_bytes(d, i, 3, i + 1));
            }
            batch
        };

        // One burst of 8 into a capacity-2 bucket: most suppressed.
        let mut burst_net = MultiNetwork::new(vec![build()]).expect("unique");
        let mut replies = ReplyBatch::new();
        burst_net.send_batch(&batch_of(8), &mut replies);
        let burst_suppressed = burst_net.counters().replies_rate_limited;
        assert!(burst_suppressed >= 5, "suppressed {burst_suppressed}");

        // The same 8 probes as 4 cycles of 2 with a full window between
        // cycles: the bucket refills each time, nothing is suppressed.
        let mut paced_net = MultiNetwork::new(vec![build()])
            .expect("unique")
            .with_cycle_gap(8);
        for c in 0..4u16 {
            let mut batch = PacketBatch::new();
            for i in 0..2u16 {
                let seq = c * 2 + i;
                batch.push(&probe_bytes(d, seq, 3, seq + 1));
            }
            paced_net.send_batch(&batch, &mut replies);
        }
        assert_eq!(paced_net.counters().replies_rate_limited, 0);
        assert_eq!(paced_net.counters().replies_sent, 8);
    }

    /// Rate-limit profiles apply to Echo Replies exactly as to ICMP
    /// errors: an echo burst into a rate-limited lane is suppressed at
    /// the router's token bucket, and the inter-cycle gap refills it —
    /// the behaviour an adaptive alias sweep (echo-heavy direct probing)
    /// backs off from.
    #[test]
    fn rate_limit_applies_to_echo_replies_on_lanes() {
        use crate::faults::FaultPlan;
        use crate::router::RouterProfile;
        use mlpt_topo::RouterId;
        let topo = canonical::simplest_diamond().translated(0x0100_0000);
        // Group the two middle interfaces into one router so the echo
        // burst drains a single shared token bucket.
        let targets: Vec<Ipv4Addr> = topo.hop(1).to_vec();
        let routers = mlpt_topo::RouterMap::from_alias_sets([targets.clone()]);
        let build = || {
            crate::SimNetwork::builder(topo.clone())
                .routers(routers.clone())
                .profile(RouterId(0), RouterProfile::well_behaved())
                .faults(FaultPlan::with_rate_limit_window(2, 8))
                .seed(3)
                .build()
        };
        let echo_batch = |n: u16| {
            let mut batch = PacketBatch::new();
            for i in 0..n {
                let target = targets[usize::from(i) % targets.len()];
                batch.push(&mlpt_wire::probe::build_echo_probe(
                    SRC,
                    target,
                    0x4D4C,
                    i + 1,
                    64,
                ));
            }
            batch
        };

        // One burst of 8 echoes into a capacity-2 bucket: most dropped.
        let mut burst_net = MultiNetwork::new(vec![build()]).expect("unique");
        let mut replies = ReplyBatch::new();
        burst_net.send_batch(&echo_batch(8), &mut replies);
        let suppressed = burst_net.counters().replies_rate_limited;
        assert!(suppressed >= 5, "suppressed {suppressed}");
        // The answered ones are real Echo Replies from the targets.
        let answered = (0..replies.len())
            .filter(|&i| replies.get(i).is_some())
            .count();
        assert_eq!(answered as u64, burst_net.counters().replies_sent);

        // The same 8 echoes paced 2 per cycle with a full window between
        // cycles: the bucket refills, nothing is suppressed.
        let mut paced_net = MultiNetwork::new(vec![build()])
            .expect("unique")
            .with_cycle_gap(8);
        for c in 0..4u16 {
            let mut batch = PacketBatch::new();
            for i in 0..2u16 {
                let seq = c * 2 + i;
                let target = targets[usize::from(seq) % targets.len()];
                batch.push(&mlpt_wire::probe::build_echo_probe(
                    SRC,
                    target,
                    0x4D4C,
                    seq + 1,
                    64,
                ));
            }
            paced_net.send_batch(&batch, &mut replies);
        }
        assert_eq!(paced_net.counters().replies_rate_limited, 0);
        assert_eq!(paced_net.counters().replies_sent, 8);
    }

    #[test]
    fn echo_routes_to_owning_lane() {
        let all = lanes(2, 3);
        let target = *all[1].topology().hop(1).first().expect("multi-vertex hop");
        let mut net = MultiNetwork::new(all).expect("unique destinations");
        let echo = mlpt_wire::probe::build_echo_probe(SRC, target, 0xBEEF, 1, 64);
        let reply = net.send_packet(&echo).expect("echo answered");
        let parsed = parse_reply(&reply).expect("valid reply");
        assert_eq!(parsed.responder, target);
        assert_eq!(net.lane(0).counters().probes_received, 0);
        assert_eq!(net.lane(1).counters().probes_received, 1);
    }
}
