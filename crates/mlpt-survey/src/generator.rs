//! The synthetic Internet: calibrated multipath scenarios.
//!
//! Each scenario is one (source, destination) pair: a hop-structured
//! route of 6–18 hops in which diamonds are embedded. The embedded
//! diamond population is calibrated against the paper's published
//! marginals (Sec. 5.1):
//!
//! * ≈ 53 % of routes traverse at least one per-flow load balancer
//!   (155 030 / 294 832);
//! * load-balanced routes carry ≈ 1.4 diamonds on average;
//! * ≈ 48 % of diamonds have maximum length 2; the rest decay
//!   geometrically up to length ≈ 10;
//! * widths are dominated by 2 (the simplest diamond is ≈ 25 % of all),
//!   decay geometrically, and carry *shared core structures* of widths
//!   48 and 56 that many routes traverse through different
//!   divergence/convergence points — producing the paper's distinctive
//!   peaks at 48 and 56 (Fig. 10) and its "distinct diamonds sharing a
//!   large portion of their IP addresses";
//! * ≈ 11 % of diamonds are width-asymmetric (Fig. 7: 89 % zero
//!   asymmetry);
//! * ≈ 15 % of measured diamonds are meshed, meshing confined to a
//!   minority of hop pairs (Figs. 9);
//! * router sizes concentrate on 2 (Fig. 12: 68 % size 2, 97 % ≤ 10),
//!   with rare large routers; the 56-wide core collapses at the router
//!   level (Fig. 13: the 56 peak disappears, the 48 peak survives) while
//!   the 48-wide core is all singleton routers.
//!
//! Scenarios are generated deterministically from `(seed, index)` — the
//! whole synthetic Internet is reproducible and never materialised in
//! memory at once.

use mlpt_sim::{CounterBehavior, IpIdProfile, MplsProfile, RouterProfile};
use mlpt_topo::{MultipathTopology, RouterId, RouterMap, TopologyBuilder};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Calibration knobs for the synthetic Internet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InternetConfig {
    /// Master seed: scenario `i` derives from `(seed, i)`.
    pub seed: u64,
    /// Probability a route crosses at least one load balancer.
    pub p_load_balanced: f64,
    /// Probability a load-balanced route carries a second diamond.
    pub p_second_diamond: f64,
    /// Probability a load-balanced route carries a third diamond.
    pub p_third_diamond: f64,
    /// Probability a diamond has maximum length 2.
    pub p_length_two: f64,
    /// Probability a diamond is one of the shared core structures.
    pub p_core_structure: f64,
    /// Probability a (non-core) diamond is width-asymmetric.
    pub p_asymmetric: f64,
    /// Probability an eligible hop pair is meshed.
    pub p_meshed_pair: f64,
    /// Probability an interface pair at a hop shares a router.
    pub p_paired_interfaces: f64,
}

impl Default for InternetConfig {
    fn default() -> Self {
        Self {
            seed: 0x1917_2018,
            p_load_balanced: 0.526,
            p_second_diamond: 0.30,
            p_third_diamond: 0.12,
            p_length_two: 0.48,
            p_core_structure: 0.035,
            p_asymmetric: 0.11,
            p_meshed_pair: 0.40,
            p_paired_interfaces: 0.32,
        }
    }
}

impl InternetConfig {
    /// Creates a config with a specific seed and default calibration.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// One generated scenario: everything needed to build a simulator.
#[derive(Debug, Clone)]
pub struct TraceScenario {
    /// Scenario index.
    pub id: usize,
    /// Ground-truth topology between source and destination.
    pub topology: MultipathTopology,
    /// Ground-truth alias sets.
    pub routers: RouterMap,
    /// Behavioural profiles per router.
    pub profiles: Vec<(RouterId, RouterProfile)>,
    /// The vantage point's own address.
    pub source: Ipv4Addr,
    /// True if at least one diamond was embedded.
    pub has_diamond: bool,
}

impl TraceScenario {
    /// Builds the packet-level simulator for this scenario.
    pub fn build_network(&self, seed: u64) -> mlpt_sim::SimNetwork {
        let mut builder = mlpt_sim::SimNetwork::builder(self.topology.clone())
            .routers(self.routers.clone())
            .seed(seed);
        for (router, profile) in &self.profiles {
            builder = builder.profile(*router, *profile);
        }
        builder.build()
    }
}

/// The deterministic scenario factory.
#[derive(Debug, Clone)]
pub struct SyntheticInternet {
    config: InternetConfig,
    cores: Vec<CoreStructure>,
}

/// A shared wide structure traversed by many routes.
#[derive(Debug, Clone)]
struct CoreStructure {
    /// Interfaces of the wide hops (shared addresses across scenarios).
    hops: Vec<Vec<Ipv4Addr>>,
    /// Alias groups among those interfaces.
    alias_groups: Vec<Vec<Ipv4Addr>>,
}

/// Address of a scenario-local interface. Scenario blocks are 8192
/// addresses apart starting at 64.0.0.0; hop index (< 64) and position
/// (< 128) pack below that, leaving room for ~390 000 scenarios.
fn scenario_addr(id: usize, hop: usize, idx: usize) -> Ipv4Addr {
    debug_assert!(hop < 64 && idx < 128, "hop {hop} idx {idx} out of range");
    let v: u32 = 0x4000_0000 + (id as u32) * 8192 + (hop as u32) * 128 + idx as u32;
    Ipv4Addr::from(v)
}

/// Address inside a shared core structure.
fn core_addr(core: usize, hop: usize, idx: usize) -> Ipv4Addr {
    let v: u32 = 0x0A00_0000 + (core as u32) * 4096 + (hop as u32) * 512 + idx as u32;
    Ipv4Addr::from(v)
}

impl SyntheticInternet {
    /// Creates the factory, materialising the shared core structures.
    pub fn new(config: InternetConfig) -> Self {
        let mut cores = Vec::new();

        // Core 0: the 48-wide structure. Single wide hop; every interface
        // its own router (survives alias resolution: Fig. 13's surviving
        // peak at 48).
        cores.push(CoreStructure {
            hops: vec![(0..48).map(|i| core_addr(0, 0, i)).collect()],
            alias_groups: Vec::new(),
        });

        // Core 1: the 56-wide structure. Two wide hops whose interfaces
        // group into routers (sizes 2–8, one large); at the router level
        // the middle collapses and the diamond splits / shrinks (Fig. 13's
        // disappearing peak at 56, Fig. 14's big width reductions).
        let hop_a: Vec<Ipv4Addr> = (0..56).map(|i| core_addr(1, 0, i)).collect();
        let hop_b: Vec<Ipv4Addr> = (0..56).map(|i| core_addr(1, 1, i)).collect();
        let mut groups: Vec<Vec<Ipv4Addr>> = Vec::new();
        // Hop A groups into routers of size 8 (7 routers).
        for chunk in hop_a.chunks(8) {
            groups.push(chunk.to_vec());
        }
        // Hop B: one 52-interface router (the paper found 1 distinct
        // router with more than 50 interfaces) plus size-2 routers.
        groups.push(hop_b[..52].to_vec());
        for chunk in hop_b[52..].chunks(2) {
            groups.push(chunk.to_vec());
        }
        cores.push(CoreStructure {
            hops: vec![hop_a, hop_b],
            alias_groups: groups,
        });

        // Core 2: the 96-wide extreme — "load balancing practices on a
        // scale (up to 96 interfaces at a single hop) never before
        // described". Rarely traversed; interfaces pair into routers.
        let hop_c: Vec<Ipv4Addr> = (0..96).map(|i| core_addr(2, 0, i)).collect();
        let groups: Vec<Vec<Ipv4Addr>> = hop_c.chunks(2).map(|c| c.to_vec()).collect();
        cores.push(CoreStructure {
            hops: vec![hop_c],
            alias_groups: groups,
        });

        Self { config, cores }
    }

    /// The configuration in force.
    pub fn config(&self) -> &InternetConfig {
        &self.config
    }

    /// Generates scenario `id` deterministically.
    pub fn scenario(&self, id: usize) -> TraceScenario {
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(id as u64),
        );
        let cfg = &self.config;

        // Plan the hop widths first, as a vector of per-hop widths with
        // diamond spans remembered.
        let mut widths: Vec<usize> = Vec::new();
        // core_spans: (start hop, core id).
        let mut core_spans: Vec<(usize, usize)> = Vec::new();
        // Leading single-vertex hops (access + aggregation): Internet
        // paths run ~10-18 hops, most of them without load balancing.
        let lead = rng.gen_range(4..=8);
        widths.extend(std::iter::repeat_n(1, lead));

        let has_lb = rng.gen::<f64>() < cfg.p_load_balanced;
        let mut diamonds = 0usize;
        if has_lb {
            diamonds = 1;
            if rng.gen::<f64>() < cfg.p_second_diamond {
                diamonds += 1;
                if rng.gen::<f64>() < cfg.p_third_diamond {
                    diamonds += 1;
                }
            }
        }

        let mut asymmetric_planned: Vec<usize> = Vec::new(); // diamond start hops
        let mut meshed_planned: Vec<usize> = Vec::new();

        for _ in 0..diamonds {
            if rng.gen::<f64>() < cfg.p_core_structure {
                // A shared core structure; the 96-wide extreme is rare.
                let roll: f64 = rng.gen();
                let core_id = if roll < 0.45 {
                    0
                } else if roll < 0.9 {
                    1
                } else {
                    2
                };
                core_spans.push((widths.len(), core_id));
                for hop in &self.cores[core_id].hops {
                    widths.push(hop.len());
                }
            } else {
                let start = widths.len();
                let interior_hops = if rng.gen::<f64>() < cfg.p_length_two {
                    1
                } else {
                    // Geometric tail: 2.. up to ~12 interior hops.
                    let mut n = 2usize;
                    while n < 12 && rng.gen::<f64>() < 0.55 {
                        n += 1;
                    }
                    n
                };
                let max_width = sample_width(&mut rng);
                for i in 0..interior_hops {
                    // Bulge profile: widest in the middle.
                    let scale = 1.0
                        - (i as f64 - (interior_hops - 1) as f64 / 2.0).abs()
                            / interior_hops.max(1) as f64;
                    let w = ((max_width as f64) * (0.55 + 0.45 * scale)).round() as usize;
                    widths.push(w.clamp(2, max_width));
                }
                if rng.gen::<f64>() < cfg.p_asymmetric {
                    asymmetric_planned.push(start);
                }
                if interior_hops >= 2 && rng.gen::<f64>() < cfg.p_meshed_pair {
                    meshed_planned.push(start);
                }
            }
            // Converging single hops after each diamond.
            let gap = rng.gen_range(1..=3);
            widths.extend(std::iter::repeat_n(1, gap));
        }

        // Trailing hops to the destination.
        let trail = rng.gen_range(2..=5);
        widths.extend(std::iter::repeat_n(1, trail));

        // Materialise addresses per hop.
        let mut hops: Vec<Vec<Ipv4Addr>> = Vec::with_capacity(widths.len());
        for (h, &w) in widths.iter().enumerate() {
            // Core hops reuse the shared addresses.
            let from_core = core_spans.iter().find_map(|&(start, core_id)| {
                let core = &self.cores[core_id];
                if h >= start && h < start + core.hops.len() {
                    Some(core.hops[h - start].clone())
                } else {
                    None
                }
            });
            match from_core {
                Some(addresses) => hops.push(addresses),
                None => hops.push((0..w).map(|i| scenario_addr(id, h, i)).collect()),
            }
        }

        // Wire the hops.
        let mut b = TopologyBuilder::default();
        for hop in &hops {
            b.add_hop(hop.iter().copied());
        }
        for h in 0..hops.len() - 1 {
            let is_asymmetric = asymmetric_planned.contains(&h)
                && hops[h].len() >= 2
                && hops[h + 1].len() > hops[h].len();
            let is_meshed = meshed_planned
                .iter()
                .any(|&s| h == s + 1 && hops[h].len() >= 2 && hops[h + 1].len() >= 2);
            if is_asymmetric {
                wire_asymmetric(&mut b, h, &hops[h], &hops[h + 1]);
            } else if is_meshed {
                wire_meshed(&mut b, h, &hops[h], &hops[h + 1]);
            } else {
                b.connect_unmeshed(h);
            }
        }
        let topology = b.build().expect("generated topology is valid");

        // Router ground truth: core alias groups + per-hop pairing.
        let mut alias_groups: Vec<Vec<Ipv4Addr>> = Vec::new();
        for &(_, core_id) in &core_spans {
            alias_groups.extend(self.cores[core_id].alias_groups.iter().cloned());
        }
        for hop in &hops {
            if hop.len() < 2 || hop.iter().any(|a| u32::from(*a) < 0x4000_0000) {
                continue; // single hops and core hops handled above
            }
            // A 2-wide hop whose two interfaces share a router is a
            // diamond that alias resolution dissolves entirely — the
            // paper finds that case rare (Table 3: 5.8%), so pairing is
            // suppressed on the narrowest hops.
            let pair_probability = if hop.len() == 2 {
                cfg.p_paired_interfaces * 0.25
            } else {
                cfg.p_paired_interfaces
            };
            let mut i = 0;
            while i + 1 < hop.len() {
                if rng.gen::<f64>() < pair_probability {
                    // Mostly pairs; occasionally a larger router.
                    let mut size = 2usize;
                    while size < 6 && i + size < hop.len() && rng.gen::<f64>() < 0.18 {
                        size += 1;
                    }
                    alias_groups.push(hop[i..i + size].to_vec());
                    i += size;
                } else {
                    i += 1;
                }
            }
        }
        // Deduplicate groups (cores may repeat across spans).
        alias_groups.sort();
        alias_groups.dedup();
        let routers = RouterMap::from_alias_sets(alias_groups.iter().cloned());

        // Behavioural profiles per router. Routers made of shared core
        // addresses must behave identically in every scenario that
        // traverses them, so their profiles derive from their own
        // addresses, not from the scenario RNG; and large routers are
        // given well-behaved shared counters — the paper *found* its
        // > 50-interface router, which requires resolvable IP-IDs.
        let mut profiles = Vec::new();
        for (router, set) in routers.alias_sets() {
            let min_addr = *set.iter().next().expect("non-empty alias set");
            let is_core = u32::from(min_addr) < 0x4000_0000;
            let profile = if set.len() >= 8 {
                RouterProfile::well_behaved()
            } else if is_core {
                let mut core_rng =
                    ChaCha8Rng::seed_from_u64(u64::from(u32::from(min_addr)) ^ 0xC0DE_CAFE);
                sample_profile(&mut core_rng)
            } else {
                sample_profile(&mut rng)
            };
            profiles.push((router, profile));
        }

        TraceScenario {
            id,
            topology,
            routers,
            profiles,
            source: Ipv4Addr::new(192, 0, 2, 1),
            has_diamond: diamonds > 0,
        }
    }
}

/// Width sampler: mass at 2, geometric body, occasional wide tails.
fn sample_width<R: Rng>(rng: &mut R) -> usize {
    let roll: f64 = rng.gen();
    if roll < 0.50 {
        2
    } else if roll < 0.97 {
        // Geometric body 3..=16.
        let mut w = 3usize;
        while w < 16 && rng.gen::<f64>() < 0.62 {
            w += 1;
        }
        w
    } else {
        // Wide tail 17..=40 (the 48/56/96 extremes come from cores and
        // aggregation).
        rng.gen_range(17..=40)
    }
}

/// Asymmetric wiring for a (narrow → wide) pair: the first vertex takes
/// the lion's share of successors, the others one each — non-zero width
/// asymmetry and a non-uniform reach distribution, unmeshed.
fn wire_asymmetric(b: &mut TopologyBuilder, hop: usize, from: &[Ipv4Addr], to: &[Ipv4Addr]) {
    debug_assert!(from.len() >= 2 && to.len() > from.len());
    let heavy = to.len() - (from.len() - 1);
    for (j, &t) in to.iter().enumerate() {
        let f = if j < heavy {
            from[0]
        } else {
            from[j - heavy + 1]
        };
        b.add_edge(hop, f, t);
    }
}

/// Meshed wiring: ring pattern (each vertex feeds two targets) — meshed
/// by the paper's definition yet still uniform.
fn wire_meshed(b: &mut TopologyBuilder, hop: usize, from: &[Ipv4Addr], to: &[Ipv4Addr]) {
    debug_assert!(from.len() >= 2 && to.len() >= 2);
    for (i, &f) in from.iter().enumerate() {
        let t0 = to[i * to.len() / from.len()];
        let t1 = to[(i * to.len() / from.len() + 1) % to.len()];
        b.add_edge(hop, f, t0);
        if t1 != t0 {
            b.add_edge(hop, f, t1);
        }
    }
    // Guarantee every target has a predecessor.
    for (j, &t) in to.iter().enumerate() {
        let f = from[j * from.len() / to.len()];
        b.add_edge(hop, f, t);
    }
}

/// Behavioural profile mixture calibrated to the Table 2 phenomenology.
fn sample_profile<R: Rng>(rng: &mut R) -> RouterProfile {
    let roll: f64 = rng.gen();
    let ipid = if roll < 0.52 {
        // Well-behaved: one shared counter for everything.
        IpIdProfile::shared(2, 3)
    } else if roll < 0.57 {
        // Well-behaved but faster counters (busier routers).
        IpIdProfile::shared(5, 6)
    } else if roll < 0.70 {
        // Per-interface counters for ICMP errors, shared for echo —
        // Table 2's "Reject Indirect / Accept Direct" cell.
        IpIdProfile::per_interface_indirect(2, 3)
    } else if roll < 0.78 {
        // Constant zero on both classes: nobody can conclude.
        IpIdProfile::constant_zero()
    } else if roll < 0.88 {
        // Constant zero for ICMP errors but a live counter for echo —
        // Table 2's "Unable Indirect / Accept Direct" cell (98.6% of
        // MMLPT's inconclusive cases were constant indirect IDs).
        IpIdProfile {
            indirect: CounterBehavior::Constant(0),
            direct: CounterBehavior::SharedCounter,
            unified_counter: false,
            rate: 2,
            jitter: 3,
        }
    } else if roll < 0.94 {
        // Echo replies copy the probe's IP ID (22.8% of MIDAR's
        // inconclusive cases) while indirect probing works fine.
        IpIdProfile {
            indirect: CounterBehavior::SharedCounter,
            direct: CounterBehavior::CopyProbe,
            unified_counter: false,
            rate: 2,
            jitter: 3,
        }
    } else if roll < 0.96 {
        // Shared indirect counter but per-interface echo counters —
        // the rare "Accept Indirect / Reject Direct" cell (0.5%).
        IpIdProfile {
            indirect: CounterBehavior::SharedCounter,
            direct: CounterBehavior::PerInterfaceCounter,
            unified_counter: false,
            rate: 2,
            jitter: 3,
        }
    } else {
        // Random IDs: non-monotonic series for everyone.
        IpIdProfile {
            indirect: CounterBehavior::Random,
            direct: CounterBehavior::Random,
            unified_counter: true,
            rate: 0,
            jitter: 0,
        }
    };
    let initial_ttl = match rng.gen_range(0..10) {
        0..=4 => 255u8,
        5..=7 => 64,
        8 => 128,
        _ => 32,
    };
    let mpls = if rng.gen::<f64>() < 0.12 {
        Some(MplsProfile {
            label: rng.gen_range(16..(1 << 19)),
            stable: rng.gen::<f64>() < 0.8,
        })
    } else {
        None
    };
    RouterProfile {
        ipid,
        initial_ttl_indirect: initial_ttl,
        initial_ttl_direct: initial_ttl,
        responds_to_direct: rng.gen::<f64>() < 0.72,
        mpls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_topo::diamond::all_diamond_metrics;

    fn internet() -> SyntheticInternet {
        SyntheticInternet::new(InternetConfig::with_seed(7))
    }

    #[test]
    fn scenarios_are_deterministic() {
        let net = internet();
        let a = net.scenario(42);
        let b = net.scenario(42);
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.routers, b.routers);
    }

    #[test]
    fn scenarios_are_distinct() {
        let net = internet();
        let a = net.scenario(1);
        let b = net.scenario(2);
        assert_ne!(a.topology, b.topology);
    }

    #[test]
    fn topologies_are_valid_and_bounded() {
        let net = internet();
        for id in 0..200 {
            let s = net.scenario(id);
            assert!(s.topology.num_hops() >= 3, "scenario {id} too short");
            assert!(s.topology.num_hops() <= 64, "scenario {id} too long");
            assert_eq!(s.topology.hop(s.topology.num_hops() - 1).len(), 1);
        }
    }

    #[test]
    fn load_balanced_fraction_calibrated() {
        let net = internet();
        let n = 600;
        let with_diamond = (0..n).filter(|&id| net.scenario(id).has_diamond).count();
        let fraction = with_diamond as f64 / n as f64;
        assert!(
            (fraction - 0.526).abs() < 0.07,
            "load-balanced fraction {fraction}"
        );
    }

    #[test]
    fn diamond_population_shape() {
        let net = internet();
        let mut lengths = Vec::new();
        let mut widths = Vec::new();
        let mut asymmetric = 0usize;
        let mut meshed = 0usize;
        let mut total = 0usize;
        for id in 0..600 {
            let s = net.scenario(id);
            for m in all_diamond_metrics(&s.topology) {
                total += 1;
                lengths.push(m.max_length);
                widths.push(m.max_width);
                if m.max_width_asymmetry > 0 {
                    asymmetric += 1;
                }
                if m.is_meshed() {
                    meshed += 1;
                }
            }
        }
        assert!(total > 200, "need a real population, got {total}");
        let len2 = lengths.iter().filter(|&&l| l == 2).count() as f64 / total as f64;
        assert!((len2 - 0.48).abs() < 0.10, "length-2 share {len2}");
        let width2 = widths.iter().filter(|&&w| w == 2).count() as f64 / total as f64;
        assert!(width2 > 0.25 && width2 < 0.60, "width-2 share {width2}");
        let asym = asymmetric as f64 / total as f64;
        assert!(asym > 0.04 && asym < 0.20, "asymmetric share {asym}");
        let mesh = meshed as f64 / total as f64;
        assert!(mesh > 0.05 && mesh < 0.30, "meshed share {mesh}");
        // The cores must appear.
        assert!(
            widths.contains(&48) || widths.contains(&56),
            "core structures must be traversed"
        );
    }

    #[test]
    fn core_addresses_shared_across_scenarios() {
        let net = internet();
        // Find two scenarios traversing the *same* core structure (core 0
        // lives below 0x0A00_1000) and check they share its addresses.
        let uses_core0 = |s: &TraceScenario| {
            s.topology
                .all_addresses()
                .iter()
                .any(|a| (0x0A00_0000..0x0A00_1000).contains(&u32::from(*a)))
        };
        let mut users: Vec<usize> = Vec::new();
        for id in 0..4000 {
            if uses_core0(&net.scenario(id)) {
                users.push(id);
                if users.len() >= 2 {
                    break;
                }
            }
        }
        assert!(users.len() >= 2, "core 0 too rare");
        let a = net.scenario(users[0]);
        let b = net.scenario(users[1]);
        let aa = a.topology.all_addresses();
        let bb = b.topology.all_addresses();
        let shared = aa.intersection(&bb).count();
        assert!(shared >= 40, "shared core interfaces: {shared}");
    }

    #[test]
    fn router_sizes_mostly_two() {
        let net = internet();
        let mut sizes = Vec::new();
        for id in 0..300 {
            sizes.extend(net.scenario(id).routers.router_sizes());
        }
        assert!(!sizes.is_empty());
        let two = sizes.iter().filter(|&&s| s == 2).count() as f64 / sizes.len() as f64;
        assert!(two > 0.5, "size-2 share {two}");
    }

    #[test]
    fn network_builds_and_routes() {
        use mlpt_wire::transport::PacketTransport;
        let net = internet();
        let s = net.scenario(3);
        let mut sim = s.build_network(9);
        let probe = mlpt_wire::probe::build_udp_probe(&mlpt_wire::probe::ProbePacket {
            source: s.source,
            destination: s.topology.destination(),
            flow: mlpt_wire::FlowId(1),
            ttl: 1,
            sequence: 1,
        });
        assert!(sim.send_packet(&probe).is_some());
    }
}
