//! Output checks against the simulator's ground truth.
//!
//! Two kinds of finding. A *defect* is something a correct program can
//! never produce: a result for the wrong destination, a probe count the
//! engine did not send, an interface or a witnessed link that does not
//! exist. Any defect makes the run incorrect and it reports no numbers.
//! A *shortfall* is a destination whose result disagrees with ground
//! truth in a way the protocols allow: a trace left partial or short of
//! the destination, an interface or link the MDA stopping rule missed
//! (its 95% bound), an alias pair the IP-ID evidence got wrong. Those
//! are counted, not hidden, and the overall agreement with ground truth
//! is measured element by element: interfaces, links and (for alias
//! resolution) same-hop interface pairs.

use crate::workloads::{DestResult, Truth};
use mlpt_topo::MultipathTopology;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Shortfalls of a trace that did not complete: the failed operations.
pub const INCOMPLETE: [&str; 2] = ["partial", "unreached"];

#[derive(Debug, Default)]
pub struct CheckReport {
    /// Program defects; any entry makes the run incorrect.
    pub defects: Vec<String>,
    /// Destinations with a shortfall, by reason (a destination counts
    /// once, under its first reason).
    pub shortfalls: BTreeMap<&'static str, usize>,
    /// Ground-truth elements matched, and elements compared: the union
    /// of found and true interfaces and links, plus every same-hop pair
    /// of true interfaces whose alias verdict is checked.
    pub matched: u64,
    pub compared: u64,
}

pub fn check(results: &[DestResult], truth: &[Truth]) -> CheckReport {
    let mut report = CheckReport::default();
    if results.len() != truth.len() {
        report.defects.push(format!(
            "{} results for {} destinations",
            results.len(),
            truth.len()
        ));
        return report;
    }
    for (id, (result, truth)) in results.iter().zip(truth).enumerate() {
        match check_one(result, truth) {
            Err(defect) => report.defects.push(format!("destination {id}: {defect}")),
            Ok(verdict) => {
                if let Some(reason) = verdict.shortfall {
                    *report.shortfalls.entry(reason).or_insert(0) += 1;
                }
                report.matched += verdict.matched;
                report.compared += verdict.compared;
            }
        }
    }
    report
}

struct Verdict {
    shortfall: Option<&'static str>,
    matched: u64,
    compared: u64,
}

/// `Err` on a defect.
fn check_one(result: &DestResult, truth: &Truth) -> Result<Verdict, String> {
    let trace = &result.trace;
    let topology = &truth.topology;
    if trace.destination != topology.destination() {
        return Err(format!(
            "result for {} where {} was traced",
            trace.destination,
            topology.destination()
        ));
    }
    // A multilevel result's trace counts its trace phase only.
    if result.routers.is_none() && trace.probes_sent != result.wire_probes {
        return Err(format!(
            "trace counts {} probes, the engine sent {}",
            trace.probes_sent, result.wire_probes
        ));
    }
    let discovery = &trace.discovery;
    for ttl in 1..=discovery.max_observed_ttl() {
        let hop = usize::from(ttl - 1);
        for &vertex in discovery.vertices_at(ttl) {
            // Past the destination's hop only the destination answers.
            let real = if hop < topology.num_hops() {
                topology.contains(hop, vertex)
            } else {
                vertex == topology.destination()
            };
            if !real {
                return Err(format!("phantom interface {vertex} at TTL {ttl}"));
            }
        }
        for (from, tos) in discovery.edges_from(ttl) {
            for to in tos {
                if hop + 1 < topology.num_hops() && !topology.successors(hop, from).contains(&to) {
                    return Err(format!("phantom link {from} -> {to} at TTL {ttl}"));
                }
            }
        }
    }
    // The trace's own topology (witnessed links plus the links a
    // single-interface hop implies), or its raw evidence when it never
    // reached the destination.
    let (interfaces, links) = match trace.to_topology() {
        Some(found) => elements(&found),
        None => {
            let mut interfaces = BTreeSet::new();
            let mut links = BTreeSet::new();
            for ttl in 1..=discovery.max_observed_ttl() {
                let hop = usize::from(ttl - 1);
                interfaces.extend(discovery.vertices_at(ttl).iter().map(|&v| (hop, v)));
                for (from, tos) in discovery.edges_from(ttl) {
                    links.extend(tos.into_iter().map(|to| (hop, from, to)));
                }
            }
            (interfaces, links)
        }
    };
    let (true_interfaces, true_links) = elements(topology);
    let mut verdict = Verdict {
        shortfall: None,
        matched: (interfaces.intersection(&true_interfaces).count()
            + links.intersection(&true_links).count()) as u64,
        compared: (interfaces.union(&true_interfaces).count() + links.union(&true_links).count())
            as u64,
    };
    let mut alias = None;
    if let (Some(inferred), Some(routers)) = (&result.routers, &truth.routers) {
        // Alias verdicts over every pair of true interfaces at one hop
        // (the multilevel rounds resolve each hop apart).
        let (mut false_alias, mut missed_alias) = (false, false);
        for hop in topology.hops() {
            for (i, &a) in hop.iter().enumerate() {
                for &b in &hop[i + 1..] {
                    verdict.compared += 1;
                    match (inferred.are_aliases(a, b), routers.are_aliases(a, b)) {
                        (true, false) => false_alias = true,
                        (false, true) => missed_alias = true,
                        _ => verdict.matched += 1,
                    }
                }
            }
        }
        alias = if false_alias {
            Some("false_alias")
        } else {
            missed_alias.then_some("missed_alias")
        };
    }
    verdict.shortfall = if trace.outcome.is_partial() {
        Some("partial")
    } else if !trace.reached_destination {
        Some("unreached")
    } else if !interfaces.is_subset(&true_interfaces) || interfaces.len() < true_interfaces.len() {
        Some("missed_interface")
    } else if !links.is_subset(&true_links) {
        Some("wrong_link")
    } else if links.len() < true_links.len() {
        Some("missed_link")
    } else {
        alias
    };
    Ok(verdict)
}

type Interfaces = BTreeSet<(usize, Ipv4Addr)>;
type Links = BTreeSet<(usize, Ipv4Addr, Ipv4Addr)>;

/// A topology's interfaces and links, keyed by hop.
fn elements(topology: &MultipathTopology) -> (Interfaces, Links) {
    let interfaces = topology
        .hops()
        .iter()
        .enumerate()
        .flat_map(|(hop, vertices)| vertices.iter().map(move |&v| (hop, v)))
        .collect();
    (interfaces, topology.edges().collect())
}
