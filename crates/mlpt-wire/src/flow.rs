//! The Paris flow-identifier discipline.
//!
//! A per-flow load balancer classifies packets by the 5-tuple
//! `(src IP, dst IP, protocol, src port, dst port)`. Classic traceroute
//! varies the destination port per probe, so every probe takes a
//! potentially different path — the measurement artifact Paris Traceroute
//! was invented to fix. Paris Traceroute instead keeps the 5-tuple fixed
//! within a flow and *deliberately* varies exactly one field — here the UDP
//! source port — when the MDA wants to explore different load-balanced
//! paths.
//!
//! [`FlowId`] is the abstract flow identifier the algorithms reason about;
//! this module maps it to and from the wire fields.

use serde::{Deserialize, Serialize};

/// Fixed UDP destination port for probes (the traditional traceroute port).
pub const PARIS_DPORT: u16 = 33434;

/// Base source port: `FlowId(k)` is sent with source port `BASE + k`
/// (mod 2¹⁶).
///
/// Small `k` land in the ephemeral range, away from well-known ports.
/// Large `k` wrap around the port ring, and exactly one of them,
/// [`ZERO_PORT_FLOW`], wraps to the invalid source port 0, so only
/// 65 535 of the 65 536 flow IDs are usable on the wire.
pub const PARIS_BASE_SPORT: u16 = 33434;

/// The flow ID whose source port wraps to 0 (`PARIS_BASE_SPORT + k` =
/// 2¹⁶). Port 0 is not a valid UDP source port: the probe parser and
/// the simulator reject it, so a probe on this flow never gets a reply.
/// Flow allocators must never hand it out.
pub const ZERO_PORT_FLOW: FlowId = FlowId(0u16.wrapping_sub(PARIS_BASE_SPORT));

/// An abstract flow identifier, the unit the MDA and MDA-Lite manipulate.
///
/// Two probes with the same `FlowId` (and same addresses) traverse the same
/// sequence of per-flow load-balancer choices; probes with different
/// `FlowId`s are hashed independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(pub u16);

impl FlowId {
    /// The UDP source port that encodes this flow ID.
    ///
    /// Distinct flows get distinct ports. [`ZERO_PORT_FLOW`] gets the
    /// invalid port 0, which [`FlowId::from_source_port`] rejects.
    pub fn source_port(self) -> u16 {
        PARIS_BASE_SPORT.wrapping_add(self.0)
    }

    /// Recovers the flow ID from a probe's UDP source port.
    ///
    /// Returns `None` for port 0, the one port that encodes no flow.
    pub fn from_source_port(port: u16) -> Option<Self> {
        // Wrapping distance from base; every non-zero port is a flow's port.
        if port == 0 {
            return None;
        }
        Some(FlowId(port.wrapping_sub(PARIS_BASE_SPORT)))
    }

    /// Raw value.
    pub fn value(self) -> u16 {
        self.0
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sport_roundtrip() {
        for k in [0u16, 1, 63, 1000, 40000, u16::MAX] {
            let flow = FlowId(k);
            let recovered = FlowId::from_source_port(flow.source_port()).unwrap();
            assert_eq!(recovered, flow);
        }
    }

    #[test]
    fn distinct_flows_distinct_ports() {
        let a = FlowId(1).source_port();
        let b = FlowId(2).source_port();
        assert_ne!(a, b);
    }

    #[test]
    fn base_flow_is_base_port() {
        assert_eq!(FlowId(0).source_port(), PARIS_BASE_SPORT);
    }

    #[test]
    fn zero_port_rejected() {
        assert_eq!(FlowId::from_source_port(0), None);
    }

    #[test]
    fn display() {
        assert_eq!(FlowId(7).to_string(), "flow#7");
    }
}
