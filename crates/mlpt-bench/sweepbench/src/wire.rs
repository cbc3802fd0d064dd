//! Wire-layer figures by replay: the engine encodes and parses inside
//! its own calls, so the traced run captures what crossed the transport
//! and this module times `mlpt-wire`'s public builders and parser on it.

use crate::tracing::Capture;
use mlpt_wire::icmp::IcmpMessage;
use mlpt_wire::ipv4::{Ipv4Header, PROTO_UDP};
use mlpt_wire::probe::{
    build_echo_probe_into, build_udp_probe_into, parse_reply, parse_udp_probe, ProbePacket,
};
use mlpt_wire::{FlowId, PARIS_BASE_SPORT};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Replays are repeated until they have run this long.
const MIN_REPLAY: Duration = Duration::from_millis(40);

/// A captured probe, decoded back into the builder's arguments.
enum Logical {
    Udp(ProbePacket),
    Echo {
        source: Ipv4Addr,
        destination: Ipv4Addr,
        identifier: u16,
        sequence: u16,
        ttl: u8,
    },
}

impl Logical {
    /// Reads the builder's arguments straight from the header fields, so
    /// a probe `parse_udp_probe` would refuse is still replayed as sent.
    fn decode(packet: &[u8]) -> Result<Self, String> {
        let (ip, ihl) = Ipv4Header::parse(packet).map_err(|e| format!("captured probe: {e}"))?;
        let payload = &packet[ihl..];
        if ip.protocol == PROTO_UDP {
            let port = payload
                .get(..2)
                .ok_or("captured UDP probe without a UDP header")?;
            let port = u16::from_be_bytes([port[0], port[1]]);
            return Ok(Logical::Udp(ProbePacket {
                source: ip.source,
                destination: ip.destination,
                flow: FlowId(port.wrapping_sub(PARIS_BASE_SPORT)),
                ttl: ip.ttl,
                sequence: ip.identification,
            }));
        }
        let (identifier, sequence, _) = IcmpMessage::parse_echo_request(payload)
            .map_err(|e| format!("captured echo probe: {e}"))?;
        Ok(Logical::Echo {
            source: ip.source,
            destination: ip.destination,
            identifier,
            sequence,
            ttl: ip.ttl,
        })
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Logical::Udp(ref probe) => build_udp_probe_into(probe, out),
            Logical::Echo {
                source,
                destination,
                identifier,
                sequence,
                ttl,
            } => build_echo_probe_into(source, destination, identifier, sequence, ttl, out),
        }
    }
}

pub struct WireFigures {
    pub encode_ns_per_probe: f64,
    pub parse_ns_per_reply: f64,
    /// Captured UDP probes that `parse_udp_probe` rejects (the engine
    /// sent them all the same).
    pub unparsable_probes: usize,
    /// Captured replies that `parse_reply` rejects.
    pub unparsable_replies: usize,
}

/// Re-encodes every captured probe (checking the bytes match what the
/// engine sent) and re-parses every captured reply, timing both.
pub fn replay(captures: &[Capture]) -> Result<WireFigures, String> {
    let mut probes = Vec::new();
    let mut unparsable_probes = 0;
    let mut buf = Vec::with_capacity(64);
    for capture in captures {
        for packet in capture.probe_sample.iter() {
            let logical = Logical::decode(packet)?;
            buf.clear();
            logical.encode(&mut buf);
            if buf != packet {
                return Err("re-encoded probe differs from the captured one".into());
            }
            if matches!(logical, Logical::Udp(_)) && parse_udp_probe(packet).is_err() {
                unparsable_probes += 1;
            }
            probes.push(logical);
        }
    }
    let replies: Vec<&[u8]> = captures
        .iter()
        .flat_map(|c| c.reply_sample.iter())
        .collect();
    let unparsable_replies = replies.iter().filter(|r| parse_reply(r).is_err()).count();
    if probes.is_empty() || replies.is_empty() {
        return Err("nothing captured to replay".into());
    }
    let encode_ns_per_probe = time_per_item(probes.len(), || {
        for probe in &probes {
            buf.clear();
            probe.encode(&mut buf);
            black_box(&buf);
        }
    });
    let parse_ns_per_reply = time_per_item(replies.len(), || {
        for reply in &replies {
            let _ = black_box(parse_reply(black_box(reply)));
        }
    });
    Ok(WireFigures {
        encode_ns_per_probe,
        parse_ns_per_reply,
        unparsable_probes,
        unparsable_replies,
    })
}

/// Runs `pass` (over `items` items) until [`MIN_REPLAY`] has elapsed;
/// returns ns per item.
fn time_per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    while passes < 3 || start.elapsed() < MIN_REPLAY {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * items as f64)
}
