//! Outside-in tracing: spans recorded by wrappers around the public
//! session and transport traits, and by the benchmark's own source and
//! sink, without touching the program under test.
//!
//! Every span is a child of the sweep (the engine's run call) and
//! carries an id: the destination's source index for session, source
//! and sink spans, the shard index for transport spans. Spans stay in
//! memory until the sweep ends.

use mlpt_core::prober::ProbeSpec;
use mlpt_core::session::{ProbeOutcome, ProbeRequest, ProbeSession, SessionState, TraceSession};
use mlpt_core::stopset::{StopContribution, StopSnapshot};
use mlpt_core::{PartialReason, ProbeObservation, RouteHealth, Trace};
use mlpt_wire::transport::{PacketBatch, PacketTransport, ReplyBatch, SplitTransport};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Probes (and their replies) kept per transport for the wire replay.
const CAPTURE_LIMIT: usize = 20_000;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The source iterator building a session (`session.new`).
    New,
    /// `poll` on a session.
    Poll,
    /// `on_replies` on a session.
    OnReplies,
    /// Turning a finished session into its result.
    Finish,
    /// The transport's send half (`SplitTransport::send_probes`).
    Send,
    /// The transport's receive half (`SplitTransport::recv_replies`).
    Recv,
    /// The result sink (the caller's per-destination analysis).
    Sink,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::New => "session.new",
            Layer::Poll => "session.poll",
            Layer::OnReplies => "session.on_replies",
            Layer::Finish => "session.finish",
            Layer::Send => "sim.send",
            Layer::Recv => "sim.recv",
            Layer::Sink => "sink",
        }
    }
}

/// One timed call at a layer boundary. Times are nanoseconds since the
/// sweep's [`Clock`] epoch; `count` is the work the call carried (probes
/// in a round or batch, replies delivered).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub id: u32,
    pub start: u64,
    pub end: u64,
    pub count: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A shared monotonic epoch for one sweep.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Where session wrappers deposit their spans when their session
/// finishes (sessions may finish on shard worker threads).
#[derive(Debug, Clone)]
pub struct SpanStore {
    clock: Clock,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl SpanStore {
    pub fn new(clock: Clock) -> Self {
        SpanStore {
            clock,
            spans: Arc::default(),
        }
    }

    fn deposit(&self, spans: &mut Vec<Span>) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking shard")
            .append(spans);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store poisoned by a panicking shard"),
        )
    }
}

/// Times every call the engine makes into a session. Spans are buffered
/// per session and deposited once the session finishes.
pub struct TracedSession<S> {
    inner: S,
    id: u32,
    store: SpanStore,
    spans: Vec<Span>,
}

impl<S> TracedSession<S> {
    pub fn new(inner: S, id: usize, store: &SpanStore) -> Self {
        TracedSession {
            inner,
            id: id as u32,
            store: store.clone(),
            spans: Vec::new(),
        }
    }

    fn timed<R>(&mut self, layer: Layer, call: impl FnOnce(&mut S) -> R) -> R {
        let start = self.store.clock.ns();
        let result = call(&mut self.inner);
        self.spans.push(Span {
            layer,
            id: self.id,
            start,
            end: self.store.clock.ns(),
            count: 0,
        });
        result
    }

    /// Records the size of the round a `poll` just made ready.
    fn note_round(&mut self, probes: usize) {
        if let Some(last) = self.spans.last_mut() {
            last.count = probes as u32;
        }
    }

    /// Deposits the spans and returns the wrapped session.
    pub fn into_inner(mut self) -> S {
        self.store.deposit(&mut self.spans);
        self.inner
    }
}

impl<S: TraceSession> TraceSession for TracedSession<S> {
    fn poll(&mut self) -> SessionState {
        let state = self.timed(Layer::Poll, |s| s.poll());
        let probes = self.inner.next_rounds().len();
        self.note_round(probes);
        state
    }

    fn next_rounds(&self) -> &[ProbeSpec] {
        self.inner.next_rounds()
    }

    fn on_replies(&mut self, results: &[Option<ProbeObservation>]) {
        self.timed(Layer::OnReplies, |s| s.on_replies(results));
    }

    fn destination(&self) -> std::net::Ipv4Addr {
        self.inner.destination()
    }

    fn take_trace(&mut self, probes_sent: u64) -> Trace {
        let trace = self.timed(Layer::Finish, |s| s.take_trace(probes_sent));
        self.store.deposit(&mut self.spans);
        trace
    }

    fn predicted_cost(&self) -> u64 {
        self.inner.predicted_cost()
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        self.inner.adopt_stop_set(snapshot)
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        self.inner.stop_contribution()
    }

    fn should_retry(&self, spec: &ProbeSpec) -> bool {
        self.inner.should_retry(spec)
    }

    fn route_health(&self) -> Option<RouteHealth> {
        self.inner.route_health()
    }
}

impl<S: ProbeSession> ProbeSession for TracedSession<S> {
    fn poll(&mut self) -> SessionState {
        let state = self.timed(Layer::Poll, |s| s.poll());
        let probes = self.inner.next_rounds().len();
        self.note_round(probes);
        state
    }

    fn next_rounds(&self) -> &[ProbeRequest] {
        self.inner.next_rounds()
    }

    fn on_replies(&mut self, results: &mut [Option<ProbeOutcome>]) {
        self.timed(Layer::OnReplies, |s| s.on_replies(results));
    }

    fn destination(&self) -> std::net::Ipv4Addr {
        self.inner.destination()
    }

    fn note_wire_probes(&mut self, count: u64) {
        self.inner.note_wire_probes(count)
    }

    fn predicted_cost(&self) -> u64 {
        self.inner.predicted_cost()
    }

    fn abort(&mut self, reason: PartialReason) {
        self.inner.abort(reason)
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        self.inner.adopt_stop_set(snapshot)
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        self.inner.stop_contribution()
    }

    fn should_retry(&self, request: &ProbeRequest) -> bool {
        self.inner.should_retry(request)
    }

    fn route_health(&self) -> Option<RouteHealth> {
        self.inner.route_health()
    }
}

/// What a traced transport saw: every crossing's batch size and byte
/// totals, plus the first [`CAPTURE_LIMIT`] probes and their replies for
/// the wire replay.
#[derive(Debug, Default)]
pub struct Capture {
    /// `(send start ns, probes)` per crossing.
    pub crossings: Vec<(u64, u32)>,
    pub probes: u64,
    pub probe_bytes: u64,
    pub replies: u64,
    pub reply_bytes: u64,
    pub probe_sample: PacketBatch,
    pub reply_sample: PacketBatch,
}

/// Times both halves of a [`SplitTransport`] (the simulator walk) and
/// captures what crosses it.
pub struct TracedTransport<T> {
    inner: T,
    shard: u32,
    clock: Clock,
    spans: Vec<Span>,
    capture: Capture,
    /// Whether the batch in flight was captured (its replies are then
    /// captured too, keeping the two samples aligned).
    capturing: bool,
}

impl<T> TracedTransport<T> {
    pub fn new(inner: T, shard: usize, clock: Clock) -> Self {
        TracedTransport {
            inner,
            shard: shard as u32,
            clock,
            spans: Vec::new(),
            capture: Capture::default(),
            capturing: false,
        }
    }

    pub fn into_parts(self) -> (Vec<Span>, Capture) {
        (self.spans, self.capture)
    }
}

impl<T: PacketTransport> PacketTransport for TracedTransport<T> {
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        self.inner.send_packet(packet)
    }

    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        self.inner.send_packet_into(packet, reply)
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }
}

impl<T: SplitTransport> SplitTransport for TracedTransport<T> {
    fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]) {
        let start = self.clock.ns();
        self.inner.send_probes(probes, timeouts);
        let end = self.clock.ns();
        let count = probes.len() as u32;
        self.spans.push(Span {
            layer: Layer::Send,
            id: self.shard,
            start,
            end,
            count,
        });
        let capture = &mut self.capture;
        capture.crossings.push((start, count));
        capture.probes += u64::from(count);
        self.capturing = capture.probe_sample.len() + probes.len() <= CAPTURE_LIMIT;
        for packet in probes.iter() {
            capture.probe_bytes += packet.len() as u64;
            if self.capturing {
                capture.probe_sample.push(packet);
            }
        }
    }

    fn recv_replies(&mut self, replies: &mut ReplyBatch) {
        let start = self.clock.ns();
        self.inner.recv_replies(replies);
        let end = self.clock.ns();
        let capture = &mut self.capture;
        let mut answered = 0u32;
        for (reply, _) in replies.iter() {
            if let Some(bytes) = reply {
                answered += 1;
                capture.reply_bytes += bytes.len() as u64;
                if self.capturing {
                    capture.reply_sample.push(bytes);
                }
            }
        }
        capture.replies += u64::from(answered);
        self.spans.push(Span {
            layer: Layer::Recv,
            id: self.shard,
            start,
            end,
            count: answered,
        });
    }
}

/// Source and sink timing on the caller's thread: when the engine pulled
/// each destination off the source and when its result reached the sink
/// (always recorded — the latency metrics need them), plus source and
/// sink spans when tracing.
pub struct Meter {
    pub clock: Clock,
    store: Option<SpanStore>,
    pulled: RefCell<Vec<u64>>,
    reported: RefCell<Vec<u64>>,
    spans: RefCell<Vec<Span>>,
}

impl Meter {
    pub fn new(clock: Clock, destinations: usize, traced: bool) -> Self {
        Meter {
            clock,
            store: traced.then(|| SpanStore::new(clock)),
            pulled: RefCell::new(vec![0; destinations]),
            reported: RefCell::new(vec![0; destinations]),
            spans: RefCell::default(),
        }
    }

    pub fn store(&self) -> Option<&SpanStore> {
        self.store.as_ref()
    }

    fn span(&self, layer: Layer, id: usize, start: u64, end: u64) {
        if self.store.is_some() {
            self.spans.borrow_mut().push(Span {
                layer,
                id: id as u32,
                start,
                end,
                count: 0,
            });
        }
    }

    /// The engine pulls destination `id` off the source: `build` makes
    /// its session.
    pub fn pull<R>(&self, id: usize, build: impl FnOnce() -> R) -> R {
        let start = self.clock.ns();
        let session = build();
        self.pulled.borrow_mut()[id] = start;
        self.span(Layer::New, id, start, self.clock.ns());
        session
    }

    /// Times a finished session's conversion into its result.
    pub fn finish<R>(&self, id: usize, call: impl FnOnce() -> R) -> R {
        let start = self.clock.ns();
        let result = call();
        self.span(Layer::Finish, id, start, self.clock.ns());
        result
    }

    /// Destination `id`'s result reaches the sink; `consume` is the
    /// sink's work on it.
    pub fn report<R>(&self, id: usize, consume: impl FnOnce() -> R) -> R {
        let start = self.clock.ns();
        let result = consume();
        let end = self.clock.ns();
        self.reported.borrow_mut()[id] = end;
        self.span(Layer::Sink, id, start, end);
        result
    }

    /// `(pulled, reported)` ns per destination, and the source/sink spans.
    pub fn into_parts(self) -> (Vec<(u64, u64)>, Vec<Span>) {
        let pulled = self.pulled.into_inner();
        let reported = self.reported.into_inner();
        let window = pulled.into_iter().zip(reported).collect();
        let mut spans = self.spans.into_inner();
        if let Some(store) = &self.store {
            spans.extend(store.take());
        }
        (window, spans)
    }
}
