//! Workload modules: the traffic generators the paper's experiments use.
//!
//! The §4 experiments all follow one shape: "a correspondent host
//! continuously sends a UDP packet to the mobile host every
//! [10 | 250] milliseconds, and the mobile host echoes the packet back.
//! We then measure the number of packets that were lost." [`UdpEchoSender`]
//! is that correspondent side, [`UdpEchoResponder`] the mobile side; the
//! sender keeps a per-sequence log so the harness can count losses inside
//! any time window.

use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_sim::{Counter, MetricCell, MetricsScope, SimDuration, SimTime};
use mosquitonet_stack::{ConnId, Module, ModuleCtx, SendOptions, SocketId, TcpEvent, UdpBatchItem};

/// One probe in an echo stream.
#[derive(Clone, Copy, Debug)]
pub struct EchoRecord {
    /// When it was sent.
    pub sent_at: SimTime,
    /// When its echo returned, if it did.
    pub echoed_at: Option<SimTime>,
}

impl EchoRecord {
    /// Round-trip time, when the echo returned.
    pub fn rtt(&self) -> Option<SimDuration> {
        Some(self.echoed_at? - self.sent_at)
    }
}

/// The correspondent-host side: sends sequence-stamped datagrams at a
/// fixed interval and records which echoes return.
pub struct UdpEchoSender {
    /// Destination (the mobile host's home address + echo port).
    pub dst: (Ipv4Addr, u16),
    /// Sending interval.
    pub interval: SimDuration,
    /// Extra payload padding bytes (past the 8-byte sequence stamp).
    pub padding: usize,
    sock: Option<SocketId>,
    /// One record per probe sent, indexed by its sequence number.
    records: Vec<EchoRecord>,
    running: bool,
}

const TOKEN_SEND: u64 = 1;

impl UdpEchoSender {
    /// Creates a sender toward `dst` at `interval`, started immediately.
    pub fn new(dst: (Ipv4Addr, u16), interval: SimDuration) -> UdpEchoSender {
        UdpEchoSender {
            dst,
            interval,
            padding: 24,
            sock: None,
            records: Vec::new(),
            running: true,
        }
    }

    /// Stops the stream (no further sends).
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Total datagrams sent.
    pub fn sent(&self) -> u64 {
        self.records.len() as u64
    }

    /// Total echoes received.
    pub fn received(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.echoed_at.is_some())
            .count() as u64
    }

    /// Sequences sent within `[from, to)` that never came back.
    ///
    /// Call this only after running the simulation well past `to`, so that
    /// slow echoes have had time to arrive.
    pub fn lost_in_window(&self, from: SimTime, to: SimTime) -> u64 {
        self.records
            .iter()
            .filter(|r| r.sent_at >= from && r.sent_at < to && r.echoed_at.is_none())
            .count() as u64
    }

    /// Send times of the probes in `[from, to)` that never came back,
    /// sorted ascending — the ground truth the flight recorder's blackout
    /// reconstruction is checked against.
    pub fn lost_sent_times(&self, from: SimTime, to: SimTime) -> Vec<SimTime> {
        // Probes are sent in sequence order, so send times already ascend.
        self.records
            .iter()
            .filter(|r| r.sent_at >= from && r.sent_at < to && r.echoed_at.is_none())
            .map(|r| r.sent_at)
            .collect()
    }

    /// Round-trip times of all returned echoes, in send order.
    pub fn rtts(&self) -> Vec<SimDuration> {
        self.records.iter().filter_map(EchoRecord::rtt).collect()
    }

    /// The full record, indexed by sequence number (diagnostics).
    pub fn records(&self) -> &[EchoRecord] {
        &self.records
    }
}

impl Module for UdpEchoSender {
    fn name(&self) -> &'static str {
        "udp-echo-sender"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 0);
        assert!(self.sock.is_some());
        ctx.fx.set_timer(SimDuration::ZERO, TOKEN_SEND);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        if token != TOKEN_SEND || !self.running {
            return;
        }
        let seq = self.records.len() as u64;
        self.records.push(EchoRecord {
            sent_at: ctx.now,
            echoed_at: None,
        });
        let mut payload = Vec::with_capacity(8 + self.padding);
        payload.extend_from_slice(&seq.to_be_bytes());
        payload.resize(8 + self.padding, 0xEC);
        ctx.fx.send_udp_opts(
            self.sock.expect("bound"),
            self.dst,
            Bytes::from(payload),
            SendOptions {
                label: Some("echo"),
                ..SendOptions::default()
            },
        );
        ctx.fx.set_timer(self.interval, TOKEN_SEND);
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        _src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        if payload.len() >= 8 {
            let seq = u64::from_be_bytes(payload[..8].try_into().expect("8 bytes"));
            let rec = usize::try_from(seq)
                .ok()
                .and_then(|seq| self.records.get_mut(seq));
            if let Some(rec) = rec {
                if rec.echoed_at.is_none() {
                    rec.echoed_at = Some(ctx.now);
                }
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// The mobile-host side: echoes every datagram back to its sender.
pub struct UdpEchoResponder {
    /// Port to serve.
    pub port: u16,
    /// Datagrams echoed.
    pub echoed: u64,
    sock: Option<SocketId>,
}

impl UdpEchoResponder {
    /// Creates a responder on `port`.
    pub fn new(port: u16) -> UdpEchoResponder {
        UdpEchoResponder {
            port,
            echoed: 0,
            sock: None,
        }
    }
}

impl Module for UdpEchoResponder {
    fn name(&self) -> &'static str {
        "udp-echo-responder"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, self.port);
        assert!(self.sock.is_some());
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        sock: SocketId,
        src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        self.echoed += 1;
        ctx.fx.send_udp_opts(
            sock,
            src,
            payload.clone(),
            SendOptions {
                label: Some("echo-reply"),
                ..SendOptions::default()
            },
        );
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A one-way UDP bulk sender (radio-throughput characterization).
pub struct BulkSender {
    /// Destination.
    pub dst: (Ipv4Addr, u16),
    /// Payload bytes per datagram.
    pub payload_len: usize,
    /// Datagrams to send.
    pub count: u64,
    /// Gap between sends (0 = back-to-back; the device serializes anyway).
    pub gap: SimDuration,
    sent: u64,
    sock: Option<SocketId>,
}

impl BulkSender {
    /// Creates a bulk sender.
    pub fn new(dst: (Ipv4Addr, u16), payload_len: usize, count: u64) -> BulkSender {
        BulkSender {
            dst,
            payload_len,
            count,
            gap: SimDuration::from_millis(1),
            sent: 0,
            sock: None,
        }
    }
}

impl Module for BulkSender {
    fn name(&self) -> &'static str {
        "bulk-sender"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 0);
        ctx.fx.set_timer(SimDuration::ZERO, TOKEN_SEND);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _token: u64) {
        if self.sent >= self.count {
            return;
        }
        self.sent += 1;
        let mut payload = vec![0xB5u8; self.payload_len];
        payload[..8].copy_from_slice(&self.sent.to_be_bytes());
        ctx.fx
            .send_udp(self.sock.expect("bound"), self.dst, Bytes::from(payload));
        ctx.fx.set_timer(self.gap, TOKEN_SEND);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// The receiving end of a bulk transfer: counts bytes and timestamps.
pub struct BulkSink {
    /// Port to serve.
    pub port: u16,
    /// Bytes received.
    pub bytes: u64,
    /// Datagrams received.
    pub datagrams: u64,
    /// First arrival.
    pub first_at: Option<SimTime>,
    /// Latest arrival.
    pub last_at: Option<SimTime>,
}

impl BulkSink {
    /// Creates a sink on `port`.
    pub fn new(port: u16) -> BulkSink {
        BulkSink {
            port,
            bytes: 0,
            datagrams: 0,
            first_at: None,
            last_at: None,
        }
    }

    /// Goodput in kilobits/second across the observed span.
    pub fn goodput_kbps(&self) -> Option<f64> {
        let span = (self.last_at? - self.first_at?).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        Some(self.bytes as f64 * 8.0 / span / 1000.0)
    }
}

impl Module for BulkSink {
    fn name(&self) -> &'static str {
        "bulk-sink"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.udp_bind(None, self.port).expect("port free");
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        _src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        self.bytes += payload.len() as u64;
        self.datagrams += 1;
        if self.first_at.is_none() {
            self.first_at = Some(ctx.now);
        }
        self.last_at = Some(ctx.now);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A TCP echo server (remote-login stand-in) for session-survival tests.
pub struct TcpEchoServer {
    /// Listening port.
    pub port: u16,
    /// Bytes received across all connections.
    pub bytes_received: u64,
}

impl TcpEchoServer {
    /// Creates a server on `port`.
    pub fn new(port: u16) -> TcpEchoServer {
        TcpEchoServer {
            port,
            bytes_received: 0,
        }
    }
}

impl Module for TcpEchoServer {
    fn name(&self) -> &'static str {
        "tcp-echo-server"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.tcp_listen(None, self.port);
    }

    fn on_tcp_event(&mut self, ctx: &mut ModuleCtx<'_>, conn: ConnId, event: &TcpEvent) {
        match event {
            TcpEvent::Data(d) => {
                self.bytes_received += d.len() as u64;
                ctx.core.tcp_send(conn, d.clone());
            }
            TcpEvent::PeerClosed => ctx.core.tcp_close(conn),
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A TCP client that trickles a stream and verifies the echoed bytes —
/// the "remote login with active processes" the paper does not want to
/// restart (§1).
pub struct TcpStreamClient {
    /// Server endpoint.
    pub server: (Ipv4Addr, u16),
    /// Local (home) address for the connection.
    pub local: (Ipv4Addr, u16),
    /// Bytes to send per burst.
    pub burst: usize,
    /// Interval between bursts.
    pub interval: SimDuration,
    /// Total bursts to send.
    pub bursts: u64,
    /// Echoed bytes received back, in order.
    pub echoed: Vec<u8>,
    /// Bytes sent so far.
    pub sent: u64,
    conn: Option<ConnId>,
    bursts_sent: u64,
    counter: u8,
    /// Set when the connection resets (should stay false across hand-offs).
    pub reset: bool,
}

impl TcpStreamClient {
    /// Creates a client.
    pub fn new(local: (Ipv4Addr, u16), server: (Ipv4Addr, u16)) -> TcpStreamClient {
        TcpStreamClient {
            server,
            local,
            burst: 64,
            interval: SimDuration::from_millis(500),
            bursts: 20,
            echoed: Vec::new(),
            sent: 0,
            conn: None,
            bursts_sent: 0,
            counter: 0,
            reset: false,
        }
    }

    /// The bytes this client will have sent overall, for verification.
    pub fn expected_stream(&self) -> Vec<u8> {
        let total = self.burst as u64 * self.bursts;
        (0..total).map(|i| (i % 251) as u8).collect()
    }
}

impl Module for TcpStreamClient {
    fn name(&self) -> &'static str {
        "tcp-stream-client"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        let conn = ctx.tcp_connect(self.local, self.server);
        self.conn = Some(conn);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _token: u64) {
        if self.bursts_sent >= self.bursts {
            return;
        }
        let Some(conn) = self.conn else { return };
        let mut chunk = Vec::with_capacity(self.burst);
        for _ in 0..self.burst {
            chunk.push(self.counter);
            self.counter = (self.counter + 1) % 251;
        }
        self.sent += chunk.len() as u64;
        self.bursts_sent += 1;
        ctx.core.tcp_send(conn, chunk);
        if self.bursts_sent < self.bursts {
            ctx.fx.set_timer(self.interval, TOKEN_SEND);
        }
    }

    fn on_tcp_event(&mut self, ctx: &mut ModuleCtx<'_>, _conn: ConnId, event: &TcpEvent) {
        match event {
            TcpEvent::Connected => ctx.fx.set_timer(SimDuration::ZERO, TOKEN_SEND),
            TcpEvent::Data(d) => self.echoed.extend_from_slice(d),
            TcpEvent::Reset => self.reset = true,
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// An on-subnet attacker injecting registration messages at the home
/// agent (the C7 spoof/replay experiment). It has no special powers: an
/// ordinary host that can send UDP to port 434 and, being on the visited
/// LAN, could have captured the mobile host's registration bytes off the
/// wire.
///
/// The module is a scripted injector: the harness queues raw payloads
/// (forged requests, byte-exact replayed captures) and a polling timer
/// drains the queue — enqueueing mid-run never perturbs the event
/// schedule of the rest of the simulation.
pub struct RegistrationAttacker {
    /// The home agent under attack.
    pub home_agent: Ipv4Addr,
    /// How often the queue is drained.
    pub poll: SimDuration,
    /// Payloads injected onto the wire.
    pub injected: Counter,
    /// Replies naming one of our injections' home addresses that came
    /// back `Accepted` — the experiment asserts this stays zero.
    pub accepted: Counter,
    /// Denial replies received (the home agent answered, and refused).
    pub denied: Counter,
    pending: Vec<(Bytes, &'static str)>,
    sock: Option<SocketId>,
}

impl RegistrationAttacker {
    /// Creates an idle attacker aimed at `home_agent`.
    pub fn new(home_agent: Ipv4Addr) -> RegistrationAttacker {
        RegistrationAttacker {
            home_agent,
            poll: SimDuration::from_millis(100),
            injected: Counter::default(),
            accepted: Counter::default(),
            denied: Counter::default(),
            pending: Vec::new(),
            sock: None,
        }
    }

    /// Queues a raw registration-port payload; sent at the next poll tick.
    pub fn inject(&mut self, payload: Bytes, label: &'static str) {
        self.pending.push((payload, label));
    }
}

impl Module for RegistrationAttacker {
    fn name(&self) -> &'static str {
        "registration-attacker"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 0);
        assert!(self.sock.is_some());
        ctx.fx.set_timer(self.poll, TOKEN_SEND);
    }

    fn register_metrics(&self, scope: &MetricsScope) {
        let attack = scope.scope("attack");
        for (name, cell) in [
            ("injected", &self.injected),
            ("accepted", &self.accepted),
            ("denied", &self.denied),
        ] {
            attack.register(name, MetricCell::Counter(cell.clone()));
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        if token == TOKEN_SEND {
            for (payload, label) in std::mem::take(&mut self.pending) {
                self.injected.inc();
                ctx.fx.trace(format!("attacker injects {label}"));
                ctx.fx.send_udp(
                    self.sock.expect("bound"),
                    (self.home_agent, mosquitonet_core::REGISTRATION_PORT),
                    payload,
                );
            }
            ctx.fx.set_timer(self.poll, TOKEN_SEND);
        }
    }

    fn on_udp(
        &mut self,
        _ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        _src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        if let Ok(reply) = mosquitonet_core::RegistrationReply::parse(payload) {
            if reply.code == mosquitonet_core::ReplyCode::Accepted {
                self.accepted.inc();
            } else {
                self.denied.inc();
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A burst generator standing in for N mobile hosts registering at once
/// (the A2 home-agent scaling ablation — "the home agent should be able
/// to deal with a large number of mobile hosts simultaneously", §4).
///
/// Each logical mobile host gets a distinct home address; all use this
/// host's address as their care-of address. Reply latency is recorded
/// per registration.
pub struct RegistrationStorm {
    /// The home agent under test.
    pub home_agent: Ipv4Addr,
    /// First home address; host `i` uses `base + i`.
    pub home_base: Ipv4Addr,
    /// Number of logical mobile hosts.
    pub count: u32,
    /// Care-of address to register (this host's own address).
    pub care_of: Ipv4Addr,
    /// Gap between consecutive requests (0 = one burst).
    pub stagger: SimDuration,
    /// Completed registrations: (index, sent, reply received).
    pub completions: Vec<(u32, SimTime, SimTime)>,
    sent_at: HashMap<Ipv4Addr, (u32, SimTime)>,
    next: u32,
    sock: Option<SocketId>,
}

impl RegistrationStorm {
    /// Creates a storm of `count` registrations.
    pub fn new(
        home_agent: Ipv4Addr,
        home_base: Ipv4Addr,
        count: u32,
        care_of: Ipv4Addr,
    ) -> RegistrationStorm {
        RegistrationStorm {
            home_agent,
            home_base,
            count,
            care_of,
            stagger: SimDuration::from_micros(100),
            completions: Vec::new(),
            sent_at: HashMap::new(),
            next: 0,
            sock: None,
        }
    }

    /// Per-registration reply latencies.
    pub fn latencies(&self) -> Vec<SimDuration> {
        self.completions.iter().map(|(_, s, r)| *r - *s).collect()
    }

    fn home_addr(&self, i: u32) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.home_base) + i)
    }
}

impl Module for RegistrationStorm {
    fn name(&self) -> &'static str {
        "registration-storm"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 0);
        ctx.fx.set_timer(SimDuration::ZERO, TOKEN_SEND);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _token: u64) {
        if self.next >= self.count {
            return;
        }
        let idx = self.next;
        self.next += 1;
        let home = self.home_addr(idx);
        let req = mosquitonet_core::RegistrationRequest {
            lifetime: 300,
            home_addr: home,
            home_agent: self.home_agent,
            care_of: self.care_of,
            ident: 1,
            auth: None,
        };
        self.sent_at.insert(home, (idx, ctx.now));
        ctx.fx.send_udp(
            self.sock.expect("bound"),
            (self.home_agent, mosquitonet_core::REGISTRATION_PORT),
            req.to_bytes(),
        );
        if self.next < self.count {
            ctx.fx.set_timer(self.stagger, TOKEN_SEND);
        }
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        _src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        if let Ok(reply) = mosquitonet_core::RegistrationReply::parse(payload) {
            if reply.code == mosquitonet_core::ReplyCode::Accepted {
                if let Some((idx, sent)) = self.sent_at.remove(&reply.home_addr) {
                    self.completions.push((idx, sent, ctx.now));
                }
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// The S3 saturation sender: every tick, queues a whole burst of
/// sequence-stamped datagrams to one destination through the batched
/// [`mosquitonet_stack::Effect::SendUdpBurst`] path, so the route is
/// resolved once per burst and same-instant bursts across pairs drain as
/// one engine batch.
pub struct SaturationSender {
    /// Destination (a [`SaturationSink`] port on the correspondent).
    pub dst: (Ipv4Addr, u16),
    /// Datagrams per tick.
    pub burst: u32,
    /// Payload bytes per datagram.
    pub payload_len: usize,
    /// Gap between ticks.
    pub interval: SimDuration,
    /// Ticks to emit (the run length).
    pub ticks: u32,
    /// Datagrams queued so far.
    pub sent: u64,
    ticks_done: u32,
    sock: Option<SocketId>,
}

impl SaturationSender {
    /// Creates a sender pumping `burst` datagrams every `interval` for
    /// `ticks` ticks.
    pub fn new(dst: (Ipv4Addr, u16), burst: u32, interval: SimDuration, ticks: u32) -> Self {
        SaturationSender {
            dst,
            burst,
            payload_len: 64,
            interval,
            ticks,
            sent: 0,
            ticks_done: 0,
            sock: None,
        }
    }
}

impl Module for SaturationSender {
    fn name(&self) -> &'static str {
        "sat-sender"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 0);
        ctx.fx.set_timer(SimDuration::ZERO, TOKEN_SEND);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _token: u64) {
        if self.ticks_done >= self.ticks {
            return;
        }
        self.ticks_done += 1;
        let mut payloads = Vec::with_capacity(self.burst as usize);
        for _ in 0..self.burst {
            self.sent += 1;
            let mut payload = vec![0x53u8; self.payload_len];
            payload[..8].copy_from_slice(&self.sent.to_be_bytes());
            payloads.push(Bytes::from(payload));
        }
        ctx.fx.send_udp_burst(
            self.sock.expect("bound"),
            self.dst,
            payloads,
            SendOptions {
                label: Some("s3"),
                ..SendOptions::default()
            },
        );
        if self.ticks_done < self.ticks {
            ctx.fx.set_timer(self.interval, TOKEN_SEND);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// The S3 saturation sink: a batch-aware counter. Overrides
/// `on_udp_batch` so a multi-datagram delivery is accounted in one call,
/// tracking how wide the batches actually were.
pub struct SaturationSink {
    /// Port to serve.
    pub port: u16,
    /// Bytes received.
    pub bytes: u64,
    /// Datagrams received.
    pub datagrams: u64,
    /// `on_udp_batch` invocations (each covers ≥ 1 datagram).
    pub deliveries: u64,
    /// Widest single delivery seen.
    pub max_batch: u64,
    /// First arrival.
    pub first_at: Option<SimTime>,
    /// Latest arrival.
    pub last_at: Option<SimTime>,
}

impl SaturationSink {
    /// Creates a sink on `port`.
    pub fn new(port: u16) -> SaturationSink {
        SaturationSink {
            port,
            bytes: 0,
            datagrams: 0,
            deliveries: 0,
            max_batch: 0,
            first_at: None,
            last_at: None,
        }
    }
}

impl Module for SaturationSink {
    fn name(&self) -> &'static str {
        "sat-sink"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.udp_bind(None, self.port).expect("port free");
    }

    fn on_udp_batch(&mut self, ctx: &mut ModuleCtx<'_>, _sock: SocketId, batch: &[UdpBatchItem]) {
        self.deliveries += 1;
        self.max_batch = self.max_batch.max(batch.len() as u64);
        for item in batch {
            self.bytes += item.payload.len() as u64;
            self.datagrams += 1;
        }
        if self.first_at.is_none() {
            self.first_at = Some(ctx.now);
        }
        self.last_at = Some(ctx.now);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// One in-flight fleet registration: what [`FleetChurn`] needs to finish
/// (or redirect) the attempt when the reply lands.
#[derive(Clone, Copy, Debug)]
struct PendingReg {
    /// When the *first* attempt was sent — a misdirected attempt keeps
    /// its original timestamp, so the measured latency charges the full
    /// wrong-shard round trip.
    sent_at: SimTime,
    /// Care-of address the attempt carries.
    care_of: Ipv4Addr,
    /// Identification the attempt carries.
    ident: u64,
}

/// The S2 fleet-churn generator: stands in for this shard's slice of a
/// 100k+ mobile-host population, re-registering under a Zipf popularity
/// law (a few hot commuters move constantly; the long tail barely does).
///
/// Every tick it draws `burst` hosts from the Zipf sampler and queues
/// one registration per distinct host through the batched
/// `send_udp_burst` lane, so same-tick requests drain through the home
/// agent's `on_udp_batch` path as one engine batch. A deterministic 1/32
/// of draws are *misdirected* to a neighbour shard's home agent, which
/// denies them (`drop.wrong_shard`); the churn module then re-sends to
/// the true owner, charging the full detour to the measured latency.
///
/// Sampling uses an inline SplitMix64 stream over integer fixed-point
/// Zipf prefix sums — no engine RNG, no floating point — so runs are
/// byte-identical at every thread count.
pub struct FleetChurn {
    /// This shard's active home agent (the owner of every home here).
    pub home_agent: Ipv4Addr,
    /// A neighbour shard's active home agent (misdirection target).
    pub misdirect_to: Ipv4Addr,
    /// The home addresses this shard owns, Zipf rank order (rank 1 first).
    pub homes: Vec<Ipv4Addr>,
    /// Hosts drawn per tick (distinct, non-pending hosts actually send).
    pub burst: u32,
    /// Gap between ticks.
    pub interval: SimDuration,
    /// Ticks to run.
    pub ticks: u32,
    /// Requested binding lifetime, seconds.
    pub lifetime: u16,
    /// Registration requests sent (first attempts, not redirects).
    pub sent: u64,
    /// First attempts deliberately sent to the wrong shard.
    pub misdirected: u64,
    /// Re-sends to the true owner after a wrong-shard denial.
    pub redirected: u64,
    /// Accepted completions.
    pub accepted: u64,
    /// Attempts that ended in a terminal denial (expected: 0).
    pub denied: u64,
    /// Per-completion latency, first send → accepted reply, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// First accepted-reply arrival.
    pub first_accept: Option<SimTime>,
    /// Latest accepted-reply arrival.
    pub last_accept: Option<SimTime>,
    next_ident: Vec<u64>,
    pending: HashMap<Ipv4Addr, PendingReg>,
    /// Zipf prefix sums over `homes` (fixed-point, SCALE/rank weights).
    prefix: Vec<u64>,
    rng: u64,
    ticks_done: u32,
    sock: Option<SocketId>,
}

impl FleetChurn {
    /// Fixed-point scale of the Zipf weights (`SCALE / rank`).
    const ZIPF_SCALE: u64 = 1 << 32;

    /// Creates a churn source over `homes` (already filtered to the homes
    /// this shard owns), seeded deterministically by the caller.
    pub fn new(
        home_agent: Ipv4Addr,
        misdirect_to: Ipv4Addr,
        homes: Vec<Ipv4Addr>,
        burst: u32,
        interval: SimDuration,
        ticks: u32,
        seed: u64,
    ) -> FleetChurn {
        assert!(
            !homes.is_empty(),
            "a shard with no homes has nothing to churn"
        );
        let mut prefix = Vec::with_capacity(homes.len());
        let mut total = 0u64;
        for rank in 1..=homes.len() as u64 {
            total += Self::ZIPF_SCALE / rank;
            prefix.push(total);
        }
        let next_ident = vec![0; homes.len()];
        FleetChurn {
            home_agent,
            misdirect_to,
            homes,
            burst,
            interval,
            ticks,
            lifetime: 300,
            sent: 0,
            misdirected: 0,
            redirected: 0,
            accepted: 0,
            denied: 0,
            latencies_ns: Vec::new(),
            first_accept: None,
            last_accept: None,
            next_ident,
            pending: HashMap::new(),
            prefix,
            rng: seed,
            ticks_done: 0,
            sock: None,
        }
    }

    /// One SplitMix64 draw from the module's private stream.
    fn rng_next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws one home index under the Zipf law (binary search over the
    /// integer prefix sums).
    fn sample(&mut self) -> usize {
        let total = *self.prefix.last().expect("non-empty");
        let x = self.rng_next() % total;
        self.prefix.partition_point(|&p| p <= x)
    }

    /// Synthetic care-of address for local host `idx`: alternates with
    /// the registration's parity, modelling a host hopping between two
    /// foreign subnets (172.16.0.0/12 — never routed in this topology).
    fn care_of(idx: usize, ident: u64) -> Ipv4Addr {
        Ipv4Addr::from(0xAC10_0000u32 + (idx as u32) * 2 + (ident as u32 & 1))
    }

    fn request_bytes(&self, home: Ipv4Addr, agent: Ipv4Addr, reg: PendingReg) -> Bytes {
        mosquitonet_core::RegistrationRequest {
            lifetime: self.lifetime,
            home_addr: home,
            home_agent: agent,
            care_of: reg.care_of,
            ident: reg.ident,
            auth: None,
        }
        .to_bytes()
    }
}

impl Module for FleetChurn {
    fn name(&self) -> &'static str {
        "fleet-churn"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 0);
        ctx.fx.set_timer(SimDuration::ZERO, TOKEN_SEND);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _token: u64) {
        if self.ticks_done >= self.ticks {
            return;
        }
        self.ticks_done += 1;
        let mut to_owner: Vec<Bytes> = Vec::new();
        let mut to_wrong: Vec<Bytes> = Vec::new();
        for _ in 0..self.burst {
            let idx = self.sample();
            // A deterministic 1/32 of draws go to the wrong shard first.
            let misdirect = self.rng_next().is_multiple_of(32);
            let home = self.homes[idx];
            if self.pending.contains_key(&home) {
                // At most one in-flight registration per host (the real
                // protocol's retry discipline); the draw still consumed
                // its RNG words, so skips are thread-count-invariant.
                continue;
            }
            self.next_ident[idx] += 1;
            let reg = PendingReg {
                sent_at: ctx.now,
                care_of: Self::care_of(idx, self.next_ident[idx]),
                ident: self.next_ident[idx],
            };
            self.pending.insert(home, reg);
            self.sent += 1;
            if misdirect {
                self.misdirected += 1;
                to_wrong.push(self.request_bytes(home, self.misdirect_to, reg));
            } else {
                to_owner.push(self.request_bytes(home, self.home_agent, reg));
            }
        }
        for (dst, payloads) in [(self.home_agent, to_owner), (self.misdirect_to, to_wrong)] {
            if payloads.is_empty() {
                continue;
            }
            ctx.fx.send_udp_burst(
                self.sock.expect("bound"),
                (dst, mosquitonet_core::REGISTRATION_PORT),
                payloads,
                SendOptions {
                    label: Some("s2"),
                    ..SendOptions::default()
                },
            );
        }
        if self.ticks_done < self.ticks {
            ctx.fx.set_timer(self.interval, TOKEN_SEND);
        }
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        let Ok(reply) = mosquitonet_core::RegistrationReply::parse(payload) else {
            return;
        };
        match reply.code {
            mosquitonet_core::ReplyCode::Accepted => {
                if let Some(reg) = self.pending.remove(&reply.home_addr) {
                    self.accepted += 1;
                    self.latencies_ns.push((ctx.now - reg.sent_at).as_nanos());
                    if self.first_accept.is_none() {
                        self.first_accept = Some(ctx.now);
                    }
                    self.last_accept = Some(ctx.now);
                }
            }
            mosquitonet_core::ReplyCode::DeniedUnknownHome if src.0 != self.home_agent => {
                // The wrong-shard detour bounced; re-send to the owner,
                // keeping the original timestamp so the latency row pays
                // for the detour.
                if let Some(&reg) = self.pending.get(&reply.home_addr) {
                    self.redirected += 1;
                    let bytes = self.request_bytes(reply.home_addr, self.home_agent, reg);
                    ctx.fx.send_udp(
                        self.sock.expect("bound"),
                        (self.home_agent, mosquitonet_core::REGISTRATION_PORT),
                        bytes,
                    );
                }
            }
            _ => {
                if self.pending.remove(&reply.home_addr).is_some() {
                    self.denied += 1;
                }
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
