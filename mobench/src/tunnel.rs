//! `tunnel_stream`: open-loop UDP streams from the mobile host through
//! the home agent's reverse tunnel (§3.2) to a correspondent.
//!
//! The data plane does nearly all the work: the mobile host's IP output
//! encapsulates every datagram, the home agent decapsulates and forwards
//! it, and the fast path answers every route lookup after the first. The
//! offered load stays below the modelled Ethernet frame rate, so every
//! datagram is delivered and no transmit backlog builds up.

use std::time::Instant;

use bytes::Bytes;
use mosquitonet_core::SendMode;
use mosquitonet_link::{presets, FRAME_HEADER_LEN};
use mosquitonet_sim::{SimDuration, SimTime};
use mosquitonet_stack::{self as stack, SendOptions};
use mosquitonet_testbed::topology::{build, TestbedConfig, CH_DEPT, COA_DEPT, MH_HOME};
use mosquitonet_wire::{
    ipip, Cidr, IpProto, Ipv4Header, Ipv4Packet, MacAddr, PacketBuf, UdpDatagram,
};

use crate::common::{
    advance, counts_delta, ns_since, record_latencies, record_profile, record_steps, sim_counts,
    splitmix, time_per_call, Mode, Rep, StepTrace,
};
use crate::settle_on_dept;
use crate::traffic::{self, start_stream, BenchSink, Stream};

/// The fixed traffic mix: `(payload bytes, datagrams per tick)` per
/// stream. Per 10 ms tick the busiest device sends six short and one
/// near-MTU frame, about three quarters of its modelled frame budget.
pub const STREAMS: [(usize, u32); 4] = [(64, 2), (64, 2), (64, 2), (1400, 1)];

/// One-way latency of a 64 B datagram that meets no queue: mobile host
/// → home agent through the reverse tunnel → correspondent, as the
/// modelled devices, links and processing delays sum it.
pub const MODELLED_MIN_NS: u64 = 3_395_600;

/// Gap between sender ticks.
const TICK: SimDuration = SimDuration::from_millis(10);

/// Sender ticks per repetition (40 s of virtual time).
pub const TICKS: u32 = 4000;

/// Virtual time after the last tick for the tail to land.
const DRAIN: SimDuration = SimDuration::from_secs(2);

/// First sink port; stream `i` uses `SINK_PORT + i`.
const SINK_PORT: u16 = 9000;

/// One repetition.
pub fn rep(seed: u64, mode: Mode, spin_ns: u64) -> Rep {
    let mut rep = Rep::default();
    let t_setup = Instant::now();
    let mut tb = build(TestbedConfig {
        seed,
        ..TestbedConfig::default()
    });
    let build_ns = ns_since(t_setup);
    let t_settle = Instant::now();
    settle_on_dept(&mut tb);
    tb.mh_module()
        .policy
        .set(Cidr::host(CH_DEPT), SendMode::ReverseTunnel);
    let (mh, ch) = (tb.mh, tb.ch_dept);
    let sock = tb
        .sim
        .world_mut()
        .host_mut(mh)
        .core
        .udp_bind(tb.mh_mod, None, 0)
        .expect("ephemeral port");
    // One throwaway datagram warms ARP on every hop, both directions
    // (the reply is a port-unreachable), before the window opens.
    stack::udp_send(
        &mut tb.sim,
        mh,
        sock,
        (CH_DEPT, SINK_PORT - 1),
        Bytes::from_static(b"prime"),
        SendOptions::default(),
    );
    tb.run_for(SimDuration::from_millis(500));
    let sinks: Vec<_> = (0..STREAMS.len())
        .map(|i| {
            let port = SINK_PORT + i as u16;
            stack::add_module(&mut tb.sim, ch, Box::new(BenchSink::new(port, spin_ns)))
        })
        .collect();
    let mut state = seed;
    let start = tb.sim.now() + SimDuration::from_millis(1);
    let logs: Vec<_> = STREAMS
        .iter()
        .enumerate()
        .map(|(i, &(payload_len, burst))| {
            let stream = Stream {
                host: mh,
                sock,
                dst: (CH_DEPT, SINK_PORT + i as u16),
                burst,
                payload_len,
                interval: TICK,
                ticks: TICKS,
                seed: splitmix(&mut state),
                timed: mode.traced,
            };
            start_stream(&mut tb.sim, stream, start)
        })
        .collect();
    let settle_ns = ns_since(t_settle);
    rep.setup_ns = ns_since(t_setup);

    let before = sim_counts(&tb.sim);
    let batches0 = tb.sim.batches_executed();
    if mode.traced {
        let reg = tb.sim.metrics().clone();
        tb.sim.profiler_mut().enable(&reg);
    }
    let mut steps = mode.traced.then(StepTrace::default);
    let span = TICK * u64::from(TICKS) + DRAIN + SimDuration::from_millis(1);
    let t_window = Instant::now();
    advance(&mut tb.sim, span, steps.as_mut());
    rep.window_ns = ns_since(t_window);
    tb.sim.profiler_mut().disable();
    rep.batches = tb.sim.batches_executed() - batches0;

    let mut exact = counts_delta(&sim_counts(&tb.sim), &before);
    let drops = exact.remove("drops").unwrap_or(0);
    let (mut sent, mut sent_bytes, mut send_ns) = (0, 0, 0);
    for log in &logs {
        let l = log.borrow();
        sent += l.sent;
        sent_bytes += l.bytes;
        send_ns += l.send_ns;
    }
    let (mut delivered, mut bytes, mut lat) = (0, 0, Vec::new());
    for &sid in &sinks {
        let s = traffic::sink(&mut tb.sim, ch, sid);
        delivered += s.datagrams;
        bytes += s.bytes;
        lat.append(&mut s.latencies_ns);
    }
    exact.insert("sent", sent);
    exact.insert("delivered", delivered);
    exact.insert("delivered_bytes", bytes);
    exact.insert("drops", drops);
    record_latencies(&mut exact, lat);
    rep.check(sent == delivered + drops, || {
        format!("sent {sent} != delivered {delivered} + drops {drops}")
    });
    rep.check(bytes == sent_bytes, || {
        format!("delivered bytes {bytes} != sent payload bytes {sent_bytes}")
    });
    rep.check(
        sent == u64::from(TICKS) * STREAMS.iter().map(|s| u64::from(s.1)).sum::<u64>(),
        || format!("sender emitted {sent} datagrams, schedule says otherwise"),
    );
    rep.ops = delivered;
    rep.attempted = sent;
    rep.failed = sent - delivered.min(sent);
    rep.exact = exact;
    rep.pool_end = mosquitonet_wire::pool_size() as u64;

    if let Some(st) = steps {
        record_steps(&mut rep, st);
        let snap = tb.sim.metrics().snapshot();
        record_profile(&mut rep, &snap);
        rep.traced.insert(
            "ip.udp_send_burst_ns_per_pkt",
            send_ns as f64 / sent.max(1) as f64,
        );
        rep.traced.insert("topology.build_ns", build_ns as f64);
        rep.traced.insert("topology.settle_ns", settle_ns as f64);
        replay_wire(&mut rep);
    }
    rep
}

/// Inner packets of the run's own sizes, in mix proportion.
fn inner_packets() -> Vec<Ipv4Packet> {
    let mut v = Vec::new();
    for &(len, burst) in &STREAMS {
        for _ in 0..burst {
            let udp = UdpDatagram::new(40000, SINK_PORT, Bytes::from(vec![0xB5u8; len]));
            let mut h = Ipv4Header::new(MH_HOME, CH_DEPT, IpProto::Udp);
            h.ttl = 64;
            v.push(Ipv4Packet::new(h, udp.to_bytes(MH_HOME, CH_DEPT)));
        }
    }
    v
}

/// Times the pure per-packet functions the data plane calls, on inputs
/// of this run's sizes and mix: in-place tunnel-header prepend,
/// decapsulation, and the device's transmit booking.
fn replay_wire(rep: &mut Rep) {
    let inner = inner_packets();
    let ha = mosquitonet_testbed::topology::ROUTER_HOME;
    // Each prepend consumes headroom, so every call gets a fresh buffer.
    let mut bufs: Vec<(PacketBuf, u8)> = (0..4096)
        .map(|i| {
            let p = &inner[i % inner.len()];
            let mut b = PacketBuf::with_headroom(ipip::ENCAP_OVERHEAD + FRAME_HEADER_LEN);
            p.write_into(&mut b);
            (b, p.header.tos)
        })
        .collect();
    let t0 = Instant::now();
    for (b, tos) in bufs.iter_mut() {
        ipip::prepend_outer(b, *tos, COA_DEPT, ha);
    }
    let encap_ns = ns_since(t0) as f64 / bufs.len() as f64;
    std::hint::black_box(&bufs);
    let mut outer: Vec<Ipv4Packet> = inner
        .iter()
        .map(|p| ipip::encapsulate(p, COA_DEPT, ha))
        .collect();
    let decap_ns = time_per_call(&mut outer, 4096, |p| {
        std::hint::black_box(ipip::decapsulate(std::hint::black_box(p)).is_ok());
    });
    let mut frames: Vec<usize> = inner
        .iter()
        .map(|p| p.to_bytes().len() + ipip::ENCAP_OVERHEAD + FRAME_HEADER_LEN)
        .collect();
    let mut dev = presets::wired_ethernet("bench0", MacAddr::from_index(99));
    let mut now = SimTime::ZERO;
    let tx_ns = time_per_call(&mut frames, 4096, |len| {
        now = now + std::hint::black_box(dev.schedule_tx(now, *len));
    });
    rep.traced.insert("wire.encap_ns", encap_ns);
    rep.traced.insert("wire.decap_ns", decap_ns);
    rep.traced.insert("link.schedule_tx_ns", tx_ns);
}
