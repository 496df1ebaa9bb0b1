//! The benchmark's own traffic: an open-loop datagram sender driven by
//! engine events, and a sink module that checks and times what arrives.
//!
//! Every payload carries its sequence number and its virtual send time,
//! so the sink measures one-way virtual latency without any shared state
//! with the sender.

use std::any::Any;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use mosquitonet_sim::{SimDuration, SimTime};
use mosquitonet_stack::{
    self as stack, HostId, Module, ModuleCtx, NetSim, SendOptions, SocketId, UdpBatchItem,
};

use crate::common::{ns_since, splitmix};

/// Smallest payload the stamp fits in.
pub const STAMP_LEN: usize = 16;

/// Builds one stamped payload of `len` bytes.
pub fn stamped(seq: u64, sent_at: SimTime, len: usize) -> Bytes {
    assert!(len >= STAMP_LEN, "payload too short for the stamp");
    let mut p = vec![0xB5u8; len];
    p[..8].copy_from_slice(&seq.to_be_bytes());
    p[8..16].copy_from_slice(&sent_at.as_nanos().to_be_bytes());
    Bytes::from(p)
}

/// Counts, bytes and one-way virtual latencies of datagrams received on
/// one port. The optional spin adds a known host cost per datagram; the
/// benchmark's sensitivity test uses it and nothing else does.
pub struct BenchSink {
    port: u16,
    /// Host ns burned per datagram.
    pub spin_ns: u64,
    /// Datagrams received.
    pub datagrams: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// Virtual send → receive, ns, one per datagram.
    pub latencies_ns: Vec<u64>,
}

impl BenchSink {
    /// A sink on `port`.
    pub fn new(port: u16, spin_ns: u64) -> BenchSink {
        BenchSink {
            port,
            spin_ns,
            datagrams: 0,
            bytes: 0,
            latencies_ns: Vec::new(),
        }
    }
}

impl Module for BenchSink {
    fn name(&self) -> &'static str {
        "bench-sink"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.udp_bind(None, self.port).expect("sink port free");
    }

    fn on_udp_batch(&mut self, ctx: &mut ModuleCtx<'_>, _sock: SocketId, batch: &[UdpBatchItem]) {
        for item in batch {
            self.datagrams += 1;
            self.bytes += item.payload.len() as u64;
            if item.payload.len() >= STAMP_LEN {
                let mut at = [0u8; 8];
                at.copy_from_slice(&item.payload[8..16]);
                let sent = SimTime::from_nanos(u64::from_be_bytes(at));
                self.latencies_ns.push((ctx.now - sent).as_nanos());
            }
            if self.spin_ns > 0 {
                let t0 = Instant::now();
                while ns_since(t0) < self.spin_ns {
                    std::hint::spin_loop();
                }
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Reads a sink module back out of the world.
pub fn sink(sim: &mut NetSim, host: HostId, mid: stack::ModuleId) -> &mut BenchSink {
    sim.world_mut()
        .host_mut(host)
        .module_mut(mid)
        .expect("bench sink")
}

/// One open-loop stream: `burst` datagrams of `payload_len` bytes once
/// in every `interval`, `ticks` times, from a socket on `host`. Tick `k`
/// fires at `k × interval` plus a seeded offset within the interval, so
/// the offered rate is fixed while the streams' relative phases vary
/// from tick to tick.
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    /// Sending host.
    pub host: HostId,
    /// Bound socket on `host`.
    pub sock: SocketId,
    /// Destination address and port.
    pub dst: (Ipv4Addr, u16),
    /// Datagrams per tick.
    pub burst: u32,
    /// Payload bytes per datagram.
    pub payload_len: usize,
    /// Gap between ticks.
    pub interval: SimDuration,
    /// Ticks to send.
    pub ticks: u32,
    /// Seed of the per-tick offsets.
    pub seed: u64,
    /// Time the sends (traced runs).
    pub timed: bool,
}

/// What a stream sent, and (timed) what its sends cost.
#[derive(Debug, Default)]
pub struct StreamLog {
    /// Datagrams handed to the stack.
    pub sent: u64,
    /// Payload bytes handed to the stack.
    pub bytes: u64,
    /// Host ns inside `udp_send_burst` (timed streams).
    pub send_ns: u64,
}

/// Schedules `stream` to start at `start`; the returned log fills in as
/// the simulation runs.
pub fn start_stream(sim: &mut NetSim, stream: Stream, start: SimTime) -> Rc<RefCell<StreamLog>> {
    let log = Rc::new(RefCell::new(StreamLog::default()));
    schedule_tick(sim, stream, log.clone(), start, 0, stream.seed);
    log
}

fn schedule_tick(
    sim: &mut NetSim,
    s: Stream,
    log: Rc<RefCell<StreamLog>>,
    start: SimTime,
    k: u32,
    mut rng: u64,
) {
    let offset = splitmix(&mut rng) % s.interval.as_nanos();
    let at = start + s.interval * u64::from(k) + SimDuration::from_nanos(offset);
    sim.schedule_at(at, move |sim| tick(sim, s, log, start, k, rng));
}

fn tick(
    sim: &mut NetSim,
    s: Stream,
    log: Rc<RefCell<StreamLog>>,
    start: SimTime,
    k: u32,
    rng: u64,
) {
    let now = sim.now();
    let first = log.borrow().sent;
    let payloads: Vec<Bytes> = (0..u64::from(s.burst))
        .map(|i| stamped(first + i, now, s.payload_len))
        .collect();
    let t0 = s.timed.then(Instant::now);
    stack::udp_send_burst(
        sim,
        s.host,
        s.sock,
        s.dst,
        payloads,
        SendOptions {
            label: Some("bench"),
            ..SendOptions::default()
        },
    );
    {
        let mut l = log.borrow_mut();
        if let Some(t0) = t0 {
            l.send_ns += ns_since(t0);
        }
        l.sent += u64::from(s.burst);
        l.bytes += u64::from(s.burst) * s.payload_len as u64;
    }
    if k + 1 < s.ticks {
        schedule_tick(sim, s, log, start, k + 1, rng);
    }
}
