//! Allocation budgets of the reverse-tunnel data path and the
//! registration path.
//!
//! A counting global allocator measures how many heap allocations one
//! delivered datagram costs on its way mobile host → home agent (reverse
//! tunnel, §3.2) → correspondent, and how many one accepted registration
//! costs at a home agent that replicates to a standby. Both tests also
//! check that the trace log keeps no per-packet or per-binding records:
//! its length must not grow with the datagrams carried or the bindings
//! accepted.
//!
//! Counters are thread-local, so tests the harness runs on other threads
//! never add to them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_core::{AddressPlan, SendMode, SwitchPlan, SwitchStyle};
use mosquitonet_sim::SimDuration;
use mosquitonet_stack::{self as stack, Module, ModuleCtx, SendOptions, SocketId, UdpBatchItem};
use mosquitonet_testbed::topology::{
    self, build, Testbed, TestbedConfig, CH_DEPT, COA_DEPT, ROUTER_DEPT, ROUTER_HOME,
};
use mosquitonet_testbed::workload::{FleetChurn, RegistrationStorm};
use mosquitonet_wire::Cidr;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counting beside it
// touches only `const`-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) this
/// thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

const SINK_PORT: u16 = 9000;

/// Per 10 ms tick: six short datagrams and one near the MTU, the traffic
/// mix of a busy reverse tunnel that stays below the Ethernet's rate.
const BURST: [usize; 7] = [64, 64, 64, 64, 64, 64, 1400];

const TICK: SimDuration = SimDuration::from_millis(10);

/// Counts the datagrams that reach its port.
struct Sink {
    datagrams: u64,
}

impl Module for Sink {
    fn name(&self) -> &'static str {
        "alloc-sink"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.udp_bind(None, SINK_PORT).expect("sink port free");
    }

    fn on_udp_batch(&mut self, _ctx: &mut ModuleCtx<'_>, _sock: SocketId, batch: &[UdpBatchItem]) {
        self.datagrams += batch.len() as u64;
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

struct Stream {
    tb: Testbed,
    sock: SocketId,
    sink: stack::ModuleId,
}

impl Stream {
    /// The mobile host registered on the department net and sending to
    /// the department correspondent through the reverse tunnel, with ARP
    /// warm on every hop.
    fn new() -> Stream {
        let mut tb = build(TestbedConfig {
            seed: 1996,
            ..TestbedConfig::default()
        });
        tb.move_mh_eth(Some(tb.lan_dept));
        let plan = SwitchPlan {
            iface: tb.mh_eth,
            address: AddressPlan::Static {
                addr: COA_DEPT,
                subnet: topology::dept_subnet(),
                router: ROUTER_DEPT,
            },
            style: SwitchStyle::Cold,
        };
        tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
        tb.run_for(SimDuration::from_secs(5));
        assert!(
            tb.mh_module().away_status().is_some_and(|s| s.2),
            "mobile host failed to register on the department net"
        );
        tb.mh_module()
            .policy
            .set(Cidr::host(CH_DEPT), SendMode::ReverseTunnel);
        let mh = tb.mh;
        let sock = tb
            .sim
            .world_mut()
            .host_mut(mh)
            .core
            .udp_bind(tb.mh_mod, None, 0)
            .expect("ephemeral port");
        let ch = tb.ch_dept;
        let sink = stack::add_module(&mut tb.sim, ch, Box::new(Sink { datagrams: 0 }));
        let mut s = Stream { tb, sock, sink };
        s.run(1);
        s
    }

    fn delivered(&mut self) -> u64 {
        let ch = self.tb.ch_dept;
        let sink: &mut Sink = self
            .tb
            .sim
            .world_mut()
            .host_mut(ch)
            .module_mut(self.sink)
            .expect("sink module");
        sink.datagrams
    }

    /// Sends `ticks` bursts, one per tick, and runs until they land. The
    /// payloads are built up front and shared, so the allocations counted
    /// while this runs are the stack's own.
    fn run(&mut self, ticks: u32) {
        let payloads: Vec<Vec<Bytes>> = (0..ticks)
            .map(|_| {
                BURST
                    .iter()
                    .map(|&len| Bytes::from(vec![0xB5u8; len]))
                    .collect()
            })
            .collect();
        let (mh, sock) = (self.tb.mh, self.sock);
        for burst in payloads {
            stack::udp_send_burst(
                &mut self.tb.sim,
                mh,
                sock,
                (CH_DEPT, SINK_PORT),
                burst,
                SendOptions::default(),
            );
            self.tb.run_for(TICK);
        }
        self.tb.run_for(SimDuration::from_millis(100));
    }
}

/// Allocations per delivered datagram: the path makes 12.2, and the
/// budget leaves about 7 % above that. A recipients and a deliveries
/// `Vec` per transmitted frame cost 16.2; copying the payload at every
/// parse layer and keeping a trace record per tunnelled packet cost 34.2.
const ALLOCATIONS_PER_DATAGRAM_BUDGET: f64 = 13.0;

#[test]
fn reverse_tunnel_stays_within_its_allocation_budget() {
    let mut s = Stream::new();

    let trace_before = s.tb.sim.trace().entries().len();
    let delivered_before = s.delivered();
    let allocations = allocations_during(|| s.run(100));
    let delivered = s.delivered() - delivered_before;
    let trace_after_short = s.tb.sim.trace().entries().len();
    s.run(300);
    let trace_after_long = s.tb.sim.trace().entries().len();

    let sent = 100 * BURST.len() as u64;
    assert_eq!(delivered, sent, "every datagram is delivered");
    let per_datagram = allocations as f64 / delivered as f64;
    assert!(
        per_datagram <= ALLOCATIONS_PER_DATAGRAM_BUDGET,
        "{per_datagram:.2} allocations per delivered datagram \
         ({allocations} for {delivered}), budget {ALLOCATIONS_PER_DATAGRAM_BUDGET}"
    );
    // The tunnel's per-packet history lives in the flight recorder and
    // the counters; the trace log keeps control-plane records only.
    assert_eq!(
        trace_after_short - trace_before,
        trace_after_long - trace_after_short,
        "trace grew with the datagrams carried: {} entries over 100 ticks, {} over 300",
        trace_after_short - trace_before,
        trace_after_long - trace_after_short,
    );
}

/// Registrations the churn source offers per tick; the home agent's
/// 1.48 ms service time clears a burst well inside the 10 ms tick.
const CHURN_BURST: u32 = 4;

/// Home addresses the churn draws from (36.135.0.100 up).
const CHURN_HOMES: u32 = 100;

struct Churn {
    tb: Testbed,
    churn: stack::ModuleId,
}

impl Churn {
    /// The department correspondent re-registering home addresses with
    /// the home agent under a Zipf law, one burst per tick, alternating
    /// each host's care-of address so most registrations move a binding.
    /// The agent replicates every accepted binding to the standby. Every
    /// request goes to the owning agent (the churn's misdirection target
    /// is the agent itself), so there are no wrong-shard detours. One
    /// registration outside the churned set goes first, so ARP is warm on
    /// every hop before the first burst, and the churn runs one tick
    /// before any measurement starts.
    fn new(ticks: u32) -> Churn {
        let mut tb = build(TestbedConfig {
            seed: 1996,
            with_standby_ha: true,
            ..TestbedConfig::default()
        });
        let ch = tb.ch_dept;
        let warm = RegistrationStorm::new(ROUTER_HOME, Ipv4Addr::new(36, 135, 0, 99), 1, CH_DEPT);
        stack::add_module(&mut tb.sim, ch, Box::new(warm));
        tb.run_for(SimDuration::from_secs(1));
        let homes = (0..CHURN_HOMES)
            .map(|i| Ipv4Addr::new(36, 135, 0, 100 + i as u8))
            .collect();
        let source = FleetChurn::new(
            ROUTER_HOME,
            ROUTER_HOME,
            homes,
            CHURN_BURST,
            TICK,
            ticks + 1,
            1996,
        );
        let churn = stack::add_module(&mut tb.sim, ch, Box::new(source));
        tb.run_for(TICK);
        Churn { tb, churn }
    }

    fn module(&mut self) -> &mut FleetChurn {
        let ch = self.tb.ch_dept;
        self.tb
            .sim
            .world_mut()
            .host_mut(ch)
            .module_mut(self.churn)
            .expect("churn module")
    }

    /// Trace entries other than drops.
    fn control_records(&self) -> usize {
        self.tb
            .sim
            .trace()
            .entries()
            .iter()
            .filter(|e| !e.detail.starts_with("drop."))
            .count()
    }
}

/// Allocations per accepted registration at an agent with a standby,
/// counting the churn source, the stack and both agents: the path makes
/// 31.4, and the budget leaves about 5 % above that. A recipients and a
/// deliveries `Vec` per transmitted frame cost 39.8; a trace record per
/// accepted binding and per applied replica cost 45.7.
const ALLOCATIONS_PER_REGISTRATION_BUDGET: f64 = 33.0;

#[test]
fn registration_path_stays_within_its_allocation_budget() {
    const SHORT: u32 = 50;
    let mut c = Churn::new(SHORT + 3 * SHORT);

    let accepted_before = c.module().accepted;
    let trace_before = c.control_records();
    let allocations = allocations_during(|| c.tb.run_for(TICK * u64::from(SHORT)));
    let accepted = c.module().accepted - accepted_before;
    let trace_after_short = c.control_records();
    c.tb.run_for(TICK * u64::from(3 * SHORT));
    let accepted_long = c.module().accepted - accepted_before - accepted;
    let trace_after_long = c.control_records();
    c.tb.run_for(SimDuration::from_millis(100));

    let sent = c.module().sent;
    assert_eq!(c.module().denied, 0, "no registration is denied");
    assert_eq!(c.module().accepted, sent, "every registration is accepted");
    assert!(
        accepted > u64::from(2 * SHORT) && accepted_long > 2 * accepted,
        "the storm must carry registrations: {accepted} then {accepted_long}"
    );
    assert_eq!(
        c.tb.standby_module().replicas_applied.get(),
        c.tb.ha_module().replicas_sent.get(),
        "the standby applies every replica"
    );
    let per_registration = allocations as f64 / accepted as f64;
    assert!(
        per_registration <= ALLOCATIONS_PER_REGISTRATION_BUDGET,
        "{per_registration:.2} allocations per accepted registration \
         ({allocations} for {accepted}), budget {ALLOCATIONS_PER_REGISTRATION_BUDGET}"
    );
    // Binding history lives in the agents' journals and `reg/*`
    // counters; the trace log keeps control-plane events that do not
    // scale with the registrations accepted.
    assert_eq!(
        trace_after_short - trace_before,
        trace_after_long - trace_after_short,
        "trace grew with the registrations accepted: {} entries for {accepted}, {} for {accepted_long}",
        trace_after_short - trace_before,
        trace_after_long - trace_after_short,
    );
}
