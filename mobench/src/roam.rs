//! `roam_handoff`: one mobile host keeps switching care-of address on
//! the department net (paper Table 1) while a correspondent echoes to its
//! home address every 10 ms through the home agent's forward tunnel.
//!
//! Every eighth switch takes its address from DHCP. After each switch
//! the host sends one datagram to each of a fixed set of correspondents,
//! so the fast path is invalidated and refilled and ARP, proxy ARP and
//! the registration client all run on every switch.

use std::time::Instant;

use mosquitonet_core::AddressPlan;
use mosquitonet_sim::{SimDuration, SimTime};
use mosquitonet_stack::{self as stack, resolve_route, SendOptions, SourceSel};
use mosquitonet_testbed::topology::{
    self, build, TestbedConfig, CH_DEPT, CH_FAR, COA_DEPT, COA_DEPT_ALT, MH_HOME, ROUTER_DEPT,
};
use mosquitonet_testbed::workload::{UdpEchoResponder, UdpEchoSender};

use crate::common::{
    advance, counts_delta, ns_since, record_latencies, record_profile, record_steps, sim_counts,
    splitmix, time_per_call, Mode, Rep, StepTrace,
};
use crate::settle_on_dept;
use crate::traffic::{self, stamped, BenchSink};

/// Care-of switches per repetition.
pub const SWITCHES: u32 = 1024;

/// Every `DHCP_EVERY`-th switch acquires its address by DHCP.
pub const DHCP_EVERY: u32 = 8;

/// A same-subnet switch's modelled total, switch start → registration
/// done: Figure 7's 7.39 ms as the model's calibrated step costs and link
/// delays sum it. Most static switches take exactly this long on every
/// seed, so it is both the least and the median switch time.
pub const FIG7_TOTAL_NS: u64 = 7_392_400;

/// Echo spacing (Table 1's 10 ms).
const ECHO: SimDuration = SimDuration::from_millis(10);

/// Loss window after a static switch starts (the switch itself takes
/// ~7 ms); a DHCP switch's window runs until it completes.
const LOSS_WINDOW: SimDuration = SimDuration::from_millis(100);

/// How long a switch may take before it counts as failed.
const SWITCH_CAP: SimDuration = SimDuration::from_secs(5);

/// Quiet time after each switch's loss window before the next switch
/// starts: ten echo periods, far above the path's round trip.
const SETTLE: SimDuration = SimDuration::from_millis(100);

/// Port of the re-contact sinks.
const RECONTACT_PORT: u16 = 9100;

/// Echo port.
const ECHO_PORT: u16 = 7;

/// One repetition.
pub fn rep(seed: u64, mode: Mode) -> Rep {
    let mut rep = Rep::default();
    let t_setup = Instant::now();
    let mut tb = build(TestbedConfig {
        seed,
        with_dhcp: true,
        with_far_ch: true,
        ..TestbedConfig::default()
    });
    let build_ns = ns_since(t_setup);
    let t_settle = Instant::now();
    let (mh, ch) = (tb.mh, tb.ch_dept);
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(ECHO_PORT)));
    let echo = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new((MH_HOME, ECHO_PORT), ECHO)),
    );
    let far = tb.ch_far.expect("far correspondent");
    let dhcp = tb.dhcp_host.expect("dhcp server");
    let peers = [(ch, CH_DEPT), (far, CH_FAR), (dhcp, topology::DHCP_DEPT)];
    let sinks: Vec<_> = peers
        .iter()
        .map(|&(h, _)| {
            stack::add_module(&mut tb.sim, h, Box::new(BenchSink::new(RECONTACT_PORT, 0)))
        })
        .collect();
    settle_on_dept(&mut tb);
    let sock = tb
        .sim
        .world_mut()
        .host_mut(mh)
        .core
        .udp_bind(tb.mh_mod, None, 0)
        .expect("ephemeral port");
    let mut contacted = 0u64;
    let mut recontact = |tb: &mut topology::Testbed| {
        for &(_, addr) in &peers {
            let payload = stamped(contacted, tb.sim.now(), 32);
            stack::udp_send(
                &mut tb.sim,
                mh,
                sock,
                (addr, RECONTACT_PORT),
                payload,
                SendOptions::default(),
            );
            contacted += 1;
        }
    };
    recontact(&mut tb);
    tb.run_for(SimDuration::from_millis(500));
    rep.setup_ns = ns_since(t_setup);
    let settle_ns = ns_since(t_settle);

    let before = sim_counts(&tb.sim);
    let (req0, dhcp0) = mh_counts(&mut tb);
    let ha_processed0 = tb.ha_module().processed.get();
    let timelines0 = tb.mh_module().timelines.len();
    let batches0 = tb.sim.batches_executed();
    if mode.traced {
        let reg = tb.sim.metrics().clone();
        tb.sim.profiler_mut().enable(&reg);
    }
    let mut steps = mode.traced.then(StepTrace::default);
    let mut switch_call_ns = 0u64;
    let mut windows: Vec<(SimTime, SimTime, bool)> = Vec::new();
    let mut totals_ns = Vec::new();
    let (mut completed, mut failed) = (0u64, 0u64);
    let mut state = seed;
    let t_window = Instant::now();
    for i in 0..SWITCHES {
        // A seeded phase against the 10 ms echo clock, as in Table 1.
        let phase = splitmix(&mut state) % ECHO.as_nanos();
        advance(&mut tb.sim, SimDuration::from_nanos(phase), steps.as_mut());
        let dhcp_switch = i % DHCP_EVERY == DHCP_EVERY - 1;
        let plan = if dhcp_switch {
            AddressPlan::Dhcp
        } else {
            let current = tb.mh_module().away_status().map(|s| s.1);
            AddressPlan::Static {
                addr: if current == Some(COA_DEPT_ALT) {
                    COA_DEPT
                } else {
                    COA_DEPT_ALT
                },
                subnet: topology::dept_subnet(),
                router: ROUTER_DEPT,
            }
        };
        let idx = tb.mh_module().timelines.len();
        let t0 = tb.sim.now();
        let tc = Instant::now();
        tb.with_mh(|m, ctx| m.switch_address(ctx, plan));
        switch_call_ns += ns_since(tc);
        advance(&mut tb.sim, LOSS_WINDOW, steps.as_mut());
        while tb.mh_module().timelines.len() <= idx && tb.sim.now() - t0 < SWITCH_CAP {
            advance(&mut tb.sim, LOSS_WINDOW, steps.as_mut());
        }
        let t1 = tb.sim.now();
        let m = tb.mh_module();
        let registered = m.away_status().is_some_and(|s| s.2);
        match m.timelines.get(idx).and_then(|tl| tl.total()) {
            Some(total) if registered => {
                completed += 1;
                totals_ns.push(total.as_nanos());
            }
            _ => failed += 1,
        }
        windows.push((t0, t1, !dhcp_switch));
        recontact(&mut tb);
        advance(&mut tb.sim, SETTLE, steps.as_mut());
    }
    advance(&mut tb.sim, SimDuration::from_secs(2), steps.as_mut());
    rep.window_ns = ns_since(t_window);
    tb.sim.profiler_mut().disable();
    rep.batches = tb.sim.batches_executed() - batches0;

    let mut exact = counts_delta(&sim_counts(&tb.sim), &before);
    let (req1, dhcp1) = mh_counts(&mut tb);
    exact.insert("mh.reg_requests", req1 - req0);
    exact.insert("dhcp.msgs", dhcp1 - dhcp0);
    exact.insert(
        "ha.processed",
        tb.ha_module().processed.get() - ha_processed0,
    );
    exact.insert(
        "mh.timelines",
        (tb.mh_module().timelines.len() - timelines0) as u64,
    );
    let sender: &mut UdpEchoSender = tb
        .sim
        .world_mut()
        .host_mut(ch)
        .module_mut(echo)
        .expect("echo sender");
    let lost = sender.lost_sent_times(windows[0].0, windows[windows.len() - 1].1);
    let (mut lost_total, mut lost_max_static) = (0u64, 0u64);
    for &(t0, t1, is_static) in &windows {
        let n = lost.iter().filter(|&&t| t >= t0 && t < t1).count() as u64;
        lost_total += n;
        if is_static {
            lost_max_static = lost_max_static.max(n);
        }
    }
    let mut recv = 0u64;
    for (&(h, _), &sid) in peers.iter().zip(&sinks) {
        recv += traffic::sink(&mut tb.sim, h, sid).datagrams;
    }
    exact.insert("switches", u64::from(SWITCHES));
    exact.insert("completed", completed);
    exact.insert("handoff.lost_total", lost_total);
    exact.insert("handoff.lost_max_static", lost_max_static);
    exact.insert("recontact.sent", contacted);
    exact.insert("recontact.received", recv);
    record_latencies(&mut exact, totals_ns);
    rep.check(failed == 0, || {
        format!("{failed} switches not registered within {SWITCH_CAP}")
    });
    let p50 = exact["virt_p50_ns"];
    rep.check(p50 == FIG7_TOTAL_NS, || {
        format!("median switch took {p50} ns, not Figure 7's modelled {FIG7_TOTAL_NS} ns")
    });
    rep.check(lost_max_static <= 1, || {
        format!("a same-subnet static switch lost {lost_max_static} echoes (paper: at most 1)")
    });
    rep.check(recv == contacted, || {
        format!("re-contact datagrams: sent {contacted}, received {recv}")
    });
    rep.ops = completed;
    rep.attempted = u64::from(SWITCHES);
    rep.failed = failed;
    rep.exact = exact;
    rep.pool_end = mosquitonet_wire::pool_size() as u64;

    if let Some(st) = steps {
        record_steps(&mut rep, st);
        let snap = tb.sim.metrics().snapshot();
        record_profile(&mut rep, &snap);
        rep.traced.insert(
            "mh.switch_call_ns",
            switch_call_ns as f64 / f64::from(SWITCHES),
        );
        rep.traced.insert("topology.build_ns", build_ns as f64);
        rep.traced.insert("topology.settle_ns", settle_ns as f64);
        // The run's own lookups, replayed on the host as it ended: the
        // warm-cache answer, and a full resolution after a flush.
        let host = tb.sim.world_mut().host_mut(mh);
        let mut dsts: Vec<_> = peers.iter().map(|p| p.1).collect();
        let hit = time_per_call(&mut dsts, 4096, |d| {
            std::hint::black_box(resolve_route(host, *d, SourceSel::Unspecified, None));
        });
        let miss = time_per_call(&mut dsts, 4096, |d| {
            host.fastpath.flush();
            std::hint::black_box(resolve_route(host, *d, SourceSel::Unspecified, None));
        });
        rep.traced.insert("fastpath.resolve_hit_ns", hit);
        rep.traced.insert("fastpath.resolve_miss_ns", miss);
    }
    rep
}

/// The mobile host's registration requests and DHCP client messages
/// (sent and received) so far.
fn mh_counts(tb: &mut topology::Testbed) -> (u64, u64) {
    let m = tb.mh_module();
    let d = &m.dhcp_stats;
    let dhcp =
        d.discovers_sent.get() + d.offers_received.get() + d.requests_sent.get() + d.grants.get();
    (m.requests_sent.get(), dhcp)
}
