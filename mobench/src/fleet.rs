//! `fleet_churn`: the S2 sharded home-agent fleet under Zipf
//! registration churn, with a deterministic 1/32 of first attempts sent
//! to the wrong shard and redirected.
//!
//! The topology is S2's: one campus domain per shard (active home agent
//! doubling as gateway, standby agent, churn host) joined by a backbone
//! trunk. The benchmark builds it itself so it can time the build and
//! finish hooks apart from the stepped window, and it offers each shard
//! four registrations per 10 ms — about 60 % of the modelled agent's
//! 1.48 ms service time — so the virtual backlog stays bounded.

use std::net::Ipv4Addr;
use std::sync::Mutex;
use std::time::Instant;

use mosquitonet_core::{
    BindingJournal, HomeAgent, HomeAgentConfig, JournalRecord, RegistrationRequest,
};
use mosquitonet_link::presets;
use mosquitonet_sim::{run_sharded, shard_seed, Sim, SimDuration, SimTime, Snapshot};
use mosquitonet_stack::{self as stack, ModuleId, Network, RouteEntry};
use mosquitonet_testbed::experiments::s2_directory;
use mosquitonet_testbed::workload::FleetChurn;
use mosquitonet_wire::{Cidr, MacAddr};

use crate::common::{
    counts_add, counts_delta, ns_since, profile_totals, record_latencies, record_profile,
    sim_counts, splitmix, time_per_call, Counts, Mode, Rep,
};

/// Home-agent shards.
pub const SHARDS: u32 = 16;

/// Mobile hosts across the fleet.
pub const MOBILE_HOSTS: u32 = 100_000;

/// Zipf draws per churn tick per shard.
pub const BURST: u32 = 4;

/// Churn ticks per repetition (3 s of virtual time).
pub const TICKS: u32 = 300;

/// A registration that meets no queue and no detour: churn host →
/// active agent (1.48 ms processing) → reply, as the modelled campus and
/// agent delays sum it.
pub const MODELLED_MIN_NS: u64 = 5_642_000;

/// Gap between churn ticks.
const TICK: SimDuration = SimDuration::from_millis(10);

/// Bring-up before the churn starts.
const PRIME: SimDuration = SimDuration::from_millis(600);

/// Virtual time after the last tick for detours and replicas to land.
const DRAIN: SimDuration = SimDuration::from_secs(3);

fn home(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(Ipv4Addr::new(36, 0, 0, 1)) + i)
}

fn campus(s: u32) -> Cidr {
    format!("10.{s}.0.0/24").parse().expect("cidr")
}

fn campus_addr(s: u32, host: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, s as u8, 0, host)
}

fn backbone_addr(s: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 99, 0, s as u8 + 1)
}

fn backbone_mac(s: u32) -> MacAddr {
    MacAddr::from_index(s * 16 + 2)
}

fn backbone() -> Cidr {
    "10.99.0.0/24".parse().expect("cidr")
}

/// What one shard's build leaves for the report.
struct Built {
    ns: u64,
    end: Instant,
    resolve_ns: u64,
    base: Counts,
}

/// What one shard's finish hands back across the thread boundary.
struct ShardOut {
    start: Instant,
    ns: u64,
    counts: Counts,
    snapshot: Snapshot,
    latencies_ns: Vec<u64>,
}

fn route(core: &mut stack::HostCore, dest: Cidr, gateway: Option<Ipv4Addr>, iface: stack::IfaceId) {
    core.routes.add(RouteEntry {
        dest,
        gateway,
        iface,
        metric: 0,
    });
}

/// Builds shard `s`: topology, agents, warmed ARP, and the churn source
/// scheduled after `PRIME` plus a seeded phase.
fn build_shard(s: u32, seed: u64, traced: bool) -> (Sim<Network>, u64) {
    let directory = s2_directory(SHARDS);
    let mut net = Network::new();
    net.enable_sharding(s, SHARDS);
    let bb = net.add_lan(presets::backbone_trunk("backbone", presets::TRUNK_ONE_WAY));
    let lan = net.add_lan(presets::ethernet_lan(format!("campus{s}")));
    net.add_portal(bb, 0);
    for t in 0..SHARDS {
        net.register_portal_mac(backbone_mac(t), t);
    }
    let base = s * 16;
    let active = campus_addr(s, 1);
    let standby = campus_addr(s, 2);
    let churn_addr = campus_addr(s, 3);

    let ha = net.add_host(format!("ha{s}"));
    let ha_if = net.host_mut(ha).core.add_iface(presets::wired_ethernet(
        "eth0",
        MacAddr::from_index(base + 1),
    ));
    let ha_bb = net
        .host_mut(ha)
        .core
        .add_iface(presets::wired_ethernet("eth1", backbone_mac(s)));
    {
        let core = &mut net.host_mut(ha).core;
        core.forwarding = true;
        core.iface_mut(ha_if).add_addr(active, campus(s));
        core.iface_mut(ha_bb).add_addr(backbone_addr(s), backbone());
        route(core, campus(s), None, ha_if);
        route(core, backbone(), None, ha_bb);
        for t in (0..SHARDS).filter(|&t| t != s) {
            route(core, campus(t), Some(backbone_addr(t)), ha_bb);
        }
    }
    let prefix: Cidr = "36.0.0.0/8".parse().expect("cidr");
    let mut ha_cfg = HomeAgentConfig::new(active, ha_if, prefix);
    ha_cfg.replicate_to = Some(standby);
    ha_cfg.fleet = Some((s as u16, directory.clone()));
    net.host_mut(ha)
        .add_module(Box::new(HomeAgent::new(ha_cfg)));
    net.attach(ha, ha_if, lan);
    net.attach(ha, ha_bb, bb);

    let leaf = |net: &mut Network, name: String, mac: u32, addr: Ipv4Addr| {
        let h = net.add_host(name);
        let ifc = net
            .host_mut(h)
            .core
            .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(mac)));
        let core = &mut net.host_mut(h).core;
        core.iface_mut(ifc).add_addr(addr, campus(s));
        route(core, campus(s), None, ifc);
        route(core, Cidr::DEFAULT, Some(active), ifc);
        net.attach(h, ifc, lan);
        (h, ifc)
    };
    let (sb, sb_if) = leaf(&mut net, format!("sb{s}"), base + 3, standby);
    let mut sb_cfg = HomeAgentConfig::new(standby, sb_if, prefix);
    sb_cfg.fleet = Some((s as u16, directory.clone()));
    net.host_mut(sb)
        .add_module(Box::new(HomeAgent::new(sb_cfg)));
    let (churn, churn_if) = leaf(&mut net, format!("churn{s}"), base + 4, churn_addr);

    let mut sim = Sim::with_seed(net, shard_seed(seed, s));
    sim.flights_mut().set_enabled(true);
    sim.flights_mut().set_flight_namespace(s);
    for (h, i) in [(ha, ha_if), (ha, ha_bb), (sb, sb_if), (churn, churn_if)] {
        stack::bring_iface_up(&mut sim, h, i);
    }
    sim.run();
    let t0 = sim.now();
    {
        let w = sim.world_mut();
        w.hosts[churn.0].core.arp[churn_if.0].insert(active, MacAddr::from_index(base + 1), t0);
        w.hosts[ha.0].core.arp[ha_if.0].insert(churn_addr, MacAddr::from_index(base + 4), t0);
        w.hosts[ha.0].core.arp[ha_if.0].insert(standby, MacAddr::from_index(base + 3), t0);
        w.hosts[sb.0].core.arp[sb_if.0].insert(active, MacAddr::from_index(base + 1), t0);
        for t in (0..SHARDS).filter(|&t| t != s) {
            w.hosts[ha.0].core.arp[ha_bb.0].insert(backbone_addr(t), backbone_mac(t), t0);
        }
    }
    stack::start(&mut sim);

    // This shard's slice of the population, in Zipf rank order.
    let t_resolve = Instant::now();
    let homes: Vec<Ipv4Addr> = (0..MOBILE_HOSTS)
        .map(home)
        .filter(|&h| directory.resolve(h) == s as u16)
        .collect();
    let resolve_ns = ns_since(t_resolve);
    // Each shard's churn starts at a seeded phase and ticks at a seeded
    // period within ±5 % of `TICK`, so wrong-shard detours meet the
    // neighbour's queue in every state rather than in one fixed pattern.
    let mut state = seed ^ u64::from(s).wrapping_mul(0xA24B_AED4_963E_E407);
    let phase = SimDuration::from_micros(splitmix(&mut state) % TICK.as_micros());
    let period =
        TICK - TICK / 20 + SimDuration::from_micros(splitmix(&mut state) % (TICK / 10).as_micros());
    let next = (s + 1) % SHARDS;
    let churn_seed = shard_seed(seed, s) ^ 0x5A5A_5A5A_5A5A_5A5A;
    sim.schedule_at(SimTime::ZERO + PRIME + phase, move |sim| {
        stack::add_module(
            sim,
            churn,
            Box::new(FleetChurn::new(
                active,
                campus_addr(next, 1),
                homes,
                BURST,
                period,
                TICKS,
                churn_seed,
            )),
        );
    });
    if traced {
        let reg = sim.metrics().clone();
        sim.profiler_mut()
            .enable_with_prefix(&reg, format!("profile/shard/{s}"));
    }
    (sim, resolve_ns)
}

/// Engine, stack and flight-recorder counts of one shard.
fn engine_counts(sim: &Sim<Network>) -> Counts {
    let mut c = sim_counts(sim);
    c.insert("engine.batches", sim.batches_executed());
    c.insert("shard.arena_resets", sim.world().arena_resets());
    c
}

/// Agent, churn and per-layer counts of one finished shard.
fn shard_counts(sim: &mut Sim<Network>) -> (Counts, Vec<u64>) {
    let now = sim.now();
    let mut c = engine_counts(sim);
    let mut lat = Vec::new();
    let mut add = |k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
    let w = sim.world_mut();
    for h in 0..w.hosts.len() {
        let host = &mut w.hosts[h];
        for m in 0..host.module_count() {
            let mid = ModuleId(m);
            if let Some(a) = host.module_mut::<HomeAgent>(mid) {
                let live = a.bindings.iter_live(now).count() as u64;
                // Host order per shard is fixed: active, standby, churn.
                if h == 0 {
                    add("ha.processed", a.processed.get());
                    add("ha.accepted", a.accepted.get());
                    add("fleet.wrong_shard", a.wrong_shard.get());
                    add("ha.replicas", a.replicas_sent.get());
                    add("ha.live_bindings", live);
                    add("ha.journal_records", a.journal.len() as u64);
                } else {
                    add("ha.replicas_applied", a.replicas_applied.get());
                    add("ha.standby_bindings", live);
                }
            } else if let Some(ch) = host.module_mut::<FleetChurn>(mid) {
                add("fleet.sent", ch.sent);
                add("fleet.misdirected", ch.misdirected);
                add("fleet.redirected", ch.redirected);
                add("fleet.accepted", ch.accepted);
                add("fleet.denied", ch.denied);
                lat.append(&mut ch.latencies_ns);
            }
        }
    }
    (c, lat)
}

/// One repetition on `mode.threads` workers.
pub fn rep(seed: u64, mode: Mode) -> Rep {
    let mut rep = Rep::default();
    let deadline = SimTime::ZERO + PRIME + TICK + TICK * u64::from(TICKS) + DRAIN;
    let built: Vec<Mutex<Option<Built>>> = (0..SHARDS).map(|_| Mutex::new(None)).collect();
    let t_rep = Instant::now();
    let build = |s: u32| {
        let t0 = Instant::now();
        let (sim, resolve_ns) = build_shard(s, seed, mode.traced);
        let base = engine_counts(&sim);
        *built[s as usize].lock().expect("build slot") = Some(Built {
            ns: ns_since(t0),
            end: Instant::now(),
            resolve_ns,
            base,
        });
        sim
    };
    let finish = |_: u32, mut sim: Sim<Network>| {
        let start = Instant::now();
        let (counts, latencies_ns) = shard_counts(&mut sim);
        let snapshot = sim.metrics().snapshot();
        ShardOut {
            start,
            ns: ns_since(start),
            counts,
            snapshot,
            latencies_ns,
        }
    };
    let outs = run_sharded(
        SHARDS,
        mode.threads,
        presets::TRUNK_ONE_WAY,
        deadline,
        build,
        finish,
    );
    let built: Vec<Built> = built
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("build slot")
                .expect("every shard built")
        })
        .collect();
    let build_end = built.iter().map(|b| b.end).max().expect("shards");
    let window_start = outs.iter().map(|o| o.start).min().expect("shards");
    rep.setup_ns = (build_end - t_rep).as_nanos() as u64;
    rep.window_ns = window_start.saturating_duration_since(build_end).as_nanos() as u64;

    let mut exact = Counts::new();
    let mut lat = Vec::new();
    let mut busy = Vec::new();
    for (o, b) in outs.iter().zip(&built) {
        counts_add(&mut exact, &counts_delta(&o.counts, &b.base));
        lat.extend_from_slice(&o.latencies_ns);
        busy.push(profile_totals(&o.snapshot).0 as f64);
    }
    rep.batches = exact.remove("engine.batches").unwrap_or(0);
    record_latencies(&mut exact, lat);
    let get = |k: &str| exact.get(k).copied().unwrap_or(0);
    let (sent, accepted, denied) = (
        get("fleet.sent"),
        get("fleet.accepted"),
        get("fleet.denied"),
    );
    let (wrong, mis, redir) = (
        get("fleet.wrong_shard"),
        get("fleet.misdirected"),
        get("fleet.redirected"),
    );
    let (live, standby) = (get("ha.live_bindings"), get("ha.standby_bindings"));
    rep.check(accepted == sent, || {
        format!("accepted {accepted} != sent {sent}")
    });
    rep.check(denied == 0, || format!("{denied} registrations denied"));
    rep.check(wrong == mis && mis == redir, || {
        format!("wrong_shard {wrong}, misdirected {mis}, redirected {redir} differ")
    });
    rep.check(live == standby, || {
        format!("live bindings {live} != standby bindings {standby}")
    });
    rep.ops = accepted;
    rep.attempted = sent;
    rep.failed = sent - accepted.min(sent);
    rep.exact = exact;

    if mode.traced {
        let n = f64::from(SHARDS);
        let merged = Snapshot::merged(outs.iter().map(|o| o.snapshot.clone()));
        record_profile(&mut rep, &merged);
        let mean_busy = busy.iter().sum::<f64>() / n;
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        rep.traced
            .insert("shard.imbalance", max_busy / mean_busy.max(1.0));
        rep.traced.insert(
            "shard.build_ns",
            built.iter().map(|b| b.ns as f64).sum::<f64>() / n,
        );
        rep.traced.insert(
            "shard.finish_ns",
            outs.iter().map(|o| o.ns as f64).sum::<f64>() / n,
        );
        let resolve: u64 = built.iter().map(|b| b.resolve_ns).sum();
        rep.traced.insert(
            "fleet.resolve_ns",
            resolve as f64 / (f64::from(MOBILE_HOSTS) * n),
        );
        replay_agent(&mut rep);
    }
    rep
}

/// Times the home agent's per-registration pure functions on requests
/// for the fleet's own home addresses: MAC verification of a signed
/// request (the fleet runs unkeyed, so this is the cost keying would
/// add) and one write-ahead journal append.
fn replay_agent(rep: &mut Rep) {
    const KEY: u64 = 0x6d6f_7371_7569_746f;
    let mut reqs: Vec<RegistrationRequest> = (0..4096)
        .map(|i| {
            let h = home(i);
            RegistrationRequest {
                lifetime: 300,
                home_addr: h,
                home_agent: campus_addr(0, 1),
                care_of: Ipv4Addr::from(0xAC10_0000u32 + 2 * i),
                ident: 1 + u64::from(i),
                auth: None,
            }
            .sign(0x100, KEY)
        })
        .collect();
    let verify = time_per_call(&mut reqs, 4096, |r| {
        assert!(
            std::hint::black_box(&*r).verify(KEY),
            "signed request verifies"
        );
    });
    let mut journal = BindingJournal::new();
    let mut recs: Vec<JournalRecord> = reqs
        .iter()
        .map(|r| JournalRecord::Bind {
            home: r.home_addr,
            care_of: r.care_of,
            lifetime: SimDuration::from_secs(300),
            ident: r.ident,
            at: SimTime::ZERO,
        })
        .collect();
    let append = time_per_call(&mut recs, 4096, |r| {
        if journal.len() >= 4096 {
            journal.clear();
        }
        journal.append(std::hint::black_box(*r));
    });
    rep.traced.insert("ha.mac_verify_ns", verify);
    rep.traced.insert("ha.journal_append_ns", append);
}
