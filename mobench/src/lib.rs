//! The repository benchmark: host-time throughput of the simulator on
//! three mobility workloads, the exact modelled (virtual-time) results of
//! each, correctness and determinism checks, and — in a separate traced
//! run — a per-layer ledger timed from outside the program.
//!
//! Each workload is a fixed-work batch job. A run repeats it until the
//! requested host time is used and reports medians over repetitions;
//! every repetition of one seed must reproduce the same virtual results
//! and counts exactly. See `README.md` in this directory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mosquitonet_core::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet_sim::SimDuration;
use mosquitonet_testbed::topology::{self, Testbed, COA_DEPT, ROUTER_DEPT};

pub mod common;
pub mod fleet;
pub mod roam;
pub mod traffic;
pub mod tunnel;

use common::{count_heap, median, peak_rss_mib, quantile, Mode, Rep};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Reverse-tunnelled UDP streams (data plane).
    TunnelStream,
    /// Sharded home-agent fleet under registration churn, one worker.
    FleetChurn,
    /// Care-of switches with an echo stream (registration client, DHCP,
    /// ARP, fast-path refill).
    RoamHandoff,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TunnelStream,
        Workload::FleetChurn,
        Workload::RoamHandoff,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TunnelStream => "tunnel_stream",
            Workload::FleetChurn => "fleet_churn",
            Workload::RoamHandoff => "roam_handoff",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one operation is, and the workload-specific name of the
    /// host-time rate.
    pub fn op(self) -> (&'static str, &'static str) {
        match self {
            Workload::TunnelStream => ("delivered datagram", "pkts_per_wall_s"),
            Workload::FleetChurn => ("accepted registration", "regs_per_wall_s"),
            Workload::RoamHandoff => ("registered care-of switch", "handoffs_per_wall_s"),
        }
    }

    /// The modelled latency of an operation that meets no queue: the
    /// least any run can record, the same on every seed. A change to the
    /// model moves it and fails the run.
    fn modelled_min_ns(self) -> u64 {
        match self {
            Workload::TunnelStream => tunnel::MODELLED_MIN_NS,
            Workload::FleetChurn => fleet::MODELLED_MIN_NS,
            Workload::RoamHandoff => roam::FIG7_TOTAL_NS,
        }
    }

    fn rep(self, seed: u64, mode: Mode, spin_ns: u64) -> Rep {
        match self {
            Workload::TunnelStream => tunnel::rep(seed, mode, spin_ns),
            Workload::FleetChurn => fleet::rep(seed, mode),
            Workload::RoamHandoff => roam::rep(seed, mode),
        }
    }
}

/// Moves the mobile host to the department net and registers
/// `COA_DEPT` (cold switch), as the paper's experiments start.
pub fn settle_on_dept(tb: &mut Testbed) {
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
        "failed to settle on the department net"
    );
}

/// End-to-end metrics: name, unit. Printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_wall_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("virt_mean_ms", "ms"),
    ("virt_p99_ms", "ms"),
];

/// Per-layer rows: name, unit. Printed by every traced run; a row reads 0
/// on a workload that does not exercise its layer.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("engine.events_per_op", "count"),
    ("engine.mean_batch", "count"),
    ("engine.pending_max", "count"),
    ("engine.step_ns_p50", "ns"),
    ("engine.step_ns_p99", "ns"),
    ("engine.tick_ns_per_op", "ns"),
    ("engine.outside_modules_ns_per_op", "ns"),
    ("module.home-agent.ns_per_op", "ns"),
    ("module.mobile-host.ns_per_op", "ns"),
    ("module.fleet-churn.ns_per_op", "ns"),
    ("module.bench-sink.ns_per_op", "ns"),
    ("module.other.ns_per_op", "ns"),
    ("shard.build_ns", "ns"),
    ("shard.finish_ns", "ns"),
    ("shard.arena_resets_per_op", "count"),
    ("shard.imbalance", "ratio"),
    ("shard.speedup_2t", "ratio"),
    ("ip.output_per_op", "count"),
    ("ip.input_per_op", "count"),
    ("ip.forwarded_per_op", "count"),
    ("ip.udp_send_burst_ns_per_pkt", "ns"),
    ("fastpath.hit_ratio", "ratio"),
    ("fastpath.misses_per_op", "count"),
    ("fastpath.resolve_hit_ns", "ns"),
    ("fastpath.resolve_miss_ns", "ns"),
    ("arp.resolutions_per_op", "count"),
    ("arp.proxy_replies_per_op", "count"),
    ("link.tx_frames_per_op", "count"),
    ("link.tx_bytes_per_op", "B"),
    ("link.schedule_tx_ns", "ns"),
    ("wire.encap_per_op", "count"),
    ("wire.decap_per_op", "count"),
    ("wire.encap_ns", "ns"),
    ("wire.decap_ns", "ns"),
    ("pktbuf.pool_size_end", "count"),
    ("ha.processed_per_op", "count"),
    ("ha.replicas_per_op", "count"),
    ("ha.journal_records_per_op", "count"),
    ("ha.mac_verify_ns", "ns"),
    ("ha.journal_append_ns", "ns"),
    ("fleet.wrong_shard_frac", "ratio"),
    ("fleet.resolve_ns", "ns"),
    ("mh.reg_requests_per_op", "count"),
    ("mh.handoff_lost_pkts", "count"),
    ("mh.switch_call_ns", "ns"),
    ("dhcp.msgs_per_op", "count"),
    ("topology.build_ns", "ns"),
    ("topology.settle_ns", "ns"),
    ("flightrec.hops_per_op", "count"),
    ("ledger.window_ns_per_op", "ns"),
    ("ledger.traced_window_ns_per_op", "ns"),
    ("ledger.explained_ns_per_op", "ns"),
    ("ledger.unexplained_ns_per_op", "ns"),
    ("ledger.tracing_overhead_ns_per_op", "ns"),
];

/// Count rows derived from exact counters: row, numerator, denominator
/// (`"ops"` for per-operation rows).
const COUNT_ROWS: [(&str, &str, &str); 20] = [
    ("engine.events_per_op", "engine.events", "ops"),
    ("shard.arena_resets_per_op", "shard.arena_resets", "ops"),
    ("ip.output_per_op", "ip.output", "ops"),
    ("ip.input_per_op", "ip.input", "ops"),
    ("ip.forwarded_per_op", "ip.forwarded", "ops"),
    ("fastpath.misses_per_op", "fastpath.miss", "ops"),
    ("arp.resolutions_per_op", "arp.resolutions", "ops"),
    ("arp.proxy_replies_per_op", "arp.proxy_replies", "ops"),
    ("link.tx_frames_per_op", "link.tx_frames", "ops"),
    ("link.tx_bytes_per_op", "link.tx_bytes", "ops"),
    ("wire.encap_per_op", "wire.encap", "ops"),
    ("wire.decap_per_op", "wire.decap", "ops"),
    ("ha.processed_per_op", "ha.processed", "ops"),
    ("ha.replicas_per_op", "ha.replicas", "ops"),
    ("ha.journal_records_per_op", "ha.journal_records", "ops"),
    ("fleet.wrong_shard_frac", "fleet.wrong_shard", "fleet.sent"),
    ("mh.reg_requests_per_op", "mh.reg_requests", "ops"),
    ("dhcp.msgs_per_op", "dhcp.msgs", "ops"),
    ("mh.handoff_lost_pkts", "handoff.lost_total", "switches"),
    ("flightrec.hops_per_op", "flightrec.hops", "ops"),
];

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Host seconds to keep repeating the workload for.
    pub seconds: f64,
    /// Traced run (per-layer rows) instead of the end-to-end run.
    pub trace: bool,
    /// Host ns the benchmark's own sink burns per datagram (sensitivity
    /// test only; 0 otherwise).
    pub sink_spin_ns: u64,
}

/// One metric of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name from `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// All correctness and determinism checks passed.
    pub correct: bool,
    /// Operations attempted over the run's measured repetitions.
    pub attempted: u64,
    /// Operations failed over the run's measured repetitions.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (printed before the result line).
    pub report: Vec<String>,
    /// Check failures.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Which list a repetition's figures go to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bucket {
    /// The process's first repetition: untimed, with the heap counted.
    /// Every other repetition must reproduce its virtual results.
    First,
    /// Timed, untraced repetitions on one worker.
    Own,
    /// Traced repetitions on one worker.
    Traced,
    /// Untraced repetitions on two workers (`fleet_churn`'s traced run).
    TwoWorkers,
}

/// The share of timed repetitions allowed to be slower than the host-time
/// figures reported: `ops_per_wall_s` is the 10th percentile of the
/// repetitions' rates and `setup_s` the 90th percentile of their set-up
/// times. A shared machine can switch between two speeds about 1.8×
/// apart for seconds to minutes at a time; a median lands on whichever
/// speed held for most of a run, while nearly every run spends a tenth
/// of its repetitions at the slower speed (see `README.md`).
const SLOW_SHARE: f64 = 0.1;

/// Fewest repetitions a run makes, whatever its time budget.
const MIN_REPS: usize = 3;

/// Runs one workload as `opts` asks.
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let own = Mode {
        traced: false,
        threads: 1,
    };
    let mut cycle = vec![(own, Bucket::Own)];
    if opts.trace {
        cycle.push((
            Mode {
                traced: true,
                ..own
            },
            Bucket::Traced,
        ));
        if w == Workload::FleetChurn {
            let two = Mode {
                traced: false,
                threads: 2,
            };
            cycle.push((two, Bucket::TwoWorkers));
        }
    }
    // Counting the heap costs atomic updates on every allocation, so it
    // runs only in this first repetition, which is never timed.
    let (first, heap_mib) = count_heap(|| w.rep(opts.seed, own, opts.sink_spin_ns));
    let mut reps = vec![(Bucket::First, first)];
    let t0 = Instant::now();
    loop {
        for &(mode, bucket) in &cycle {
            reps.push((bucket, w.rep(opts.seed, mode, opts.sink_spin_ns)));
        }
        let own_reps = reps.iter().filter(|r| r.0 == Bucket::Own).count();
        if t0.elapsed() >= budget && own_reps >= MIN_REPS {
            break;
        }
    }
    assemble(opts, &reps, heap_mib)
}

fn assemble(opts: &Options, reps: &[(Bucket, Rep)], heap_mib: f64) -> Outcome {
    let w = opts.workload;
    let mut out = Outcome::default();
    let bucket = |b: Bucket| reps.iter().filter(move |r| r.0 == b).map(|r| &r.1);
    let reference = &reps[0].1;
    for (i, (b, r)) in reps.iter().enumerate() {
        for e in &r.errors {
            out.errors.push(format!("rep {i}: {e}"));
        }
        if r.exact != reference.exact {
            let key = r
                .exact
                .iter()
                .find(|(k, v)| reference.exact.get(*k) != Some(v))
                .map_or("(key set)", |(k, _)| k);
            let kind = match b {
                Bucket::First | Bucket::Own => "repeat",
                Bucket::Traced => "traced",
                Bucket::TwoWorkers => "two-worker",
            };
            out.errors.push(format!(
                "nondeterministic: {kind} rep {i} differs from rep 0 at {key}: {:?} vs {:?}",
                r.exact.get(key),
                reference.exact.get(key)
            ));
        }
    }
    let min_ns = reference.exact.get("virt_min_ns").copied();
    if min_ns != Some(w.modelled_min_ns()) {
        out.errors.push(format!(
            "least virtual latency {min_ns:?} ns, not the modelled {} ns",
            w.modelled_min_ns()
        ));
    }
    for r in bucket(Bucket::Own) {
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    out.correct = out.errors.is_empty();

    let ops = reference.ops.max(1);
    let (op, rate_name) = w.op();
    let own: Vec<&Rep> = bucket(Bucket::Own).collect();
    let window_med = median(&own.iter().map(|r| r.window_ns as f64).collect::<Vec<_>>());
    let rates: Vec<f64> = own
        .iter()
        .map(|r| r.ops as f64 / (r.window_ns.max(1) as f64 / 1e9))
        .collect();
    let setups: Vec<f64> = own.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let rate = quantile(&rates, SLOW_SHARE);
    let setup = quantile(&setups, 1.0 - SLOW_SHARE);
    let exact = |k: &str| reference.exact.get(k).copied().unwrap_or(0);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.report.push(format!(
        "# mobench workload={} seed={} seconds={} trace={} reps={} nproc={} rustc=\"{}\"",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        reps.len(),
        nproc,
        env!("MOBENCH_RUSTC_VERSION"),
    ));
    out.report.push(format!(
        "# op = {op}; ops per rep = {}; failed_frac = {} ({} failed / {} attempted)",
        reference.ops,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));

    let virt_mean_ns = exact("virt_sum_ns") as f64 / exact("virt_count").max(1) as f64;
    if !opts.trace {
        let metrics = [
            rate,
            setup,
            heap_mib,
            virt_mean_ns / 1e6,
            exact("virt_p99_ns") as f64 / 1e6,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(metrics) {
            out.metrics.push(Metric { name, value, unit });
        }
        out.report.push(format!(
            "# host: {rate_name} = {rate:.1} 1/s, setup_s = {setup:.6} s \
             (10th/90th percentile of {} reps), peak_rss_mib = {:.2}",
            own.len(),
            peak_rss_mib()
        ));
        let q = |f: f64| quantile(&rates, f);
        out.report.push(format!(
            "# host: per-rep {rate_name} min {:.0} p10 {rate:.0} q1 {:.0} median {:.0} q3 {:.0} max {:.0}; \
             setup_s median {:.6}",
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
            median(&setups)
        ));
        out.report.push(format!(
            "# virtual: n = {}, min = {} ns, p50 = {} ns, mean = {virt_mean_ns:.1} ns, p99 = {} ns, max = {} ns",
            exact("virt_count"),
            exact("virt_min_ns"),
            exact("virt_p50_ns"),
            exact("virt_p99_ns"),
            exact("virt_max_ns")
        ));
        if w == Workload::RoamHandoff {
            out.report.push(format!(
                "# virtual: handoff_lost_pkts = {} ({} echoes lost over {} switches)",
                exact("handoff.lost_total") as f64 / exact("switches").max(1) as f64,
                exact("handoff.lost_total"),
                exact("switches")
            ));
        }
        return out;
    }

    // Traced run: the per-layer ledger.
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut base: BTreeMap<&'static str, String> = BTreeMap::new();
    for (row, num, den) in COUNT_ROWS {
        let d = if den == "ops" { ops } else { exact(den) };
        if exact(num) > 0 || d > 0 {
            rows.insert(row, exact(num) as f64 / d.max(1) as f64);
            base.insert(row, format!("{num}={} / {den}={d}", exact(num)));
        }
    }
    let (hit, miss) = (exact("fastpath.hit"), exact("fastpath.miss"));
    rows.insert(
        "fastpath.hit_ratio",
        hit as f64 / (hit + miss).max(1) as f64,
    );
    base.insert(
        "fastpath.hit_ratio",
        format!("hit={hit} / lookups={}", hit + miss),
    );
    let batches = own.first().map_or(0, |r| r.batches);
    rows.insert(
        "engine.mean_batch",
        exact("engine.events") as f64 / batches.max(1) as f64,
    );
    base.insert(
        "engine.mean_batch",
        format!("events={} / batches={batches}", exact("engine.events")),
    );
    if w != Workload::FleetChurn {
        rows.insert("pktbuf.pool_size_end", reference.pool_end as f64);
        base.insert(
            "pktbuf.pool_size_end",
            "after the first repetition of the process".to_string(),
        );
    }
    let traced: Vec<&Rep> = bucket(Bucket::Traced).collect();
    let keys: Vec<&'static str> = traced
        .iter()
        .flat_map(|r| r.traced.keys().copied())
        .collect();
    for k in keys {
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.traced.get(k).copied())
            .collect();
        rows.insert(k, median(&v));
        base.insert(k, format!("median of {} traced reps, ops={ops}", v.len()));
    }
    if w == Workload::FleetChurn {
        let two: Vec<f64> = bucket(Bucket::TwoWorkers)
            .map(|r| r.window_ns as f64)
            .collect();
        let two = median(&two);
        rows.insert("shard.speedup_2t", window_med / two.max(1.0));
        base.insert(
            "shard.speedup_2t",
            format!("1-worker window {window_med:.0} ns / 2-worker window {two:.0} ns"),
        );
    }
    let traced_window = median(
        &traced
            .iter()
            .map(|r| r.window_ns as f64)
            .collect::<Vec<_>>(),
    );
    let per_op = |ns: f64| ns / ops as f64;
    let explained = rows.get("engine.tick_ns_per_op").copied().unwrap_or(0.0);
    rows.insert("ledger.window_ns_per_op", per_op(window_med));
    rows.insert("ledger.traced_window_ns_per_op", per_op(traced_window));
    rows.insert("ledger.explained_ns_per_op", explained);
    rows.insert(
        "ledger.unexplained_ns_per_op",
        per_op(window_med) - explained,
    );
    rows.insert(
        "ledger.tracing_overhead_ns_per_op",
        per_op(traced_window - window_med),
    );
    for (row, b) in [
        (
            "ledger.window_ns_per_op",
            format!("median untraced window {window_med:.0} ns / ops={ops}"),
        ),
        (
            "ledger.traced_window_ns_per_op",
            format!("median traced window {traced_window:.0} ns / ops={ops}"),
        ),
        (
            "ledger.explained_ns_per_op",
            "profiled engine ticks".to_string(),
        ),
        (
            "ledger.unexplained_ns_per_op",
            "untraced window minus explained".to_string(),
        ),
        (
            "ledger.tracing_overhead_ns_per_op",
            "traced minus untraced window".to_string(),
        ),
    ] {
        base.insert(row, b);
    }
    for (name, unit) in PER_LAYER {
        let value = rows.get(name).copied().unwrap_or(0.0);
        let b = base
            .get(name)
            .map_or("not exercised by this workload", String::as_str);
        out.report
            .push(format!("# {name:<36} {value:>14.3} {unit:<5} [{b}]"));
        out.metrics.push(Metric { name, value, unit });
    }
    out
}

/// Renders the result line: one JSON object.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}
