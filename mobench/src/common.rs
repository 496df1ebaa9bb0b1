//! Pieces every workload shares: the per-repetition record, counter
//! collection over a simulated network, the traced step loop, and the
//! small statistics the report needs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::Instant;

use mosquitonet_sim::{MetricValue, SimDuration, SimTime, Snapshot};
use mosquitonet_stack::{NetSim, Network};

/// Exact counts keyed by a stable name (`ip.output`, `fleet.sent`, …).
pub type Counts = BTreeMap<&'static str, u64>;

/// How one repetition runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mode {
    /// Benchmark spans and the engine profiler on.
    pub traced: bool,
    /// Worker threads stepping the world (sharded workloads only).
    pub threads: usize,
}

/// One repetition of a fixed-work batch job: build, settle, measured
/// window, checks.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host ns to build the topology, settle registration and prime ARP.
    pub setup_ns: u64,
    /// Host ns of the measured window.
    pub window_ns: u64,
    /// Completed operations in the window.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (`attempted - ops`).
    pub failed: u64,
    /// Engine batches drained in the window (zero in a traced, stepped
    /// window, so kept out of `exact`).
    pub batches: u64,
    /// Buffers resting in the packet-buffer pool after the window. The
    /// pool is per thread and outlives a repetition, so only a process's
    /// first repetition reads it from a cold start.
    pub pool_end: u64,
    /// Every virtual-time output and exact count of the window. Identical
    /// for every repetition of one seed, traced or not, at any thread
    /// count.
    pub exact: Counts,
    /// Host-time rows measured by the benchmark's own timers (traced
    /// repetitions only), keyed by per-layer row name.
    pub traced: BTreeMap<&'static str, f64>,
    /// Correctness failures.
    pub errors: Vec<String>,
}

impl Rep {
    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// SplitMix64 step: the benchmark derives every schedule choice from the
/// seed with it, never from the simulator's own RNG stream.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Element at quantile `q` of a sorted slice (nearest rank, the
/// convention the experiments' own p99 rows use).
pub fn pctl(sorted: &[u64], q: usize) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[(sorted.len() - 1) * q / 100]
    }
}

/// Puts a latency sample's exact summary into `exact`: count, min, sum
/// (the mean's numerator), p50, p99 and max, in virtual ns.
pub fn record_latencies(exact: &mut Counts, mut lat: Vec<u64>) {
    lat.sort_unstable();
    exact.insert("virt_count", lat.len() as u64);
    exact.insert("virt_min_ns", lat.first().copied().unwrap_or(0));
    exact.insert("virt_sum_ns", lat.iter().sum());
    exact.insert("virt_p50_ns", pctl(&lat, 50));
    exact.insert("virt_p99_ns", pctl(&lat, 99));
    exact.insert("virt_max_ns", lat.last().copied().unwrap_or(0));
}

/// Quantile `q` (0 to 1) of unsorted values, interpolating linearly
/// between the two nearest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Sums the per-layer counters of every host in `net`.
pub fn network_counts(net: &Network) -> Counts {
    let mut c = Counts::new();
    let mut add = |k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
    for h in &net.hosts {
        let s = &h.core.stats;
        add("ip.output", s.ip_output.get());
        add("ip.input", s.ip_input.get());
        add("ip.forwarded", s.forwarded.get());
        add("wire.encap", s.encapsulated.get());
        add("wire.decap", s.decapsulated.get());
        add("fastpath.hit", h.fastpath.stats.hit.get());
        add("fastpath.miss", h.fastpath.stats.miss.get());
        for arp in &h.core.arp {
            add("arp.resolutions", arp.stats.resolutions.get());
            add("arp.proxy_replies", arp.stats.proxy_replies.get());
        }
        for ifc in &h.core.ifaces {
            add("link.tx_frames", ifc.device.counters.tx_frames.get());
            add("link.tx_bytes", ifc.device.counters.tx_bytes.get());
        }
    }
    c
}

/// Sum of every `drop.*` counter in a metrics snapshot.
pub fn snapshot_drops(snap: &Snapshot) -> u64 {
    snap.iter()
        .filter(|(name, _)| name.contains("drop."))
        .map(|(_, v)| match v {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum()
}

/// Counters, drops and flight-recorder hops of a whole simulation.
pub fn sim_counts(sim: &NetSim) -> Counts {
    let mut c = network_counts(sim.world());
    c.insert("drops", snapshot_drops(&sim.metrics().snapshot()));
    let f = sim.flights();
    c.insert("flightrec.hops", f.len() as u64 + f.overwritten());
    c.insert("engine.events", sim.events_executed());
    c
}

/// `after - before`, key by key.
pub fn counts_delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// Adds every count of `part` into `total`.
pub fn counts_add(total: &mut Counts, part: &Counts) {
    for (k, v) in part {
        *total.entry(k).or_insert(0) += v;
    }
}

/// What the traced step loop observed.
#[derive(Debug, Default)]
pub struct StepTrace {
    /// Host ns of every `Sim::step` call.
    pub step_ns: Vec<u64>,
    /// Most events pending after any step.
    pub pending_max: u64,
}

/// Runs `span` of virtual time. Untraced, this is the engine's own
/// batched loop; traced, the benchmark calls `Sim::step` itself and times
/// every call (same events, same order, so the same virtual results).
pub fn advance(sim: &mut NetSim, span: SimDuration, trace: Option<&mut StepTrace>) {
    let Some(st) = trace else {
        sim.run_for(span);
        return;
    };
    let deadline: SimTime = sim.now() + span;
    while sim.next_event_at().is_some_and(|at| at <= deadline) {
        let t0 = Instant::now();
        sim.step();
        st.step_ns.push(ns_since(t0));
        st.pending_max = st.pending_max.max(sim.pending_events() as u64);
    }
    sim.run_until(deadline);
}

/// Puts step-time percentiles and the pending-queue peak into a traced
/// repetition's rows.
pub fn record_steps(rep: &mut Rep, mut st: StepTrace) {
    st.step_ns.sort_unstable();
    rep.traced
        .insert("engine.step_ns_p50", pctl(&st.step_ns, 50) as f64);
    rep.traced
        .insert("engine.step_ns_p99", pctl(&st.step_ns, 99) as f64);
    rep.traced
        .insert("engine.pending_max", st.pending_max as f64);
}

/// Profiler totals from a metrics snapshot: tick ns and per-module ns,
/// summed over every `…/tick/total_ns` and `…/module.{name}/total_ns`
/// cell (one set per shard in sharded runs).
pub fn profile_totals(snap: &Snapshot) -> (u64, BTreeMap<String, u64>) {
    let mut tick = 0;
    let mut modules = BTreeMap::new();
    for (name, v) in snap.iter() {
        let MetricValue::Counter(n) = v else { continue };
        let Some(stem) = name.strip_suffix("/total_ns") else {
            continue;
        };
        if stem.ends_with("/tick") {
            tick += n;
        } else if let Some(i) = stem.rfind("/module.") {
            *modules.entry(stem[i + 8..].to_string()).or_insert(0) += n;
        }
    }
    (tick, modules)
}

/// Puts the engine-profiler split into a traced repetition's rows: per
/// named module, the rest of the modules, and the engine/stack/link time
/// outside any module upcall — all per completed operation.
pub fn record_profile(rep: &mut Rep, snap: &Snapshot) {
    let (tick, modules) = profile_totals(snap);
    let ops = rep.ops.max(1) as f64;
    let per_op = |ns: u64| ns as f64 / ops;
    let mut other = 0;
    let mut in_modules = 0;
    for (name, ns) in &modules {
        in_modules += ns;
        match name.as_str() {
            "home-agent" => rep
                .traced
                .insert("module.home-agent.ns_per_op", per_op(*ns)),
            "mobile-host" => rep
                .traced
                .insert("module.mobile-host.ns_per_op", per_op(*ns)),
            "fleet-churn" => rep
                .traced
                .insert("module.fleet-churn.ns_per_op", per_op(*ns)),
            "bench-sink" => rep
                .traced
                .insert("module.bench-sink.ns_per_op", per_op(*ns)),
            _ => {
                other += ns;
                None
            }
        };
    }
    rep.traced.insert("module.other.ns_per_op", per_op(other));
    rep.traced.insert(
        "engine.outside_modules_ns_per_op",
        per_op(tick.saturating_sub(in_modules)),
    );
    rep.traced.insert("engine.tick_ns_per_op", per_op(tick));
}

/// The system allocator, counting live heap bytes and their peak while
/// [`count_heap`] runs.
///
/// Peak resident memory depends on how the allocator reuses memory freed
/// by earlier repetitions, which moves it by ±10 % between seeds; the
/// peak of live heap bytes depends only on what the program allocates.
/// Outside [`count_heap`] an allocation pays one load of a flag that is
/// never written, so timed repetitions measure the program alone.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn note(delta: isize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    // A plain load first: the peak rarely moves. Two threads racing here
    // can lose a peak by one allocation's size at most.
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.store(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the
// counters are statistics and publish no other data (`Relaxed`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the heap counted; returns its result and the peak
/// growth of live heap bytes while it ran, MiB. Freeing memory that was
/// allocated before `f` started lowers the count, so call it first in a
/// process to count from a cold start.
pub fn count_heap<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let peak = PEAK_BYTES.load(Ordering::Relaxed).max(0);
    (out, peak as f64 / (1024.0 * 1024.0))
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `f` over `items`, cycling until at least `min_calls` calls ran;
/// returns mean host ns per call.
pub fn time_per_call<T>(items: &mut [T], min_calls: usize, mut f: impl FnMut(&mut T)) -> f64 {
    assert!(!items.is_empty(), "nothing to time");
    let rounds = min_calls.div_ceil(items.len());
    let t0 = Instant::now();
    for _ in 0..rounds {
        for it in items.iter_mut() {
            f(it);
        }
    }
    ns_since(t0) as f64 / (rounds * items.len()) as f64
}
