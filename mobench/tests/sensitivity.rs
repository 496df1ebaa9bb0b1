//! The benchmark's sensitivity to a known cost.
//!
//! The benchmark's own sink can burn a fixed host time per delivered
//! datagram. On `tunnel_stream` every operation is one delivered
//! datagram and one sink upcall, so the spin must lower the host-time
//! rate to `1 / (1/r0 + spin)` and show up, nearly whole, in the sink's
//! traced row — not in the engine's or another module's.
//!
//! The first two tests inject twenty times a datagram's own cost: they
//! show that a gross cost is detected and attributed, not that a change
//! near a metric's bound is resolved. The third injects a quarter of a
//! datagram's cost — a slowdown about the size of `ops_per_wall_s`'s
//! bound — and checks that alternating runs resolve it; `--nocapture`
//! prints what it measured.

use std::sync::Mutex;

use mobench::{run, Options, Outcome, Workload};

/// Runs one measurement at a time: the test harness runs tests on
/// parallel threads, and two measurements sharing the machine's two
/// cores would time each other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The injected cost: twenty times the ~5 µs a datagram costs, so the
/// prediction holds through the machine's own run-to-run noise, which
/// can double that 5 µs for seconds at a time.
const SPIN_NS: f64 = 100_000.0;

fn tunnel(trace: bool, spin_ns: f64) -> Outcome {
    tunnel_for(trace, spin_ns, 1.0)
}

fn tunnel_for(trace: bool, spin_ns: f64, seconds: f64) -> Outcome {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = run(&Options {
        workload: Workload::TunnelStream,
        seed: 7,
        seconds,
        trace,
        sink_spin_ns: spin_ns as u64,
    });
    assert!(out.correct, "checks failed: {:?}", out.errors);
    out
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.get(name).unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn a_known_sink_cost_lowers_the_rate_by_the_predicted_amount() {
    let r0 = metric(&tunnel(false, 0.0), "ops_per_wall_s");
    let r1 = metric(&tunnel(false, SPIN_NS), "ops_per_wall_s");
    let predicted = 1.0 / (1.0 / r0 + SPIN_NS * 1e-9);
    let ratio = r1 / predicted;
    assert!(
        (0.8..1.2).contains(&ratio),
        "rate {r0:.0}/s became {r1:.0}/s; predicted {predicted:.0}/s"
    );
}

#[test]
fn a_known_sink_cost_is_attributed_to_the_sink_row() {
    let t0 = tunnel(true, 0.0);
    let t1 = tunnel(true, SPIN_NS);
    let moved = |row: &str| metric(&t1, row) - metric(&t0, row);
    let sink = moved("module.bench-sink.ns_per_op");
    assert!(
        (0.9..1.3).contains(&(sink / SPIN_NS)),
        "sink row moved by {sink:.0} ns for a {SPIN_NS} ns spin"
    );
    for row in [
        "engine.outside_modules_ns_per_op",
        "module.home-agent.ns_per_op",
        "module.other.ns_per_op",
    ] {
        assert!(
            moved(row) < 0.1 * SPIN_NS,
            "{row} moved by {:.0} ns; the spin belongs to the sink",
            moved(row)
        );
    }
}

/// A cost that should lower `ops_per_wall_s` by about its bound: one
/// quarter of a datagram's measured cost, measured as alternating pairs
/// of runs close together in time so that the machine's slow drift
/// cancels within a pair.
#[test]
fn a_cost_near_the_bound_is_resolved_by_interleaved_runs() {
    const PAIRS: usize = 8;
    let per_op_ns = 1e9 / metric(&tunnel_for(false, 0.0, 2.0), "ops_per_wall_s");
    let spin_ns = (0.25 * per_op_ns).round();
    let mut ratios = Vec::new();
    for _ in 0..PAIRS {
        let r0 = metric(&tunnel_for(false, 0.0, 0.5), "ops_per_wall_s");
        let r1 = metric(&tunnel_for(false, spin_ns, 0.5), "ops_per_wall_s");
        ratios.push(r1 / r0);
    }
    ratios.sort_by(f64::total_cmp);
    let predicted = per_op_ns / (per_op_ns + spin_ns);
    let median = (ratios[PAIRS / 2 - 1] + ratios[PAIRS / 2]) / 2.0;
    println!(
        "spin {spin_ns} ns on {per_op_ns:.0} ns/op: predicted rate ratio {predicted:.3}, \
         observed median {median:.3} over {PAIRS} pairs (min {:.3}, max {:.3})",
        ratios[0],
        ratios[PAIRS - 1]
    );
    assert!(
        (median - predicted).abs() < 0.1,
        "rate ratio {median:.3}, predicted {predicted:.3}: a cost near the bound is not resolved"
    );
}
