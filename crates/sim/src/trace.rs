//! Structured event tracing for experiments.
//!
//! Experiments in the paper count packets — how many echoes a correspondent
//! host got back, when the registration reply arrived — so the trace is a
//! flat, queryable log of `(time, kind, detail)` entries that workload code
//! appends to and the harness filters afterwards.
//!
//! The log is unbounded, so it keeps control-plane records only: device
//! state changes, DHCP, mobile-host registration activity, home-agent
//! deregistrations, binding expiries and restarts, drops with their
//! reason, and capture-mode frame summaries. Packets that go through a
//! tunnel leave no record here: their encapsulation and decapsulation
//! hops go to the flight recorder's bounded ring
//! ([`FlightRecorder`](crate::FlightRecorder)) and to the `ip/encap` and
//! `ip/decap` counters. Neither do the bindings a home agent accepts or
//! replicates: their history lives in the agent's write-ahead journal
//! (`Bind` and `Unbind` records, each `Bind` with its timestamp) and in
//! its `reg/*` counters (`accepted`, `replicas_sent`,
//! `replicas_applied`).

use crate::metrics::SnapshotDelta;
use crate::time::SimTime;

/// Category of a trace entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceKind {
    /// A packet was handed to a link for transmission.
    PacketSent,
    /// A packet was delivered to an application.
    PacketDelivered,
    /// A packet was dropped, with the reason in the detail string.
    PacketDropped,
    /// A mobility protocol action (registration, binding change, hand-off).
    Mobility,
    /// A device state change (up, down, bring-up complete).
    Device,
    /// DHCP lease activity.
    Dhcp,
    /// Free-form experiment marker emitted by harness code.
    Marker,
    /// A frame summary recorded by an interface in capture mode.
    Capture,
    /// A metrics-delta report recorded by the harness (typically at
    /// experiment end), so text traces and JSON exports can't drift apart.
    Telemetry,
}

/// One trace record.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// When the event happened.
    pub at: SimTime,
    /// Category for filtering.
    pub kind: TraceKind,
    /// Short identifier of the entity (host name, device name).
    pub who: String,
    /// Human-readable detail, stable enough for tests to match on.
    pub detail: String,
}

/// An append-only, unbounded log of [`TraceEntry`] records; see the
/// module docs for what belongs in it.
#[derive(Debug, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    enabled: bool,
}

impl Trace {
    /// Creates an empty, enabled trace.
    pub fn new() -> Self {
        Trace {
            entries: Vec::new(),
            enabled: true,
        }
    }

    /// Enables or disables recording. On by default; with the data path
    /// writing no records, nothing in the repository turns it off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an entry (no-op when disabled).
    pub fn record(
        &mut self,
        at: SimTime,
        kind: TraceKind,
        who: impl Into<String>,
        detail: impl Into<String>,
    ) {
        if self.enabled {
            self.entries.push(TraceEntry {
                at,
                kind,
                who: who.into(),
                detail: detail.into(),
            });
        }
    }

    /// All entries in arrival order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries of one kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Count of entries of one kind.
    pub fn count_kind(&self, kind: TraceKind) -> usize {
        self.of_kind(kind).count()
    }

    /// Records a [`TraceKind::Telemetry`] entry embedding the counter
    /// movements of `delta`, one metric per line ([`Trace::render`]
    /// indents them under the entry). No-op when the delta is empty or
    /// the trace is disabled.
    pub fn record_telemetry(&mut self, at: SimTime, who: impl Into<String>, delta: &SnapshotDelta) {
        if delta.is_empty() {
            return;
        }
        let rendered = delta.render();
        self.record(
            at,
            TraceKind::Telemetry,
            who,
            rendered.trim_end().to_string(),
        );
    }

    /// First entry whose detail contains `needle`, if any.
    pub fn find(&self, needle: &str) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.detail.contains(needle))
    }

    /// Clears the log, keeping the enabled flag.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Renders entries as one line each, for debugging failed experiments.
    /// Multi-line details (telemetry deltas) continue on indented lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let mut lines = e.detail.lines();
            let first = lines.next().unwrap_or("");
            out.push_str(&format!(
                "{:>12} {:?} [{}] {}\n",
                e.at.to_string(),
                e.kind,
                e.who,
                first
            ));
            for line in lines {
                out.push_str(&format!("{:>12}   | {}\n", "", line));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn records_and_filters_by_kind() {
        let mut tr = Trace::new();
        tr.record(
            t(1),
            TraceKind::PacketSent,
            "mh",
            "udp 36.135.0.9 -> 36.8.0.7",
        );
        tr.record(t(2), TraceKind::PacketDropped, "router", "ingress filter");
        tr.record(t(3), TraceKind::PacketSent, "ch", "echo reply");
        assert_eq!(tr.count_kind(TraceKind::PacketSent), 2);
        assert_eq!(tr.count_kind(TraceKind::PacketDropped), 1);
        assert_eq!(tr.count_kind(TraceKind::Mobility), 0);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::new();
        tr.set_enabled(false);
        tr.record(t(0), TraceKind::Marker, "x", "ignored");
        assert!(tr.entries().is_empty());
        tr.set_enabled(true);
        tr.record(t(0), TraceKind::Marker, "x", "kept");
        assert_eq!(tr.entries().len(), 1);
    }

    #[test]
    fn find_matches_detail_substring() {
        let mut tr = Trace::new();
        tr.record(
            t(5),
            TraceKind::Mobility,
            "ha",
            "registration accepted coa=36.8.0.42",
        );
        assert!(tr.find("coa=36.8.0.42").is_some());
        assert!(tr.find("rejected").is_none());
    }

    #[test]
    fn clear_resets_entries() {
        let mut tr = Trace::new();
        tr.record(t(1), TraceKind::Marker, "x", "a");
        tr.clear();
        assert!(tr.entries().is_empty());
        assert!(tr.is_enabled());
    }

    #[test]
    fn render_is_line_per_entry() {
        let mut tr = Trace::new();
        tr.record(t(1), TraceKind::Marker, "a", "one");
        tr.record(t(2), TraceKind::Marker, "b", "two");
        let s = tr.render();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("[a] one"));
    }

    #[test]
    fn telemetry_entries_embed_counter_deltas() {
        use crate::metrics::MetricsRegistry;
        let r = MetricsRegistry::new();
        let tx = r.counter("mh/ip/tx");
        let drop = r.counter("mh/ip/drop.no_route");
        let before = r.snapshot();
        tx.add(7);
        drop.inc();
        let delta = r.snapshot().diff(&before);

        let mut tr = Trace::new();
        tr.record_telemetry(t(9), "harness", &delta);
        assert_eq!(tr.count_kind(TraceKind::Telemetry), 1);
        let s = tr.render();
        assert!(s.contains("mh/ip/tx"), "{s}");
        assert!(s.contains("0 -> 7 (+7)"), "{s}");
        // The second metric continues on an indented line.
        assert!(
            s.contains("| mh/ip/tx") || s.contains("| mh/ip/drop.no_route"),
            "{s}"
        );
    }

    #[test]
    fn empty_delta_records_nothing() {
        use crate::metrics::MetricsRegistry;
        let r = MetricsRegistry::new();
        r.counter("x");
        let before = r.snapshot();
        let delta = r.snapshot().diff(&before);
        let mut tr = Trace::new();
        tr.record_telemetry(t(1), "harness", &delta);
        assert!(tr.entries().is_empty());
    }
}
