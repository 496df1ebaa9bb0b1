//! The packet flight recorder: per-packet journey tracking.
//!
//! Aggregate counters (the metrics registry) say *how many* packets a
//! crash window cost; the flight recorder says *which* packets, *where*
//! they died, and how long each hop took. Every packet leaving an origin
//! host is stamped with a compact **flight id** — carried in packet-buffer
//! metadata, never serialized onto the wire, so golden byte-for-byte
//! exports are unaffected — and every subsystem the packet crosses appends
//! a [`HopEvent`] to a fixed-capacity ring buffer.
//!
//! From the ring the recorder reconstructs full [`Journey`]s
//! (correspondent → home agent → tunnel → mobile host and back), computes
//! end-to-end and per-hop one-way-delay statistics, and emits *drop
//! forensics*: for every `drop.{reason}` casualty, the last-known hop
//! chain of the victim packet.
//!
//! Recording is off by default and costs one predicted branch per call
//! site when off (the bench gate pins the disabled [`FlightRecorder::hop`]
//! at ≤ 2 ns). Flight ids come from a plain counter — never the engine
//! RNG — so enabling the recorder cannot perturb a seeded run.

use std::collections::HashMap;

use crate::json::Json;
use crate::time::SimTime;

/// The "no flight" sentinel: hops recorded against it are discarded.
/// Control-plane frames (ARP) and pre-recorder packets carry this.
pub const NO_FLIGHT: u64 = 0;

/// Default ring capacity, in hop events. Generously above what the
/// longest experiment records (~10⁴ hops) while bounding memory at a few
/// megabytes.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Most captured frames kept when pcap capture is on.
const CAPTURE_MAX_FRAMES: usize = 4096;

/// Most dropped-flight chains exported into the journeys document.
const EXPORT_MAX_DROPS: usize = 100;

/// Rows in the exported `top_hops` table.
const EXPORT_TOP_HOPS: usize = 10;

/// Bit position of the shard id inside namespaced flight ids: shard `s`
/// allocates ids `(s << FLIGHT_SHARD_SHIFT) + 1, + 2, …`, so ids from
/// different shards can never collide and a merged export sorts shard 0's
/// flights first. Shard 0's ids are numerically identical to an
/// unsharded run's.
pub const FLIGHT_SHARD_SHIFT: u32 = 48;

/// What happened to a packet at one hop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HopAction {
    /// The packet left its origin host.
    Sent,
    /// A router moved it one hop closer.
    Forwarded,
    /// It was wrapped in an IP-in-IP outer header.
    Encap,
    /// An outer header was removed.
    Decap,
    /// A local transport accepted it.
    Delivered,
    /// It died, with the stable `drop.{reason}` code.
    Dropped(&'static str),
}

impl HopAction {
    /// The action's stable lower-case name (`"dropped"` loses the reason;
    /// see [`HopAction::reason`]).
    pub fn name(self) -> &'static str {
        match self {
            HopAction::Sent => "sent",
            HopAction::Forwarded => "forwarded",
            HopAction::Encap => "encap",
            HopAction::Decap => "decap",
            HopAction::Delivered => "delivered",
            HopAction::Dropped(_) => "dropped",
        }
    }

    /// The drop reason, when this is a drop.
    pub fn reason(self) -> Option<&'static str> {
        match self {
            HopAction::Dropped(r) => Some(r),
            _ => None,
        }
    }
}

/// One recorded hop of one flight.
#[derive(Clone, Copy, Debug)]
pub struct HopEvent {
    /// Global insertion sequence number (monotonic across the run).
    pub seq: u64,
    /// The flight this hop belongs to.
    pub flight: u64,
    /// Simulated time of the hop.
    pub at: SimTime,
    /// Host index (the world's host vector position).
    pub host: u32,
    /// Subsystem that recorded the hop (`"udp"`, `"ip.fwd"`, `"wire"`…).
    pub point: &'static str,
    /// What happened.
    pub action: HopAction,
}

/// A `Send` snapshot of one shard's recorder, produced by
/// [`FlightRecorder::dump`] on the worker thread that owns the shard and
/// consumed by [`FlightRecorder::merged`] after the run.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Stable shard id (same-instant tie-break during the merge).
    pub shard: u32,
    /// Surviving hops in insertion order, host indices already offset
    /// into the merged host table.
    pub hops: Vec<HopEvent>,
    /// Flight labels, sorted by flight id.
    pub labels: Vec<(u64, &'static str)>,
    /// Hops this segment lost to ring wraparound.
    pub overwritten: u64,
}

/// A captured wire frame (pcap export feed).
#[derive(Clone, Debug)]
pub struct CapturedFrame {
    /// Arrival time at the capturing interface.
    pub at: SimTime,
    /// Capturing host index.
    pub host: u32,
    /// Raw frame bytes (header included).
    pub bytes: Vec<u8>,
}

/// One reconstructed journey: every surviving hop of one flight, in
/// recording order.
#[derive(Clone, Debug)]
pub struct Journey {
    /// The flight id.
    pub flight: u64,
    /// Origin label, when the sender tagged the flight (e.g. `"reg"`).
    pub label: Option<&'static str>,
    /// Hops in insertion order.
    pub hops: Vec<HopEvent>,
}

impl Journey {
    /// The journey's outcome: delivered anywhere wins, then dropped, then
    /// pending (still in flight when the run stopped, or hops lost to
    /// ring wraparound).
    pub fn outcome(&self) -> Outcome {
        if self
            .hops
            .iter()
            .any(|h| h.action == HopAction::Delivered || h.action == HopAction::Decap)
        {
            // A Decap'd flight re-enters IP and keeps the same id, so a
            // later Delivered hop normally follows; Decap alone (run end)
            // still proves the tunnel worked.
            if self.hops.iter().any(|h| h.action == HopAction::Delivered) {
                return Outcome::Delivered;
            }
        }
        if self
            .hops
            .iter()
            .any(|h| matches!(h.action, HopAction::Dropped(_)))
        {
            Outcome::Dropped
        } else if self.hops.iter().any(|h| h.action == HopAction::Delivered) {
            Outcome::Delivered
        } else {
            Outcome::Pending
        }
    }

    /// First recorded drop reason, if any.
    pub fn drop_reason(&self) -> Option<&'static str> {
        self.hops.iter().find_map(|h| h.action.reason())
    }

    /// Origin (first-hop) time, if the origin survived the ring.
    pub fn origin_time(&self) -> Option<SimTime> {
        self.hops.first().map(|h| h.at)
    }

    /// True when the first surviving hop is not the origin `Sent` record
    /// (older hops were overwritten by ring wraparound).
    pub fn is_truncated(&self) -> bool {
        !matches!(self.hops.first().map(|h| h.action), Some(HopAction::Sent))
    }
}

/// Journey outcome classification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// A transport accepted the packet somewhere.
    Delivered,
    /// The packet died.
    Dropped,
    /// Neither: still in flight at run end, or evidence lost to
    /// wraparound.
    Pending,
}

/// The blackout window reconstructed from one origin host's lost flights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blackout {
    /// Lost (dropped, never delivered) flights from the origin.
    pub lost: u64,
    /// Origin time of the first lost flight.
    pub first: SimTime,
    /// Origin time of the last lost flight.
    pub last: SimTime,
}

/// Integer summary of a sample set (all values exact, so exports stay
/// byte-stable across platforms).
#[derive(Clone, Copy, Debug, Default)]
pub struct DelaySummary {
    /// Samples seen.
    pub count: u64,
    /// Smallest sample, µs.
    pub min_us: u64,
    /// Largest sample, µs.
    pub max_us: u64,
    /// Sum of samples, µs.
    pub sum_us: u64,
}

impl DelaySummary {
    fn push(&mut self, us: u64) {
        if self.count == 0 {
            self.min_us = us;
            self.max_us = us;
        } else {
            self.min_us = self.min_us.min(us);
            self.max_us = self.max_us.max(us);
        }
        self.count += 1;
        self.sum_us += us;
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("min_us", Json::UInt(self.min_us)),
            ("max_us", Json::UInt(self.max_us)),
            ("sum_us", Json::UInt(self.sum_us)),
        ])
    }
}

/// The per-packet flight recorder: a bounded ring of [`HopEvent`]s plus
/// the flight-id allocator and (optional) raw-frame capture feed.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    enabled: bool,
    capture: bool,
    next_flight: u64,
    /// High bits OR-ed into every allocated flight id (zero outside
    /// sharded runs). See [`FlightRecorder::set_flight_namespace`].
    flight_base: u64,
    next_seq: u64,
    /// Ring storage; at most `capacity` entries, oldest overwritten first.
    ring: Vec<HopEvent>,
    capacity: usize,
    /// Next ring slot to (over)write.
    head: usize,
    /// Hop events lost to wraparound.
    overwritten: u64,
    /// Origin labels of tagged flights (registration traffic etc.),
    /// sorted by flight id; pruned as the ring moves on (see
    /// [`FlightRecorder::begin_flight`]).
    labels: Vec<(u64, &'static str)>,
    /// Label count at which `begin_flight` next prunes `labels`.
    prune_labels_at: usize,
    /// Captured frames for pcap export (bounded).
    captures: Vec<CapturedFrame>,
    /// Frames not captured because the buffer was full.
    captures_dropped: u64,
}

impl FlightRecorder {
    /// Creates a disabled recorder with [`DEFAULT_RING_CAPACITY`].
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Creates a disabled recorder with an explicit ring capacity.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight ring needs at least one slot");
        FlightRecorder {
            capacity,
            prune_labels_at: capacity / 4,
            ..FlightRecorder::default()
        }
    }

    /// Enables or disables recording. Flight ids allocated while enabled
    /// stay valid after a disable (their hops simply stop accumulating).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True when recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables raw-frame capture (the pcap feed). Only frames
    /// seen while both the recorder and this flag are on are kept.
    pub fn set_capture(&mut self, on: bool) {
        self.capture = on;
    }

    /// True when the pcap capture feed is on.
    #[inline]
    pub fn capture_enabled(&self) -> bool {
        self.enabled && self.capture
    }

    /// Discards every recorded hop, label, and captured frame. The
    /// enabled/capture flags and the flight-id allocator are preserved —
    /// mirroring [`Trace::clear`](crate::Trace::clear) — so ids stay
    /// unique across a clear.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.overwritten = 0;
        self.labels.clear();
        self.prune_labels_at = self.capacity / 4;
        self.captures.clear();
        self.captures_dropped = 0;
    }

    /// Partitions the flight-id space for a sharded run: ids allocated
    /// after this call are `(shard << FLIGHT_SHARD_SHIFT) + counter`, so
    /// per-shard recorders hand out globally unique ids without any
    /// cross-thread coordination. Shard 0 keeps the unsharded numbering.
    pub fn set_flight_namespace(&mut self, shard: u32) {
        self.flight_base = u64::from(shard) << FLIGHT_SHARD_SHIFT;
    }

    /// Allocates a flight id for a packet leaving its origin, optionally
    /// tagged with a static label. Returns [`NO_FLIGHT`] when disabled.
    ///
    /// The label table is bounded by the ring: once it reaches its prune
    /// mark it drops the labels of this recorder's flights older than the
    /// oldest of its flights with a hop still in the ring, and sets the
    /// next mark at the labels kept plus the larger of that count and a
    /// quarter of the ring capacity. Every journey with a surviving hop
    /// keeps its label, unless the flight records a hop after a prune that
    /// ran while none of its hops was in the ring (its earlier hops were
    /// all overwritten, or it had recorded none yet while newer flights
    /// had).
    pub fn begin_flight(&mut self, label: Option<&'static str>) -> u64 {
        if !self.enabled {
            return NO_FLIGHT;
        }
        self.next_flight += 1;
        debug_assert!(self.next_flight < 1 << FLIGHT_SHARD_SHIFT);
        let id = self.flight_base + self.next_flight;
        if let Some(l) = label {
            if self.labels.len() >= self.prune_labels_at {
                self.prune_labels();
            }
            self.labels.push((id, l));
        }
        id
    }

    /// Drops the labels of this recorder's flights older than the oldest
    /// of its flights with a hop in the ring. Flights of other shards
    /// whose hops this ring recorded do not count: their labels live in
    /// their own shard's recorder.
    fn prune_labels(&mut self) {
        let shard = self.flight_base >> FLIGHT_SHARD_SHIFT;
        let oldest = self
            .ring
            .iter()
            .map(|h| h.flight)
            .filter(|&f| f >> FLIGHT_SHARD_SHIFT == shard)
            .min()
            .unwrap_or(u64::MAX);
        let cut = self.labels.partition_point(|&(f, _)| f < oldest);
        self.labels.drain(..cut);
        let kept = self.labels.len();
        self.prune_labels_at = kept + kept.max(self.capacity / 4);
    }

    /// The label `flight` was tagged with, if it still has one.
    fn label_of(&self, flight: u64) -> Option<&'static str> {
        self.labels
            .binary_search_by_key(&flight, |&(f, _)| f)
            .ok()
            .map(|i| self.labels[i].1)
    }

    /// Records one hop. A no-op when disabled or when `flight` is
    /// [`NO_FLIGHT`] — the disabled path is a single predicted branch
    /// (gated at ≤ 2 ns by the bench suite).
    #[inline]
    pub fn hop(
        &mut self,
        flight: u64,
        at: SimTime,
        host: u32,
        point: &'static str,
        action: HopAction,
    ) {
        if !self.enabled || flight == NO_FLIGHT {
            return;
        }
        self.hop_slow(flight, at, host, point, action);
    }

    fn hop_slow(
        &mut self,
        flight: u64,
        at: SimTime,
        host: u32,
        point: &'static str,
        action: HopAction,
    ) {
        let ev = HopEvent {
            seq: self.next_seq,
            flight,
            at,
            host,
            point,
            action,
        };
        self.next_seq += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.overwritten += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Stores one raw wire frame for pcap export (no-op unless capture is
    /// on; bounded at a few thousand frames).
    pub fn capture_frame(&mut self, at: SimTime, host: u32, bytes: &[u8]) {
        if !self.capture_enabled() {
            return;
        }
        if self.captures.len() >= CAPTURE_MAX_FRAMES {
            self.captures_dropped += 1;
            return;
        }
        self.captures.push(CapturedFrame {
            at,
            host,
            bytes: bytes.to_vec(),
        });
    }

    /// Captured frames, in arrival order.
    pub fn captures(&self) -> &[CapturedFrame] {
        &self.captures
    }

    /// Hop events recorded and still in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no hops are recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Hop events lost to ring wraparound.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Every surviving hop in insertion (seq) order.
    pub fn hops_in_order(&self) -> Vec<HopEvent> {
        let mut hops = self.ring.clone();
        hops.sort_by_key(|h| h.seq);
        hops
    }

    /// Reconstructs every journey with surviving hops, ordered by flight
    /// id; hops within a journey are in recording order, so they can
    /// never be out of order or leak across flights.
    pub fn journeys(&self) -> Vec<Journey> {
        let mut by_flight: HashMap<u64, Vec<HopEvent>> = HashMap::new();
        for hop in self.hops_in_order() {
            by_flight.entry(hop.flight).or_default().push(hop);
        }
        let mut flights: Vec<u64> = by_flight.keys().copied().collect();
        flights.sort_unstable();
        flights
            .into_iter()
            .map(|flight| Journey {
                flight,
                label: self.label_of(flight),
                hops: by_flight.remove(&flight).expect("keyed"),
            })
            .collect()
    }

    /// The blackout window of `origin_host`: its lost (dropped, never
    /// delivered) flights and the origin-time span they cover. `None`
    /// when the host lost nothing.
    pub fn blackout(&self, origin_host: u32) -> Option<Blackout> {
        let mut lost = 0u64;
        let mut first = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for j in self.journeys() {
            let Some(origin) = j.hops.first() else {
                continue;
            };
            if origin.host != origin_host
                || origin.action != HopAction::Sent
                || j.outcome() != Outcome::Dropped
            {
                continue;
            }
            let t = origin.at;
            if lost == 0 {
                first = t;
                last = t;
            } else {
                first = first.min(t);
                last = last.max(t);
            }
            lost += 1;
        }
        (lost > 0).then_some(Blackout { lost, first, last })
    }

    /// Snapshots this recorder's state as plain `Send` data for merging
    /// across shards. `shard` is the segment's stable shard id (the
    /// deterministic tie-break for same-instant hops from different
    /// shards) and `host_base` the offset added to every hop's host index
    /// so per-shard indices map into the merged run's host-name table.
    pub fn dump(&self, shard: u32, host_base: u32) -> FlightDump {
        let labels = self.labels.clone();
        let mut hops = self.hops_in_order();
        for h in &mut hops {
            h.host += host_base;
        }
        FlightDump {
            shard,
            hops,
            labels,
            overwritten: self.overwritten,
        }
    }

    /// Builds a single recorder holding every shard's hops, merged in
    /// `(time, shard, seq)` order — the order a single-threaded run over
    /// the union topology would have recorded them. Flight ids must
    /// already be disjoint across dumps (see
    /// [`FlightRecorder::set_flight_namespace`]); the merged ring is
    /// sized to hold every surviving hop, so merging never re-drops.
    pub fn merged(mut dumps: Vec<FlightDump>) -> FlightRecorder {
        dumps.sort_unstable_by_key(|d| d.shard);
        let total: usize = dumps.iter().map(|d| d.hops.len()).sum();
        let mut rec = FlightRecorder::with_capacity(total.max(1));
        rec.set_enabled(true);
        let mut all: Vec<(u32, HopEvent)> = Vec::with_capacity(total);
        let mut overwritten = 0u64;
        for d in dumps {
            overwritten += d.overwritten;
            rec.labels.extend(d.labels);
            all.extend(d.hops.into_iter().map(|h| (d.shard, h)));
        }
        rec.labels.sort_unstable_by_key(|&(f, _)| f);
        all.sort_unstable_by_key(|&(shard, h)| (h.at, shard, h.seq));
        for (_, h) in all {
            rec.hop_slow(h.flight, h.at, h.host, h.point, h.action);
        }
        rec.overwritten = overwritten;
        rec
    }

    /// Renders the journeys document (`mosquitonet.journeys/v1` body):
    /// outcome totals, delay summaries, the blackout window of
    /// `blackout_origin` (a host name), drop forensics, and the busiest
    /// (host, action) pairs. `host_names[i]` names host index `i`;
    /// unknown indices render as `host{i}`.
    pub fn export(&self, host_names: &[String], blackout_origin: Option<&str>) -> Json {
        let name_of = |idx: u32| -> String {
            host_names
                .get(idx as usize)
                .cloned()
                .unwrap_or_else(|| format!("host{idx}"))
        };
        let journeys = self.journeys();
        let (mut delivered, mut dropped, mut pending, mut truncated) = (0u64, 0u64, 0u64, 0u64);
        let mut e2e = DelaySummary::default();
        let mut per_hop = DelaySummary::default();
        let mut top: HashMap<(u32, &'static str), u64> = HashMap::new();
        let mut drop_chains: Vec<Json> = Vec::new();
        let mut drops_omitted = 0u64;
        for j in &journeys {
            if j.is_truncated() {
                truncated += 1;
            }
            for pair in j.hops.windows(2) {
                per_hop.push(pair[1].at.saturating_since(pair[0].at).as_micros());
            }
            for h in &j.hops {
                *top.entry((h.host, h.action.name())).or_default() += 1;
            }
            match j.outcome() {
                Outcome::Delivered => {
                    delivered += 1;
                    let first = j.hops.first().expect("non-empty journey");
                    let done = j
                        .hops
                        .iter()
                        .rfind(|h| h.action == HopAction::Delivered)
                        .expect("delivered journey has a Delivered hop");
                    e2e.push(done.at.saturating_since(first.at).as_micros());
                }
                Outcome::Dropped => {
                    dropped += 1;
                    if drop_chains.len() < EXPORT_MAX_DROPS {
                        let hops: Vec<Json> = j
                            .hops
                            .iter()
                            .map(|h| {
                                Json::obj([
                                    ("us", Json::UInt(h.at.as_micros())),
                                    ("host", Json::from(name_of(h.host))),
                                    ("point", Json::from(h.point)),
                                    (
                                        "action",
                                        Json::from(h.action.reason().unwrap_or(h.action.name())),
                                    ),
                                ])
                            })
                            .collect();
                        let mut members = vec![
                            ("flight".to_string(), Json::UInt(j.flight)),
                            (
                                "reason".to_string(),
                                Json::from(j.drop_reason().unwrap_or("unknown")),
                            ),
                        ];
                        if let Some(l) = j.label {
                            members.push(("label".to_string(), Json::from(l)));
                        }
                        members.push(("hops".to_string(), Json::Arr(hops)));
                        drop_chains.push(Json::Obj(members));
                    } else {
                        drops_omitted += 1;
                    }
                }
                Outcome::Pending => pending += 1,
            }
        }
        let mut top_rows: Vec<((u32, &'static str), u64)> = top.into_iter().collect();
        top_rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top_rows.truncate(EXPORT_TOP_HOPS);
        let top_json: Vec<Json> = top_rows
            .into_iter()
            .map(|((host, action), count)| {
                Json::obj([
                    ("host", Json::from(name_of(host))),
                    ("action", Json::from(action)),
                    ("count", Json::UInt(count)),
                ])
            })
            .collect();
        let blackout_json = blackout_origin
            .and_then(|name| {
                let idx = host_names.iter().position(|n| n == name)? as u32;
                let b = self.blackout(idx)?;
                Some(Json::obj([
                    ("origin", Json::from(name)),
                    ("lost", Json::UInt(b.lost)),
                    ("first_us", Json::UInt(b.first.as_micros())),
                    ("last_us", Json::UInt(b.last.as_micros())),
                ]))
            })
            .unwrap_or(Json::Null);
        Json::obj([
            ("flights", Json::UInt(journeys.len() as u64)),
            ("hops", Json::UInt(self.ring.len() as u64)),
            ("hops_overwritten", Json::UInt(self.overwritten)),
            ("truncated_flights", Json::UInt(truncated)),
            (
                "outcomes",
                Json::obj([
                    ("delivered", Json::UInt(delivered)),
                    ("dropped", Json::UInt(dropped)),
                    ("pending", Json::UInt(pending)),
                ]),
            ),
            ("delay_us", e2e.to_json()),
            ("per_hop_us", per_hop.to_json()),
            ("blackout", blackout_json),
            ("top_hops", Json::Arr(top_json)),
            ("drops_omitted", Json::UInt(drops_omitted)),
            ("drops", Json::Arr(drop_chains)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn disabled_recorder_allocates_and_records_nothing() {
        let mut rec = FlightRecorder::new();
        assert_eq!(rec.begin_flight(None), NO_FLIGHT);
        rec.hop(1, t(0), 0, "udp", HopAction::Sent);
        assert!(rec.is_empty());
        rec.capture_frame(t(0), 0, b"frame");
        assert!(rec.captures().is_empty());
    }

    #[test]
    fn journey_reconstruction_and_outcomes() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        let a = rec.begin_flight(None);
        let b = rec.begin_flight(Some("reg"));
        assert_eq!((a, b), (1, 2));
        rec.hop(a, t(0), 0, "udp", HopAction::Sent);
        rec.hop(b, t(1), 1, "udp", HopAction::Sent);
        rec.hop(a, t(2), 2, "ip.fwd", HopAction::Forwarded);
        rec.hop(a, t(3), 3, "udp", HopAction::Delivered);
        rec.hop(b, t(4), 2, "wire", HopAction::Dropped("drop.medium_loss"));
        let js = rec.journeys();
        assert_eq!(js.len(), 2);
        assert_eq!(js[0].flight, a);
        assert_eq!(js[0].hops.len(), 3);
        assert_eq!(js[0].outcome(), Outcome::Delivered);
        assert_eq!(js[1].label, Some("reg"));
        assert_eq!(js[1].outcome(), Outcome::Dropped);
        assert_eq!(js[1].drop_reason(), Some("drop.medium_loss"));
    }

    #[test]
    fn ring_wraparound_keeps_order_and_counts_losses() {
        let mut rec = FlightRecorder::with_capacity(4);
        rec.set_enabled(true);
        for i in 0..10u64 {
            let f = rec.begin_flight(None);
            rec.hop(f, t(i), 0, "udp", HopAction::Sent);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.overwritten(), 6);
        let hops = rec.hops_in_order();
        for pair in hops.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "insertion order preserved");
        }
        assert_eq!(hops.first().expect("4 hops").flight, 7);
        assert_eq!(hops.last().expect("4 hops").flight, 10);
    }

    #[test]
    fn blackout_covers_lost_origin_times_only() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        // Delivered flight from host 0 — not part of any blackout.
        let ok = rec.begin_flight(None);
        rec.hop(ok, t(5), 0, "udp", HopAction::Sent);
        rec.hop(ok, t(6), 1, "udp", HopAction::Delivered);
        // Two lost flights from host 0, one lost flight from host 1.
        for (host, ms) in [(0u32, 10u64), (0, 30), (1, 20)] {
            let f = rec.begin_flight(None);
            rec.hop(f, t(ms), host, "udp", HopAction::Sent);
            rec.hop(
                f,
                t(ms + 1),
                2,
                "wire",
                HopAction::Dropped("drop.iface_down"),
            );
        }
        let b = rec.blackout(0).expect("host 0 lost flights");
        assert_eq!(b.lost, 2);
        assert_eq!(b.first, t(10));
        assert_eq!(b.last, t(30));
        assert_eq!(rec.blackout(1).expect("host 1").lost, 1);
        assert!(rec.blackout(2).is_none());
    }

    #[test]
    fn clear_keeps_flags_and_id_allocator() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        rec.set_capture(true);
        let f = rec.begin_flight(Some("reg"));
        rec.hop(f, t(0), 0, "udp", HopAction::Sent);
        rec.capture_frame(t(0), 0, b"frame");
        rec.clear();
        assert!(rec.is_empty());
        assert!(rec.captures().is_empty());
        assert!(rec.is_enabled(), "clear keeps the enabled flag");
        assert!(rec.capture_enabled(), "clear keeps the capture flag");
        assert!(rec.begin_flight(None) > f, "ids stay unique across clear");
    }

    #[test]
    fn export_summarizes_outcomes_delays_and_blackout() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        let ok = rec.begin_flight(None);
        rec.hop(ok, t(0), 0, "udp", HopAction::Sent);
        rec.hop(ok, t(2), 1, "ip.fwd", HopAction::Forwarded);
        rec.hop(ok, t(5), 2, "udp", HopAction::Delivered);
        let bad = rec.begin_flight(None);
        rec.hop(bad, t(10), 0, "udp", HopAction::Sent);
        rec.hop(bad, t(11), 1, "wire", HopAction::Dropped("drop.iface_down"));
        let names = vec!["ch".to_string(), "router".to_string(), "mh".to_string()];
        let doc = rec.export(&names, Some("ch"));
        let text = doc.render();
        assert!(text.contains("\"delivered\":1"));
        assert!(text.contains("\"dropped\":1"));
        assert!(text.contains("\"lost\":1"));
        assert!(text.contains("\"first_us\":10000"));
        assert!(text.contains("drop.iface_down"));
        assert!(text.contains("\"sum_us\":5000"), "e2e delay 5 ms: {text}");
    }

    #[test]
    fn namespaced_ids_merge_in_time_shard_seq_order() {
        // Shard 0: a flight that leaves, crosses to shard 1, and whose
        // reply lands back — recorded across two recorders.
        let mut a = FlightRecorder::new();
        a.set_enabled(true);
        a.set_flight_namespace(0);
        let mut b = FlightRecorder::new();
        b.set_enabled(true);
        b.set_flight_namespace(1);

        let f0 = a.begin_flight(Some("s3"));
        assert_eq!(f0, 1, "shard 0 keeps the unsharded numbering");
        let f1 = b.begin_flight(None);
        assert_eq!(f1, (1u64 << FLIGHT_SHARD_SHIFT) + 1);

        a.hop(f0, t(0), 0, "udp", HopAction::Sent);
        a.hop(f0, t(1), 1, "ip.fwd", HopAction::Forwarded);
        // Crosses into shard 1 (its host index 0 = merged index 2).
        b.hop(f0, t(3), 0, "udp", HopAction::Delivered);
        // A shard-1-local flight, interleaved in time with f0's hops.
        b.hop(f1, t(2), 1, "udp", HopAction::Sent);
        b.hop(f1, t(4), 0, "udp", HopAction::Delivered);

        let merged = FlightRecorder::merged(vec![a.dump(0, 0), b.dump(1, 2)]);
        let hops = merged.hops_in_order();
        let times: Vec<u64> = hops.iter().map(|h| h.at.as_micros()).collect();
        assert_eq!(times, vec![0, 1000, 2000, 3000, 4000], "time-ordered");
        assert_eq!(hops[3].host, 2, "host indices offset by the shard base");
        let js = merged.journeys();
        assert_eq!(js.len(), 2);
        assert_eq!(js[0].flight, f0);
        assert_eq!(js[0].label, Some("s3"));
        assert_eq!(js[0].outcome(), Outcome::Delivered);
        assert_eq!(js[0].hops.len(), 3, "cross-shard hops stitched together");
        assert_eq!(js[1].flight, f1);
    }

    #[test]
    fn label_table_stays_bounded_and_surviving_journeys_keep_labels() {
        const CAPACITY: usize = 16;
        let mut rec = FlightRecorder::with_capacity(CAPACITY);
        rec.set_enabled(true);
        let mut expected = HashMap::new();
        let long = rec.begin_flight(Some("long"));
        expected.insert(long, "long");
        for i in 0..1_000u64 {
            let label = if i % 2 == 0 { "even" } else { "odd" };
            let f = rec.begin_flight(Some(label));
            expected.insert(f, label);
            rec.hop(f, t(i), 0, "udp", HopAction::Sent);
            rec.hop(f, t(i), 1, "udp", HopAction::Delivered);
            // A flight still in the air keeps its label however many
            // newer flights come and go around it; once it lands, the
            // next prunes bring the table back to the ring's size.
            if i < 100 && i % 3 == 0 {
                rec.hop(long, t(i), 2, "ip.fwd", HopAction::Forwarded);
            }
            if i == 99 {
                let js = rec.journeys();
                let j = js.iter().find(|j| j.flight == long).expect("long flight");
                assert_eq!(j.label, Some("long"));
            }
            let kept = rec.dump(0, 0).labels.len();
            assert!(
                i < 300 || kept <= 2 * CAPACITY + CAPACITY / 4,
                "{kept} labels kept after {i} flights"
            );
        }
        let journeys = rec.journeys();
        assert!(!journeys.is_empty());
        for j in &journeys {
            assert_eq!(j.label, Some(expected[&j.flight]), "flight {}", j.flight);
        }
    }

    #[test]
    fn a_shards_labels_are_pruned_past_other_shards_flights() {
        const CAPACITY: usize = 16;
        let mut rec = FlightRecorder::with_capacity(CAPACITY);
        rec.set_enabled(true);
        rec.set_flight_namespace(1);
        // A shard-0 flight crossing into this shard: its id is below every
        // id this recorder hands out, and its label lives in shard 0.
        let foreign = 7;
        for i in 0..1_000u64 {
            let f = rec.begin_flight(Some("s3"));
            rec.hop(f, t(i), 0, "udp", HopAction::Sent);
            rec.hop(foreign, t(i), 1, "udp", HopAction::Delivered);
        }
        let kept = rec.dump(1, 0).labels.len();
        assert!(kept <= 2 * CAPACITY + CAPACITY / 4, "{kept} labels kept");
    }

    #[test]
    fn capture_buffer_is_bounded() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        rec.set_capture(true);
        for _ in 0..(CAPTURE_MAX_FRAMES + 5) {
            rec.capture_frame(t(0), 0, b"f");
        }
        assert_eq!(rec.captures().len(), CAPTURE_MAX_FRAMES);
    }
}
