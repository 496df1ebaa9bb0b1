//! Broadcast-domain (LAN / radio cell) models.
//!
//! A [`Lan`] answers two questions for the network world: *who* should a
//! frame be delivered to, and *when* (and whether) it arrives. Delivery
//! itself is scheduled by `mosquitonet-stack`, keeping this model pure.

use crate::fault::FaultPlan;
use mosquitonet_sim::{SimDuration, SimRng};
use mosquitonet_wire::MacAddr;

/// The attached device, named by the world's `(host, interface)` indices.
/// An interface is on at most one LAN at a time, so the pair is unique.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AttachmentKey {
    /// The host's index in the world.
    pub host: usize,
    /// The interface's index on that host.
    pub iface: usize,
}

/// One device attached to a LAN.
#[derive(Clone, Copy, Debug)]
pub struct Attachment {
    /// The world's handle for the attached device.
    pub key: AttachmentKey,
    /// Hardware address the device answers to.
    pub mac: MacAddr,
    /// Promiscuous attachments receive all frames (used by packet-capture
    /// style diagnostics, not by normal hosts).
    pub promiscuous: bool,
}

impl Attachment {
    /// Does this attachment receive a frame for `dst` sent by the
    /// attachment owning `src_mac`? The sender never receives its own
    /// frame; everyone else receives broadcasts, frames for their MAC, and
    /// (when promiscuous) every frame.
    pub fn receives(&self, dst: MacAddr, src_mac: MacAddr) -> bool {
        self.mac != src_mac && (dst.is_broadcast() || self.mac == dst || self.promiscuous)
    }
}

/// One-way medium delay: `base ± jitter`, uniformly distributed.
#[derive(Clone, Copy, Debug)]
pub struct DelayModel {
    /// Fixed component.
    pub base: SimDuration,
    /// Maximum symmetric jitter; the drawn delay is in
    /// `[base - jitter, base + jitter]`.
    pub jitter: SimDuration,
}

impl DelayModel {
    /// A constant delay with no jitter.
    pub fn fixed(base: SimDuration) -> DelayModel {
        DelayModel {
            base,
            jitter: SimDuration::ZERO,
        }
    }

    /// Draws a delay.
    ///
    /// # Panics
    ///
    /// Panics if `jitter > base`: the lower bound would clamp at zero and
    /// silently shift the mean above `base`, corrupting RTT calibration.
    pub fn draw(&self, rng: &mut SimRng) -> SimDuration {
        if self.jitter.is_zero() {
            return self.base;
        }
        let j = self.jitter.as_nanos();
        let b = self.base.as_nanos();
        assert!(j <= b, "jitter {j}ns exceeds base {b}ns");
        SimDuration::from_nanos(rng.range_u64((b - j)..(b + j + 1)))
    }
}

/// What kind of medium the LAN is (affects nothing here but labels traces
/// and lets experiments assert the topology they built).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LanKind {
    /// A wired Ethernet segment.
    Ethernet,
    /// A Metricom radio cell (Starmode: any radio can frame to any other).
    RadioCell,
}

/// A broadcast domain: a set of attachments plus delay/loss models.
///
/// # Examples
///
/// ```
/// use mosquitonet_link::{Lan, LanKind, DelayModel, Attachment, AttachmentKey};
/// use mosquitonet_sim::{SimDuration, SimRng};
/// use mosquitonet_wire::MacAddr;
///
/// let mut lan = Lan::new("net-36-135", LanKind::Ethernet,
///     DelayModel::fixed(SimDuration::from_micros(50)), 0.0);
/// for host in 1..=2 {
///     let key = AttachmentKey { host, iface: 0 };
///     lan.attach(Attachment { key, mac: MacAddr::from_index(host as u32), promiscuous: false });
/// }
/// let [a1, a2] = lan.attachments() else { unreachable!() };
///
/// // Unicast reaches only the owner of the MAC; broadcast reaches everyone else.
/// assert!(a2.receives(MacAddr::from_index(2), a1.mac));
/// assert!(!a1.receives(MacAddr::from_index(2), a1.mac));
/// assert!(a2.receives(MacAddr::BROADCAST, a1.mac));
/// assert!(!a1.receives(MacAddr::BROADCAST, a1.mac));
/// ```
#[derive(Clone, Debug)]
pub struct Lan {
    name: String,
    kind: LanKind,
    delay: DelayModel,
    /// Probability that the medium drops a given frame (radio interference;
    /// 0 for wired segments).
    pub loss_probability: f64,
    attachments: Vec<Attachment>,
    /// Optional fault-injection plan (chaos experiments). `None` — the
    /// default — leaves the medium byte-for-byte identical to a world
    /// without the fault layer.
    pub fault: Option<FaultPlan>,
}

impl Lan {
    /// Creates an empty LAN.
    pub fn new(
        name: impl Into<String>,
        kind: LanKind,
        delay: DelayModel,
        loss_probability: f64,
    ) -> Lan {
        Lan {
            name: name.into(),
            kind,
            delay,
            loss_probability,
            attachments: Vec::new(),
            fault: None,
        }
    }

    /// Installs (or clears) a fault-injection plan on this LAN.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The LAN's name (used in traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The medium kind.
    pub fn kind(&self) -> LanKind {
        self.kind
    }

    /// The delay model.
    pub fn delay(&self) -> DelayModel {
        self.delay
    }

    /// Attaches a device.
    ///
    /// # Panics
    ///
    /// Panics if the key is already attached.
    pub fn attach(&mut self, attachment: Attachment) {
        assert!(
            !self.attachments.iter().any(|a| a.key == attachment.key),
            "attachment key {:?} already on {}",
            attachment.key,
            self.name
        );
        // Delivery identifies the sender by MAC; a colliding MAC would
        // silently suppress delivery to the double.
        assert!(
            !self.attachments.iter().any(|a| a.mac == attachment.mac),
            "MAC {} already on {}",
            attachment.mac,
            self.name
        );
        self.attachments.push(attachment);
    }

    /// Detaches a device; returns whether it was attached.
    pub fn detach(&mut self, key: AttachmentKey) -> bool {
        let before = self.attachments.len();
        self.attachments.retain(|a| a.key != key);
        self.attachments.len() != before
    }

    /// Updates the MAC recorded for an attachment (hot-swapping NICs).
    ///
    /// # Panics
    ///
    /// Panics if another attachment already answers to `mac` — the same
    /// invariant [`Lan::attach`] enforces, since a colliding MAC would
    /// silently suppress delivery to the double.
    pub fn set_mac(&mut self, key: AttachmentKey, mac: MacAddr) -> bool {
        if !self.attachments.iter().any(|a| a.key == key) {
            return false;
        }
        assert!(
            !self
                .attachments
                .iter()
                .any(|a| a.key != key && a.mac == mac),
            "MAC {} already on {}",
            mac,
            self.name
        );
        for a in &mut self.attachments {
            if a.key == key {
                a.mac = mac;
            }
        }
        true
    }

    /// Attachment count.
    pub fn len(&self) -> usize {
        self.attachments.len()
    }

    /// True when no devices are attached.
    pub fn is_empty(&self) -> bool {
        self.attachments.is_empty()
    }

    /// The attachments, in attachment order. A frame's recipients are the
    /// ones that [`Attachment::receives`] it, walked in this order.
    pub fn attachments(&self) -> &[Attachment] {
        &self.attachments
    }

    /// Draws the one-way delay for one delivery.
    pub fn draw_delay(&self, rng: &mut SimRng) -> SimDuration {
        self.delay.draw(rng)
    }

    /// The smallest delay this medium can ever draw (`base - jitter`).
    /// For an inter-shard trunk this is the conservative scheduler's
    /// lookahead bound: no frame sent at `t` can arrive before
    /// `t + min_latency()`.
    pub fn min_latency(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.delay
                .base
                .as_nanos()
                .saturating_sub(self.delay.jitter.as_nanos()),
        )
    }

    /// Draws whether the medium loses a frame.
    pub fn draw_loss(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.loss_probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_sim::SimRng;

    fn key(i: usize) -> AttachmentKey {
        AttachmentKey { host: i, iface: 0 }
    }

    /// Keys of the attachments that receive a frame, in walk order.
    fn recipients(lan: &Lan, dst: MacAddr, src_mac: MacAddr) -> Vec<AttachmentKey> {
        lan.attachments()
            .iter()
            .filter(|a| a.receives(dst, src_mac))
            .map(|a| a.key)
            .collect()
    }

    fn lan3() -> Lan {
        let mut lan = Lan::new(
            "test",
            LanKind::Ethernet,
            DelayModel::fixed(SimDuration::from_micros(50)),
            0.0,
        );
        for i in 1..=3 {
            lan.attach(Attachment {
                key: key(i),
                mac: MacAddr::from_index(i as u32),
                promiscuous: false,
            });
        }
        lan
    }

    #[test]
    fn unicast_reaches_only_target() {
        let lan = lan3();
        let r = recipients(&lan, MacAddr::from_index(3), MacAddr::from_index(1));
        assert_eq!(r, vec![key(3)]);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let lan = lan3();
        let r = recipients(&lan, MacAddr::BROADCAST, MacAddr::from_index(2));
        assert_eq!(r, vec![key(1), key(3)]);
    }

    #[test]
    fn unknown_unicast_reaches_nobody() {
        let lan = lan3();
        let r = recipients(&lan, MacAddr::from_index(99), MacAddr::from_index(1));
        assert!(r.is_empty());
    }

    #[test]
    fn promiscuous_attachment_sees_unicast_for_others() {
        let mut lan = lan3();
        lan.attach(Attachment {
            key: key(9),
            mac: MacAddr::from_index(9),
            promiscuous: true,
        });
        let r = recipients(&lan, MacAddr::from_index(3), MacAddr::from_index(1));
        assert_eq!(r, vec![key(3), key(9)]);
    }

    #[test]
    fn detach_removes_and_reports() {
        let mut lan = lan3();
        assert!(lan.detach(key(2)));
        assert!(!lan.detach(key(2)));
        assert_eq!(lan.len(), 2);
        let r = recipients(&lan, MacAddr::BROADCAST, MacAddr::from_index(1));
        assert_eq!(r, vec![key(3)]);
    }

    #[test]
    #[should_panic(expected = "already on")]
    fn double_attach_panics() {
        let mut lan = lan3();
        lan.attach(Attachment {
            key: key(1),
            mac: MacAddr::from_index(10),
            promiscuous: false,
        });
    }

    #[test]
    fn set_mac_updates_addressing() {
        let mut lan = lan3();
        assert!(lan.set_mac(key(2), MacAddr::from_index(42)));
        assert!(!lan.set_mac(key(77), MacAddr::from_index(1)));
        let r = recipients(&lan, MacAddr::from_index(42), MacAddr::from_index(1));
        assert_eq!(r, vec![key(2)]);
    }

    #[test]
    fn set_mac_to_own_current_mac_is_fine() {
        let mut lan = lan3();
        assert!(lan.set_mac(key(2), MacAddr::from_index(2)));
    }

    #[test]
    #[should_panic(expected = "already on")]
    fn set_mac_to_colliding_mac_panics() {
        let mut lan = lan3();
        lan.set_mac(key(2), MacAddr::from_index(3));
    }

    #[test]
    fn fixed_delay_has_no_jitter() {
        let lan = lan3();
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(lan.draw_delay(&mut rng), SimDuration::from_micros(50));
        }
    }

    #[test]
    fn jittered_delay_stays_in_bounds() {
        let dm = DelayModel {
            base: SimDuration::from_millis(100),
            jitter: SimDuration::from_millis(25),
        };
        let mut rng = SimRng::new(5);
        let mut min = u64::MAX;
        let mut max = 0;
        for _ in 0..2000 {
            let d = dm.draw(&mut rng).as_nanos();
            min = min.min(d);
            max = max.max(d);
            assert!((75_000_000..=125_000_000).contains(&d));
        }
        // With 2000 draws we should get near both edges.
        assert!(min < 80_000_000, "min {min}");
        assert!(max > 120_000_000, "max {max}");
    }

    #[test]
    fn loss_draws_match_probability() {
        let mut lan = lan3();
        lan.loss_probability = 0.25;
        let mut rng = SimRng::new(9);
        let losses = (0..40_000).filter(|_| lan.draw_loss(&mut rng)).count();
        let frac = losses as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.02, "{frac}");
    }
}
