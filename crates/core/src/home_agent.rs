//! The home agent (§3.1, §3.4).
//!
//! On an accepted registration the home agent becomes the mobile host's
//! stand-in on the home subnet: it adds a proxy-ARP entry so it receives
//! packets for the home address, broadcasts a gratuitous ARP "to void any
//! stale ARP cache entries on hosts in the same subnet", installs a VIF
//! tunnel route (every packet for the home address is IP-in-IP
//! encapsulated to the care-of address), and records a mobility binding.
//! Deregistration and binding expiry undo all of it.
//!
//! Request processing is charged the calibrated
//! [`HA_PROCESSING`](crate::timing::HA_PROCESSING) delay (Figure 7's
//! 1.48 ms) between receipt and reply.
//!
//! # Crash recovery
//!
//! Every accepted binding mutation is written ahead to a
//! [`BindingJournal`]. A node crash wipes the in-memory table, the
//! proxy-ARP entries, and the tunnel routes (they live in the kernel);
//! the journal and the boot epoch survive on stable storage. On restart
//! the agent increments its epoch, replays the journal (unless fault
//! injection declared the storage lost), and re-installs proxy ARP and
//! tunnels for every binding still alive — traffic resumes before the
//! mobile hosts notice. The epoch rides in every registration reply, so
//! a host that registered against the previous boot sees the change and
//! re-registers from scratch.
//!
//! # Standby replication
//!
//! A primary configured with `replicate_to` forwards every accepted
//! mutation as a [`BindingReplica`] message. The standby applies
//! replicas to its table and journal only — it does not answer ARP for
//! or tunnel to hosts it is not serving — until a mobile host fails over
//! and registers with it directly, at which point the normal accept path
//! installs proxy ARP, the tunnel, and the gratuitous ARP takeover.
//!
//! # Fleet membership
//!
//! In a sharded home-agent fleet (`docs/ha_fleet.md`), each agent is
//! one shard's active (or standby) and owns only the home addresses the
//! [`ShardDirectory`] assigns to its shard. A `fleet`-configured agent
//! denies off-shard registrations with `DeniedUnknownHome` before
//! touching its table, so no journal ever records a binding another
//! shard owns — the invariant that keeps per-shard replica streams and
//! anti-replay floors in lock-step without cross-shard coordination.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_sim::{Counter, MetricCell, MetricsScope, SimDuration};
use mosquitonet_stack::{Effect, IfaceId, Module, ModuleCtx, SocketId, UdpBatchItem};
use mosquitonet_wire::Cidr;

use crate::binding::{BindOutcome, BindingTable};
use crate::fleet::ShardDirectory;
use crate::journal::{BindingJournal, JournalRecord};
use crate::messages::{
    classify, BindingReplica, BindingUpdate, MessageKind, RegistrationReply, RegistrationRequest,
    ReplicaOp, ReplyCode, REGISTRATION_PORT,
};
use crate::timing::HA_PROCESSING;

const TOKEN_SWEEP: u64 = 1;
const TOKEN_PENDING_BASE: u64 = 0x1000;
const SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Home agent configuration.
#[derive(Clone, Debug)]
pub struct HomeAgentConfig {
    /// The agent's own address (what mobile hosts register with).
    pub addr: Ipv4Addr,
    /// The interface on the home subnet (where proxy ARP operates).
    pub home_iface: IfaceId,
    /// The home subnet; only addresses inside it are served.
    pub home_subnet: Cidr,
    /// Processing time charged per registration (Figure 7: 1.48 ms).
    pub processing_delay: SimDuration,
    /// Cap on granted lifetimes, seconds.
    pub max_lifetime: u16,
    /// Per-mobile-host authentication keys (home address → (SPI, key)).
    pub auth_keys: HashMap<Ipv4Addr, (u32, u64)>,
    /// Refuse unauthenticated registrations. Off by default, like the
    /// paper's implementation.
    pub require_auth: bool,
    /// Send a binding update to the previous care-of address when a host
    /// moves — enables the previous-foreign-agent forwarding of §5.1.
    pub notify_previous: bool,
    /// Replicate every accepted binding mutation to this standby home
    /// agent (its registration port). `None` disables replication.
    pub replicate_to: Option<Ipv4Addr>,
    /// Fleet membership: this agent's shard id plus the fleet's shard
    /// directory. When set, registrations for home addresses the
    /// directory assigns to a *different* shard are denied with
    /// `DeniedUnknownHome` (and counted), so each shard's journal only
    /// ever holds bindings it owns. `None` means the paper's standalone
    /// single-agent deployment.
    pub fleet: Option<(u16, ShardDirectory)>,
}

impl HomeAgentConfig {
    /// A default configuration for `addr` serving `home_subnet` via
    /// `home_iface`.
    pub fn new(addr: Ipv4Addr, home_iface: IfaceId, home_subnet: Cidr) -> HomeAgentConfig {
        HomeAgentConfig {
            addr,
            home_iface,
            home_subnet,
            processing_delay: HA_PROCESSING,
            max_lifetime: 600,
            auth_keys: HashMap::new(),
            require_auth: false,
            notify_previous: false,
            replicate_to: None,
            fleet: None,
        }
    }
}

struct PendingRequest {
    request: RegistrationRequest,
    reply_to: (Ipv4Addr, u16),
}

/// The home agent module.
pub struct HomeAgent {
    cfg: HomeAgentConfig,
    /// The mobility binding table.
    pub bindings: BindingTable,
    /// The write-ahead journal of accepted mutations (stable storage:
    /// survives [`Module::on_crash`], unless fault injection says the
    /// disk died with the node).
    pub journal: BindingJournal,
    /// The boot epoch, incremented on every restart and carried in each
    /// registration reply. Stable storage, like the journal.
    epoch: u16,
    /// Home addresses this agent is actively standing in for (proxy
    /// ARP plus an installed tunnel). A standby holds replicated
    /// bindings without serving them.
    serving: HashSet<Ipv4Addr>,
    sock: Option<SocketId>,
    pending: HashMap<u64, PendingRequest>,
    next_pending: u64,
    /// The single Pentium-90 CPU: registration service is serialized, so
    /// a burst of N requests completes in ~N × processing_delay (the A2
    /// scaling experiment measures exactly this).
    busy_until: mosquitonet_sim::SimTime,
    /// Requests fully processed (accepted or denied).
    pub processed: Counter,
    /// Registrations accepted.
    pub accepted: Counter,
    /// Registrations denied (any code).
    pub denied: Counter,
    /// Bindings reclaimed by the expiry sweep.
    pub expiries: Counter,
    /// Registration requests that failed the wire checksum (counted,
    /// never acted on).
    pub corrupt_requests: Counter,
    /// Registrations denied because authentication was missing or wrong
    /// (spoofed or tampered requests).
    pub auth_failures: Counter,
    /// Authenticated registrations denied because the identification did
    /// not advance past the replay window (replayed requests).
    pub auth_replays: Counter,
    /// Registrations denied because the shard directory assigns the
    /// home address to a different fleet shard.
    pub wrong_shard: Counter,
    /// Binding replicas forwarded to the standby.
    pub replicas_sent: Counter,
    /// Binding replicas applied from the primary.
    pub replicas_applied: Counter,
    /// Journal records replayed across restarts.
    pub journal_replayed: Counter,
    /// Datagrams that arrived through multi-datagram batched deliveries
    /// (plain state, not a registered metric — the batch path must leave
    /// metric exports byte-identical to the unbatched path).
    batched_datagrams: u64,
}

impl HomeAgent {
    /// Creates a home agent with `cfg`.
    pub fn new(cfg: HomeAgentConfig) -> HomeAgent {
        HomeAgent {
            cfg,
            bindings: BindingTable::new(),
            journal: BindingJournal::new(),
            epoch: 0,
            serving: HashSet::new(),
            sock: None,
            pending: HashMap::new(),
            next_pending: TOKEN_PENDING_BASE,
            busy_until: mosquitonet_sim::SimTime::ZERO,
            processed: Counter::default(),
            accepted: Counter::default(),
            denied: Counter::default(),
            expiries: Counter::default(),
            corrupt_requests: Counter::default(),
            auth_failures: Counter::default(),
            auth_replays: Counter::default(),
            wrong_shard: Counter::default(),
            replicas_sent: Counter::default(),
            replicas_applied: Counter::default(),
            journal_replayed: Counter::default(),
            batched_datagrams: 0,
        }
    }

    /// Datagrams that arrived through multi-datagram batched deliveries.
    pub fn batched_datagrams(&self) -> u64 {
        self.batched_datagrams
    }

    /// Handles one datagram on the registration socket — the shared body
    /// of `on_udp` and `on_udp_batch`.
    fn udp_datagram(&mut self, ctx: &mut ModuleCtx<'_>, src: (Ipv4Addr, u16), payload: &Bytes) {
        match classify(payload) {
            Some(MessageKind::Request) => {}
            Some(MessageKind::Replica) => {
                match BindingReplica::parse(payload) {
                    Ok(replica) => self.apply_replica(ctx, &replica),
                    Err(_) => {
                        self.corrupt_requests.inc();
                        ctx.fx
                            .trace("drop.reg_corrupt: binding replica failed parse".to_string());
                    }
                }
                return;
            }
            _ => return,
        }
        let request = match RegistrationRequest::parse(payload) {
            Ok(request) => request,
            Err(_) => {
                // Detected (wire checksum), counted, never acted on.
                self.corrupt_requests.inc();
                ctx.fx
                    .trace("drop.reg_corrupt: registration request failed parse".to_string());
                return;
            }
        };
        // Model the Pentium-90's 1.48 ms of registration service time,
        // serialized on its single CPU.
        let token = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(
            token,
            PendingRequest {
                request,
                reply_to: src,
            },
        );
        let start = if self.busy_until > ctx.now {
            self.busy_until
        } else {
            ctx.now
        };
        let finish = start + self.cfg.processing_delay;
        self.busy_until = finish;
        ctx.fx.set_timer(finish - ctx.now, token);
    }

    /// The configuration (primarily for tests/experiments).
    pub fn config(&self) -> &HomeAgentConfig {
        &self.cfg
    }

    /// The current boot epoch.
    pub fn epoch(&self) -> u16 {
        self.epoch
    }

    /// True while this agent stands in (proxy ARP + tunnel) for `home`.
    pub fn is_serving(&self, home: Ipv4Addr) -> bool {
        self.serving.contains(&home)
    }

    /// Installs the stand-in state for `home` → `care_of`: the tunnel
    /// route, the proxy-ARP entry, and (only on first takeover) the
    /// gratuitous ARP that voids stale neighbor caches. Idempotent, so
    /// refreshes after a restart or a standby takeover converge too.
    fn ensure_serving(&mut self, ctx: &mut ModuleCtx<'_>, home: Ipv4Addr, care_of: Ipv4Addr) {
        ctx.core.set_tunnel(home, care_of);
        if self.serving.insert(home) {
            ctx.core.arp_mut(self.cfg.home_iface).add_proxy(home);
            ctx.fx.push(Effect::GratuitousArp {
                iface: self.cfg.home_iface,
                addr: home,
            });
        }
    }

    /// Tears down the stand-in state for `home`.
    fn stop_serving(&mut self, ctx: &mut ModuleCtx<'_>, home: Ipv4Addr) {
        ctx.core.clear_tunnel(home);
        ctx.core.arp_mut(self.cfg.home_iface).remove_proxy(home);
        self.serving.remove(&home);
    }

    /// Forwards an accepted mutation to the configured standby.
    fn replicate(&mut self, ctx: &mut ModuleCtx<'_>, replica: BindingReplica) {
        if let Some(standby) = self.cfg.replicate_to {
            self.replicas_sent.inc();
            ctx.fx.send_udp(
                self.sock.expect("bound"),
                (standby, REGISTRATION_PORT),
                replica.to_bytes(),
            );
        }
    }

    fn reply(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        to: (Ipv4Addr, u16),
        code: ReplyCode,
        lifetime: u16,
        req: &RegistrationRequest,
    ) {
        self.processed.inc();
        if code == ReplyCode::Accepted {
            self.accepted.inc();
        } else {
            self.denied.inc();
        }
        let mut reply = RegistrationReply {
            code,
            lifetime,
            home_addr: req.home_addr,
            home_agent: self.cfg.addr,
            epoch: self.epoch,
            ident: req.ident,
            auth: None,
        };
        // A keyed host gets a signed reply, so forged denials can't knock
        // its binding down. Unkeyed hosts keep the pre-auth byte layout.
        if let Some(&(spi, key)) = self.cfg.auth_keys.get(&req.home_addr) {
            reply = reply.sign(spi, key);
        }
        ctx.fx
            .send_udp(self.sock.expect("bound"), to, reply.to_bytes());
    }

    fn process(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        let Some(PendingRequest {
            request: req,
            reply_to,
        }) = self.pending.remove(&token)
        else {
            return;
        };
        // Are we the right home agent for this address?
        if req.home_agent != self.cfg.addr || !self.cfg.home_subnet.contains(req.home_addr) {
            self.reply(ctx, reply_to, ReplyCode::DeniedUnknownHome, 0, &req);
            return;
        }
        // Fleet membership: serve only the home addresses the shard
        // directory assigns to this shard. Accepting an off-shard
        // binding would fork it out of the owner's replica stream and
        // journal, so the denial comes before any table mutation.
        if let Some((own_shard, directory)) = &self.cfg.fleet {
            let owner = directory.resolve(req.home_addr);
            if owner != *own_shard {
                self.wrong_shard.inc();
                ctx.fx.trace(format!(
                    "drop.wrong_shard: {} is owned by fleet shard {owner}",
                    req.home_addr
                ));
                self.reply(ctx, reply_to, ReplyCode::DeniedUnknownHome, 0, &req);
                return;
            }
        }
        // Authentication, when configured.
        if self.cfg.require_auth {
            let ok = self
                .cfg
                .auth_keys
                .get(&req.home_addr)
                .is_some_and(|&(_spi, key)| req.verify(key));
            if !ok {
                self.auth_failures.inc();
                ctx.fx.trace(format!(
                    "drop.auth_fail: registration for {} unsigned or bad digest",
                    req.home_addr
                ));
                self.reply(ctx, reply_to, ReplyCode::DeniedAuth, 0, &req);
                return;
            }
            // Anti-replay window, checked up front for authenticated
            // hosts: the identification must advance past everything this
            // agent has ever accepted for the address — including floors
            // restored by journal replay after a crash, so a replayed
            // capture stays dead across restarts.
            if req.ident <= self.bindings.last_ident(req.home_addr) {
                self.auth_replays.inc();
                ctx.fx.trace(format!(
                    "drop.auth_replay: registration for {} replays ident {}",
                    req.home_addr, req.ident
                ));
                self.reply(ctx, reply_to, ReplyCode::DeniedIdent, 0, &req);
                return;
            }
        }

        if req.is_deregistration() {
            match self.bindings.unbind(req.home_addr, req.ident) {
                Some(_removed) => {
                    self.journal.append(JournalRecord::Unbind {
                        home: req.home_addr,
                        ident: req.ident,
                    });
                    self.stop_serving(ctx, req.home_addr);
                    self.replicate(
                        ctx,
                        BindingReplica {
                            op: ReplicaOp::Unbind,
                            lifetime: 0,
                            home_addr: req.home_addr,
                            care_of: Ipv4Addr::UNSPECIFIED,
                            ident: req.ident,
                        },
                    );
                    ctx.fx.trace(format!("deregistered {}", req.home_addr));
                    self.reply(ctx, reply_to, ReplyCode::Accepted, 0, &req);
                }
                None if self.bindings.last_ident(req.home_addr) >= req.ident
                    && self.bindings.get(req.home_addr, ctx.now).is_some() =>
                {
                    self.reply(ctx, reply_to, ReplyCode::DeniedIdent, 0, &req);
                }
                None => {
                    // No binding: deregistration is idempotent.
                    self.reply(ctx, reply_to, ReplyCode::Accepted, 0, &req);
                }
            }
            return;
        }

        let granted = req.lifetime.min(self.cfg.max_lifetime);
        let life = SimDuration::from_secs(u64::from(granted));
        let outcome = self
            .bindings
            .bind(req.home_addr, req.care_of, life, req.ident, ctx.now);
        if outcome == BindOutcome::ReplayRejected {
            self.reply(ctx, reply_to, ReplyCode::DeniedIdent, 0, &req);
            return;
        }
        // Accepted: journal it, become (or stay) the host's stand-in,
        // and tell the standby.
        self.journal.append(JournalRecord::Bind {
            home: req.home_addr,
            care_of: req.care_of,
            lifetime: life,
            ident: req.ident,
            at: ctx.now,
        });
        self.ensure_serving(ctx, req.home_addr, req.care_of);
        self.replicate(
            ctx,
            BindingReplica {
                op: ReplicaOp::Bind,
                lifetime: granted,
                home_addr: req.home_addr,
                care_of: req.care_of,
                ident: req.ident,
            },
        );
        // The binding's history is the journal record above plus the
        // `reg/*` counters; nothing here goes to the trace log.
        if let BindOutcome::Moved { previous } = outcome {
            if self.cfg.notify_previous {
                let update = BindingUpdate {
                    lifetime: 10,
                    home_addr: req.home_addr,
                    new_care_of: req.care_of,
                };
                ctx.fx.send_udp(
                    self.sock.expect("bound"),
                    (previous, REGISTRATION_PORT),
                    update.to_bytes(),
                );
            }
        }
        self.reply(ctx, reply_to, ReplyCode::Accepted, granted, &req);
    }

    /// Applies a replicated mutation from the primary: table and journal
    /// only — a standby does not answer ARP for or tunnel to hosts it is
    /// not serving.
    fn apply_replica(&mut self, ctx: &mut ModuleCtx<'_>, replica: &BindingReplica) {
        match replica.op {
            ReplicaOp::Bind => {
                let life = SimDuration::from_secs(u64::from(replica.lifetime));
                let outcome = self.bindings.bind(
                    replica.home_addr,
                    replica.care_of,
                    life,
                    replica.ident,
                    ctx.now,
                );
                if outcome == BindOutcome::ReplayRejected {
                    return;
                }
                self.journal.append(JournalRecord::Bind {
                    home: replica.home_addr,
                    care_of: replica.care_of,
                    lifetime: life,
                    ident: replica.ident,
                    at: ctx.now,
                });
            }
            ReplicaOp::Unbind => {
                if self
                    .bindings
                    .unbind(replica.home_addr, replica.ident)
                    .is_none()
                {
                    return;
                }
                self.journal.append(JournalRecord::Unbind {
                    home: replica.home_addr,
                    ident: replica.ident,
                });
            }
        }
        self.replicas_applied.inc();
    }
}

impl Module for HomeAgent {
    fn name(&self) -> &'static str {
        "home-agent"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, REGISTRATION_PORT);
        assert!(self.sock.is_some(), "registration port busy");
        ctx.fx.set_timer(SWEEP_INTERVAL, TOKEN_SWEEP);
    }

    fn register_metrics(&self, scope: &MetricsScope) {
        let reg = scope.scope("reg");
        for (name, cell) in [
            ("processed", &self.processed),
            ("accepted", &self.accepted),
            ("denied", &self.denied),
            ("binding_expiries", &self.expiries),
            ("corrupt_dropped", &self.corrupt_requests),
            ("replicas_sent", &self.replicas_sent),
            ("replicas_applied", &self.replicas_applied),
            ("journal_replayed", &self.journal_replayed),
        ] {
            reg.register(name, MetricCell::Counter(cell.clone()));
        }
        // Auth refusal counters exist only on keyed agents, so unkeyed
        // topologies keep their pre-authentication metric sets (and the
        // golden sidecars pinned to them) byte-identical.
        if !self.cfg.auth_keys.is_empty() || self.cfg.require_auth {
            for (name, cell) in [
                ("auth_fail", &self.auth_failures),
                ("auth_replay", &self.auth_replays),
            ] {
                reg.register(name, MetricCell::Counter(cell.clone()));
            }
        }
        // Same pattern for the fleet counter: only sharded agents have
        // it, so standalone topologies' metric sets stay byte-identical.
        if self.cfg.fleet.is_some() {
            reg.register("wrong_shard", MetricCell::Counter(self.wrong_shard.clone()));
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        if token == TOKEN_SWEEP {
            let expired = self.bindings.sweep_expired(ctx.now);
            if !expired.is_empty() {
                // One record reproduces the whole sweep on replay.
                self.journal.append(JournalRecord::Sweep { at: ctx.now });
            }
            for (home, binding) in expired {
                self.expiries.inc();
                self.stop_serving(ctx, home);
                ctx.fx.trace(format!(
                    "binding expired: {home} (was at {})",
                    binding.care_of
                ));
            }
            ctx.fx.set_timer(SWEEP_INTERVAL, TOKEN_SWEEP);
        } else {
            self.process(ctx, token);
        }
    }

    fn on_crash(&mut self, _ctx: &mut ModuleCtx<'_>) {
        // Volatile state dies with the node: the in-memory table, the
        // serving set (the kernel's proxy-ARP and tunnel entries are
        // wiped by the host crash itself), and any in-flight requests.
        // The journal and the epoch live on stable storage.
        self.bindings = BindingTable::new();
        self.serving.clear();
        self.pending.clear();
        self.busy_until = mosquitonet_sim::SimTime::ZERO;
    }

    fn on_restart(&mut self, ctx: &mut ModuleCtx<'_>, storage_lost: bool) {
        self.epoch = self.epoch.wrapping_add(1);
        if storage_lost {
            // The disk died with the node: boot empty. The bumped epoch
            // in replies makes every mobile host re-register from
            // scratch, rebuilding the table the slow way.
            self.journal.clear();
            ctx.fx.trace(format!(
                "ha restart: epoch {} with journal lost, booting empty",
                self.epoch
            ));
        } else {
            let (table, stats) = self.journal.replay();
            self.journal_replayed
                .add(stats.binds + stats.unbinds + stats.expiries);
            self.bindings = table;
            ctx.fx.trace(format!(
                "ha restart: epoch {}, journal replayed ({} binds, {} unbinds, {} expiries)",
                self.epoch, stats.binds, stats.unbinds, stats.expiries
            ));
            // Re-install the stand-in state for every binding still
            // alive, so tunneled delivery resumes before the mobile
            // hosts even notice the outage.
            let live: Vec<(Ipv4Addr, Ipv4Addr)> = self
                .bindings
                .iter_live(ctx.now)
                .map(|(home, b)| (home, b.care_of))
                .collect();
            for (home, care_of) in live {
                self.ensure_serving(ctx, home, care_of);
            }
        }
        ctx.fx.set_timer(SWEEP_INTERVAL, TOKEN_SWEEP);
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        self.udp_datagram(ctx, src, payload);
    }

    fn on_udp_batch(&mut self, ctx: &mut ModuleCtx<'_>, _sock: SocketId, batch: &[UdpBatchItem]) {
        if batch.len() > 1 {
            self.batched_datagrams += batch.len() as u64;
        }
        for item in batch {
            self.udp_datagram(ctx, item.src, &item.payload);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
