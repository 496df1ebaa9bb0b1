//! Conservative parallel stepping of sharded worlds.
//!
//! The topology is partitioned into *shards* — disjoint sub-worlds that
//! exchange traffic only through explicit inter-shard links. Each shard
//! owns a full [`Sim`]: its own event queue, RNG stream, metrics
//! registry, and flight-recorder segment. Shards step in parallel under
//! classic conservative (lookahead) synchronization:
//!
//! 1. every shard publishes the time of its next pending event;
//! 2. all workers agree on the global minimum `T`;
//! 3. each shard executes every event strictly before `T + L`, where
//!    `L` is the *lookahead* — the minimum latency of any inter-shard
//!    link;
//! 4. frames that crossed a shard boundary during the window are
//!    exchanged as timestamped [`ShardEnvelope`]s at the barrier and
//!    injected in canonical `(source shard, sequence)` order.
//!
//! Step 3 is safe because an envelope emitted at time `t ≥ T` arrives
//! no earlier than `t + L ≥ T + L` — nothing another shard does during
//! the window can affect events below the window bound. Every quantity
//! that drives control flow (window bounds, envelope order, per-shard
//! event order) is independent of the worker count, so a run with `N`
//! threads is byte-identical to the same run with one thread. See
//! `docs/parallel_engine.md` for the full determinism argument.
//!
//! A round costs only its busy shards: steps 3 and 4 visit a shard only
//! when its published next event falls inside the window or it received
//! envelopes, and a one-worker run takes no lock and waits at no barrier.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use crate::engine::Sim;
use crate::time::{SimDuration, SimTime};

/// A timestamped cross-shard message. Envelopes are staged by the
/// source shard during a window and injected into the destination shard
/// at the following barrier, sorted by `(src_shard, seq)` so injection
/// order never depends on thread scheduling.
#[derive(Debug)]
pub struct ShardEnvelope<P> {
    /// Stable id of the emitting shard.
    pub src_shard: u32,
    /// Stable id of the receiving shard.
    pub dst_shard: u32,
    /// Per-source-shard monotonic sequence number; `(src_shard, seq)`
    /// totally orders every envelope of a run.
    pub seq: u64,
    /// Absolute arrival time. Must be at or after the window bound the
    /// envelope was staged in — the lookahead contract.
    pub at: SimTime,
    /// The message itself (e.g. a wire frame plus addressing metadata).
    pub payload: P,
}

/// World types steppable by [`run_sharded`]. The world stages outgoing
/// envelopes while its events execute; the scheduler drains them at the
/// window boundary and injects them into their destination shards.
pub trait ShardWorld: Sized {
    /// Payload carried across shard boundaries. Must be `Send`: this is
    /// the *only* data that crosses threads — each `Sim` is built, run,
    /// and consumed on a single worker thread.
    type Payload: Send + 'static;

    /// Drains every envelope staged since the last call. Order within
    /// the returned vector is preserved into `seq` order by the caller's
    /// world, so stage envelopes in deterministic (event-execution)
    /// order.
    fn shard_outbox(sim: &mut Sim<Self>) -> Vec<ShardEnvelope<Self::Payload>>;

    /// Injects one envelope received from another shard, scheduling its
    /// delivery at `env.at`.
    fn shard_inject(sim: &mut Sim<Self>, env: ShardEnvelope<Self::Payload>);

    /// Called once per round, after injection, for each shard that ran
    /// events in the window or received envelopes — the hook the
    /// packet-envelope arena uses to reset its per-window bump
    /// allocator. A shard with nothing due and nothing received is not
    /// visited, so it staged nothing the hook would need to clear.
    fn at_barrier(_sim: &mut Sim<Self>) {}
}

/// Idle marker in the published next-event-time slots.
const IDLE: u64 = u64::MAX;

/// Derives shard `shard`'s RNG seed from the run's master seed.
///
/// The derivation depends only on the *stable shard id* — never on
/// spawn order or thread assignment — so per-shard streams are
/// reproducible across thread counts and machines. A SplitMix64 round
/// decorrelates adjacent shard ids (master seeds are often small).
///
/// # Examples
///
/// ```
/// use mosquitonet_sim::shard_seed;
///
/// // Pure in both arguments, distinct across neighboring shards.
/// assert_eq!(shard_seed(1996, 3), shard_seed(1996, 3));
/// assert_ne!(shard_seed(1996, 0), shard_seed(1996, 1));
/// ```
pub fn shard_seed(master: u64, shard: u32) -> u64 {
    let mut z = master ^ u64::from(shard).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Steps `shards` sharded worlds to `deadline` on `threads` worker
/// threads and returns one `finish` result per shard, in shard order.
///
/// `build(shard_id)` constructs each shard's [`Sim`] *on the worker
/// thread that owns it* — `Sim` is deliberately not `Send` (events are
/// plain boxed closures, metrics are `Rc`-shared), so worlds never
/// migrate between threads. Shard `i` is owned by worker `i % threads`;
/// ownership affects only which thread executes a shard, never the
/// order of its events, so any thread count from 1 to `shards` produces
/// byte-identical results.
///
/// `lookahead` must be a lower bound on the latency of every
/// inter-shard link: an envelope staged at time `t` must arrive no
/// earlier than `t + lookahead`. Violations panic in debug builds.
///
/// Like [`Sim::run_until`], events scheduled exactly at `deadline`
/// execute, and every shard's clock ends at `deadline`.
///
/// # Examples
///
/// Two shards, one envelope from shard 0 to shard 1, stepped on two
/// worker threads (any thread count gives byte-identical results):
///
/// ```
/// use mosquitonet_sim::{
///     run_sharded, shard_seed, ShardEnvelope, ShardWorld, Sim, SimDuration, SimTime,
/// };
///
/// struct Counting {
///     arrivals: u64,
///     outbox: Vec<ShardEnvelope<()>>,
/// }
///
/// impl ShardWorld for Counting {
///     type Payload = ();
///     fn shard_outbox(sim: &mut Sim<Self>) -> Vec<ShardEnvelope<()>> {
///         std::mem::take(&mut sim.world_mut().outbox)
///     }
///     fn shard_inject(sim: &mut Sim<Self>, env: ShardEnvelope<()>) {
///         sim.schedule_at(env.at, |sim| sim.world_mut().arrivals += 1);
///     }
/// }
///
/// let lookahead = SimDuration::from_micros(10); // = the inter-shard latency
/// let deadline = SimTime::ZERO + SimDuration::from_millis(1);
/// let arrivals = run_sharded(
///     2,
///     2,
///     lookahead,
///     deadline,
///     |id| {
///         let world = Counting { arrivals: 0, outbox: Vec::new() };
///         let mut sim = Sim::with_seed(world, shard_seed(1996, id));
///         if id == 0 {
///             sim.schedule_at(SimTime::ZERO, move |sim| {
///                 let at = sim.now() + SimDuration::from_micros(10);
///                 sim.world_mut().outbox.push(ShardEnvelope {
///                     src_shard: 0,
///                     dst_shard: 1,
///                     seq: 0,
///                     at,
///                     payload: (),
///                 });
///             });
///         }
///         sim
///     },
///     |_, sim| sim.into_world().arrivals,
/// );
/// assert_eq!(arrivals, vec![0, 1]);
/// ```
pub fn run_sharded<W, B, F, R>(
    shards: u32,
    threads: usize,
    lookahead: SimDuration,
    deadline: SimTime,
    build: B,
    finish: F,
) -> Vec<R>
where
    W: ShardWorld,
    B: Fn(u32) -> Sim<W> + Sync,
    F: Fn(u32, Sim<W>) -> R + Sync,
    R: Send,
{
    assert!(shards > 0, "at least one shard");
    assert!(
        lookahead > SimDuration::ZERO,
        "zero lookahead cannot make progress"
    );
    let n = shards as usize;
    let threads = threads.clamp(1, n);

    // Published next-event time per shard, re-read by every worker after
    // the publish barrier to compute the identical global minimum.
    let next_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(IDLE)).collect();
    // With several workers: envelopes bound for each shard, filled
    // between the two barriers of a round and drained (sorted) by the
    // owner, which reads `posted` to skip the lock of an empty inbox.
    let inboxes: Vec<Mutex<Vec<ShardEnvelope<W::Payload>>>> =
        (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let posted: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let barrier = Barrier::new(threads);

    std::thread::scope(|scope| {
        let (next_at, inboxes, posted, results) = (&next_at, &inboxes, &posted, &results);
        let (barrier, build, finish) = (&barrier, &build, &finish);
        for w in 0..threads {
            scope.spawn(move || {
                let mut owned: Vec<(u32, Sim<W>)> = (0..shards)
                    .filter(|i| *i as usize % threads == w)
                    .map(|i| (i, build(i)))
                    .collect();
                if threads == 1 {
                    let mut alone = Alone {
                        inboxes: (0..n).map(|_| Vec::new()).collect(),
                    };
                    step_rounds(&mut owned, next_at, &mut alone, lookahead, deadline);
                } else {
                    let mut shared = Shared {
                        inboxes,
                        posted,
                        barrier,
                    };
                    step_rounds(&mut owned, next_at, &mut shared, lookahead, deadline);
                }
                for (i, sim) in owned {
                    let mut sim = sim;
                    sim.run_until(deadline);
                    *results[i as usize].lock().expect("result slot") = Some(finish(i, sim));
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result mutex")
                .expect("every shard finished")
        })
        .collect()
}

/// How the workers of one run meet at a round's two sync points and hand
/// envelopes to each other's shards.
trait Exchange<P> {
    /// Returns once every worker has reached the same point of the round.
    fn sync(&mut self);

    /// Queues `env` for its destination shard.
    fn post(&mut self, env: ShardEnvelope<P>);

    /// Hands every envelope queued for `shard` to `inject` in canonical
    /// `(src_shard, seq)` order. Returns whether there was any.
    fn deliver(&mut self, shard: u32, inject: impl FnMut(ShardEnvelope<P>)) -> bool;
}

/// Injects `inbox` in canonical order, keeping its allocation.
fn drain_sorted<P>(inbox: &mut Vec<ShardEnvelope<P>>, inject: impl FnMut(ShardEnvelope<P>)) {
    inbox.sort_by_key(|e| (e.src_shard, e.seq));
    inbox.drain(..).for_each(inject);
}

/// The exchange of a one-worker run: every shard is on this thread, so
/// there is nobody to wait for and nothing to lock.
struct Alone<P> {
    inboxes: Vec<Vec<ShardEnvelope<P>>>,
}

impl<P> Exchange<P> for Alone<P> {
    fn sync(&mut self) {}

    fn post(&mut self, env: ShardEnvelope<P>) {
        self.inboxes[env.dst_shard as usize].push(env);
    }

    fn deliver(&mut self, shard: u32, inject: impl FnMut(ShardEnvelope<P>)) -> bool {
        let inbox = &mut self.inboxes[shard as usize];
        if inbox.is_empty() {
            return false;
        }
        drain_sorted(inbox, inject);
        true
    }
}

/// One worker's view of a multi-worker run's exchange: mutex-guarded
/// inboxes, flagged on post so their owners lock only the ones holding
/// envelopes, and a barrier at each sync point.
struct Shared<'a, P> {
    inboxes: &'a [Mutex<Vec<ShardEnvelope<P>>>],
    posted: &'a [AtomicBool],
    barrier: &'a Barrier,
}

impl<P> Exchange<P> for Shared<'_, P> {
    fn sync(&mut self) {
        self.barrier.wait();
    }

    fn post(&mut self, env: ShardEnvelope<P>) {
        let dst = env.dst_shard as usize;
        self.inboxes[dst].lock().expect("inbox").push(env);
        self.posted[dst].store(true, Ordering::Relaxed);
    }

    fn deliver(&mut self, shard: u32, inject: impl FnMut(ShardEnvelope<P>)) -> bool {
        // `Relaxed` suffices: every post happens before the barrier this
        // read follows, and the barrier orders them. Only the owner
        // clears the flag, before it reaches the next round's barrier.
        let posted = &self.posted[shard as usize];
        if !posted.load(Ordering::Relaxed) {
            return false;
        }
        posted.store(false, Ordering::Relaxed);
        drain_sorted(
            &mut self.inboxes[shard as usize].lock().expect("inbox"),
            inject,
        );
        true
    }
}

/// Publishes `sim`'s next-event time in its shard's slot.
fn publish<W>(next_at: &[AtomicU64], shard: u32, sim: &mut Sim<W>) {
    let t = sim.next_event_at().map_or(IDLE, SimTime::as_nanos);
    next_at[shard as usize].store(t, Ordering::Relaxed);
}

/// Steps one worker's `owned` shards through every round of the run.
///
/// A round costs only its busy shards. Every worker computes the same
/// window bound from all published next-event times, but runs the window
/// only for shards whose next event falls inside it; any other shard
/// would pop nothing and stage nothing. Injection, `at_barrier` and
/// republishing likewise touch only the shards that ran or received
/// envelopes — an untouched shard's queue, and so its published time,
/// is exactly as it was.
fn step_rounds<W: ShardWorld>(
    owned: &mut [(u32, Sim<W>)],
    next_at: &[AtomicU64],
    exchange: &mut impl Exchange<W::Payload>,
    lookahead: SimDuration,
    deadline: SimTime,
) {
    let deadline_ns = deadline.as_nanos();
    let mut touched = vec![false; owned.len()];
    for (i, sim) in owned.iter_mut() {
        publish(next_at, *i, sim);
    }
    loop {
        exchange.sync();
        // Every worker computes the same minimum from the same published
        // values, so all exit the same round.
        let t_min = next_at
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .min()
            .expect("at least one shard");
        if t_min > deadline_ns {
            break;
        }
        let end_ns = t_min
            .saturating_add(lookahead.as_nanos())
            .min(deadline_ns.saturating_add(1));
        let end = SimTime::from_nanos(end_ns);
        for ((i, sim), ran) in owned.iter_mut().zip(touched.iter_mut()) {
            if next_at[*i as usize].load(Ordering::Relaxed) >= end_ns {
                continue;
            }
            *ran = true;
            sim.run_window(end);
            for env in W::shard_outbox(sim) {
                debug_assert!(
                    env.at >= end,
                    "lookahead violation: envelope at {:?} inside window ending {:?}",
                    env.at,
                    end
                );
                exchange.post(env);
            }
        }
        exchange.sync();
        for ((i, sim), touched) in owned.iter_mut().zip(touched.iter_mut()) {
            let received = exchange.deliver(*i, |env| W::shard_inject(sim, env));
            if std::mem::take(touched) || received {
                W::at_barrier(sim);
                // No barrier here: a worker republishing its own slots
                // cannot race another worker's round-k reads, because
                // those happen before the sync above.
                publish(next_at, *i, sim);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy shard world: events log `(time, tag)` pairs; a "send" stages
    /// an envelope to a peer shard that logs on arrival.
    struct Toy {
        id: u32,
        log: Vec<(u64, u64)>,
        outbox: Vec<ShardEnvelope<u64>>,
        seq: u64,
        barriers_seen: u64,
    }

    impl Toy {
        fn send(&mut self, dst: u32, at: SimTime, tag: u64) {
            let seq = self.seq;
            self.seq += 1;
            self.outbox.push(ShardEnvelope {
                src_shard: self.id,
                dst_shard: dst,
                seq,
                at,
                payload: tag,
            });
        }
    }

    impl ShardWorld for Toy {
        type Payload = u64;
        fn shard_outbox(sim: &mut Sim<Self>) -> Vec<ShardEnvelope<u64>> {
            std::mem::take(&mut sim.world_mut().outbox)
        }
        fn shard_inject(sim: &mut Sim<Self>, env: ShardEnvelope<u64>) {
            let tag = env.payload;
            sim.schedule_at(env.at, move |sim| {
                let now = sim.now().as_nanos();
                sim.world_mut().log.push((now, tag));
            });
        }
        fn at_barrier(sim: &mut Sim<Self>) {
            sim.world_mut().barriers_seen += 1;
        }
    }

    const LINK: SimDuration = SimDuration::from_micros(10);

    /// A ping-pong run between `shards` toys: shard 0 starts, each
    /// arrival triggers a reply to the next shard, plus local chatter
    /// between hops.
    fn ping_pong(shards: u32, threads: usize) -> Vec<Vec<(u64, u64)>> {
        let deadline = SimTime::ZERO + SimDuration::from_millis(1);
        run_sharded(
            shards,
            threads,
            LINK,
            deadline,
            |id| {
                let mut sim = Sim::with_seed(
                    Toy {
                        id,
                        log: Vec::new(),
                        outbox: Vec::new(),
                        seq: 0,
                        barriers_seen: 0,
                    },
                    1000 + u64::from(id),
                );
                fn hop(sim: &mut Sim<Toy>, round: u64, shards: u32) {
                    let now = sim.now();
                    let jitter = sim.rng().range_u64(0..3);
                    sim.world_mut().log.push((now.as_nanos(), 900 + jitter));
                    if round < 8 {
                        let (me, dst);
                        {
                            let w = sim.world_mut();
                            me = w.id;
                            dst = (w.id + 1) % shards;
                            w.send(dst, now + LINK, round);
                        }
                        // Local follow-up inside the same window.
                        let _ = me;
                        sim.schedule_in(SimDuration::from_nanos(jitter + 1), move |sim| {
                            let t = sim.now().as_nanos();
                            sim.world_mut().log.push((t, 800 + round));
                        });
                    }
                }
                if id == 0 {
                    sim.schedule_in(SimDuration::from_micros(1), move |sim| {
                        hop(sim, 0, shards);
                    });
                }
                // Arrivals re-trigger hops: wire inject->hop via a
                // relay event the toy schedules for every logged tag.
                // (Done inside shard_inject's scheduled event below is
                // simpler; here we pre-schedule a scanner per shard.)
                fn scan(sim: &mut Sim<Toy>, seen: usize, shards: u32) {
                    let log_len = sim.world().log.len();
                    if log_len > seen {
                        for idx in seen..log_len {
                            let (_, tag) = sim.world().log[idx];
                            if tag < 800 {
                                hop(sim, tag + 1, shards);
                            }
                        }
                    }
                    if sim.now() < SimTime::ZERO + SimDuration::from_micros(900) {
                        sim.schedule_in(SimDuration::from_micros(2), move |sim| {
                            scan(sim, log_len, shards);
                        });
                    }
                }
                sim.schedule_in(SimDuration::from_micros(2), move |sim| scan(sim, 0, shards));
                sim
            },
            |_, sim| sim.into_world().log,
        )
    }

    #[test]
    fn thread_counts_produce_identical_logs() {
        let one = ping_pong(4, 1);
        let two = ping_pong(4, 2);
        let four = ping_pong(4, 4);
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert!(
            one.iter().map(Vec::len).sum::<usize>() > 20,
            "the run must actually exchange traffic"
        );
    }

    #[test]
    fn lookahead_boundary_arrival_is_neither_lost_nor_reordered() {
        // Shard 0 schedules an event at exactly t, which stages an
        // envelope arriving at exactly t + lookahead — the window bound
        // itself. The envelope must be injected (not lost) and execute
        // after every shard-1 event strictly before the bound and
        // before every shard-1 event after it.
        let t = SimTime::ZERO + SimDuration::from_micros(50);
        let arrival = t + LINK;
        let deadline = SimTime::ZERO + SimDuration::from_millis(1);
        for threads in [1usize, 2] {
            let logs = run_sharded(
                2,
                threads,
                LINK,
                deadline,
                |id| {
                    let mut sim = Sim::with_seed(
                        Toy {
                            id,
                            log: Vec::new(),
                            outbox: Vec::new(),
                            seq: 0,
                            barriers_seen: 0,
                        },
                        id.into(),
                    );
                    if id == 0 {
                        sim.schedule_at(t, move |sim| {
                            let w = sim.world_mut();
                            w.send(1, arrival, 42);
                        });
                    } else {
                        // One event just inside the window bound, one at
                        // the bound (same instant as the arrival, but
                        // scheduled locally before injection), one after.
                        for (dt, tag) in [(0u64, 1), (LINK.as_nanos() - 1, 2), (LINK.as_nanos(), 3)]
                        {
                            sim.schedule_at(t + SimDuration::from_nanos(dt), move |sim| {
                                let now = sim.now().as_nanos();
                                sim.world_mut().log.push((now, tag));
                            });
                        }
                        sim.schedule_at(arrival + SimDuration::from_nanos(1), |sim| {
                            let now = sim.now().as_nanos();
                            sim.world_mut().log.push((now, 4));
                        });
                    }
                    sim
                },
                |_, sim| sim.into_world().log,
            );
            let shard1 = &logs[1];
            let tags: Vec<u64> = shard1.iter().map(|&(_, tag)| tag).collect();
            assert_eq!(
                tags,
                vec![1, 2, 3, 42, 4],
                "boundary arrival lost or reordered with {threads} thread(s)"
            );
            let arrived = shard1.iter().find(|&&(_, tag)| tag == 42).expect("arrival");
            assert_eq!(arrived.0, arrival.as_nanos(), "arrival time preserved");
        }
    }

    #[test]
    fn barrier_hook_fires_and_clocks_reach_deadline() {
        let deadline = SimTime::ZERO + SimDuration::from_micros(100);
        let info = run_sharded(
            2,
            2,
            LINK,
            deadline,
            |id| {
                let mut sim = Sim::with_seed(
                    Toy {
                        id,
                        log: Vec::new(),
                        outbox: Vec::new(),
                        seq: 0,
                        barriers_seen: 0,
                    },
                    7,
                );
                if id == 0 {
                    sim.schedule_in(SimDuration::from_micros(1), |sim| {
                        let now = sim.now();
                        let w = sim.world_mut();
                        w.send(1, now + LINK, 5);
                    });
                }
                sim
            },
            |_, sim| {
                let now = sim.now();
                let w = sim.into_world();
                (now, w.barriers_seen, w.log)
            },
        );
        for (now, _, _) in &info {
            assert_eq!(*now, deadline, "every shard clock ends at the deadline");
        }
        // Round 1: shard 0 runs its send, shard 1 receives the envelope.
        // Round 2: shard 1 runs the arrival; shard 0, idle, is skipped.
        let barriers: Vec<u64> = info.iter().map(|(_, b, _)| *b).collect();
        assert_eq!(barriers, vec![1, 2], "the hook fires once per busy round");
        assert_eq!(info[1].2, vec![(11_000, 5)], "the envelope was delivered");
    }
}
