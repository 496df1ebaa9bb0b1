//! `run_sharded` against a reference stepper.
//!
//! The reference is the plainest conservative stepper there is: on one
//! thread, every round runs the window on *every* shard, exchanges every
//! outbox and injects every inbox in `(src_shard, seq)` order. The real
//! stepper touches only the shards that have something to do, on any
//! number of workers. Over random toy worlds — local events, same-instant
//! ties, cancellations, follow-ups, multi-hop cross-shard sends, arrivals
//! exactly at the window bound and at the deadline — both must produce
//! identical per-shard logs, and the `at_barrier` hook must fire exactly
//! once per round in which a shard ran events or received envelopes.

use proptest::prelude::*;

use mosquitonet_sim::{
    run_sharded, shard_seed, EventId, ShardEnvelope, ShardWorld, Sim, SimDuration, SimTime,
};

/// The lookahead, and the latency of every cross-shard send before its
/// extra delay.
const LINK: SimDuration = SimDuration::from_micros(10);

/// Event times are multiples of this, a quarter of the lookahead, so
/// same-instant ties and arrivals exactly at a window bound are common.
const UNIT: u64 = 2_500;

/// Tag bit marking an arrival in the log.
const ARRIVAL: u64 = 1 << 32;

/// Tag bit marking a follow-up in the log.
const FOLLOW: u64 = 1 << 33;

/// A cross-shard send: to shard `id + dst_offset` (mod the shard count),
/// arriving `LINK + extra` later, forwarded onward `hops` more times.
#[derive(Clone, Copy, Debug)]
struct Hop {
    dst_offset: u32,
    extra: u64,
    hops: u8,
}

/// One locally scheduled event.
#[derive(Clone, Debug)]
struct Local {
    at: u64,
    send: Option<Hop>,
    /// Index of a local event of the same shard to cancel on firing
    /// (harmless when it already ran).
    cancels: Option<usize>,
    /// Delay of a follow-up event scheduled on firing (zero: a
    /// same-instant event scheduled mid-batch).
    follow: Option<u64>,
}

#[derive(Clone, Debug)]
struct World {
    shards: Vec<Vec<Local>>,
    deadline: u64,
    seed: u64,
}

/// What a log line records: virtual time, tag, one draw from the shard's
/// RNG stream.
type Line = (u64, u64, u64);

struct Msg {
    tag: u64,
    send: Hop,
}

struct Toy {
    id: u32,
    shards: u32,
    log: Vec<Line>,
    outbox: Vec<ShardEnvelope<Msg>>,
    seq: u64,
    ids: Vec<EventId>,
    barriers: u64,
}

impl Toy {
    fn note(sim: &mut Sim<Toy>, tag: u64) {
        let now = sim.now().as_nanos();
        let draw = sim.rng().next_u64();
        sim.world_mut().log.push((now, tag, draw));
    }

    fn send(sim: &mut Sim<Toy>, tag: u64, send: Hop) {
        let at = sim.now() + LINK + SimDuration::from_nanos(send.extra);
        let w = sim.world_mut();
        if w.shards == 1 {
            return;
        }
        let dst_shard = (w.id + 1 + send.dst_offset % (w.shards - 1)) % w.shards;
        let seq = w.seq;
        w.seq += 1;
        let src_shard = w.id;
        w.outbox.push(ShardEnvelope {
            src_shard,
            dst_shard,
            seq,
            at,
            payload: Msg { tag, send },
        });
    }
}

impl ShardWorld for Toy {
    type Payload = Msg;

    fn shard_outbox(sim: &mut Sim<Self>) -> Vec<ShardEnvelope<Msg>> {
        std::mem::take(&mut sim.world_mut().outbox)
    }

    fn shard_inject(sim: &mut Sim<Self>, env: ShardEnvelope<Msg>) {
        let Msg { tag, send } = env.payload;
        let from = u64::from(env.src_shard) << 16;
        sim.schedule_at(env.at, move |sim| {
            Toy::note(sim, ARRIVAL | from | tag);
            if send.hops > 0 {
                let onward = Hop {
                    hops: send.hops - 1,
                    ..send
                };
                Toy::send(sim, tag, onward);
            }
        });
    }

    fn at_barrier(sim: &mut Sim<Self>) {
        sim.world_mut().barriers += 1;
    }
}

fn build(world: &World, id: u32) -> Sim<Toy> {
    let shards = world.shards.len() as u32;
    let toy = Toy {
        id,
        shards,
        log: Vec::new(),
        outbox: Vec::new(),
        seq: 0,
        ids: Vec::new(),
        barriers: 0,
    };
    let mut sim = Sim::with_seed(toy, shard_seed(world.seed, id));
    for (k, local) in world.shards[id as usize].iter().enumerate() {
        let local = local.clone();
        let tag = k as u64;
        let id = sim.schedule_at(SimTime::from_nanos(local.at), move |sim| {
            Toy::note(sim, tag);
            if let Some(idx) = local.cancels {
                let ids = &sim.world().ids;
                let victim = ids[idx % ids.len()];
                sim.cancel(victim);
            }
            if let Some(delay) = local.follow {
                sim.schedule_in(SimDuration::from_nanos(delay), move |sim| {
                    Toy::note(sim, FOLLOW | tag);
                });
            }
            if let Some(send) = local.send {
                Toy::send(sim, tag, send);
            }
        });
        sim.world_mut().ids.push(id);
    }
    sim
}

/// Per shard: the log and the number of `at_barrier` calls.
type Outcome = Vec<(Vec<Line>, u64)>;

fn sharded(world: &World, threads: usize) -> Outcome {
    run_sharded(
        world.shards.len() as u32,
        threads,
        LINK,
        SimTime::from_nanos(world.deadline),
        |id| build(world, id),
        |_, sim| {
            let toy = sim.into_world();
            (toy.log, toy.barriers)
        },
    )
}

/// The reference stepper: every shard in every round. The barrier count
/// it reports for a shard is the number of rounds in which that shard
/// executed an event or received an envelope.
fn reference(world: &World) -> Outcome {
    let n = world.shards.len();
    let deadline = SimTime::from_nanos(world.deadline);
    let mut sims: Vec<Sim<Toy>> = (0..n as u32).map(|id| build(world, id)).collect();
    let mut busy_rounds = vec![0u64; n];
    loop {
        let t_min = sims
            .iter_mut()
            .map(|s| s.next_event_at().map_or(u64::MAX, SimTime::as_nanos))
            .min()
            .expect("shards");
        if t_min > world.deadline {
            break;
        }
        let end = SimTime::from_nanos((t_min + LINK.as_nanos()).min(world.deadline + 1));
        let mut inboxes: Vec<Vec<ShardEnvelope<Msg>>> = (0..n).map(|_| Vec::new()).collect();
        let mut busy = vec![false; n];
        for (i, sim) in sims.iter_mut().enumerate() {
            let before = sim.events_executed();
            sim.run_window(end);
            busy[i] = sim.events_executed() > before;
            for env in Toy::shard_outbox(sim) {
                assert!(env.at >= end, "toy broke the lookahead contract");
                inboxes[env.dst_shard as usize].push(env);
            }
        }
        for (i, (sim, mut inbox)) in sims.iter_mut().zip(inboxes).enumerate() {
            inbox.sort_by_key(|e| (e.src_shard, e.seq));
            busy[i] |= !inbox.is_empty();
            for env in inbox {
                Toy::shard_inject(sim, env);
            }
            busy_rounds[i] += u64::from(busy[i]);
        }
    }
    sims.into_iter()
        .zip(busy_rounds)
        .map(|(mut sim, rounds)| {
            sim.run_until(deadline);
            (sim.into_world().log, rounds)
        })
        .collect()
}

fn hop_strategy() -> impl Strategy<Value = Hop> {
    // Extra delay zero most often: the arrival then lands exactly on the
    // window bound when the sender ran at the window's start.
    let extra = prop_oneof![
        Just(0u64),
        Just(0u64),
        Just(0u64),
        Just(1u64),
        Just(UNIT),
        Just(3 * UNIT),
        Just(LINK.as_nanos()),
    ];
    (0u32..8, extra, 0u8..3).prop_map(|(dst_offset, extra, hops)| Hop {
        dst_offset,
        extra,
        hops,
    })
}

fn local_strategy() -> impl Strategy<Value = Local> {
    let follow = prop_oneof![Just(0u64), Just(1u64), Just(UNIT), Just(2 * UNIT)];
    (
        0u64..40,
        (0u8..3, hop_strategy()),
        (0u8..5, 0usize..8),
        (0u8..10, follow),
    )
        .prop_map(|(k, (send, hop), (cancel, idx), (follow, delay))| Local {
            at: k * UNIT,
            send: (send > 0).then_some(hop),
            cancels: (cancel == 0).then_some(idx),
            follow: (follow < 3).then_some(delay),
        })
}

fn world_strategy() -> impl Strategy<Value = World> {
    (
        proptest::collection::vec(proptest::collection::vec(local_strategy(), 0..8), 1..7),
        20u64..60,
        any::<u64>(),
    )
        .prop_map(|(shards, deadline_units, seed)| World {
            shards,
            deadline: deadline_units * UNIT,
            seed,
        })
}

proptest! {
    #[test]
    fn sharded_runs_match_the_every_shard_reference(world in world_strategy()) {
        let expected = reference(&world);
        for threads in [1usize, 2, 4] {
            let got = sharded(&world, threads);
            for (shard, ((log, barriers), (want_log, want_barriers))) in
                got.iter().zip(&expected).enumerate()
            {
                prop_assert_eq!(
                    log, want_log,
                    "shard {} log differs at {} thread(s)", shard, threads
                );
                prop_assert_eq!(
                    barriers, want_barriers,
                    "shard {} at_barrier calls differ from its busy rounds at {} thread(s)",
                    shard, threads
                );
            }
        }
    }
}

/// A shard that never has anything to do is never visited: no window,
/// no injection, no barrier hook.
#[test]
fn an_idle_shard_sees_no_barrier() {
    let local = |at| Local {
        at,
        send: None,
        cancels: None,
        follow: None,
    };
    let world = World {
        shards: vec![
            vec![local(0), local(5 * UNIT), local(30 * UNIT)],
            Vec::new(),
        ],
        deadline: 40 * UNIT,
        seed: 1996,
    };
    for threads in [1, 2] {
        let got = sharded(&world, threads);
        assert_eq!(got[0].1, 3, "one busy round per spread-out event");
        assert_eq!(got[1], (Vec::new(), 0), "the idle shard was touched");
    }
    assert_eq!(sharded(&world, 1), reference(&world));
}
