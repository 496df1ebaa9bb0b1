//! Model test of the event queue: random schedules, cancels and runs
//! against a naive reference queue (a `BTreeMap` keyed by `(at, seq)`).
//!
//! Cancels name ids that are pending, that already fired, that were
//! already cancelled, and ids whose slot has since been reused by another
//! event. Handlers log their firing, may cancel an earlier id, and may
//! schedule a follow-up (at the same instant when its delay is zero).
//! Firing order, every `cancel` result, `pending_events` and
//! `next_event_at` must match the reference after every operation, with
//! and without per-tick batching.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mosquitonet_sim::{EventId, Sim, SimDuration, SimTime};

/// What a scheduled event does when it fires, besides logging itself.
#[derive(Clone, Copy, Debug)]
struct Action {
    /// Cancel the id at this index (modulo the ids issued so far).
    cancel: Option<usize>,
    /// Schedule a plain follow-up this many ns later.
    follow: Option<u64>,
}

const PLAIN: Action = Action {
    cancel: None,
    follow: None,
};

#[derive(Clone, Debug)]
enum Op {
    Schedule { delay: u64, action: Action },
    Cancel(usize),
    Step,
    RunUntil(u64),
    RunWindow(u64),
    Run,
}

/// One line of the firing log both queues must produce identically.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Log {
    Fired { id: usize, at: u64 },
    Cancelled { id: usize, result: bool },
}

#[derive(Default)]
struct World {
    ids: Vec<EventId>,
    log: Vec<Log>,
}

fn handler(id: usize, action: Action) -> impl FnOnce(&mut Sim<World>) + 'static {
    move |sim| {
        let at = sim.now().as_nanos();
        sim.world_mut().log.push(Log::Fired { id, at });
        if let Some(target) = action.cancel {
            let target = target % sim.world().ids.len();
            let result = sim.cancel(sim.world().ids[target]);
            sim.world_mut()
                .log
                .push(Log::Cancelled { id: target, result });
        }
        if let Some(delay) = action.follow {
            let child = sim.world().ids.len();
            let eid = sim.schedule_in(SimDuration::from_nanos(delay), handler(child, PLAIN));
            sim.world_mut().ids.push(eid);
        }
    }
}

/// The reference: pending events keyed by `(at, seq)`, where `seq` is the
/// scheduling index, so same-instant events pop FIFO.
#[derive(Default)]
struct Model {
    now: u64,
    /// `(at, seq)` of every id ever issued, by id index.
    keys: Vec<(u64, u64)>,
    queue: BTreeMap<(u64, u64), (usize, Action)>,
    log: Vec<Log>,
}

impl Model {
    fn schedule(&mut self, at: u64, action: Action) {
        let id = self.keys.len();
        let key = (at, id as u64);
        self.keys.push(key);
        self.queue.insert(key, (id, action));
    }

    fn cancel(&mut self, id: usize) -> bool {
        self.queue.remove(&self.keys[id]).is_some()
    }

    fn next_event_at(&self) -> Option<u64> {
        self.queue.keys().next().map(|&(at, _)| at)
    }

    fn step(&mut self) -> bool {
        let Some(((at, _), (id, action))) = self.queue.pop_first() else {
            return false;
        };
        self.now = at;
        self.log.push(Log::Fired { id, at });
        if let Some(target) = action.cancel {
            let target = target % self.keys.len();
            let result = self.cancel(target);
            self.log.push(Log::Cancelled { id: target, result });
        }
        if let Some(delay) = action.follow {
            self.schedule(at + delay, PLAIN);
        }
        true
    }

    /// Fires everything due at or before `deadline`.
    fn drain_until(&mut self, deadline: u64) {
        while self.next_event_at().is_some_and(|at| at <= deadline) {
            self.step();
        }
    }
}

/// One random operation: four schedules, three cancels, two steps and
/// one each of the run calls in every twelve, on average.
fn op() -> impl Strategy<Value = Op> {
    (0u8..12, 0u64..20, 0usize..1_000, 0u8..10, 0u64..4).prop_map(
        |(kind, span, target, roll, follow)| match kind {
            0..=3 => Op::Schedule {
                delay: span,
                action: Action {
                    cancel: (roll < 2).then_some(target),
                    follow: (roll >= 7).then_some(follow),
                },
            },
            4..=6 => Op::Cancel(target),
            7 | 8 => Op::Step,
            9 => Op::RunUntil(span),
            10 => Op::RunWindow(span),
            _ => Op::Run,
        },
    )
}

proptest! {
    #[test]
    fn engine_matches_the_reference_queue(
        ops in proptest::collection::vec(op(), 1..250),
        batching in any::<bool>(),
    ) {
        let mut sim = Sim::new(World::default());
        sim.set_batching(batching);
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Schedule { delay, action } => {
                    let id = sim.world().ids.len();
                    let eid = sim.schedule_in(SimDuration::from_nanos(delay), handler(id, action));
                    sim.world_mut().ids.push(eid);
                    model.schedule(model.now + delay, action);
                }
                Op::Cancel(target) => {
                    if model.keys.is_empty() {
                        continue;
                    }
                    let target = target % model.keys.len();
                    let eid = sim.world().ids[target];
                    prop_assert_eq!(sim.cancel(eid), model.cancel(target), "cancel of id {}", target);
                }
                Op::Step => prop_assert_eq!(sim.step(), model.step()),
                Op::RunUntil(span) => {
                    let deadline = model.now + span;
                    sim.run_until(SimTime::from_nanos(deadline));
                    model.drain_until(deadline);
                    model.now = deadline;
                }
                Op::RunWindow(span) => {
                    let end = model.now + 1 + span;
                    sim.run_window(SimTime::from_nanos(end));
                    model.drain_until(end - 1);
                }
                Op::Run => {
                    sim.run();
                    while model.step() {}
                }
            }
            prop_assert_eq!(sim.now().as_nanos(), model.now);
            prop_assert_eq!(&sim.world().log, &model.log);
            prop_assert_eq!(sim.pending_events(), model.queue.len());
            prop_assert_eq!(sim.next_event_at().map(SimTime::as_nanos), model.next_event_at());
        }
        sim.run();
        while model.step() {}
        prop_assert_eq!(&sim.world().log, &model.log);
        prop_assert_eq!(sim.pending_events(), 0);
    }
}
