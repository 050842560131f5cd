//! Online happens-before: incremental frontier clocks over a record stream.
//!
//! The batch engine ([`HbAnalysis`](crate::HbAnalysis)) materializes the
//! whole trace and a reachability index before the first query. This module
//! answers the only query streaming detection needs — *is the record that
//! just arrived ordered after a given earlier record?* — with state
//! proportional to the number of **live** program-order chains, not to the
//! trace length:
//!
//! * every `(task, ctx)` chain owns a *slot* with a monotone 1-based
//!   position counter and a frontier clock (`frontier[c]` = how far into
//!   slot `c`'s chain this chain's latest record can reach);
//! * each MTEP edge becomes a *join* performed when its **target** record
//!   arrives, decided by the same `hb::rules` code the offline graph
//!   uses, with clock snapshots as cause payloads. Since every HB edge
//!   points forward in sequence order, the clock of a record is complete
//!   the moment it arrives — reachability *into* the new record can never
//!   change later, which is what makes the one-sided online concurrency
//!   test exact;
//! * edge sources whose targets have not arrived yet are held by the rules
//!   as pending *causes* keyed by [`CauseKey`]; the simulator's
//!   [`StreamControl::CauseFanout`]/[`CauseDropped`](StreamControl::CauseDropped)
//!   notifications say when a cause can be discarded;
//! * `Eserial` is decided in arrival order, exactly as offline: when
//!   `Begin(e2)` arrives, every already-*ended* event `e1` of the same
//!   single-consumer queue is tested with
//!   `clock(Create(e2))[Create(e1)] ≥ pos(Create(e1))`.
//!
//! **Retirement.** [`FrontierEngine::lower_bound`] returns the elementwise
//! minimum `L` over every clock that can still flow into a future record:
//! live chain frontiers and pending cause clocks. Any record at `(c, p)`
//! with `L[c] ≥ p` is *covered by every future record* and can never form a
//! race again — the window holding still-raceable accesses may drop it, and
//! [`FrontierEngine::retire`] recycles fully covered slots (position
//! counters survive recycling, so `(slot, pos)` stays a unique identity).
//! Entry tasks announced by [`StreamControl::TaskStarted`] block retirement
//! with an implicit all-zero clock until their first record arrives. When
//! the fault plan can crash nodes, retirement must be disabled
//! ([`FrontierOptions::allow_retirement`]): a `NodeCrash` record is a
//! spontaneous causal root joining *every* chain of the node, so no window
//! closure before it is provable.

use std::collections::{BTreeMap, BTreeSet};

use dcatch_model::NodeId;
use dcatch_trace::{CauseKey, ExecCtx, QueueInfo, Record, StreamControl, TaskId};

use crate::rules::{Builder, QueueKey, Rules, Source};
use crate::EdgeRule;

/// Configuration for [`FrontierEngine`].
#[derive(Debug, Clone)]
pub struct FrontierOptions {
    /// Derive `Eserial` edges natively while streaming. The loop-sync
    /// second pass disables this and replays the first pass's edges via
    /// [`FrontierEngine::inject_eserial`] instead, mirroring the batch
    /// pipeline (which never re-derives `Eserial` after
    /// `add_edges_and_rebuild`).
    pub eserial: bool,
    /// Allow [`lower_bound`](FrontierEngine::lower_bound) to prove window
    /// closures. Must be `false` when the fault plan contains node crashes
    /// (see the module docs).
    pub allow_retirement: bool,
}

impl Default for FrontierOptions {
    fn default() -> Self {
        FrontierOptions {
            eserial: true,
            allow_retirement: true,
        }
    }
}

/// Where a record landed: its chain's slot and 1-based position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Slot index of the record's `(task, ctx)` chain.
    pub chain: u32,
    /// Position within the slot (monotone across slot recycling).
    pub pos: u32,
}

#[derive(Debug)]
struct Slot {
    /// `frontier[c]` = latest position of slot `c` this chain reaches.
    frontier: Vec<u32>,
    /// Last position handed out; never reset, even when recycled.
    pos: u32,
    /// Sequence number of the chain's latest record.
    last_seq: Option<u64>,
    key: Option<(TaskId, ExecCtx)>,
    live: bool,
    ended: bool,
}

/// A record's clock snapshot: the online cause payload.
#[derive(Debug, Clone)]
struct Snap {
    /// `(slot, pos)` of the source record.
    id: (u32, u32),
    clock: Vec<u32>,
}

impl Source for Snap {
    type Id = (u32, u32);
    fn id(&self) -> (u32, u32) {
        self.id
    }
}

/// Whether every future record covers `(slot, pos)` under `bound`.
fn covered(bound: &[u32], (slot, pos): (u32, u32)) -> bool {
    bound.get(slot as usize).copied().unwrap_or(0) >= pos
}

/// The online happens-before engine. Feed it every [`Record`] and
/// [`StreamControl`] of one streamed run, in arrival order.
#[derive(Debug, Default)]
pub struct FrontierEngine {
    opts: FrontierOptions,
    slots: Vec<Slot>,
    free: Vec<u32>,
    registry: BTreeMap<(TaskId, ExecCtx), u32>,
    /// Entry tasks announced but not yet emitting: implicit zero clocks.
    pending_tasks: BTreeSet<TaskId>,
    queues: BTreeMap<QueueKey, QueueInfo>,
    event_queue: BTreeMap<u64, QueueKey>,
    rules: Rules<Snap>,
}

fn join_clock(dst: &mut Vec<u32>, src: &[u32]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        if *s > *d {
            *d = *s;
        }
    }
}

impl FrontierEngine {
    /// Creates an engine.
    pub fn new(opts: FrontierOptions) -> FrontierEngine {
        FrontierEngine {
            rules: Rules::new(opts.eserial),
            opts,
            ..FrontierEngine::default()
        }
    }

    /// Replays `End(e1) ⇒ Begin(e2)` pairs derived by an earlier pass
    /// (second loop-sync run; see [`FrontierOptions::eserial`]).
    pub fn inject_eserial(&mut self, pairs: &[(u64, u64)]) {
        self.rules.replay_eserial(pairs);
    }

    /// Number of slots allocated so far (live + recyclable).
    pub fn chains(&self) -> usize {
        self.slots.len()
    }

    /// The current frontier clock of `chain` — for the record that just
    /// arrived there, this is its exact reachability-into set.
    pub fn clock(&self, chain: u32) -> &[u32] {
        &self.slots[chain as usize].frontier
    }

    /// Joins an externally derived clock (an injected loop-sync edge) into
    /// the chain of the record that just arrived.
    pub fn join(&mut self, at: Arrival, clock: &[u32]) {
        join_clock(&mut self.slots[at.chain as usize].frontier, clock);
    }

    /// `(e1, e2)` `Eserial` pairs derived natively so far.
    pub fn eserial_edges(&self) -> &[(u64, u64)] {
        self.rules.eserial_log()
    }

    /// Rough resident-memory estimate of the engine state, in bytes.
    pub fn bytes(&self) -> usize {
        let clock = |c: &Vec<u32>| 4 * c.capacity() + 24;
        let rules = &self.rules;
        let mut b = 0usize;
        for s in &self.slots {
            b += clock(&s.frontier) + 64;
        }
        for c in rules.causes.values() {
            b += clock(&c.src.clock) + 80;
        }
        for e in rules.ended.values().flatten() {
            b += clock(&e.end.clock) + 64;
        }
        for s in rules.thread_end.values() {
            b += clock(&s.clock) + 48;
        }
        for (_, s) in rules.restarts.values().flatten() {
            b += clock(&s.clock) + 48;
        }
        b += 96 * (rules.open_events() + self.event_queue.len() + self.queues.len());
        b += 48 * (self.registry.len() + self.free.len() + self.pending_tasks.len());
        for s in rules.replay_ends.values() {
            b += clock(&s.clock);
        }
        b
    }

    /// Processes one out-of-band notification.
    pub fn control(&mut self, control: &StreamControl) {
        match control {
            StreamControl::RegisterQueue { node, queue, info } => {
                self.queues.insert((node.0, queue.clone()), *info);
            }
            StreamControl::RegisterEvent { event, node, queue } => {
                self.event_queue.insert(*event, (node.0, queue.clone()));
            }
            StreamControl::TaskStarted { task } => {
                if !self.registry.contains_key(&(*task, ExecCtx::Regular)) {
                    self.pending_tasks.insert(*task);
                }
            }
            StreamControl::ChainDone { task, ctx } => {
                if let Some(&s) = self.registry.get(&(*task, *ctx)) {
                    self.slots[s as usize].ended = true;
                } else {
                    // the chain never emitted: clear its blockers — the
                    // boot placeholder, and (for a thread killed before
                    // its first step) the pending fork cause
                    self.pending_tasks.remove(task);
                    self.rules.drop_cause(&CauseKey::ThreadBegin(*task));
                }
            }
            StreamControl::CauseFanout { key, copies } => self.rules.fanout(key, *copies),
            StreamControl::CauseDropped { key } => self.rules.drop_cause(key),
        }
    }

    /// Processes one trace record; returns where it landed. The returned
    /// arrival's clock ([`clock`](Self::clock)) is final.
    pub fn record(&mut self, r: &Record) -> Arrival {
        let chain = self.chain_for(r.task, r.ctx);
        let ci = chain as usize;
        // program order: tick own position
        let s = &mut self.slots[ci];
        s.pos += 1;
        if s.frontier.len() <= ci {
            s.frontier.resize(ci + 1, 0);
        }
        s.frontier[ci] = s.pos;
        let pos = s.pos;
        let prev_seq = s.last_seq.replace(r.seq);
        let mut b = Online {
            slots: &mut self.slots,
            registry: &self.registry,
            queues: &self.queues,
            event_queue: &mut self.event_queue,
            chain,
            prev_seq,
        };
        self.rules.apply(r, &mut b);
        Arrival { chain, pos }
    }

    fn chain_for(&mut self, task: TaskId, ctx: ExecCtx) -> u32 {
        if let Some(&s) = self.registry.get(&(task, ctx)) {
            return s;
        }
        self.pending_tasks.remove(&task);
        let id = match self.free.pop() {
            Some(id) => {
                let s = &mut self.slots[id as usize];
                debug_assert!(!s.live);
                s.live = true;
                s.ended = false;
                s.last_seq = None;
                s.key = Some((task, ctx));
                id
            }
            None => {
                self.slots.push(Slot {
                    frontier: Vec::new(),
                    pos: 0,
                    last_seq: None,
                    key: Some((task, ctx)),
                    live: true,
                    ended: false,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.registry.insert((task, ctx), id);
        id
    }

    /// The retirement bound `L`: `L[c] ≥ p` proves record `(c, p)` is
    /// covered by **every** record yet to arrive. `None` when retirement is
    /// disabled or an announced entry task has not emitted yet (its clock
    /// is all-zero, so nothing would retire anyway).
    pub fn lower_bound(&self) -> Option<Vec<u32>> {
        if !self.opts.allow_retirement || !self.pending_tasks.is_empty() {
            return None;
        }
        let mut l = vec![u32::MAX; self.slots.len()];
        let mut clamp = |clock: &[u32]| {
            for (i, v) in l.iter_mut().enumerate() {
                let c = clock.get(i).copied().unwrap_or(0);
                if c < *v {
                    *v = c;
                }
            }
        };
        for s in self.slots.iter().filter(|s| s.live && !s.ended) {
            clamp(&s.frontier);
        }
        for c in self.rules.causes.values() {
            clamp(&c.src.clock);
        }
        Some(l)
    }

    /// Drops engine state the bound proves dead: ended `Eserial` sources
    /// and `Tjoin` sources whose record every future record covers, and
    /// slots of ended chains that are fully covered (their id goes back on
    /// the free list; the position counter keeps counting, so old
    /// `(slot, pos)` identities stay unique).
    pub fn retire(&mut self, bound: &[u32]) {
        let rules = &mut self.rules;
        for list in rules.ended.values_mut() {
            list.retain(|e| !covered(bound, e.end.id));
        }
        rules.ended.retain(|_, list| !list.is_empty());
        rules.thread_end.retain(|_, s| !covered(bound, s.id));
        for (id, s) in self.slots.iter_mut().enumerate() {
            if s.live && s.ended && covered(bound, (id as u32, s.pos)) {
                s.live = false;
                s.frontier = Vec::new();
                if let Some(key) = s.key.take() {
                    self.registry.remove(&key);
                }
                self.free.push(id as u32);
            }
        }
    }
}

/// The frontier engine as the rules see it: cause sources are clock
/// snapshots, and the record being applied is the latest on `chain`.
struct Online<'a> {
    slots: &'a mut [Slot],
    registry: &'a BTreeMap<(TaskId, ExecCtx), u32>,
    queues: &'a BTreeMap<QueueKey, QueueInfo>,
    event_queue: &'a mut BTreeMap<u64, QueueKey>,
    chain: u32,
    /// Sequence number of the chain's previous record.
    prev_seq: Option<u64>,
}

impl Builder for Online<'_> {
    type Src = Snap;

    fn source(&mut self) -> Snap {
        let s = &self.slots[self.chain as usize];
        Snap {
            id: (self.chain, s.pos),
            clock: s.frontier.clone(),
        }
    }

    fn join(&mut self, src: &Snap, _rule: EdgeRule) {
        join_clock(&mut self.slots[self.chain as usize].frontier, &src.clock);
    }

    fn reaches(&self, (slot, pos): (u32, u32), b: &Snap) -> bool {
        b.clock.get(slot as usize).copied().unwrap_or(0) >= pos
    }

    fn join_node(&mut self, node: NodeId) {
        let ci = self.chain as usize;
        for (&(t, _), &s) in self.registry {
            if t.node == node && s != self.chain {
                let f = std::mem::take(&mut self.slots[s as usize].frontier);
                join_clock(&mut self.slots[ci].frontier, &f);
                self.slots[s as usize].frontier = f;
            }
        }
    }

    fn first_in_group_after(&self, seq: u64) -> bool {
        self.prev_seq.is_none_or(|p| p < seq)
    }

    fn serial_queue(&mut self, event: u64) -> Option<QueueKey> {
        let queue = self.event_queue.remove(&event)?;
        let single = self
            .queues
            .get(&queue)
            .is_some_and(|q| q.is_single_consumer());
        single.then_some(queue)
    }
}

#[cfg(test)]
mod tests;
