//! The MTEP happens-before rules (paper §2, §3.2), encoded once.
//!
//! [`Rules::apply`] maps one trace record, in arrival (sequence) order, to
//! its MTEP predecessors and hands each to a [`Builder`] as a join. Both
//! HB builders consume it: [`HbAnalysis::build`](crate::HbAnalysis::build)
//! with record indices as cause payloads, and
//! [`FrontierEngine::record`](crate::FrontierEngine::record) with clock
//! snapshots. Program order (`Preg`/`Pnreg`) is each builder's chain
//! structure and is not decided here. Every rule resolves when its target
//! record arrives; because every HB edge points forward in sequence order,
//! reachability *into* a record is final at that moment:
//!
//! | rule | source opens | target closes |
//! |------|--------------|---------------|
//! | `Tfork` | `ThreadCreate(t)` | first `ThreadBegin` of `t` |
//! | `Tjoin` | `ThreadEnd` of `t` (latest so far) | every `ThreadJoin(t)` |
//! | `Eenq` | `EventCreate(e)` | `EventBegin(e)` |
//! | `Mrpc` | `RpcCreate(r)`, `RpcEnd(r)` (latest so far) | `RpcBegin(r)`, `RpcJoin(r)` |
//! | `Msoc` | `SocketSend(m)` | `SocketRecv(m)` |
//! | `Mpush` | `ZkUpdate(p, v)` | `ZkPushed(p, v)` |
//! | `Crash` | the latest record of every group on the node | `NodeCrash` |
//! | `Crash` | `NodeRestart` | the first record of every other group of the node after it |
//! | `Eserial` | `EventEnd(e1)` | `EventBegin(e2)`, same single-consumer queue, `Create(e1) ⇒ Create(e2)` |
//!
//! `Eserial` is decided in arrival order: when `Begin(e2)` arrives, it is
//! ordered after every already-ended event `e1` of its queue whose create
//! reaches `Create(e2)`. Reachability into `Create(e2)` only depends on
//! edges whose targets precede it, all decided earlier, so by induction
//! over sequence order this is the whole-trace fixed point in one pass.

use std::collections::{BTreeMap, BTreeSet};

use dcatch_model::NodeId;
use dcatch_trace::{CauseKey, OpKind, Record, TaskId};

use crate::EdgeRule;

/// A single-consumer event queue: `(node, name)`.
pub(crate) type QueueKey = (u32, String);

/// A cause payload: what a builder keeps of a source record.
pub(crate) trait Source: Clone {
    /// The record's identity, for the `Eserial` reachability test.
    type Id: Copy + PartialEq;
    /// Identity of the source record.
    fn id(&self) -> Self::Id;
}

/// Record indices are their own identity (the offline graph).
impl Source for u32 {
    type Id = u32;
    fn id(&self) -> u32 {
        *self
    }
}

/// The primitives an HB builder gives the rules, for the record being
/// applied.
pub(crate) trait Builder {
    /// Payload stored for a cause source.
    type Src: Source;
    /// The record being applied, as the source of later edges.
    fn source(&mut self) -> Self::Src;
    /// Orders the record being applied after `src`.
    fn join(&mut self, src: &Self::Src, rule: EdgeRule);
    /// Whether record `a` happens before (or is) the already-applied
    /// record `b`.
    fn reaches(&self, a: <Self::Src as Source>::Id, b: &Self::Src) -> bool;
    /// `NodeCrash`: orders the record being applied after the latest
    /// record of every other program-order group of `node`.
    fn join_node(&mut self, node: NodeId);
    /// Whether the record being applied is its group's first record after
    /// sequence number `seq`.
    fn first_in_group_after(&self, seq: u64) -> bool;
    /// The single-consumer queue `event` was placed on, if any.
    fn serial_queue(&mut self, event: u64) -> Option<QueueKey>;
}

/// A cause source awaiting its target(s).
#[derive(Debug)]
pub(crate) struct Cause<S> {
    pub(crate) src: S,
    /// Remaining deliveries. `None` = unknown (network sends announce
    /// their fan-out after the record; offline, never announced).
    refs: Option<u32>,
}

/// A begun single-consumer event awaiting its `EventEnd`.
#[derive(Debug)]
struct Open<I> {
    queue: QueueKey,
    create: I,
}

/// An ended single-consumer event — an eligible `Eserial` source.
#[derive(Debug)]
pub(crate) struct Ended<S: Source> {
    event: u64,
    create: S::Id,
    pub(crate) end: S,
}

/// Per-run MTEP rule state, generic over the builder's cause payload.
#[derive(Debug)]
pub(crate) struct Rules<S: Source> {
    /// Derive `Eserial` natively (`false` in the loop-sync second pass,
    /// which replays the first pass's pairs instead).
    derive_eserial: bool,
    pub(crate) causes: BTreeMap<CauseKey, Cause<S>>,
    /// Latest `ThreadEnd` per task, the `Tjoin` source.
    pub(crate) thread_end: BTreeMap<TaskId, S>,
    /// Every `NodeRestart` so far per node, with its sequence number.
    pub(crate) restarts: BTreeMap<NodeId, Vec<(u64, S)>>,
    open: BTreeMap<u64, Open<S::Id>>,
    pub(crate) ended: BTreeMap<QueueKey, Vec<Ended<S>>>,
    /// `(e1, e2)` pairs derived natively so far.
    eserial_log: Vec<(u64, u64)>,
    // --- replayed Eserial pairs (loop-sync second pass) ---
    replay_sources: BTreeSet<u64>,
    replay_targets: BTreeMap<u64, Vec<u64>>,
    pub(crate) replay_ends: BTreeMap<u64, S>,
}

impl<S: Source> Default for Rules<S> {
    fn default() -> Rules<S> {
        Rules::new(true)
    }
}

impl<S: Source> Rules<S> {
    /// Creates empty rule state.
    pub(crate) fn new(derive_eserial: bool) -> Rules<S> {
        Rules {
            derive_eserial,
            causes: BTreeMap::new(),
            thread_end: BTreeMap::new(),
            restarts: BTreeMap::new(),
            open: BTreeMap::new(),
            ended: BTreeMap::new(),
            eserial_log: Vec::new(),
            replay_sources: BTreeSet::new(),
            replay_targets: BTreeMap::new(),
            replay_ends: BTreeMap::new(),
        }
    }

    /// Replays `End(e1) ⇒ Begin(e2)` pairs derived by an earlier pass.
    pub(crate) fn replay_eserial(&mut self, pairs: &[(u64, u64)]) {
        for &(e1, e2) in pairs {
            self.replay_sources.insert(e1);
            self.replay_targets.entry(e2).or_default().push(e1);
        }
    }

    /// `(e1, e2)` `Eserial` pairs derived natively so far.
    pub(crate) fn eserial_log(&self) -> &[(u64, u64)] {
        &self.eserial_log
    }

    /// Number of begun, not yet ended, single-consumer events.
    pub(crate) fn open_events(&self) -> usize {
        self.open.len()
    }

    /// Adds `copies` announced deliveries to a pending cause; a total of
    /// zero discards it.
    pub(crate) fn fanout(&mut self, key: &CauseKey, copies: u32) {
        if let Some(c) = self.causes.get_mut(key) {
            let total = c.refs.unwrap_or(0) + copies;
            if total == 0 {
                self.causes.remove(key);
            } else {
                c.refs = Some(total);
            }
        }
    }

    /// One pending delivery of `key` was lost.
    pub(crate) fn drop_cause(&mut self, key: &CauseKey) {
        if let Some(c) = self.causes.get_mut(key) {
            match c.refs {
                Some(n) if n > 1 => c.refs = Some(n - 1),
                _ => {
                    self.causes.remove(key);
                }
            }
        }
    }

    /// Applies the MTEP rules to `r`, the record `b` is building. Joins
    /// are issued in the fixed rule order Tfork, Tjoin, Eenq, Mrpc, Msoc,
    /// Mpush, Crash, Eserial: the offline graph keeps the first rule that
    /// orders a pair and lists predecessors in this order, which
    /// `explain` and trigger placement's ancestor walk follow.
    pub(crate) fn apply<B: Builder<Src = S>>(&mut self, r: &Record, b: &mut B) {
        let mut begun = None;
        match &r.kind {
            OpKind::ThreadCreate { child } => self.open(b, CauseKey::ThreadBegin(*child), Some(1)),
            OpKind::ThreadBegin => {
                self.close(b, &CauseKey::ThreadBegin(r.task), EdgeRule::Fork);
            }
            OpKind::ThreadEnd => {
                let src = b.source();
                self.thread_end.insert(r.task, src);
            }
            OpKind::ThreadJoin { child } => {
                if let Some(src) = self.thread_end.get(child) {
                    b.join(src, EdgeRule::Join);
                }
            }
            OpKind::EventCreate { event } => self.open(b, CauseKey::EventBegin(event.0), Some(1)),
            OpKind::EventBegin { event } => {
                let create = self.close(b, &CauseKey::EventBegin(event.0), EdgeRule::Eenq);
                begun = Some((event.0, create));
            }
            OpKind::EventEnd { event } => self.event_end(b, event.0),
            OpKind::RpcCreate { rpc } => self.open(b, CauseKey::RpcBegin(rpc.0), None),
            OpKind::RpcBegin { rpc } => {
                self.close(b, &CauseKey::RpcBegin(rpc.0), EdgeRule::Mrpc);
            }
            OpKind::RpcEnd { rpc } => self.open(b, CauseKey::RpcJoin(rpc.0), None),
            OpKind::RpcJoin { rpc } => {
                self.close(b, &CauseKey::RpcJoin(rpc.0), EdgeRule::Mrpc);
            }
            OpKind::SocketSend { msg } => self.open(b, CauseKey::SocketRecv(msg.0), None),
            OpKind::SocketRecv { msg } => {
                self.close(b, &CauseKey::SocketRecv(msg.0), EdgeRule::Msoc);
            }
            OpKind::ZkUpdate { path, version } => {
                self.open(b, CauseKey::ZkPushed(path.clone(), *version), None);
            }
            OpKind::ZkPushed { path, version } => {
                let key = CauseKey::ZkPushed(path.clone(), *version);
                self.close(b, &key, EdgeRule::Mpush);
            }
            OpKind::NodeCrash { node } => b.join_node(*node),
            OpKind::NodeRestart { node } => {
                let src = b.source();
                self.restarts.entry(*node).or_default().push((r.seq, src));
            }
            // memory, locks, loop markers, RPC timeouts: program order only
            OpKind::MemRead { .. }
            | OpKind::MemWrite { .. }
            | OpKind::LockAcquire { .. }
            | OpKind::LockRelease { .. }
            | OpKind::LoopEnter { .. }
            | OpKind::LoopExit { .. }
            | OpKind::RpcTimeout { .. } => {}
        }
        if let Some(restarts) = self.restarts.get(&r.task.node) {
            for (seq, src) in restarts {
                if *seq < r.seq && b.first_in_group_after(*seq) {
                    b.join(src, EdgeRule::Crash);
                }
            }
        }
        if let Some((event, create)) = begun {
            self.event_begin(b, event, create);
        }
    }

    /// Makes the record being applied the source of `key`. A repeated
    /// source (a duplicated request's second reply) replaces the earlier
    /// one; pending deliveries carry over.
    fn open<B: Builder<Src = S>>(&mut self, b: &mut B, key: CauseKey, refs: Option<u32>) {
        let src = b.source();
        match self.causes.entry(key) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().src = src,
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Cause { src, refs });
            }
        }
    }

    /// Joins `key`'s source into the record being applied under `rule`
    /// and consumes one delivery. Returns the source when that delivery
    /// was its last — always so for the single-delivery fork and enqueue
    /// keys, whose source `Eserial` needs.
    fn close<B: Builder<Src = S>>(
        &mut self,
        b: &mut B,
        key: &CauseKey,
        rule: EdgeRule,
    ) -> Option<S> {
        let c = self.causes.get_mut(key)?;
        b.join(&c.src, rule);
        match c.refs {
            Some(n) if n > 1 => {
                c.refs = Some(n - 1);
                None
            }
            Some(_) => self.causes.remove(key).map(|c| c.src),
            None => None,
        }
    }

    /// `EventBegin(e2)`: the arrival-order `Eserial` test against every
    /// ended event of the same single-consumer queue, or the replay of
    /// pairs decided by an earlier pass.
    fn event_begin<B: Builder<Src = S>>(&mut self, b: &mut B, event: u64, create: Option<S>) {
        let queue = b.serial_queue(event);
        if let (Some(create), Some(queue)) = (create, queue) {
            if self.derive_eserial {
                if let Some(list) = self.ended.get(&queue) {
                    for e in list {
                        if e.create != create.id() && b.reaches(e.create, &create) {
                            b.join(&e.end, EdgeRule::Eserial);
                            self.eserial_log.push((e.event, event));
                        }
                    }
                }
            }
            let create = create.id();
            self.open.insert(event, Open { queue, create });
        }
        if let Some(sources) = self.replay_targets.get(&event) {
            for e1 in sources {
                if let Some(end) = self.replay_ends.get(e1) {
                    b.join(end, EdgeRule::Eserial);
                }
            }
        }
    }

    fn event_end<B: Builder<Src = S>>(&mut self, b: &mut B, event: u64) {
        if let Some(open) = self.open.remove(&event) {
            let end = b.source();
            self.ended.entry(open.queue).or_default().push(Ended {
                event,
                create: open.create,
                end,
            });
        }
        if self.replay_sources.contains(&event) {
            let end = b.source();
            self.replay_ends.insert(event, end);
        }
    }
}
