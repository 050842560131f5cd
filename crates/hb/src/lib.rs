//! The DCatch happens-before model and graph (paper §2 and §3.2).
//!
//! This crate turns a `dcatch-trace` [`TraceSet`](dcatch_trace::TraceSet)
//! into a happens-before DAG and answers concurrency queries on it. The
//! edges implement the full MTEP rule set, encoded once in `hb::rules` and
//! shared by the offline graph ([`HbAnalysis`]) and the online frontier
//! engine ([`FrontierEngine`]):
//!
//! | rule | causality |
//! |------|-----------|
//! | `Mrpc`    | `Create(r,n1) ⇒ Begin(r,n2)`, `End(r,n2) ⇒ Join(r,n1)` |
//! | `Msoc`    | `Send(m,n1) ⇒ Recv(m,n2)` |
//! | `Mpush`   | `Update(s,n1) ⇒ Pushed(s,n2)` (ZooKeeper watchers) |
//! | `Tfork`   | `Create(t) ⇒ Begin(t)` |
//! | `Tjoin`   | `End(t) ⇒ Join(t)` |
//! | `Eenq`    | `Create(e) ⇒ Begin(e)` |
//! | `Eserial` | `End(e1) ⇒ Begin(e2)` for single-consumer FIFO queues when `Create(e1) ⇒ Create(e2)`, decided when `Begin(e2)` arrives |
//! | `Preg`    | program order in regular threads |
//! | `Pnreg`   | program order *within* one handler instance only |
//!
//! (`Mpull`, the pull-based custom synchronization rule, needs program
//! analysis plus a focused second run and lives in `dcatch-detect`; it
//! feeds extra edges back into this graph via
//! [`HbAnalysis::add_edges_and_rebuild`].)
//!
//! Reachability is answered by one engine, [`ChainClocks`]:
//! chain-decomposition vector clocks, one u32 frontier per program-order
//! chain per record. That is `O(n·G)` memory over `G` chains (one per
//! thread or handler instance), and it is exact for arbitrary HB DAGs.
//! Every HB edge in a trace points from a smaller to a larger sequence
//! number, so the one forward pass that decides the edges also computes
//! every clock, and a concurrency check is two loads and a compare.
//!
//! The paper's own index (§3.2.2) is a bit-array reachable set per vertex.
//! Its memory is quadratic in the trace length, which is why DCatch's
//! *selective* tracing matters and why the unselective baseline of
//! Table 8 runs out of memory. Only its size formula remains here,
//! [`BitMatrix::estimated_bytes`], so Table 8 can still state that
//! verdict. [`HbError::OutOfMemory`] is returned when the clock index
//! itself exceeds [`HbConfig::memory_budget_bytes`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ablation;
mod bitmatrix;
mod chainclocks;
mod graph;
mod rules;
mod streaming;
mod vectorclock;

pub use ablation::{apply_ablation, Ablation};
pub use bitmatrix::BitMatrix;
pub use chainclocks::ChainClocks;
pub use graph::{EdgeRule, HbAnalysis, HbConfig, HbError};
pub use streaming::{Arrival, FrontierEngine, FrontierOptions};
pub use vectorclock::VectorClocks;
