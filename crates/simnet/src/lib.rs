//! Discrete-event simulator of a circuit-switched hypercube
//! multicomputer in the style of the Intel iPSC-860.
//!
//! The paper's measurements were taken on real iPSC-860 machines
//! (`bluecrab`, 32 nodes at ICASE, and `lagrange`, 128 nodes at
//! NASA-Ames). That hardware is long gone, so this crate substitutes a
//! simulator that reproduces the *mechanisms* the paper's timing model
//! abstracts (the model itself is the `mce_model` crate):
//!
//! * **circuits**: a transmission holds every directed link of its
//!   e-cube path for its entire duration (`λ + τm + δh` µs); a circuit
//!   whose path crosses a busy directed link waits — *edge contention*;
//! * **full duplex**: the two directions of a cable are independent, so
//!   crossing circuits (node contention) cost nothing, as measured in
//!   the paper;
//! * **NIC concurrency idiosyncrasy** (Section 7.2): a node's transmit
//!   and receive can only proceed concurrently when they start within a
//!   small window of each other; otherwise they serialize. Pairwise
//!   zero-byte synchronization messages align the starts;
//! * **FORCED / UNFORCED message types** (Section 7.1): a FORCED
//!   message arriving before its receive is posted is *discarded*;
//!   UNFORCED messages are buffered but pay a reserve-acknowledge
//!   round-trip beyond 100 bytes;
//! * **global synchronization** (Section 7.3): a barrier costing
//!   `150·d` µs.
//!
//! Nodes execute [`Program`]s — straight-line op lists produced by the
//! algorithm builders in `mce-core` — and the engine advances them in
//! simulated time while moving real payload bytes between node
//! memories, so a single run yields both a timing *and* a correctness
//! check.
//!
//! Internally the engine is built for throughput (it is the ceiling on
//! every figure sweep and property suite): programs are *compiled*
//! before the run so each `(src, tag)` message key becomes a dense
//! per-node slot index and every send carries a precomputed inline
//! e-cube path; circuit payloads stay *in the sender's memory* until
//! delivery (one copy, with copy-on-write materialization if a
//! delivery lands in the in-flight range); blocked transmissions sit
//! on per-link / per-NIC wait-queues so a released circuit wakes only
//! the transmissions actually blocked on it; and events of the current
//! instant bypass the pending-event heap ([`sched`]) through a FIFO.
//! See the `engine` and [`sched`] module docs for the
//! full design and the determinism-snapshot suite in `mce-core` that
//! pins its behaviour.
//!
//! The network need not be perfect: a [`NetCondition`] attached to
//! [`SimConfig::netcond`] degrades it declaratively — per-link
//! slowdown factors (uniform, per-dimension, or seeded heterogeneous),
//! dead cables (validated against the compiled program before any
//! simulated time elapses, with fault-avoiding xor-mask rerouting and
//! a typed [`SimError::Unroutable`] when no route exists), and
//! deterministic background-traffic streams that contend for links
//! with the algorithm under test. See the [`netcond`] module docs.
//!
//! Every run goes through a [`SimArena`], the one way into the engine:
//! [`SimArena::run`] for programs compiled for that run,
//! [`SimArena::run_shared`] for an `Arc`-shared program set whose
//! compilation the process-wide cache keeps, [`SimArena::run_until`]
//! for a run with a finish time to beat, and [`SimArena::run_spec`]
//! for a whole [`batch::RunSpec`] (tracing included). A one-off run is
//! `SimArena::new().run(..)`; an arena reused across runs recycles
//! its payload pools and event-queue allocations, bit-identically to
//! fresh arenas. For fan-outs of independent runs — figure grids, seed
//! sweeps, ablations — use the [`batch`] module: [`SimBatch`] runs
//! variants of one [`SimConfig`] template rayon-parallel with one
//! arena per worker. Misuse surfaces as typed [`SimError`]s
//! (`SelfSend`, `InvalidConfig`, ...), not panics: no constructor
//! asserts on its arguments, and [`SimConfig::validate`] rejects a bad
//! value before any simulated time elapses.
//!
//! # Example
//!
//! ```
//! use mce_simnet::{Op, Program, SimArena, SimConfig, Tag};
//! use mce_hypercube::NodeId;
//!
//! // Two nodes exchange 100 bytes with pairwise synchronization.
//! fn node_program(other: u32) -> Program {
//!     Program {
//!         ops: vec![
//!             Op::post_recv(NodeId(other), Tag::sync(0, 1), 0..0),
//!             Op::post_recv(NodeId(other), Tag::data(0, 1), 0..100),
//!             Op::Barrier,
//!             Op::send_sync(NodeId(other), Tag::sync(0, 1)),
//!             Op::wait_recv(NodeId(other), Tag::sync(0, 1)),
//!             Op::send(NodeId(other), 0..100, Tag::data(0, 1)),
//!             Op::wait_recv(NodeId(other), Tag::data(0, 1)),
//!         ],
//!     }
//! }
//! let cfg = SimConfig::ipsc860(1);
//! let programs = vec![node_program(1), node_program(0)];
//! let memories = vec![vec![0xAA; 100], vec![0xBB; 100]];
//! let result = SimArena::new().run(&cfg, &programs, memories).unwrap();
//! assert_eq!(result.memories[0], vec![0xBB; 100]);
//! assert_eq!(result.memories[1], vec![0xAA; 100]);
//! // Barrier (150 µs) + sync (82.5 + 10.3) + data (95 + 39.4 + 10.3).
//! assert!((result.finish_time.as_us() - 387.5).abs() < 1e-6);
//! ```

pub mod batch;
pub mod compile;
pub mod config;
pub mod conformance;
pub mod engine;
pub mod floor;
pub(crate) mod fxhash;
pub mod link;
pub mod message;
pub mod netcond;
pub mod program;
pub mod sched;
pub mod shard;
pub mod stats;
pub mod time;
pub mod trace;
pub mod traffic;

pub use batch::{SimArena, SimBatch};
pub use config::SimConfig;
pub use engine::{SimError, SimResult};
pub use floor::finish_floor;
pub use message::{MsgKind, Tag};
pub use netcond::{BackgroundStream, Cable, LinkPolicy, NetCondition, SpeedProfile};
pub use program::{Op, Program};
pub use sched::CalendarQueue;
pub use stats::{JobStats, SimStats};
pub use time::SimTime;
pub use trace::{FlowKind, TraceConfig, TraceEvent, TraceRing, WaitCause};
pub use traffic::{CwndAlg, FlowCtl, JobSpec};
