//! Deterministic subcube sharding for the simulation engine.
//!
//! At d11–d12 (2048–4096 nodes) a single event loop over the whole
//! cube is the bottleneck of every sweep: the working set (node
//! memories, the flat slot table, the link occupancy table, the
//! event heap) is tens to hundreds of megabytes and every event
//! touches a pseudo-random corner of it. Sharding splits one run into
//! `2^k` *subcube shards* so that, for the phases that allow it, each
//! shard advances on state that fits in cache — and, on a multicore
//! host, on its own worker thread.
//!
//! # Partitioning rule
//!
//! A `ShardPlan` names `k` node-address bits (`dims`); node `x`
//! belongs to the shard selected by the values of those bits. Each
//! shard then owns a subcube of `2^(d-k)` nodes — contiguous when the
//! plan uses the top `k` bits, an interleaved coset otherwise — and
//! e-cube routes between two nodes of the same shard stay inside the
//! shard as long as the route's mask `src ^ dst` avoids the plan's
//! bits (e-cube correction never sets a bit outside `src ^ dst`).
//!
//! The axis is chosen *per phase*: at every barrier the driver knows
//! the union of the phase's send masks (precomputed at compile time),
//! and any `k` address bits outside that union are a valid shard axis.
//! A multiphase exchange that routes its top bits in phase 1 and its
//! low bits in phase 2 is therefore windowable in *both* phases —
//! phase 1 shards on low bits, phase 2 on top bits. Top bits are
//! preferred among the free ones, so whenever the classic
//! top-`k`-bit layout works it is the one used.
//!
//! # Window semantics
//!
//! The engine's programs are barrier-phased, and at every barrier
//! boundary the system is *quiescent*: no live circuits, no pending
//! retries, no in-flight payloads. The driver exploits exactly that
//! lookahead. It runs the master engine to each barrier boundary,
//! folds the current phase's precomputed send-mask union over the
//! nodes, and picks the phase's execution mode:
//!
//! * **Windowed** — at least one address bit is free of the phase's
//!   send masks (and no UNFORCED payload is buffered across the
//!   boundary): the cube is split into up to `2^k` per-shard runtimes
//!   (as many as the free bits allow, capped by the configured
//!   count) —
//!   shard-local nodes, memories, a packed shard-local slot table and
//!   a private `Scheduler` — which drain the whole phase concurrently
//!   (vendored rayon workers) and merge back in shard-index order at
//!   the barrier.
//! * **Global** — the phase's sends touch every candidate axis: the
//!   master runtime drains the phase itself, bit-for-bit. The
//!   driver counts these in `shard_barrier_stalls` /
//!   `shard_cross_events` (cross sends under the default top-bit
//!   layout).
//!
//! The barrier itself is coordinated by the driver: shards report how
//! many nodes entered and the latest entry time; the release is
//! `max(entry) + barrier_ns`, with release wakes seeded in node order
//! — exactly what the sequential barrier handler does.
//!
//! # Determinism guarantee
//!
//! Sharded runs are **bit-identical** to `shards: 1` (pinned by the
//! determinism-snapshot suite and `shard_differential.rs`), for every
//! workload the gate admits, synchronized or not. Nothing is checked at
//! run time and nothing is rerun: each shard's event order is fixed by
//! its own inputs. The argument:
//!
//! * Within a windowed phase every transmission stays inside one shard
//!   (source, destination and every link of its e-cube route), so
//!   events of different shards touch disjoint state: nodes, memories,
//!   slots, links and their wait lists, NIC intervals and their
//!   watchers. The argument never uses contiguity, so it covers
//!   interleaved-coset shards unchanged.
//! * Same-instant events of *one* shard keep their relative
//!   `(time, seq)` order under the per-shard scheduler: sequence
//!   numbers follow push order, and an event lands in the same-instant
//!   FIFO exactly when its own shard's handler pushes it for the
//!   instant being drained.
//! * The pending scan is the one structure every handler shares. Each
//!   handler that dirties a transmission (an issue, a requeue, a
//!   release's wake-up) then scans in passes until nothing is dirty, a
//!   wake-up caused by a start mid-pass included (debug builds assert
//!   the set empty before every event). So a handler only ever retries
//!   transmissions it woke itself, all of its own shard, in queue
//!   order — and queue sequence numbers, like event ones, keep their
//!   relative order within a shard.
//! * No wake-up comes from the passage of time alone. The NIC window
//!   blocks a start only on an interval still open at that instant
//!   (`end > t`), and an interval closes in exactly one place —
//!   `release_nic`, called by the `TransmissionEnd` its start queued for
//!   `end`, at `end` (debug builds assert `end == t`) — which wakes the
//!   watchers of that NIC and scans. So a transmission blocked by the
//!   window is retried by the handler that closes the blocking
//!   interval: an event of its own shard, at the first instant it can
//!   start.
//!
//! Both rules matter. A heap of time-lapse wake-ups for NIC-blocked
//! transmissions, or a mid-pass wake left for whichever handler scans
//! next, would let a *foreign* handler of the sequential run retry a
//! shard's transmission earlier within an instant than the shard's own
//! run does (`a_wake_is_retried_by_the_handler_that_caused_it` in
//! `shard_differential.rs` fails with a single-pass scan).
//!
//! Sharding engages only where that argument holds (see `eligible`):
//! circuit switching, zero jitter, no network conditions, a single
//! job, tracing off and no bound. Every other run — store-and-forward,
//! jittered, conditioned, multi-tenant, traced or bounded — is the same
//! driver holding no barrier: the master runtime drains the whole run
//! in one go, which is the sequential engine. Two
//! documented blemishes remain on *failed* runs: deadlock reports may
//! name shard-local transmission ids, and when several shards fail in
//! the same window the first error in shard order (not simulated-time
//! order) is reported.
//!
//! # Telemetry
//!
//! [`SimStats`](crate::SimStats) reports `shard_windows` (phases run
//! windowed), `shard_barrier_stalls` (phases forced global),
//! `shard_cross_events` (cross-shard sends in those phases) and
//! `shard_peak_pending` (largest per-shard event-queue peak). The
//! `sched_*` telemetry keeps describing the queues actually used, so
//! it legitimately differs from a sequential run; all simulation
//! observables (times, memories, event counters, marks) do not.

use crate::config::{SimConfig, SwitchingMode};

/// The shard layout of one windowed phase: how many shards, and which
/// node-address bits select a node's shard. Crate-private: its
/// constructors trust their shard count to be one
/// [`SimConfig::validate`] accepted (a power of two, at most `2^d`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardPlan {
    /// Number of shards (`2^k`).
    pub(crate) count: u32,
    /// Bitmask over node-address bits: the values of these `k` bits
    /// form the shard index (in ascending bit order).
    pub(crate) dims: u32,
}

impl ShardPlan {
    /// The default layout for `shards` (a power of two, validated by
    /// [`SimConfig::validate`]) on a `d`-cube: the top `k` address
    /// bits, giving contiguous shards.
    pub(crate) fn new(d: u32, shards: u32) -> Self {
        let k = shards.trailing_zeros();
        debug_assert!(shards.is_power_of_two() && k <= d);
        let dims = if k == 0 { 0 } else { ((shards - 1) << (d - k)) & cube_mask(d) };
        ShardPlan { count: shards, dims }
    }

    /// A layout whose axis avoids every bit of `used`: the top free
    /// bits of the `d`-cube. `shards` is an upper bound — when fewer
    /// bits are free than the configured `k`, the phase still windows
    /// on as many shards as its traffic allows (`2^free`); `None` only
    /// when no bit is free at all (every axis would be crossed, so the
    /// phase must run globally). Preferring top bits keeps the classic
    /// contiguous layout whenever it is valid.
    pub(crate) fn avoiding(d: u32, shards: u32, used: u32) -> Option<Self> {
        debug_assert!(shards.is_power_of_two() && shards.trailing_zeros() <= d);
        let mut free = cube_mask(d) & !used;
        let k = shards.trailing_zeros().min(free.count_ones());
        if k == 0 {
            return None;
        }
        // Drop low free bits until exactly k remain.
        while free.count_ones() > k {
            free &= free - 1;
        }
        Some(ShardPlan { count: 1 << k, dims: free })
    }

    /// Shard owning node `x`: the plan's address bits of `x`, packed
    /// in ascending bit order.
    #[inline]
    pub(crate) fn shard_of(&self, x: u32) -> u32 {
        let mut out = 0;
        let mut next = 0;
        let mut dims = self.dims;
        while dims != 0 {
            let b = dims.trailing_zeros();
            out |= ((x >> b) & 1) << next;
            next += 1;
            dims &= dims - 1;
        }
        out
    }

    /// Number of nodes per shard on a `d`-cube.
    pub(crate) fn nodes_per_shard(&self, d: u32) -> usize {
        (1usize << d) / self.count as usize
    }

    /// Fill `out` with shard `s`'s nodes in ascending address order.
    pub(crate) fn nodes_of(&self, d: u32, s: u32, out: &mut Vec<u32>) {
        out.clear();
        let free = cube_mask(d) & !self.dims;
        let base = deposit(s, self.dims);
        let per = self.nodes_per_shard(d) as u32;
        for j in 0..per {
            out.push(base | deposit(j, free));
        }
    }
}

/// All `d` address bits of a `d`-cube.
#[inline]
fn cube_mask(d: u32) -> u32 {
    if d >= 32 {
        u32::MAX
    } else {
        (1u32 << d) - 1
    }
}

/// Scatter the low bits of `v` onto the set bits of `mask` (software
/// PDEP), preserving order — monotone in `v` for a fixed mask.
#[inline]
fn deposit(v: u32, mask: u32) -> u32 {
    let mut out = 0;
    let mut next = 0;
    let mut m = mask;
    while m != 0 {
        let b = m.trailing_zeros();
        out |= ((v >> next) & 1) << b;
        next += 1;
        m &= m - 1;
    }
    out
}

/// Execution mode of one barrier-delimited phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseMode {
    /// Some `k` address bits avoid every send mask of the phase:
    /// shards advance concurrently under the carried plan.
    Windowed(ShardPlan),
    /// The phase's sends cover every candidate axis (or a buffered
    /// payload carries over): the phase runs on the sequential engine.
    Global {
        /// Sends crossing shard boundaries under the default top-bit
        /// layout.
        cross_sends: u64,
    },
}

/// Whether a run may hold its barriers for shard windows; a run that
/// may not drains from start to end without a held barrier. The
/// determinism
/// argument above needs circuit switching (quiescent barriers), zero
/// jitter (transmission ids are per-shard) and an unconditioned
/// network (no background injections, no global speed table); traced
/// runs stay sequential so trace order needs no merge step.
/// Multi-tenant runs ([`SimConfig::jobs`] non-empty) also stay
/// sequential: shard windows run per-subcube slices whose
/// [`crate::stats::JobStats`] cannot be merged across windows, and
/// staggered job starts break the quiescent-barrier argument.
/// A bounded run ([`crate::SimArena::run_until`]) stays sequential as
/// well: its bound is tested where the one scheduler advances time,
/// and shard windows advance their own clocks.
pub(crate) fn eligible(cfg: &SimConfig, trace: bool, bounded: bool) -> bool {
    cfg.shards > 1
        && cfg.switching == SwitchingMode::Circuit
        && cfg.jitter_frac == 0.0
        && cfg.netcond.is_none()
        && cfg.jobs.is_empty()
        && !trace
        && !bounded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netcond::NetCondition;

    #[test]
    fn plan_partitions_contiguous_subcubes() {
        let plan = ShardPlan::new(5, 4);
        assert_eq!(plan.count, 4);
        assert_eq!(plan.dims, 0b11000);
        assert_eq!(plan.nodes_per_shard(5), 8);
        // Top-2-bit mask: nodes 0..8 -> shard 0, 8..16 -> shard 1, ...
        for x in 0u32..32 {
            assert_eq!(plan.shard_of(x), x / 8);
        }
    }

    #[test]
    fn single_shard_plan_covers_whole_cube() {
        let plan = ShardPlan::new(7, 1);
        assert_eq!(plan.nodes_per_shard(7), 128);
        assert!((0u32..128).all(|x| plan.shard_of(x) == 0));
    }

    #[test]
    fn avoiding_picks_top_free_bits() {
        // Phase uses the top 2 bits of a d5 cube: the axis must come
        // from the low 3, and prefers the highest of them.
        let plan = ShardPlan::avoiding(5, 4, 0b11000).unwrap();
        assert_eq!(plan.dims, 0b00110);
        // Phase uses the low 3 bits: the classic top-bit layout wins.
        let plan = ShardPlan::avoiding(5, 4, 0b00111).unwrap();
        assert_eq!(plan, ShardPlan::new(5, 4));
        // One bit free but two wanted: window on 2 shards, not 4.
        let plan = ShardPlan::avoiding(5, 4, 0b01111).unwrap();
        assert_eq!(plan, ShardPlan { count: 2, dims: 0b10000 });
        // Every axis crossed: the phase must run globally.
        assert!(ShardPlan::avoiding(5, 4, 0b11111).is_none());
    }

    #[test]
    fn interleaved_plan_partitions_cosets() {
        // Axis on bits {1, 2} of a d4 cube: shards are strided cosets.
        let plan = ShardPlan { count: 4, dims: 0b0110 };
        let mut seen = vec![0u32; 4];
        for x in 0u32..16 {
            assert_eq!(plan.shard_of(x), (x >> 1) & 0b11);
            seen[plan.shard_of(x) as usize] += 1;
        }
        assert_eq!(seen, vec![4; 4]);
        // nodes_of enumerates each coset in ascending order.
        let mut nodes = Vec::new();
        let mut all = Vec::new();
        for s in 0..4 {
            plan.nodes_of(4, s, &mut nodes);
            assert_eq!(nodes.len(), 4);
            assert!(nodes.windows(2).all(|w| w[0] < w[1]));
            assert!(nodes.iter().all(|&x| plan.shard_of(x) == s));
            all.extend_from_slice(&nodes);
        }
        all.sort_unstable();
        assert_eq!(all, (0u32..16).collect::<Vec<_>>());
    }

    #[test]
    fn intra_shard_ecube_routes_stay_in_shard() {
        // e-cube routing corrects bits of src ^ dst only, so every
        // intermediate node shares the bits outside the route mask —
        // for contiguous and interleaved plans alike.
        for plan in [ShardPlan::new(6, 8), ShardPlan { count: 8, dims: 0b000111 }] {
            for src in 0u32..64 {
                for dst in 0u32..64 {
                    if src == dst || plan.shard_of(src) != plan.shard_of(dst) {
                        continue;
                    }
                    if (src ^ dst) & plan.dims != 0 {
                        continue; // route touches the axis: not windowable
                    }
                    let path = mce_hypercube::routing::ecube_path(
                        mce_hypercube::NodeId(src),
                        mce_hypercube::NodeId(dst),
                    );
                    for link in path.links() {
                        assert_eq!(plan.shard_of(link.from.0), plan.shard_of(src));
                        assert_eq!(plan.shard_of(link.to.0), plan.shard_of(src));
                    }
                }
            }
        }
    }

    #[test]
    fn eligibility_gates_on_the_proven_configuration() {
        let base = SimConfig::ipsc860(4).with_shards(4);
        assert!(eligible(&base, false, false));
        assert!(!eligible(&base, true, false), "traced runs stay sequential");
        assert!(!eligible(&base, false, true), "bounded runs stay sequential");
        assert!(!eligible(&SimConfig::ipsc860(4), false, false), "shards: 1");
        assert!(!eligible(&base.clone().with_store_and_forward(), false, false));
        assert!(!eligible(&base.clone().with_jitter(0.1, 7), false, false));
        assert!(
            !eligible(
                &base.clone().with_jobs(vec![crate::traffic::JobSpec::default()]),
                false,
                false
            ),
            "multi-tenant runs stay sequential"
        );
        let mut conditioned = base;
        conditioned.netcond = Some(NetCondition::default());
        assert!(!eligible(&conditioned, false, false));
    }
}
