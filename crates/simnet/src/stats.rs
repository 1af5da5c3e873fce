//! Run statistics. (The structured trace event model lives in
//! [`crate::trace`].)

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregate statistics of one run.
///
/// Equality compares the *simulation outcome* only: the compile
/// telemetry fields (`compile_ns` and the cache hit/miss counters)
/// describe host-side work — wall-clock time and which cache served
/// the compilation — so the manual [`PartialEq`] below excludes them.
/// Two bit-identical runs stay `==` whether their compiles were cold
/// or served by the process-wide compile cache.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Total transmissions started.
    pub transmissions: u64,
    /// Total payload bytes moved.
    pub bytes_moved: u64,
    /// Total link-dimension crossings (sum of path lengths).
    pub link_crossings: u64,
    /// Transmissions that had to wait for a busy link (edge
    /// contention events).
    pub edge_contention_events: u64,
    /// Total time transmissions spent waiting on busy links, ns.
    pub edge_contention_wait_ns: u64,
    /// Transmissions delayed by the NIC send/recv serialization rule.
    pub nic_serialization_events: u64,
    /// Total NIC serialization delay, ns.
    pub nic_serialization_wait_ns: u64,
    /// FORCED messages discarded for want of a posted receive.
    pub forced_drops: u64,
    /// UNFORCED reserve-acknowledge handshakes performed.
    pub reserve_handshakes: u64,
    /// Barriers executed.
    pub barriers: u64,
    /// Background-traffic transmissions started (see
    /// [`crate::netcond`]); kept out of `transmissions` so algorithm
    /// metrics stay clean.
    pub background_transmissions: u64,
    /// Payload bytes moved by background traffic (never delivered to
    /// node memories).
    pub background_bytes: u64,
    /// Scheduler telemetry: largest number of simultaneously pending
    /// events in the main event heap (see [`crate::sched`]).
    pub sched_peak_pending: u64,
    /// Always 0: counted the retired calendar queue's ring growths.
    /// Kept because the perf ledger folds it into its `sim_digest` and
    /// reports it as `simnet.sched.bucket_resizes`; goes with the
    /// ledger's next revision.
    pub sched_bucket_resizes: u64,
    /// Always 0: counted events that took the retired calendar queue's
    /// overflow tier. Kept for the perf ledger like
    /// `sched_bucket_resizes` (`simnet.sched.overflow_spills`).
    pub sched_overflow_spills: u64,
    /// Shard telemetry (see [`crate::shard`]): phase windows the
    /// sharded driver executed with shards advancing independently.
    /// Zero on sequential (`shards: 1`) runs.
    pub shard_windows: u64,
    /// Shard telemetry: phases that had to run globally serialized
    /// because a shard's upcoming span contained cross-shard traffic
    /// (window-barrier stalls).
    pub shard_barrier_stalls: u64,
    /// Shard telemetry: cross-shard sends encountered in globally
    /// serialized phases (the traffic that prevented parallelism).
    pub shard_cross_events: u64,
    /// Shard telemetry: largest per-shard pending-event peak observed
    /// across all windows.
    pub shard_peak_pending: u64,
    /// Flow-control retransmissions issued (dropped or refused
    /// transmissions re-entered go-back-n style; see
    /// [`crate::traffic`]). Zero without a link policy.
    pub retransmissions: u64,
    /// Flow-control drops: transmissions refused at circuit
    /// establishment (drop-tail / NACK) or lost on a lossy link.
    pub flow_drops: u64,
    /// Trace events evicted from the bounded ring (see
    /// [`crate::trace`]); zero when tracing is off or the ring never
    /// filled. Like the scheduler telemetry, this describes the
    /// capture, not the simulation, so it is not folded by `absorb`.
    pub trace_events_dropped: u64,
    /// Compile telemetry: wall-clock nanoseconds this run spent
    /// obtaining its compiled program set — a full compile on a miss,
    /// a cache probe on a hit. Host-side measurement, excluded from
    /// equality and not folded by `absorb`.
    pub compile_ns: u64,
    /// Always 0: counted hits in the retired per-arena compile memo.
    /// Kept because the perf ledger reads it as
    /// `simnet.compile.local_hits`; goes with the ledger's next
    /// revision.
    pub compile_local_hits: u64,
    /// Compile telemetry: 1 if this run's compilation was served by
    /// the process-wide compile cache (compiled by an earlier run of
    /// the same `Arc`-shared set, on any arena).
    pub compile_shared_hits: u64,
    /// Compile telemetry: 1 if this run actually ran the compiler.
    /// Summed over a sweep, this counts distinct
    /// compilations: a `SimBatch` over one shared program set totals
    /// exactly 1 regardless of worker count.
    pub compile_misses: u64,
    /// Per-tenant-job statistics; empty on single-tenant runs (a
    /// config with [`crate::SimConfig::jobs`] empty), so legacy
    /// results are structurally unchanged.
    pub jobs: Vec<JobStats>,
    /// Per-label mark times: label -> latest time any node recorded it.
    pub marks: BTreeMap<u32, SimTime>,
}

/// Statistics of one tenant job of a multi-job run (see
/// [`crate::traffic`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobStats {
    /// Job index (position in [`crate::SimConfig::jobs`]).
    pub job: u32,
    /// Configured start offset, ns.
    pub start_ns: u64,
    /// Simulated time at which the job's last node finished, ns.
    pub finish_ns: u64,
    /// Transmissions started by this job's nodes.
    pub transmissions: u64,
    /// Payload bytes moved by this job.
    pub bytes_moved: u64,
    /// Time this job's transmissions spent stalled on busy links, ns.
    pub edge_contention_wait_ns: u64,
    /// Time this job's transmissions spent stalled on the NIC
    /// serialization rule, ns.
    pub nic_wait_ns: u64,
    /// Go-back-n retransmissions issued by this job's sources.
    pub retransmissions: u64,
    /// Transmissions of this job dropped/refused by the link policy.
    pub drops: u64,
    /// Sends (and their matching waits) skipped because the pair's
    /// subcube offered no fault-avoiding route, under
    /// [`crate::NetCondition::skip_dead_pairs`].
    pub dead_pairs_skipped: u64,
}

impl JobStats {
    /// Wall-clock span of the job: finish minus start offset (zero
    /// until the job finishes).
    pub fn makespan_ns(&self) -> u64 {
        self.finish_ns.saturating_sub(self.start_ns)
    }
}

/// Outcome equality (see the type docs): every simulation field
/// compares, the host-side compile telemetry does not. Full
/// destructuring keeps this impl honest — adding a `SimStats` field
/// without deciding which side of the line it falls on is a compile
/// error.
impl PartialEq for SimStats {
    fn eq(&self, other: &SimStats) -> bool {
        let SimStats {
            transmissions,
            bytes_moved,
            link_crossings,
            edge_contention_events,
            edge_contention_wait_ns,
            nic_serialization_events,
            nic_serialization_wait_ns,
            forced_drops,
            reserve_handshakes,
            barriers,
            background_transmissions,
            background_bytes,
            sched_peak_pending,
            sched_bucket_resizes,
            sched_overflow_spills,
            shard_windows,
            shard_barrier_stalls,
            shard_cross_events,
            shard_peak_pending,
            retransmissions,
            flow_drops,
            trace_events_dropped,
            compile_ns: _,
            compile_local_hits: _,
            compile_shared_hits: _,
            compile_misses: _,
            jobs,
            marks,
        } = self;
        *transmissions == other.transmissions
            && *bytes_moved == other.bytes_moved
            && *link_crossings == other.link_crossings
            && *edge_contention_events == other.edge_contention_events
            && *edge_contention_wait_ns == other.edge_contention_wait_ns
            && *nic_serialization_events == other.nic_serialization_events
            && *nic_serialization_wait_ns == other.nic_serialization_wait_ns
            && *forced_drops == other.forced_drops
            && *reserve_handshakes == other.reserve_handshakes
            && *barriers == other.barriers
            && *background_transmissions == other.background_transmissions
            && *background_bytes == other.background_bytes
            && *sched_peak_pending == other.sched_peak_pending
            && *sched_bucket_resizes == other.sched_bucket_resizes
            && *sched_overflow_spills == other.sched_overflow_spills
            && *shard_windows == other.shard_windows
            && *shard_barrier_stalls == other.shard_barrier_stalls
            && *shard_cross_events == other.shard_cross_events
            && *shard_peak_pending == other.shard_peak_pending
            && *retransmissions == other.retransmissions
            && *flow_drops == other.flow_drops
            && *trace_events_dropped == other.trace_events_dropped
            && *jobs == other.jobs
            && *marks == other.marks
    }
}

impl SimStats {
    /// Fold one shard window's statistics into the run total: event
    /// counters and waits add, mark labels keep the latest time. The
    /// scheduler/shard telemetry fields are *not* merged here — shard
    /// windows never set them; the driver folds its own telemetry once
    /// at the end of the run.
    pub(crate) fn absorb(&mut self, other: &SimStats) {
        self.transmissions += other.transmissions;
        self.bytes_moved += other.bytes_moved;
        self.link_crossings += other.link_crossings;
        self.edge_contention_events += other.edge_contention_events;
        self.edge_contention_wait_ns += other.edge_contention_wait_ns;
        self.nic_serialization_events += other.nic_serialization_events;
        self.nic_serialization_wait_ns += other.nic_serialization_wait_ns;
        self.forced_drops += other.forced_drops;
        self.reserve_handshakes += other.reserve_handshakes;
        self.barriers += other.barriers;
        self.background_transmissions += other.background_transmissions;
        self.background_bytes += other.background_bytes;
        self.retransmissions += other.retransmissions;
        self.flow_drops += other.flow_drops;
        for (&label, &t) in &other.marks {
            let entry = self.marks.entry(label).or_insert(t);
            if *entry < t {
                *entry = t;
            }
        }
    }

    /// Mean hops per transmission.
    pub fn mean_path_length(&self) -> f64 {
        if self.transmissions == 0 {
            0.0
        } else {
            self.link_crossings as f64 / self.transmissions as f64
        }
    }

    /// Per-job slowdown relative to the fastest job of *this* run:
    /// `makespan_j / min_k makespan_k` (so the least-delayed job reads
    /// `1.0` and the most-starved one reads the intra-run spread).
    /// Empty for single-tenant runs and when every makespan is zero.
    pub fn job_slowdowns(&self) -> Vec<f64> {
        let min = self.jobs.iter().map(JobStats::makespan_ns).filter(|&m| m > 0).min();
        match min {
            None => Vec::new(),
            Some(min) => self.jobs.iter().map(|j| j.makespan_ns() as f64 / min as f64).collect(),
        }
    }

    /// Jain fairness index over per-job throughput
    /// (`bytes_moved / makespan`): `(Σx)² / (n·Σx²)`, `1.0` when every
    /// job gets equal service, `1/n` when one job starves the rest.
    /// `1.0` for single-tenant runs (fairness is trivially perfect).
    pub fn jain_fairness(&self) -> f64 {
        let rates: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.makespan_ns() > 0)
            .map(|j| j.bytes_moved as f64 / j.makespan_ns() as f64)
            .collect();
        if rates.len() < 2 {
            return 1.0;
        }
        let sum: f64 = rates.iter().sum();
        let sum_sq: f64 = rates.iter().map(|x| x * x).sum();
        if sum_sq == 0.0 {
            1.0
        } else {
            sum * sum / (rates.len() as f64 * sum_sq)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_path_length() {
        let mut s = SimStats::default();
        assert_eq!(s.mean_path_length(), 0.0);
        s.transmissions = 4;
        s.link_crossings = 10;
        assert!((s.mean_path_length() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn traffic_fairness_metrics() {
        let job = |job, start_ns, finish_ns, bytes_moved| JobStats {
            job,
            start_ns,
            finish_ns,
            bytes_moved,
            ..JobStats::default()
        };
        // Single-tenant: empty slowdowns, trivially fair.
        let mut s = SimStats::default();
        assert!(s.job_slowdowns().is_empty());
        assert_eq!(s.jain_fairness(), 1.0);
        // Equal service: slowdowns all 1, Jain index 1.
        s.jobs = vec![job(0, 0, 1_000, 4_000), job(1, 0, 1_000, 4_000)];
        assert_eq!(s.job_slowdowns(), vec![1.0, 1.0]);
        assert!((s.jain_fairness() - 1.0).abs() < 1e-12);
        // One job starved 3x: slowdown reads the spread, Jain drops.
        s.jobs = vec![job(0, 0, 1_000, 4_000), job(1, 0, 3_000, 4_000)];
        assert_eq!(s.job_slowdowns(), vec![1.0, 3.0]);
        let jain = s.jain_fairness();
        assert!(jain < 0.81 && jain > 0.5, "{jain}");
        // Start offsets subtract from the makespan.
        s.jobs = vec![job(0, 0, 2_000, 100), job(1, 1_500, 3_500, 100)];
        assert_eq!(s.job_slowdowns(), vec![1.0, 1.0]);
    }
}
