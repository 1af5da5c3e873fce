//! Shared plumbing of the simulation workloads: run one engine call
//! under the span of its flavour, record the outcome counters, and fold
//! results into the determinism digest.

use crate::layers::{self, COMPILE, ENGINE, NETCOND, SAF, SHARD, TRACE, TRAFFIC};
use crate::span::Recorder;
use mce_core::builder::build_multiphase_programs;
use mce_core::verify::{stamped_memories, verify_complete_exchange};
use mce_simnet::batch::{RunSpec, SimBatch};
use mce_simnet::config::SwitchingMode;
use mce_simnet::trace::TraceEvent;
use mce_simnet::{Program, SimArena, SimConfig, SimError, SimResult};

/// One engine run's outcome.
pub type RunResult = Result<SimResult, SimError>;

/// Order-sensitive 64-bit fold (FNV-1a over words). Every pass of a
/// run must produce the same digest; two runs of one seed must too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Fold a float by its bits, so "equal" means bit-identical.
    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    /// Fold a string.
    pub fn text(&mut self, s: &str) {
        s.bytes().for_each(|b| self.word(b as u64));
    }

    /// Fold one run: the finish time and every outcome field of
    /// `SimStats` (the host-side compile telemetry is excluded, as it
    /// is from `SimStats`' own equality), or the error's description.
    pub fn run(&mut self, result: &RunResult) {
        match result {
            Ok(r) => {
                let s = &r.stats;
                for w in [
                    r.finish_time.as_ns(),
                    s.transmissions,
                    s.bytes_moved,
                    s.link_crossings,
                    s.edge_contention_events,
                    s.edge_contention_wait_ns,
                    s.nic_serialization_events,
                    s.nic_serialization_wait_ns,
                    s.forced_drops,
                    s.reserve_handshakes,
                    s.barriers,
                    s.background_transmissions,
                    s.background_bytes,
                    s.sched_peak_pending,
                    s.sched_bucket_resizes,
                    s.sched_overflow_spills,
                    s.shard_windows,
                    s.shard_barrier_stalls,
                    s.shard_cross_events,
                    s.shard_peak_pending,
                    s.retransmissions,
                    s.flow_drops,
                    s.trace_events_dropped,
                    r.trace.len() as u64,
                ] {
                    self.word(w);
                }
                for j in &s.jobs {
                    self.word(j.finish_ns);
                    self.word(j.transmissions);
                }
            }
            Err(e) => self.text(&format!("{e:?}")),
        }
    }
}

/// The span an engine run of this configuration is recorded under.
pub fn flavour(cfg: &SimConfig, traced: bool) -> &'static str {
    if traced {
        TRACE
    } else if !cfg.jobs.is_empty() {
        TRAFFIC
    } else if cfg.netcond.as_ref().is_some_and(|nc| !nc.is_noop()) {
        NETCOND
    } else if cfg.switching == SwitchingMode::StoreAndForward {
        SAF
    } else if cfg.shards > 1 {
        SHARD
    } else {
        ENGINE
    }
}

/// Simulated transmissions of a run, background traffic included — the
/// ledger's unit of simulator work.
pub fn events(result: &RunResult) -> u64 {
    result.as_ref().map_or(0, |r| r.stats.transmissions + r.stats.background_transmissions)
}

/// Source ops across a program set.
pub fn program_ops(programs: &[Program]) -> u64 {
    programs.iter().map(|p| p.ops.len() as u64).sum()
}

/// Record one run's counters; `source_ops` is the size of the program
/// set it ran, charged to the compiler when the run compiled it.
pub fn record(rec: &mut Recorder, flavour: &'static str, source_ops: u64, result: &RunResult) {
    if !rec.enabled() {
        return;
    }
    rec.count("simnet.batch.runs", 1.0);
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            rec.count("simnet.batch.failures", 1.0);
            if matches!(e, SimError::Unroutable { .. }) {
                rec.count("simnet.netcond.unroutable", 1.0);
            }
            return;
        }
    };
    let s = &r.stats;
    let f = |v: u64| v as f64;
    rec.count("simnet.engine.events", f(events(result)));
    if flavour == NETCOND {
        rec.count(layers::NETCOND_EVENTS, f(events(result)));
    }
    rec.count("simnet.engine.bytes_moved", f(s.bytes_moved));
    rec.count("simnet.engine.link_crossings", f(s.link_crossings));
    rec.count("simnet.engine.edge_contention_events", f(s.edge_contention_events));
    rec.count("simnet.engine.nic_serialization_events", f(s.nic_serialization_events));
    rec.count("simnet.engine.simulated_us", r.finish_time.as_us());
    rec.count("simnet.compile.misses", f(s.compile_misses));
    rec.count("simnet.compile.local_hits", f(s.compile_local_hits));
    rec.count("simnet.compile.shared_hits", f(s.compile_shared_hits));
    rec.count("simnet.compile.ops", f(s.compile_misses * source_ops));
    rec.count_max("simnet.sched.peak_pending", f(s.sched_peak_pending));
    rec.count("simnet.sched.bucket_resizes", f(s.sched_bucket_resizes));
    rec.count("simnet.sched.overflow_spills", f(s.sched_overflow_spills));
    rec.count("simnet.shard.windows", f(s.shard_windows));
    rec.count("simnet.shard.barrier_stalls", f(s.shard_barrier_stalls));
    rec.count("simnet.shard.cross_events", f(s.shard_cross_events));
    rec.count_max("simnet.shard.peak_pending", f(s.shard_peak_pending));
    rec.count("simnet.netcond.background_tx", f(s.background_transmissions));
    rec.count("simnet.traffic.retransmissions", f(s.retransmissions));
    rec.count("simnet.traffic.flow_drops", f(s.flow_drops));
    rec.count("simnet.trace.events", f(r.trace.len() as u64));
    rec.count("simnet.trace.dropped", f(s.trace_events_dropped));
    // What a caller that keeps this result holds on to (computed from
    // lengths, not measured): final memories, per-node finish times
    // and the captured events.
    let held = r.memories.iter().map(Vec::len).sum::<usize>()
        + r.node_finish.len() * std::mem::size_of::<u64>()
        + r.trace.len() * std::mem::size_of::<TraceEvent>();
    rec.count("simnet.batch.result_bytes", held as f64);
}

/// Run one spec on `arena` under the span of its flavour, with the
/// compile time the engine reports laid in as a child span.
pub fn run_spec(rec: &mut Recorder, arena: &mut SimArena, spec: RunSpec) -> RunResult {
    let name = flavour(&spec.cfg, spec.trace.is_some());
    let source_ops = if rec.enabled() { program_ops(&spec.programs) } else { 0 };
    let open = rec.enter(name);
    let result = arena.run_spec(spec);
    if let Ok(r) = &result {
        rec.child(COMPILE, r.stats.compile_ns);
    }
    rec.exit(open);
    record(rec, name, source_ops, &result);
    result
}

/// Run a whole batch on `arena` under one span named `flavour`.
/// `SimBatch::run_on` is a single public call, so the span covers all
/// its runs and each run's compile time is laid in from its stats;
/// `source_ops(i)` sizes the program set of run `i`.
pub fn run_batch(
    rec: &mut Recorder,
    arena: &mut SimArena,
    batch: SimBatch,
    flavour: &'static str,
    source_ops: impl Fn(usize) -> u64,
) -> Vec<RunResult> {
    let open = rec.enter(flavour);
    let results = batch.run_on(arena);
    for r in results.iter().flatten() {
        rec.child(COMPILE, r.stats.compile_ns);
    }
    rec.exit(open);
    for (i, result) in results.iter().enumerate() {
        record(rec, flavour, source_ops(i), result);
    }
    results
}

/// Build one exchange's programs under the builder span.
pub fn build(rec: &mut Recorder, d: u32, dims: &[u32], m: usize) -> Vec<Program> {
    let programs = rec.time(layers::BUILDER, || build_multiphase_programs(d, dims, m));
    if rec.enabled() {
        rec.count("core.builder.ops", program_ops(&programs) as f64);
    }
    programs
}

/// Stamp one exchange's initial memories under the stamp span.
pub fn stamp(rec: &mut Recorder, d: u32, m: usize) -> Vec<Vec<u8>> {
    let memories = rec.time(layers::STAMP, || stamped_memories(d, m));
    rec.count("core.verify.bytes", ((1usize << d) * (1usize << d) * m) as f64);
    memories
}

/// Whether `memories` hold a complete exchange, under the check span.
pub fn check(rec: &mut Recorder, d: u32, m: usize, memories: &[Vec<u8>]) -> bool {
    let ok = rec.time(layers::CHECK, || verify_complete_exchange(d, m, memories).is_empty());
    rec.count("core.verify.bytes", ((1usize << d) * (1usize << d) * m) as f64);
    ok
}

/// Largest relative gap between a simulated and a predicted time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelError(pub f64);

impl ModelError {
    /// Account one `(simulated, predicted)` pair.
    pub fn see(&mut self, simulated_us: f64, predicted_us: f64) {
        self.0 = self.0.max((simulated_us - predicted_us).abs() / simulated_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_simnet::NetCondition;

    #[test]
    fn flavour_follows_the_configuration() {
        let base = SimConfig::ipsc860(4);
        assert_eq!(flavour(&base, false), ENGINE);
        assert_eq!(flavour(&base.clone().with_jitter(0.02, 1), false), ENGINE);
        assert_eq!(flavour(&base.clone().with_netcond(NetCondition::default()), false), ENGINE);
        assert_eq!(
            flavour(&base.clone().with_netcond(NetCondition::uniform_slowdown(2.0)), false),
            NETCOND
        );
        assert_eq!(flavour(&base.clone().with_store_and_forward(), false), SAF);
        assert_eq!(flavour(&base.clone().with_shards(4), false), SHARD);
        assert_eq!(flavour(&base, true), TRACE);
    }

    #[test]
    fn digest_tells_runs_apart_and_repeats() {
        let run = |m: usize| {
            let mut arena = SimArena::new();
            arena.run(&SimConfig::ipsc860(3), &build_multiphase_programs(3, &[3], m), {
                stamped_memories(3, m)
            })
        };
        let fold = |m: usize| {
            let mut d = Digest::default();
            d.run(&run(m));
            d
        };
        assert_eq!(fold(16), fold(16));
        assert_ne!(fold(16), fold(24));
    }

    #[test]
    fn traced_run_records_a_compile_child_and_counters() {
        let mut rec = Recorder::on();
        rec.begin_pass(0);
        let open = rec.enter(layers::PASS);
        let programs = build(&mut rec, 3, &[1, 2], 16);
        let memories = stamp(&mut rec, 3, 16);
        let spec = RunSpec {
            cfg: SimConfig::ipsc860(3),
            programs: std::sync::Arc::new(programs),
            memories: memories.into(),
            trace: None,
        };
        let result = run_spec(&mut rec, &mut SimArena::new(), spec);
        let r = result.as_ref().expect("a clean exchange runs");
        assert!(check(&mut rec, 3, 16, &r.memories));
        rec.exit(open);

        let t = rec.layer_times();
        assert_eq!(t[ENGINE].count, 1);
        assert_eq!(t[COMPILE].count, 1);
        assert!(t[ENGINE].self_ns < t[ENGINE].total_ns);
        let c = rec.counters();
        assert_eq!(c["simnet.compile.misses"], 1.0);
        assert_eq!(c["simnet.engine.events"], events(&result) as f64);
        assert_eq!(c["simnet.compile.ops"], c["core.builder.ops"]);
        assert_eq!(c["core.verify.bytes"], 2.0 * 8.0 * 8.0 * 16.0);
    }
}
