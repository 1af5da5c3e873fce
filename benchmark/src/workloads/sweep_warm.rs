//! `sweep_warm` — jitter seed sweeps over warm, shared program sets.
//!
//! One persistent `SimArena`; a pass queues `SimBatch::seed_sweep` over
//! a d7 `{3,4}` set and then a d9 `{4,5}` set (m = 40 B), runs both
//! with `run_on` and folds them with `agg::aggregate_range`. Programs,
//! stamped memories and the first compile are paid in set-up, so every
//! timed compile is a cache hit and the event loop is the pass. The
//! builder, the compiler, the verifier and the sharded driver are
//! bypassed. `--seed` draws the jitter seeds.

use crate::harness::{Checked, Scale, Workload};
use crate::layers::{AGG, ENGINE, PASS};
use crate::probes;
use crate::rng::SplitMix64;
use crate::sim::{self, ModelError, RunResult};
use crate::span::Recorder;
use mce_core::builder::build_multiphase_programs;
use mce_core::verify::{stamped_memories, verify_complete_exchange};
use mce_model::{multiphase_time, MachineParams};
use mce_simnet::batch::{agg, SimBatch};
use mce_simnet::{Program, SimArena, SimConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

const JITTER: f64 = 0.02;
const BLOCK: usize = 40;

/// One shared program set and the replicates swept over it.
struct Sweep {
    d: u32,
    dims: Vec<u32>,
    programs: Arc<Vec<Program>>,
    memories: Arc<Vec<Vec<u8>>>,
    seeds: Vec<u64>,
    source_ops: u64,
}

/// See the module docs.
pub struct SweepWarm {
    arena: SimArena,
    sweeps: Vec<Sweep>,
    passes: u64,
    /// Results of the last pass, per sweep, with their aggregate.
    last: Vec<(Vec<RunResult>, agg::RunAggregate)>,
    model_err: ModelError,
}

impl Workload for SweepWarm {
    const NAME: &'static str = "sweep_warm";

    fn setup(seed: u64, scale: Scale) -> SweepWarm {
        let shapes: [(u32, &[u32], u64); 2] = match scale {
            Scale::Full => [(7, &[3, 4], 128), (9, &[4, 5], 8)],
            Scale::Quick => [(5, &[2, 3], 32), (6, &[3, 3], 8)],
        };
        let mut rng = SplitMix64::new(seed, 0);
        let sweeps = shapes
            .into_iter()
            .map(|(d, dims, replicates)| {
                let programs = build_multiphase_programs(d, dims, BLOCK);
                Sweep {
                    d,
                    dims: dims.to_vec(),
                    source_ops: sim::program_ops(&programs),
                    programs: Arc::new(programs),
                    memories: Arc::new(stamped_memories(d, BLOCK)),
                    seeds: (0..replicates).map(|_| rng.next_u64()).collect(),
                }
            })
            .collect();
        SweepWarm {
            arena: SimArena::new(),
            sweeps,
            passes: 0,
            last: Vec::new(),
            model_err: ModelError::default(),
        }
    }

    fn layered_pass(&mut self, rec: &mut Recorder) {
        let open = rec.enter(PASS);
        self.last.clear();
        for sweep in &self.sweeps {
            let mut batch = SimBatch::new(SimConfig::ipsc860(sweep.d));
            let range = batch.seed_sweep(
                JITTER,
                sweep.seeds.iter().copied(),
                &sweep.programs,
                &sweep.memories,
            );
            let results = sim::run_batch(rec, &mut self.arena, batch, ENGINE, |_| sweep.source_ops);
            let aggregate = rec.time(AGG, || agg::aggregate_range(&results, range));
            self.last.push((results, aggregate));
        }
        rec.exit(open);
        self.passes += 1;
    }

    fn check(&mut self, out: &mut Checked) {
        let params = MachineParams::ipsc860();
        // The first pass after set-up compiles each shared set exactly
        // once; every later pass must be served by the arena's memo.
        let expected_misses = if self.passes == 1 { 1.0 } else { 0.0 };
        for (sweep, (results, aggregate)) in self.sweeps.iter().zip(&self.last) {
            for (result, seed) in results.iter().zip(&sweep.seeds) {
                out.digest.run(result);
                let ok = result.as_ref().is_ok_and(|r| {
                    verify_complete_exchange(sweep.d, BLOCK, &r.memories).is_empty()
                });
                out.expect(ok, || format!("d{} replicate seed {seed:#x} failed", sweep.d));
            }
            let misses = aggregate.compile_misses.mean * aggregate.runs as f64;
            out.expect(aggregate.failures == 0 && (misses - expected_misses).abs() < 1e-9, || {
                format!("d{}: {misses} compile misses, expected {expected_misses}", sweep.d)
            });
            out.expect(aggregate.shard_windows.max == 0.0, || "shard windows ran".to_string());
            let predicted = multiphase_time(&params, BLOCK as f64, sweep.d, &sweep.dims);
            self.model_err.see(aggregate.finish_us.mean, predicted);
        }
    }

    fn verify(&mut self, _out: &mut Checked) {}

    fn work_per_pass(&self) -> u64 {
        self.last.iter().flat_map(|(results, _)| results.iter().map(sim::events)).sum()
    }

    fn extras(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![("model_err_max", "ratio", self.model_err.0)]
    }

    fn probes(&mut self, metrics: &mut BTreeMap<String, f64>) {
        metrics.insert("model.err_max".into(), self.model_err.0);
        let cubes: Vec<(u32, &[u32])> =
            self.sweeps.iter().map(|s| (s.d, s.dims.as_slice())).collect();
        probes::scheduler_and_links(&cubes, BLOCK, metrics);
    }
}
