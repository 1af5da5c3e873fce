//! `bigcube_cold` — cold d11 exchanges on the sharded driver.
//!
//! Per pass: a fresh arena and fresh program `Arc`s, one
//! `stamped_memories`, three partitions of 11 built, run through
//! `SimBatch::run_on` under `with_shards(64).with_declared_sync()`,
//! and every result verified. It is the only workload where shard
//! windows engage, the compiler sees 10⁵–10⁶ ops, and working sets
//! exceed the caches. Sharding forbids jitter, so there is no seeded
//! randomness for the engine to consume: `--seed` reaches nothing here.

use crate::harness::{Checked, Scale, Workload};
use crate::layers::{PASS, SHARD};
use crate::sim::{self, ModelError, RunResult};
use crate::span::Recorder;
use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_model::{multiphase_time, MachineParams};
use mce_simnet::batch::SimBatch;
use mce_simnet::{SimArena, SimConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const BLOCK: usize = 8;

/// See the module docs.
pub struct BigcubeCold {
    d: u32,
    shards: u32,
    partitions: Vec<Vec<u32>>,
    /// Results of the last pass with their verification verdicts.
    last: Vec<(RunResult, bool)>,
    model_err: ModelError,
}

impl BigcubeCold {
    fn cfg(&self, shards: u32) -> SimConfig {
        SimConfig::ipsc860(self.d).with_shards(shards).with_declared_sync()
    }
}

impl Workload for BigcubeCold {
    const NAME: &'static str = "bigcube_cold";

    fn setup(_seed: u64, scale: Scale) -> BigcubeCold {
        let (d, shards, partitions) = match scale {
            Scale::Full => (11, 64, vec![vec![5, 6], vec![6, 5], vec![4, 4, 3]]),
            Scale::Quick => (8, 16, vec![vec![4, 4], vec![3, 5], vec![3, 3, 2]]),
        };
        BigcubeCold { d, shards, partitions, last: Vec::new(), model_err: ModelError::default() }
    }

    fn layered_pass(&mut self, rec: &mut Recorder) {
        let open = rec.enter(PASS);
        let d = self.d;
        let mut arena = SimArena::new();
        let memories = Arc::new(sim::stamp(rec, d, BLOCK));
        let mut batch = SimBatch::new(self.cfg(self.shards));
        let mut source_ops = Vec::new();
        for dims in &self.partitions {
            let programs = sim::build(rec, d, dims, BLOCK);
            source_ops.push(sim::program_ops(&programs));
            batch.push_run(Arc::new(programs), &memories);
        }
        let results = sim::run_batch(rec, &mut arena, batch, SHARD, |i| source_ops[i]);
        self.last.clear();
        for result in results {
            let verified = result.as_ref().is_ok_and(|r| sim::check(rec, d, BLOCK, &r.memories));
            self.last.push((result, verified));
        }
        rec.exit(open);
    }

    fn check(&mut self, out: &mut Checked) {
        let params = MachineParams::ipsc860();
        for (dims, (result, verified)) in self.partitions.iter().zip(&self.last) {
            out.digest.run(result);
            out.expect(*verified, || {
                format!("d{} {dims:?} failed: {:?}", self.d, result.as_ref().err())
            });
            if let Ok(r) = result {
                out.expect(r.stats.shard_windows > 0 && r.stats.compile_misses == 1, || {
                    format!(
                        "{dims:?}: {} shard windows, {} compile misses",
                        r.stats.shard_windows, r.stats.compile_misses
                    )
                });
                let predicted = multiphase_time(&params, BLOCK as f64, self.d, dims);
                self.model_err.see(r.finish_time.as_us(), predicted);
            }
        }
    }

    fn verify(&mut self, _out: &mut Checked) {}

    fn work_per_pass(&self) -> u64 {
        self.last.iter().map(|(result, _)| sim::events(result)).sum()
    }

    fn extras(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![("model_err_max", "ratio", self.model_err.0)]
    }

    fn probes(&mut self, metrics: &mut BTreeMap<String, f64>) {
        metrics.insert("model.err_max".into(), self.model_err.0);
        // The base of `simnet.shard.speedup`: the same sets, warm, on
        // the sequential path; compile time excluded on both sides.
        let memories = stamped_memories(self.d, BLOCK);
        let mut arena = SimArena::new();
        let mut seq_s = 0.0;
        for dims in &self.partitions {
            let programs = Arc::new(build_multiphase_programs(self.d, dims, BLOCK));
            let initial = memories.clone();
            let t0 = Instant::now();
            let result = arena.run_shared(&self.cfg(1), &programs, initial);
            let compile_s = result.as_ref().map_or(0.0, |r| r.stats.compile_ns as f64 * 1e-9);
            seq_s += t0.elapsed().as_secs_f64() - compile_s;
        }
        metrics.insert("simnet.shard.seq_run_s".into(), seq_s);
        let cubes: Vec<(u32, &[u32])> =
            self.partitions.iter().map(|p| (self.d, p.as_slice())).collect();
        crate::probes::scheduler_and_links(&cubes, BLOCK, metrics);
    }
}
