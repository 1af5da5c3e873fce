//! `figs_cold` — the paper workload: regenerate Figures 4, 5 and 6.
//!
//! One pass calls `mce_bench::figures::regenerate_figure` for d = 5, 6
//! and 7 over the paper's block-size grid. Every cell is a distinct
//! program set, so each one pays the builder, the stamp, a compile
//! miss, the engine and the verifier; the compile cache, the sharded
//! driver, the network conditions and the planner are bypassed. The
//! study fixes its own jitter seeds, so `--seed` reaches nothing here.

use crate::harness::{replay_mismatches, Checked, Scale, Workload};
use crate::layers::{MODEL, PASS, PREDICT};
use crate::sim::{self, ModelError};
use crate::span::Recorder;
use mce_bench::figures::{figure_partitions, regenerate_figure};
use mce_model::{multiphase_time, MachineParams};
use mce_simnet::batch::{Memories, RunSpec};
use mce_simnet::{SimArena, SimConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Jitter fraction of the "measured" curves, as `repro figure` uses.
const JITTER: f64 = 0.02;

/// `(figure number, cube dimension)` of the paper's Figures 4-6.
const FIGURES: [(u32, u32); 3] = [(4, 5), (5, 6), (6, 7)];

/// One `(partition, block size)` sample of a pass, in the shape both
/// pass forms produce.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    figure: u32,
    partition: String,
    m: usize,
    simulated_us: f64,
    predicted_us: f64,
    verified: bool,
}

/// See the module docs.
pub struct FigsCold {
    m_max: usize,
    step: usize,
    /// Cells of the last pass, whichever form ran it.
    last: Vec<Cell>,
    /// Cells of the last study-form pass: the reference a layered
    /// replay must reproduce bit for bit.
    study: Vec<Cell>,
    replay_mismatches: Vec<String>,
    /// Simulated transmissions of one pass (known after a replay).
    events: u64,
    regen_s: Vec<f64>,
    model_err: ModelError,
}

impl FigsCold {
    fn cfg(d: u32, m: usize) -> SimConfig {
        // The study's own per-cell seed.
        SimConfig::ipsc860(d).with_jitter(JITTER, 0x1991 + m as u64)
    }
}

impl Workload for FigsCold {
    const NAME: &'static str = "figs_cold";
    const STUDY_FORM: bool = true;

    fn setup(_seed: u64, scale: Scale) -> FigsCold {
        let (m_max, step) = match scale {
            Scale::Full => (400, 16),
            Scale::Quick => (128, 64),
        };
        FigsCold {
            m_max,
            step,
            last: Vec::new(),
            study: Vec::new(),
            replay_mismatches: Vec::new(),
            events: 0,
            regen_s: Vec::new(),
            model_err: ModelError::default(),
        }
    }

    fn pass(&mut self) {
        let t0 = Instant::now();
        self.last.clear();
        for (number, d) in FIGURES {
            let figure = regenerate_figure(number, d, self.m_max, self.step, JITTER);
            self.last.extend(figure.points.into_iter().map(|p| Cell {
                figure: number,
                partition: p.partition,
                m: p.block_size,
                simulated_us: p.simulated_us,
                predicted_us: p.predicted_us,
                verified: p.verified,
            }));
        }
        self.regen_s.push(t0.elapsed().as_secs_f64());
        self.study.clone_from(&self.last);
    }

    fn layered_pass(&mut self, rec: &mut Recorder) {
        let open = rec.enter(PASS);
        let params = MachineParams::ipsc860();
        let sizes: Vec<usize> = (1..=self.m_max / self.step).map(|k| k * self.step).collect();
        let mut arena = SimArena::new();
        let mut events = 0;
        self.last.clear();
        for (number, d) in FIGURES {
            let parts = rec.time(MODEL, || figure_partitions(&params, d, self.m_max as f64));
            for part in &parts {
                for &m in &sizes {
                    let programs = sim::build(rec, d, part.parts(), m);
                    let memories = sim::stamp(rec, d, m);
                    let spec = RunSpec {
                        cfg: FigsCold::cfg(d, m),
                        programs: Arc::new(programs),
                        memories: Memories::Owned(memories),
                        trace: None,
                    };
                    let result = sim::run_spec(rec, &mut arena, spec);
                    events += sim::events(&result);
                    let (simulated_us, verified) = match &result {
                        Ok(r) => (r.finish_time.as_us(), sim::check(rec, d, m, &r.memories)),
                        Err(_) => (f64::NAN, false),
                    };
                    let predicted_us =
                        rec.time(PREDICT, || multiphase_time(&params, m as f64, d, part.parts()));
                    self.last.push(Cell {
                        figure: number,
                        partition: part.to_string(),
                        m,
                        simulated_us,
                        predicted_us,
                        verified,
                    });
                }
            }
        }
        rec.exit(open);
        self.events = events;
        // The replay must land on the study's own numbers bit for bit.
        self.replay_mismatches = replay_mismatches(&self.last, &self.study);
    }

    fn check(&mut self, out: &mut Checked) {
        for cell in &self.last {
            out.expect(cell.verified, || format!("cell {cell:?} failed verification"));
            out.digest.float(cell.simulated_us);
            self.model_err.see(cell.simulated_us, cell.predicted_us);
        }
        for why in self.replay_mismatches.drain(..) {
            out.fail(why);
        }
    }

    fn verify(&mut self, out: &mut Checked) {
        // One serial replay through the layer calls: counts the events
        // a pass simulates and pins the study's numbers (`check` reports
        // the mismatches).
        if self.events == 0 {
            self.layered_pass(&mut Recorder::off());
            self.check(out);
        }
        out.expect(self.events > 0, || "the replay simulated no events".to_string());
    }

    fn work_per_pass(&self) -> u64 {
        self.events
    }

    fn extras(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![("model_err_max", "ratio", self.model_err.0)]
    }

    fn probes(&mut self, metrics: &mut BTreeMap<String, f64>) {
        metrics.insert("bench.figures.regen_s".into(), crate::stats::median(&self.regen_s));
        metrics.insert("model.err_max".into(), self.model_err.0);
    }
}
