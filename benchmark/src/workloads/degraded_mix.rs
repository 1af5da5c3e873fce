//! `degraded_mix` — the same engine used differently: every feature
//! that forces the sequential, feature-on paths.
//!
//! One pass runs a sub-grid of `robustness_study` (netcond: seeded
//! slowdowns, hotspot background traffic, one dead cable), a sub-grid
//! of `interference_study` (traffic: tenant jobs, drop-tail and NACK
//! link policies with AIMD sources), `switching_study`
//! (store-and-forward), and in-memory traced captures of the hotspot
//! cells with their Perfetto export (no file is written). A gain on
//! the plain circuit path that costs any of these shows here. It is
//! also the only workload whose study retains hundreds of `SimResult`s
//! at once. The studies fix their own seeds; `--seed` draws the jitter
//! seed of the traced cells.

use crate::harness::{replay_mismatches, Checked, Scale, Workload};
use crate::layers::{
    AGG, COMPILE, MODEL, PASS, PREDICT, SECTION_NETCOND, SECTION_SAF, SECTION_TRACE,
    SECTION_TRAFFIC, SUMMARY, TRACE,
};
use crate::rng::SplitMix64;
use crate::sim::{self, Digest, ModelError, RunResult};
use crate::span::Recorder;
use mce_bench::extensions::switching_study;
use mce_bench::figures::figure_partitions;
use mce_bench::interference::{interference_study, InterferenceOptions};
use mce_bench::robustness::{robustness_study, RobustnessOptions};
use mce_hypercube::NodeId;
use mce_model::{best_partition, best_saf_partition, MachineParams};
use mce_partitions::Partition;
use mce_simnet::batch::{agg, Memories, RunSpec, SimBatch};
use mce_simnet::conformance::{self, hotspot_condition};
use mce_simnet::trace::export_perfetto_json;
use mce_simnet::traffic::{compose_memories, compose_programs};
use mce_simnet::{
    CwndAlg, FlowCtl, JobSpec, LinkPolicy, NetCondition, Program, SimArena, SimConfig, TraceConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const JITTER: f64 = 0.02;

/// One study cell in the shape both pass forms produce, so a replay
/// can be compared with the study field by field.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    study: &'static str,
    cell: String,
    /// Simulated (and, where the study reports one, predicted) times.
    times_us: Vec<f64>,
    /// Event counts the study reports for the cell.
    counts: Vec<u64>,
    feasible: bool,
    verified: bool,
}

/// See the module docs.
pub struct DegradedMix {
    robustness: RobustnessOptions,
    interference: InterferenceOptions,
    switching_sizes: Vec<usize>,
    /// Block size and hotspot levels of the traced cells.
    trace_block: usize,
    trace_levels: Vec<u32>,
    trace_seed: u64,
    last: Vec<Row>,
    study: Vec<Row>,
    replay_mismatches: Vec<String>,
    events: u64,
    robustness_s: Vec<f64>,
    interference_s: Vec<f64>,
    model_err: ModelError,
    trace_on_s: f64,
}

/// The robustness study's scenario cast, in its report order.
fn robustness_scenarios(opts: &RobustnessOptions) -> Vec<(String, NetCondition)> {
    let d = opts.d;
    let mut out = vec![("baseline".to_string(), NetCondition::default())];
    for &s in &opts.slowdowns {
        out.push((
            format!("slowdown_x{s}"),
            NetCondition::seeded_speeds(1.0, s, 0x5EED + d as u64),
        ));
    }
    for &level in &opts.hotspot_levels {
        out.push((format!("hotspot_{level}"), hotspot_condition(d, level)));
    }
    for &k in &opts.fault_counts {
        let mut nc = NetCondition::default();
        for i in 0..k {
            nc = nc.with_fault(NodeId((i as u32) << 1), (i as u32) % d);
        }
        out.push((format!("faults_{k}"), nc));
    }
    out
}

/// The interference study's regimes: `(label, co-tenant start offset,
/// link policy, co-tenant flow control)`; `None` offset = no co-tenant.
type Regime = (&'static str, Option<u64>, Option<LinkPolicy>, Option<FlowCtl>);

fn interference_regimes(opts: &InterferenceOptions) -> Vec<Regime> {
    let reactive =
        FlowCtl { rto_ns: 200_000, max_retries: 100_000, cwnd: CwndAlg::Aimd { window_max: 8 } };
    vec![
        ("solo", None, None, None),
        ("blocking", Some(0), None, None),
        ("blocking_staggered", Some(opts.stagger_ns), None, None),
        (
            "reactive_droptail",
            Some(0),
            Some(LinkPolicy::DropTail { queue_limit: 0 }),
            Some(reactive),
        ),
        ("reactive_nack", Some(0), Some(LinkPolicy::Nack { queue_limit: 0 }), Some(reactive)),
    ]
}

impl DegradedMix {
    /// `(hotspot level, partition)` of every traced cell.
    fn traced_cell_list(&self) -> Vec<(u32, Partition)> {
        let parts = figure_partitions(&MachineParams::ipsc860(), self.robustness.d, 400.0);
        self.trace_levels.iter().flat_map(|&l| parts.iter().map(move |p| (l, p.clone()))).collect()
    }

    fn traced_cfg(&self, level: u32) -> SimConfig {
        let d = self.robustness.d;
        SimConfig::ipsc860(d)
            .with_netcond(hotspot_condition(d, level))
            .with_jitter(JITTER, self.trace_seed)
    }

    /// The traced captures: the hotspot cells of every figure partition,
    /// run through `SimBatch::push_traced` and exported in memory.
    /// Identical in both pass forms.
    fn traced_cells(&self, rec: &mut Recorder, rows: &mut Vec<Row>) -> u64 {
        let d = self.robustness.d;
        let mut arena = SimArena::new();
        let mut events = 0;
        for (level, part) in self.traced_cell_list() {
            let cfg = self.traced_cfg(level);
            let programs = sim::build(rec, d, part.parts(), self.trace_block);
            let memories = sim::stamp(rec, d, self.trace_block);
            let source_ops = sim::program_ops(&programs);
            let open = rec.enter(TRACE);
            let mut batch = SimBatch::new(cfg.clone());
            batch.push_traced(cfg.clone(), Arc::new(programs), memories, TraceConfig::default());
            let result = batch.run_on(&mut arena).pop().expect("one run was queued");
            let json_len = result.as_ref().map_or(0, |r| export_perfetto_json(&r.trace).len());
            if let Ok(r) = &result {
                rec.child(COMPILE, r.stats.compile_ns);
            }
            rec.exit(open);
            sim::record(rec, TRACE, source_ops, &result);
            events += sim::events(&result);
            let mut digest = Digest::default();
            digest.run(&result);
            let verified =
                result.as_ref().is_ok_and(|r| sim::check(rec, d, self.trace_block, &r.memories));
            rows.push(Row {
                study: "trace",
                cell: format!("hotspot_{level} {part}"),
                times_us: vec![result.as_ref().map_or(f64::NAN, |r| r.finish_time.as_us())],
                counts: vec![json_len as u64, digest.0],
                feasible: result.is_ok(),
                verified,
            });
        }
        events
    }

    fn replay_robustness(&self, rec: &mut Recorder, rows: &mut Vec<Row>) -> u64 {
        let opts = &self.robustness;
        let d = opts.d;
        let params = MachineParams::ipsc860();
        let m_max = opts.sizes.iter().copied().max().unwrap_or(40);
        let parts = rec.time(MODEL, || figure_partitions(&params, d, m_max as f64));
        type Built = (Arc<Vec<Program>>, Arc<Vec<Vec<u8>>>);
        let mut built: BTreeMap<(usize, usize), Built> = BTreeMap::new();
        for (pi, part) in parts.iter().enumerate() {
            for &m in &opts.sizes {
                let programs = Arc::new(sim::build(rec, d, part.parts(), m));
                built.insert((pi, m), (programs, Arc::new(sim::stamp(rec, d, m))));
            }
        }
        let mut arena = SimArena::new();
        let mut events = 0;
        for (label, nc) in robustness_scenarios(opts) {
            let model_cfg = SimConfig::ipsc860(d).with_netcond(nc.clone());
            let cond = rec.time(SUMMARY, || conformance::condition_summary(&model_cfg));
            // Row order of the study's report: sizes outside, partitions inside.
            for &m in &opts.sizes {
                for (pi, part) in parts.iter().enumerate() {
                    let (programs, memories) = &built[&(pi, m)];
                    let cell: Vec<RunResult> = (0..opts.replicates)
                        .map(|rep| {
                            let spec = RunSpec {
                                cfg: SimConfig::ipsc860(d)
                                    .with_jitter(opts.jitter, 0x1991 + rep)
                                    .with_netcond(nc.clone()),
                                programs: Arc::clone(programs),
                                memories: Memories::Shared(Arc::clone(memories)),
                                trace: None,
                            };
                            sim::run_spec(rec, &mut arena, spec)
                        })
                        .collect();
                    events += cell.iter().map(sim::events).sum::<u64>();
                    let summary = rec.time(AGG, || agg::aggregate(&cell));
                    let feasible = summary.failures == 0;
                    let verified = feasible
                        && cell.iter().flatten().all(|r| sim::check(rec, d, m, &r.memories));
                    let mut times_us = vec![summary.finish_us.mean];
                    if feasible {
                        times_us.push(rec.time(PREDICT, || {
                            conformance::predicted_us_with(&model_cfg, &cond, part.parts(), m)
                        }));
                    }
                    rows.push(Row {
                        study: "robustness",
                        cell: format!("{label} {part} m={m}"),
                        times_us,
                        counts: vec![
                            summary.edge_contention_events.mean.to_bits(),
                            summary.background_transmissions.mean.to_bits(),
                        ],
                        feasible,
                        verified,
                    });
                }
            }
        }
        events
    }

    fn replay_interference(&self, rec: &mut Recorder, rows: &mut Vec<Row>) -> u64 {
        let opts = &self.interference;
        let d = opts.d;
        let n = 1usize << d;
        let m_max = opts.sizes.iter().copied().max().unwrap_or(40);
        let parts: Vec<Partition> =
            rec.time(MODEL, || figure_partitions(&MachineParams::ipsc860(), d, m_max as f64));
        let mut arena = SimArena::new();
        let mut events = 0;
        for (label, cotenant, policy, flow) in interference_regimes(opts) {
            for part in &parts {
                for &m in &opts.sizes {
                    let study = sim::build(rec, d, part.parts(), m);
                    let study_mem = sim::stamp(rec, d, m);
                    let mut jobs = vec![JobSpec::default().shaped(part.parts(), m)];
                    let (programs, memories) = match cotenant {
                        Some(start_ns) => {
                            let mut tenant =
                                JobSpec::at(start_ns).shaped(&[d], opts.cotenant_block);
                            if let Some(flow) = flow {
                                tenant = tenant.with_flow(flow);
                            }
                            jobs.push(tenant);
                            let tenant_programs = sim::build(rec, d, &[d], opts.cotenant_block);
                            let tenant_mem = sim::stamp(rec, d, opts.cotenant_block);
                            (
                                compose_programs(d, &[study, tenant_programs]),
                                compose_memories(d, &[study_mem, tenant_mem]),
                            )
                        }
                        None => (study, study_mem),
                    };
                    let mut cfg = SimConfig::ipsc860(d).with_jobs(jobs);
                    if let Some(policy) = policy {
                        cfg = cfg.with_netcond(NetCondition::default().with_link_policy(policy));
                    }
                    let spec = RunSpec {
                        cfg,
                        programs: Arc::new(programs),
                        memories: Memories::Owned(memories),
                        trace: None,
                    };
                    let result = sim::run_spec(rec, &mut arena, spec);
                    events += sim::events(&result);
                    let cell = format!("{label} {part} m={m}");
                    let Ok(r) = &result else {
                        rows.push(Row {
                            study: "interference",
                            cell,
                            times_us: Vec::new(),
                            counts: Vec::new(),
                            feasible: false,
                            verified: false,
                        });
                        continue;
                    };
                    let mut verified = sim::check(rec, d, m, &r.memories[..n]);
                    if cotenant.is_some() {
                        verified &= sim::check(rec, d, opts.cotenant_block, &r.memories[n..2 * n]);
                    }
                    let makespan_us = |job: usize| r.stats.jobs[job].makespan_ns() as f64 / 1000.0;
                    let mut times_us = vec![makespan_us(0)];
                    if cotenant.is_some() {
                        times_us.push(makespan_us(1));
                    }
                    rows.push(Row {
                        study: "interference",
                        cell,
                        times_us,
                        counts: vec![r.stats.retransmissions, r.stats.flow_drops],
                        feasible: true,
                        verified,
                    });
                }
            }
        }
        events
    }

    fn replay_switching(&self, rec: &mut Recorder, rows: &mut Vec<Row>) -> u64 {
        let d = self.robustness.d;
        let params = MachineParams::ipsc860();
        let mut arena = SimArena::new();
        let mut events = 0;
        for &m in &self.switching_sizes {
            let (circuit_best, saf_best) = rec.time(MODEL, || {
                (best_partition(&params, m as f64, d).0, best_saf_partition(&params, m as f64, d).0)
            });
            let singleton = [d];
            let plans: [(&[u32], bool); 3] =
                [(circuit_best.parts(), false), (saf_best.as_slice(), true), (&singleton, true)];
            let mut times_us = Vec::new();
            let mut verified = true;
            for (dims, saf) in plans {
                let cfg = if saf {
                    SimConfig::ipsc860(d).with_store_and_forward()
                } else {
                    SimConfig::ipsc860(d)
                };
                let spec = RunSpec {
                    cfg,
                    programs: Arc::new(sim::build(rec, d, dims, m)),
                    memories: Memories::Owned(sim::stamp(rec, d, m)),
                    trace: None,
                };
                let result = sim::run_spec(rec, &mut arena, spec);
                events += sim::events(&result);
                times_us.push(result.as_ref().map_or(f64::NAN, |r| r.finish_time.as_us()));
                // The study does not verify these runs; the ledger does.
                verified &= result.as_ref().is_ok_and(|r| sim::check(rec, d, m, &r.memories));
            }
            rows.push(Row {
                study: "switching",
                cell: format!("m={m}"),
                times_us,
                counts: Vec::new(),
                feasible: true,
                verified,
            });
        }
        events
    }

    /// Rows of a study-form pass, reshaped like the replay's. The
    /// switching study reports no verification verdict, so its rows
    /// carry the replay's (`true` unless the replay says otherwise).
    fn study_rows(&mut self) -> Vec<Row> {
        let mut rows = Vec::new();
        let t0 = Instant::now();
        let report = robustness_study(&self.robustness);
        self.robustness_s.push(t0.elapsed().as_secs_f64());
        rows.extend(report.rows.into_iter().map(|r| Row {
            study: "robustness",
            cell: format!("{} {} m={}", r.scenario, r.partition, r.block_size),
            times_us: std::iter::once(r.finish_us.mean).chain(r.model_predicted_us).collect(),
            counts: vec![r.edge_contention_events.to_bits(), r.background_transmissions.to_bits()],
            feasible: r.feasible,
            verified: r.verified,
        }));
        let t0 = Instant::now();
        let report = interference_study(&self.interference);
        self.interference_s.push(t0.elapsed().as_secs_f64());
        rows.extend(report.rows.into_iter().map(|r| Row {
            study: "interference",
            cell: format!("{} {} m={}", r.regime, r.partition, r.block_size),
            times_us: std::iter::once(r.study_makespan_us).chain(r.cotenant_makespan_us).collect(),
            counts: vec![r.retransmissions, r.flow_drops],
            feasible: true,
            verified: r.verified,
        }));
        let report = switching_study(self.robustness.d, &self.switching_sizes);
        rows.extend(report.into_iter().map(|r| Row {
            study: "switching",
            cell: format!("m={}", r.block_size),
            times_us: vec![r.circuit_us, r.saf_us, r.saf_flat_us],
            counts: Vec::new(),
            feasible: true,
            verified: true,
        }));
        rows
    }
}

impl Workload for DegradedMix {
    const NAME: &'static str = "degraded_mix";
    const STUDY_FORM: bool = true;

    fn setup(seed: u64, scale: Scale) -> DegradedMix {
        // Sub-grids sized so that each of the four sections (netcond,
        // traffic, store-and-forward, trace) holds a tenth of the pass
        // or more; README.md has the measured shares.
        let (d, sizes, replicates, slowdowns, hotspots, switching_sizes, trace_levels) = match scale
        {
            Scale::Full => (
                6,
                vec![120, 280],
                3,
                vec![2.0, 5.0],
                vec![6, 12],
                (1..=20).map(|k| k * 40).collect(),
                vec![6, 12],
            ),
            Scale::Quick => (4, vec![16, 128], 2, vec![4.0], vec![3], vec![16, 128], vec![3]),
        };
        DegradedMix {
            robustness: RobustnessOptions {
                d,
                sizes: sizes.clone(),
                replicates,
                jitter: JITTER,
                slowdowns,
                hotspot_levels: hotspots,
                fault_counts: vec![1],
            },
            interference: InterferenceOptions {
                d,
                sizes,
                cotenant_block: 200,
                stagger_ns: 500_000,
            },
            switching_sizes,
            trace_block: 40,
            trace_levels,
            trace_seed: SplitMix64::new(seed, 0).next_u64(),
            last: Vec::new(),
            study: Vec::new(),
            replay_mismatches: Vec::new(),
            events: 0,
            robustness_s: Vec::new(),
            interference_s: Vec::new(),
            model_err: ModelError::default(),
            trace_on_s: 0.0,
        }
    }

    fn pass(&mut self) {
        let mut rows = self.study_rows();
        self.traced_cells(&mut Recorder::off(), &mut rows);
        self.study.clone_from(&rows);
        self.last = rows;
    }

    fn layered_pass(&mut self, rec: &mut Recorder) {
        let open = rec.enter(PASS);
        let mut rows = Vec::new();
        // One enclosing span per section, so a trace shows what share
        // of the pass each feature's sub-grid holds, glue included.
        let section = rec.enter(SECTION_NETCOND);
        let mut events = self.replay_robustness(rec, &mut rows);
        rec.exit(section);
        let section = rec.enter(SECTION_TRAFFIC);
        events += self.replay_interference(rec, &mut rows);
        rec.exit(section);
        let section = rec.enter(SECTION_SAF);
        events += self.replay_switching(rec, &mut rows);
        rec.exit(section);
        let section = rec.enter(SECTION_TRACE);
        let t0 = Instant::now();
        events += self.traced_cells(rec, &mut rows);
        self.trace_on_s = t0.elapsed().as_secs_f64();
        rec.exit(section);
        rec.exit(open);
        self.events = events;
        self.last = rows;
        self.replay_mismatches = replay_mismatches(&self.last, &self.study);
    }

    fn check(&mut self, out: &mut Checked) {
        let fault_rows = self.last.iter().filter(|r| r.cell.starts_with("faults_")).count();
        let m_max = self.robustness.sizes.iter().copied().max().unwrap_or(40);
        let expected = self.robustness.fault_counts.len()
            * self.robustness.sizes.len()
            * figure_partitions(&MachineParams::ipsc860(), self.robustness.d, m_max as f64).len();
        out.expect(fault_rows == expected, || {
            format!("{fault_rows} fault rows, expected {expected}")
        });
        for row in &self.last {
            // A dead cable makes every partition unroutable: the typed
            // failure is the expected outcome of a fault row, anything
            // else there is a defect.
            let ok = if row.cell.starts_with("faults_") {
                !row.feasible
            } else {
                row.feasible && row.verified
            };
            out.expect(ok, || format!("cell {row:?} failed"));
            row.times_us.iter().for_each(|t| out.digest.float(*t));
            row.counts.iter().for_each(|c| out.digest.word(*c));
            if row.study == "robustness" && row.times_us.len() == 2 {
                self.model_err.see(row.times_us[0], row.times_us[1]);
            }
        }
        for why in self.replay_mismatches.drain(..) {
            out.fail(why);
        }
    }

    fn verify(&mut self, out: &mut Checked) {
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
        let median = crate::stats::median;
        metrics.insert("bench.robustness.study_s".into(), median(&self.robustness_s));
        metrics.insert("bench.interference.study_s".into(), median(&self.interference_s));
        metrics.insert("model.err_max".into(), self.model_err.0);
        // Base of `simnet.trace.on_over_off`: the traced cells again
        // with capture off (run, no export).
        let d = self.robustness.d;
        let cells = self.traced_cell_list();
        let mut arena = SimArena::new();
        let mut rec = Recorder::off();
        let t0 = Instant::now();
        for (level, part) in &cells {
            let cfg = self.traced_cfg(*level);
            let programs = sim::build(&mut rec, d, part.parts(), self.trace_block);
            let memories = sim::stamp(&mut rec, d, self.trace_block);
            let result = arena.run(&cfg, &programs, memories);
            let verified =
                result.is_ok_and(|r| sim::check(&mut rec, d, self.trace_block, &r.memories));
            assert!(verified, "untraced base of the traced cells failed");
        }
        metrics.insert(
            "simnet.trace.on_over_off".into(),
            self.trace_on_s / t0.elapsed().as_secs_f64(),
        );
        let cubes: Vec<(u32, &[u32])> = cells.iter().map(|(_, p)| (d, p.parts())).collect();
        crate::probes::scheduler_and_links(&cubes, self.trace_block, metrics);
    }
}
