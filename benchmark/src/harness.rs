//! The measurement loop shared by every workload.
//!
//! One client thread on one CPU (`main` pins the process), closed loop:
//! a pass starts only after the previous one — and its untimed check —
//! finished. An untraced run sets up three times (reporting the median
//! as `setup_s`), then times passes for the requested number of seconds
//! and reports the median pass, every time read at nominal host speed
//! (see [`timed_at_nominal`]). A traced run times the same passes
//! through the layers' public calls, alternately with the span recorder
//! off and on, and turns the spans and counters into the per-layer
//! metrics; its times are raw.

use crate::layers::{self, ENGINE_FLAVOURS, PASS};
use crate::sim::Digest;
use crate::span::{LayerTime, Recorder, Span};
use crate::stats::median;
use crate::sys;
use std::collections::BTreeMap;
use std::time::Instant;

/// Names of the end-to-end metrics an untraced run measures, in the
/// order [`run_untraced`] fills them in.
pub const END_TO_END: [&str; 5] = ["setup_s", "wall_s", "cpu_s", "work_per_s", "peak_rss_mb"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Passes a run times at least, however slow they are.
const MIN_PASSES: usize = 3;

/// Share of a traced run's seconds spent on passes; the rest is left
/// for the workload's probes.
const TRACED_PASS_SHARE: f64 = 0.7;

/// Input scale: the declared workloads, or toy versions of them that
/// exercise the same code and checks in about a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload as `BENCHMARK.json` declares it.
    Full,
    /// `--quick`.
    Quick,
}

/// What the untimed checks have seen so far.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Determinism digest of the pass being checked.
    pub digest: Digest,
    /// One line per failed check, for the operator.
    pub failures: Vec<String>,
}

impl Checked {
    /// Count `n` operations as checked and passed.
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one operation as checked and failed.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        // Keep the first few; a broken engine fails thousands of cells.
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Count one operation, failed unless `ok`.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.pass(1);
        } else {
            self.fail(why());
        }
    }
}

/// Field-by-field differences between a layered replay and the study
/// pass it must reproduce bit for bit (the first few, as failure
/// lines). An empty `studied` means no study pass ran yet.
pub fn replay_mismatches<T: PartialEq + std::fmt::Debug>(
    replayed: &[T],
    studied: &[T],
) -> Vec<String> {
    if studied.is_empty() {
        return Vec::new();
    }
    let mut out: Vec<String> = replayed
        .iter()
        .zip(studied)
        .filter(|(r, s)| r != s)
        .take(5)
        .map(|(r, s)| format!("replay {r:?} != study {s:?}"))
        .collect();
    if replayed.len() != studied.len() {
        out.push(format!("replay produced {} rows, the study {}", replayed.len(), studied.len()));
    }
    out
}

/// A benchmark workload. See `workloads` for the six implementations.
pub trait Workload: Sized {
    /// Name, as `--workload` takes it.
    const NAME: &'static str;

    /// Whether [`Workload::pass`] enters through a study entry point
    /// that differs from the layered replay (the library's fan-out,
    /// which on the harness's one CPU runs on the calling thread).
    const STUDY_FORM: bool = false;

    /// Generate the inputs from `seed` and pay whatever a user pays
    /// once: program builds, first compiles, cache warm-up.
    fn setup(seed: u64, scale: Scale) -> Self;

    /// One pass the way a user drives the system. Timed.
    fn pass(&mut self) {
        self.layered_pass(&mut Recorder::off());
    }

    /// The same work through the layers' public calls, under spans.
    fn layered_pass(&mut self, rec: &mut Recorder);

    /// Untimed, after every pass of either form: check what it
    /// produced and fold it into `out.digest`.
    fn check(&mut self, out: &mut Checked);

    /// Untimed, once after the measurement: oracle comparisons.
    fn verify(&mut self, out: &mut Checked);

    /// Units of work one pass completes (what `work_per_s` counts).
    fn work_per_pass(&self) -> u64;

    /// Workload-specific results a run reports beside the declared
    /// end-to-end metrics: `(name, unit, value)`.
    fn extras(&self) -> Vec<(&'static str, &'static str, f64)> {
        Vec::new()
    }

    /// Traced runs only: measure what wrapping public calls cannot
    /// separate (replays outside the pass) into `metrics`.
    fn probes(&mut self, _metrics: &mut BTreeMap<String, f64>) {}
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Failure descriptions.
    pub failures: Vec<String>,
    /// Digest every pass agreed on.
    pub digest: u64,
    /// Metric values by name: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: BTreeMap<String, f64>,
    /// Workload-specific extras.
    pub extras: Vec<(&'static str, &'static str, f64)>,
    /// Per-sample series behind the medians (`wall_s`, `cpu_s`, ...).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Spans of the last traced pass.
    pub spans: Vec<Span>,
}

/// Pass-to-pass determinism: every pass must reproduce the first
/// pass's digest.
struct DigestGate(Option<Digest>);

impl DigestGate {
    fn check(&mut self, checked: &mut Checked, pass: usize) {
        let seen = std::mem::take(&mut checked.digest);
        match self.0 {
            None => self.0 = Some(seen),
            Some(first) => checked.expect(seen == first, || {
                format!(
                    "pass {pass}: sim_digest {:016x} differs from pass 0's {:016x}",
                    seen.0, first.0
                )
            }),
        }
    }
}

/// Wall seconds, CPU seconds and peak resident MB of `f`.
fn timed(f: impl FnOnce()) -> (f64, f64, f64) {
    sys::reset_peak_rss();
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    f();
    let wall = t0.elapsed().as_secs_f64();
    (wall, sys::cpu_seconds() - cpu0, sys::peak_rss_mb())
}

/// Share of the reference loop's slowdown a pass is taken to follow.
/// The loop is core-bound; a pass also waits for memory, which does not
/// slow down with the core. Measured on 100 s series per workload, pass
/// time follows 0.4–0.5 of the loop's slowdown on the memory-bound
/// workloads (`sweep_warm`, `bigcube_cold`) and 0.9–1.0 on the
/// compute-bound ones (`plan_*`); this is the middle, which leaves any
/// of them at most 0.3 of the host's swing.
const CORE_BOUND_SHARE: f64 = 0.7;

/// [`timed`] with the wall and CPU seconds read at nominal host speed:
/// divided by `1 + CORE_BOUND_SHARE × (slowdown − 1)`, the slowdown
/// being the host's while `f` ran (read just before and just after,
/// averaged; returned fourth). The shared box drifts between speed
/// states up to 30 % apart that last for seconds, and raw medians of a
/// run drift with them.
fn timed_at_nominal(f: impl FnOnce()) -> (f64, f64, f64, f64) {
    let before = sys::host_slowdown();
    let (wall, cpu, peak) = timed(f);
    let slowdown = 0.5 * (before + sys::host_slowdown());
    let factor = 1.0 + CORE_BOUND_SHARE * (slowdown - 1.0);
    (wall / factor, cpu / factor, peak, slowdown)
}

fn finish<W: Workload>(w: &W, checked: Checked, gate: DigestGate, mut out: Outcome) -> Outcome {
    out.correct = checked.failed == 0;
    out.attempted = checked.attempted;
    out.failed = checked.failed;
    out.failures = checked.failures;
    out.digest = gate.0.map_or(0, |d| d.0);
    out.extras = w.extras();
    out
}

/// An untraced run: the end-to-end metrics.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut checked = Checked::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // Release the previous instance first: peak memory is one
        // set-up's, not two.
        drop(workload.take());
        let mut made = None;
        let (wall, ..) = timed_at_nominal(|| {
            let mut w = W::setup(seed, scale);
            w.pass();
            made = Some(w);
        });
        setups.push(wall);
        let mut w = made.expect("the closure ran");
        // The warm-up pass is checked like any other, but its digest
        // may legitimately differ (first compiles), so it is dropped.
        w.check(&mut checked);
        checked.digest = Digest::default();
        workload = Some(w);
    }
    let mut w = workload.expect("SETUPS > 0");

    let mut gate = DigestGate(None);
    let (mut walls, mut cpus, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut slowdowns = Vec::new();
    let started = Instant::now();
    loop {
        let (wall, cpu, peak, slowdown) = timed_at_nominal(|| w.pass());
        slowdowns.push(slowdown);
        walls.push(wall);
        cpus.push(cpu);
        peaks.push(peak);
        w.check(&mut checked);
        gate.check(&mut checked, walls.len() - 1);
        // Stop where another pass (with its check) would overshoot the
        // requested seconds by more than it undershoots now.
        let elapsed = started.elapsed().as_secs_f64();
        let per_pass = elapsed / walls.len() as f64;
        if walls.len() >= MIN_PASSES && elapsed + 0.5 * per_pass >= seconds {
            break;
        }
    }
    w.verify(&mut checked);

    let mut out = Outcome::default();
    let wall_s = median(&walls);
    let values = [
        median(&setups),
        wall_s,
        median(&cpus),
        w.work_per_pass() as f64 / wall_s,
        // Peak of a typical settled pass, not of the run: where the
        // library fans out, how the workers' largest cells happen to
        // overlap decides the run's maximum, and one unlucky pass would
        // set it; and the allocator's retained heap still grows over
        // the first passes.
        median(&peaks[peaks.len() / 2..]),
    ];
    out.metrics.extend(END_TO_END.iter().map(|name| name.to_string()).zip(values));
    out.samples.insert("host_slowdown", slowdowns);
    out.samples.insert("setup_s", setups);
    out.samples.insert("wall_s", walls);
    out.samples.insert("cpu_s", cpus);
    out.samples.insert("peak_rss_mb", peaks);
    finish(&w, checked, gate, out)
}

/// Median self time per pass of every span name, in seconds.
fn median_self_s(passes: &[BTreeMap<&'static str, LayerTime>]) -> BTreeMap<&'static str, f64> {
    let mut names: Vec<&'static str> = passes.iter().flat_map(|p| p.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let per_pass: Vec<f64> = passes
                .iter()
                .map(|p| p.get(name).map_or(0.0, |l| l.self_ns as f64 * 1e-9))
                .collect();
            (name, median(&per_pass))
        })
        .collect()
}

/// A traced run: the per-layer metrics.
pub fn run_traced<W: Workload>(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut checked = Checked::default();
    let mut w = W::setup(seed, scale);
    w.pass();
    w.check(&mut checked);
    checked.digest = Digest::default();

    let mut gate = DigestGate(None);
    let mut rec = Recorder::on();
    let (mut study, mut off, mut on) = (Vec::new(), Vec::new(), Vec::new());
    let mut layer_passes: Vec<BTreeMap<&'static str, LayerTime>> = Vec::new();
    let mut counters: Option<BTreeMap<&'static str, f64>> = None;
    let started = Instant::now();
    let mut pass = 0;
    loop {
        if W::STUDY_FORM {
            study.push(timed(|| w.pass()).0);
            w.check(&mut checked);
            gate.check(&mut checked, pass);
        }
        off.push(timed(|| w.layered_pass(&mut Recorder::off())).0);
        w.check(&mut checked);
        gate.check(&mut checked, pass);

        rec.begin_pass(pass as u32);
        on.push(timed(|| w.layered_pass(&mut rec)).0);
        w.check(&mut checked);
        gate.check(&mut checked, pass);
        layer_passes.push(rec.layer_times());
        // Counts must repeat exactly from pass to pass.
        match &counters {
            None => counters = Some(rec.counters().clone()),
            Some(first) => checked.expect(first == rec.counters(), || {
                format!("pass {pass}: layer counters differ from pass 0's")
            }),
        }

        pass += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if pass >= 2 && elapsed + 0.5 * elapsed / pass as f64 >= TRACED_PASS_SHARE * seconds {
            break;
        }
    }
    w.verify(&mut checked);

    let mut out = Outcome::default();
    let m = &mut out.metrics;
    for (name, value) in counters.expect("at least one traced pass") {
        m.insert(name.to_string(), value);
    }
    let self_s = median_self_s(&layer_passes);
    for (metric, span) in layers::SELF_TIME_S {
        m.insert(metric.to_string(), self_s.get(span).copied().unwrap_or(0.0));
    }
    let batch_ns: Vec<f64> = layer_passes
        .iter()
        .map(|p| {
            ENGINE_FLAVOURS.iter().filter_map(|f| p.get(f)).map(|l| l.total_ns).sum::<u64>() as f64
        })
        .collect();
    m.insert("simnet.batch.run_s".into(), median(&batch_ns) * 1e-9);

    let glue_s = layers::GLUE.iter().filter_map(|span| self_s.get(span));
    m.insert("bench.driver_s".into(), glue_s.sum());

    let (off_s, on_s) = (median(&off), median(&on));
    let driver_s = if W::STUDY_FORM { median(&study) } else { off_s };
    m.insert("bench.work_per_s".into(), w.work_per_pass() as f64 / driver_s);
    if W::STUDY_FORM {
        // Serial time of the cells over what the fan-out took on
        // `nproc` workers (1 when pinned: replay over study form).
        m.insert("simnet.batch.parallel_eff".into(), off_s / (driver_s * sys::nproc() as f64));
    }
    m.insert("trace.wall_s".into(), on_s);
    // Pair by pair: the two passes of a pair ran back to back, in one
    // speed state of the host more often than not.
    let on_over_off: Vec<f64> = on.iter().zip(&off).map(|(on, off)| on / off).collect();
    m.insert("trace.overhead_frac".into(), median(&on_over_off) - 1.0);
    let self_sum: f64 = self_s.values().sum();
    m.insert("trace.self_sum_frac".into(), self_sum / on_s);
    let root_s = layer_passes.iter().map(|p| p[PASS].total_ns as f64 * 1e-9).collect::<Vec<_>>();
    checked.expect((median(&root_s) / on_s - 1.0).abs() <= 0.05, || {
        format!("spans cover {:.3} s of a {on_s:.3} s traced pass", median(&root_s))
    });

    w.probes(m);
    layers::derive(&self_s, m);

    out.samples.insert("layered_off_s", off);
    out.samples.insert("layered_on_s", on);
    if W::STUDY_FORM {
        out.samples.insert("study_s", study);
    }
    out.spans = rec.spans().to_vec();
    finish(&w, checked, gate, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload that sleeps, to pin the loop's accounting.
    struct Nap {
        passes: u64,
        lie_on_pass: Option<u64>,
    }

    impl Workload for Nap {
        const NAME: &'static str = "nap";

        fn setup(seed: u64, _scale: Scale) -> Nap {
            Nap { passes: 0, lie_on_pass: (seed == 13).then_some(3) }
        }

        fn layered_pass(&mut self, rec: &mut Recorder) {
            let open = rec.enter(PASS);
            rec.time(layers::ENGINE, || std::thread::sleep(std::time::Duration::from_millis(5)));
            rec.count("simnet.batch.runs", 1.0);
            rec.exit(open);
            self.passes += 1;
        }

        fn check(&mut self, out: &mut Checked) {
            out.pass(1);
            out.digest.word(if Some(self.passes) == self.lie_on_pass { 1 } else { 0 });
        }

        fn verify(&mut self, out: &mut Checked) {
            out.pass(1);
        }

        fn work_per_pass(&self) -> u64 {
            10
        }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let out = run_untraced::<Nap>(1, 0.05, Scale::Quick);
        assert!(out.correct, "{:?}", out.failures);
        for name in END_TO_END {
            assert!(out.metrics[name] > 0.0, "{name} = {}", out.metrics[name]);
        }
        let passes = out.samples["wall_s"].len() as u64;
        assert!(passes >= MIN_PASSES as u64);
        // Three warm-ups, one check per pass, one pass-to-pass digest
        // comparison from the second pass on, one verify.
        assert_eq!(out.attempted, SETUPS as u64 + passes + (passes - 1) + 1);
        let wall_s = out.metrics["wall_s"];
        assert_eq!(out.metrics["work_per_s"], 10.0 / wall_s);
        // A 5 ms nap, read at nominal host speed.
        let slowdown = median(&out.samples["host_slowdown"]);
        let raw_s = wall_s * (1.0 + CORE_BOUND_SHARE * (slowdown - 1.0));
        assert!((0.0045..0.0065).contains(&raw_s), "{raw_s} from {:?}", out.metrics);
    }

    #[test]
    fn a_pass_that_disagrees_with_the_first_fails_the_run() {
        let out = run_untraced::<Nap>(13, 0.05, Scale::Quick);
        assert!(!out.correct);
        assert_eq!(out.failed, 1, "{:?}", out.failures);
    }

    #[test]
    fn traced_run_attributes_the_pass_to_its_layers() {
        let out = run_traced::<Nap>(1, 0.1, Scale::Quick);
        assert!(out.correct, "{:?}", out.failures);
        let m = &out.metrics;
        assert!(m["simnet.engine.run_s"] >= 0.005);
        assert!(m["bench.driver_s"] < 0.001);
        assert_eq!(m["simnet.batch.runs"], 1.0);
        // Not 0.95: the other tests share the CPUs, and a nap is short.
        assert!(m["trace.self_sum_frac"] > 0.8 && m["trace.self_sum_frac"] <= 1.0);
        assert_eq!(m["simnet.engine.ns_per_event"], 0.0, "no events were recorded");
        assert_eq!(out.spans.len(), 2);
    }
}
