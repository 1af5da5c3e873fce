//! The six workloads. Each module's docs say what one pass does, which
//! layers it stresses and which it bypasses; `BENCHMARK.json` carries
//! the one-line version.

use crate::harness::{run_traced, run_untraced, Outcome, Scale, Workload};

pub mod bigcube_cold;
pub mod degraded_mix;
pub mod figs_cold;
pub mod plan_cold;
pub mod plan_warm;
pub mod sweep_warm;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 6] = [
    figs_cold::FigsCold::NAME,
    sweep_warm::SweepWarm::NAME,
    bigcube_cold::BigcubeCold::NAME,
    degraded_mix::DegradedMix::NAME,
    plan_warm::PlanWarm::NAME,
    plan_cold::PlanCold::NAME,
];

/// Run workload `name`; `None` if there is no such workload.
pub fn run(name: &str, seed: u64, seconds: f64, scale: Scale, traced: bool) -> Option<Outcome> {
    fn go<W: Workload>(seed: u64, seconds: f64, scale: Scale, traced: bool) -> Outcome {
        if traced {
            run_traced::<W>(seed, seconds, scale)
        } else {
            run_untraced::<W>(seed, seconds, scale)
        }
    }
    let run = match name {
        figs_cold::FigsCold::NAME => go::<figs_cold::FigsCold>,
        sweep_warm::SweepWarm::NAME => go::<sweep_warm::SweepWarm>,
        bigcube_cold::BigcubeCold::NAME => go::<bigcube_cold::BigcubeCold>,
        degraded_mix::DegradedMix::NAME => go::<degraded_mix::DegradedMix>,
        plan_warm::PlanWarm::NAME => go::<plan_warm::PlanWarm>,
        plan_cold::PlanCold::NAME => go::<plan_cold::PlanCold>,
        _ => return None,
    };
    Some(run(seed, seconds, scale, traced))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at toy scale, both run kinds: all checks pass,
    /// every declared metric is produced, and a seed repeats exactly.
    #[test]
    fn quick_runs_are_correct_deterministic_and_complete() {
        let manifest = crate::manifest::manifest();
        for name in NAMES {
            let a = run(name, 11, 0.2, Scale::Quick, false).expect("known workload");
            let b = run(name, 11, 0.2, Scale::Quick, false).expect("known workload");
            assert!(a.correct && b.correct, "{name}: {:?} {:?}", a.failures, b.failures);
            assert_eq!(a.digest, b.digest, "{name}: one seed, one digest");
            for metric in &manifest.end_to_end {
                assert!(a.metrics[&metric.name] > 0.0, "{name}: {} is 0", metric.name);
            }
            let t = run(name, 11, 0.4, Scale::Quick, true).expect("known workload");
            assert!(t.correct, "{name} traced: {:?}", t.failures);
            assert_eq!(t.digest, a.digest, "{name}: traced passes simulate the same thing");
            let layers = crate::report::declared_metrics(&manifest, &t, true);
            assert_eq!(layers.len(), manifest.per_layer.len());
        }
    }

    #[test]
    fn seeds_change_the_seeded_inputs() {
        for name in [sweep_warm::SweepWarm::NAME, plan_cold::PlanCold::NAME] {
            let a = run(name, 1, 0.1, Scale::Quick, false).expect("known workload");
            let b = run(name, 2, 0.1, Scale::Quick, false).expect("known workload");
            assert_ne!(a.digest, b.digest, "{name}: the seed must reach the inputs");
        }
    }
}
