//! Probes: replays, outside the timed pass, of layers that wrapping the
//! public entry points cannot separate — the scheduler and the link
//! table live inside one `SimArena` call; fingerprint, cache probe,
//! hull build and face search live inside one `PlanEngine::answer`.
//! Each probe drives the layer's own public type with a stream shaped
//! like the workload's and reports a cost per operation. Shares
//! computed from these costs are estimates and labelled as such.

use mce_core::schedule::multiphase_schedule;
use mce_hypercube::routing::{ecube_path, DirectedLink};
use mce_hypercube::NodeId;
use mce_model::{
    conditioned_best_partition, conditioned_multiphase_time, ConditionSummary, MachineParams,
};
use mce_partitions::partitions;
use mce_plan::{CacheKey, HullCache, MachineKey, PlanHull};
use mce_simnet::config::SwitchingMode;
use mce_simnet::link::LinkTable;
use mce_simnet::{CalendarQueue, SimConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Seconds `f` takes, as the median of `rounds` calls.
fn median_secs(rounds: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// Replay the event shape of multiphase exchanges on the given cubes
/// through `CalendarQueue` (every node of a step schedules one
/// completion one transmission ahead, then all are popped) and through
/// `LinkTable` (every node of a step acquires its e-cube circuit, then
/// all release). Reports ns per push+pop and ns per acquire+release,
/// weighted over the cubes by their event counts.
pub fn scheduler_and_links(
    cubes: &[(u32, &[u32])],
    block: usize,
    metrics: &mut BTreeMap<String, f64>,
) {
    let (mut sched_s, mut link_s, mut ops) = (0.0, 0.0, 0u64);
    for &(d, dims) in cubes {
        let cfg = SimConfig::ipsc860(d);
        let n = 1u32 << d;
        // (mask, transmission duration) of every step of the exchange.
        let steps: Vec<(u32, u64)> = multiphase_schedule(d, dims)
            .iter()
            .flat_map(|phase| {
                let bytes = block * phase.superblock_blocks;
                phase.steps.iter().map(move |&mask| (mask, bytes, mask.count_ones()))
            })
            .map(|(mask, bytes, hops)| (mask, cfg.transmission_ns(bytes, hops)))
            .collect();
        ops += steps.len() as u64 * n as u64;

        let mut queue: CalendarQueue<u32> = CalendarQueue::new(cfg.sched_bucket_width_ns(), 0);
        sched_s += median_secs(5, || {
            queue.reset(cfg.sched_bucket_width_ns(), 0);
            let (mut now, mut seq) = (0u64, 0u64);
            for &(_, duration) in &steps {
                for node in 0..n {
                    // Nodes drift by a few ns, as under jitter.
                    queue.push(now + duration + (node as u64 & 7), seq, node);
                    seq += 1;
                }
                while let Some((time, _, node)) = queue.pop() {
                    now = time;
                    black_box(node);
                }
            }
        });

        let paths: Vec<Vec<Vec<DirectedLink>>> = steps
            .iter()
            .map(|&(mask, _)| {
                (0..n).map(|x| ecube_path(NodeId(x), NodeId(x ^ mask)).links().collect()).collect()
            })
            .collect();
        let mut table = LinkTable::for_cube(d);
        link_s += median_secs(5, || {
            for step in &paths {
                for (x, path) in step.iter().enumerate() {
                    table.acquire(path, x as u64 + 1);
                }
                black_box(table.busy_count());
                for (x, path) in step.iter().enumerate() {
                    table.release(path, x as u64 + 1);
                }
            }
        });
    }
    metrics.insert("simnet.sched.push_pop_ns".into(), sched_s * 1e9 / ops as f64);
    metrics.insert("simnet.link.hold_ns".into(), link_s * 1e9 / ops as f64);
}

/// Per-operation costs of the planner's inner layers on `conditions`
/// (all of dimension `d`): one model evaluation, one best-partition
/// fold, one fingerprint, one partition enumeration, one hull build,
/// one warm cache fetch, one face search.
pub fn planner_layers(
    d: u32,
    conditions: &[ConditionSummary],
    metrics: &mut BTreeMap<String, f64>,
) {
    assert!(!conditions.is_empty(), "planner probes need conditions");
    let machine = MachineParams::ipsc860();
    let per = |secs: f64, count: usize| secs * 1e9 / count as f64;
    let sample = &conditions[..conditions.len().min(64)];

    let parts = partitions(d);
    let evals = sample.len() * parts.len();
    let eval_s = median_secs(3, || {
        for cond in sample {
            for part in &parts {
                black_box(conditioned_multiphase_time(&machine, 64.0, d, part.parts(), cond));
            }
        }
    });
    metrics.insert("model.multiphase.eval_ns".into(), per(eval_s, evals));

    let best_s = median_secs(3, || {
        for cond in sample {
            black_box(conditioned_best_partition(&machine, 64.0, d, cond));
        }
    });
    metrics.insert("model.conditioned.best_ns".into(), per(best_s, sample.len()));

    let fingerprint_s = median_secs(3, || {
        for cond in conditions {
            black_box(cond.fingerprint());
        }
    });
    metrics.insert("model.conditioned.fingerprint_ns".into(), per(fingerprint_s, conditions.len()));

    let enumerate_s = median_secs(5, || {
        for _ in 0..64 {
            black_box(partitions(black_box(d)));
        }
    });
    metrics.insert("partitions.enumerate_ns".into(), per(enumerate_s, 64));

    // Every hull of the pass, built directly: the model's share of a
    // cold pass.
    let t0 = Instant::now();
    let hulls: Vec<Arc<PlanHull>> = conditions
        .iter()
        .map(|cond| Arc::new(PlanHull::build(&machine, SwitchingMode::Circuit, d, cond)))
        .collect();
    let build_s = t0.elapsed().as_secs_f64();
    metrics.insert("model.hull.build_s".into(), build_s);
    metrics.insert("plan.hull.build_us".into(), build_s * 1e6 / hulls.len() as f64);

    // A cache that holds all of them, so every fetch hits.
    let cache = HullCache::new(16, conditions.len());
    let keys: Vec<CacheKey> = conditions
        .iter()
        .map(|cond| CacheKey {
            machine: MachineKey::of(&machine),
            d,
            saf: false,
            fingerprint: cond.fingerprint(),
        })
        .collect();
    for (key, hull) in keys.iter().zip(&hulls) {
        cache.insert(key.clone(), Arc::clone(hull));
    }
    let get_s = median_secs(5, || {
        for key in &keys {
            black_box(cache.get(key));
        }
    });
    metrics.insert("plan.cache.get_ns".into(), per(get_s, keys.len()));

    let sizes: Vec<f64> = (0..50).map(|i| 1.0 + 8.0 * i as f64).collect();
    let face_s = median_secs(5, || {
        for hull in &hulls {
            for &m in &sizes {
                black_box(hull.face(m));
            }
        }
    });
    metrics.insert("plan.hull.face_ns".into(), per(face_s, hulls.len() * sizes.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_costs() {
        let mut m = BTreeMap::new();
        scheduler_and_links(&[(4, &[2, 2])], 16, &mut m);
        assert!(m["simnet.sched.push_pop_ns"] > 0.0 && m["simnet.link.hold_ns"] > 0.0);

        let conditions =
            vec![ConditionSummary::noop(5), ConditionSummary::from_link_factors(5, &[2.0; 160])];
        planner_layers(5, &conditions, &mut m);
        for name in [
            "model.multiphase.eval_ns",
            "model.conditioned.best_ns",
            "model.conditioned.fingerprint_ns",
            "partitions.enumerate_ns",
            "model.hull.build_s",
            "plan.hull.build_us",
            "plan.cache.get_ns",
            "plan.hull.face_ns",
        ] {
            assert!(m[name] > 0.0, "{name}");
        }
    }
}
