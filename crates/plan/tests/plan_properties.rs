//! Property pins for the exactness contract: warm cached answers are
//! indistinguishable from fresh model calls.
//!
//! Strategy note: the vendored proptest is integer-only, so floats are
//! derived from integer draws (milli-factors, byte counts) — which also
//! keeps the cases reproducible in failure messages.

use mce_model::{
    conditioned_best_partition, conditioned_multiphase_time, AffineHullFace, ConditionSummary,
    MachineParams,
};
use mce_partitions::Partition;
use mce_plan::{FallbackPolicy, PlanEngine, PlanHull, PlanOptions, PlanQuery, BOUNDARY_REL_EPS};
use mce_simnet::config::SwitchingMode;
use proptest::prelude::*;

/// A random-but-valid condition summary built from integer draws:
/// `kind` selects the family, `a`/`b` parameterize it.
fn summary_from(d: u32, kind: u32, a: u64, b: u64) -> ConditionSummary {
    let n = 1usize << d;
    let dims = d as usize;
    match kind % 4 {
        // Pristine.
        0 => ConditionSummary::noop(d),
        // Uniform slowdown, factor in (1.0, 4.0].
        1 => {
            let f = 1.0 + (1 + a % 3000) as f64 / 1000.0;
            ConditionSummary::from_link_factors(d, &vec![f; n * dims])
        }
        // Heterogeneous per-link factors in [1.0, 3.0), varied by a
        // cheap integer hash so min/mean/max all differ.
        2 => {
            let factors: Vec<f64> = (0..n * dims)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(a);
                    1.0 + (h % 2000) as f64 / 1000.0
                })
                .collect();
            ConditionSummary::from_link_factors(d, &factors)
        }
        // A few dilute background streams.
        _ => {
            let mut cond = ConditionSummary::noop(d);
            let streams = 1 + (a % 3);
            for j in 0..streams {
                let mask = 1 + ((a >> (8 + j)) as u32 % ((1u32 << d) - 1));
                let busy = 50.0 + (b.rotate_left(j as u32) % 400) as f64;
                cond.add_stream(mask, busy, 2000.0);
            }
            cond
        }
    }
}

/// The band test `PlanHull::locate` replaced: every edge of every
/// face, in turn.
fn near_any_edge(hull: &PlanHull, m: f64) -> bool {
    let tol = BOUNDARY_REL_EPS * m.abs().max(1.0);
    hull.faces
        .iter()
        .any(|f| (m - f.from).abs() <= tol || (f.to.is_finite() && (m - f.to).abs() <= tol))
}

/// Block sizes that probe a hull's band logic: on, just inside and
/// just outside the band of every breakpoint, and between breakpoints.
fn band_probes(hull: &PlanHull) -> Vec<f64> {
    let mut probes = vec![0.0, 1e-7, 0.5, 1e9];
    for f in &hull.faces {
        let tol = BOUNDARY_REL_EPS * f.from.max(1.0);
        for k in [0.0, 0.5, 0.999, 1.001, 2.0, 40.0] {
            probes.push(f.from + k * tol);
            probes.push((f.from - k * tol).max(0.0));
        }
        if f.to.is_finite() {
            probes.push(0.5 * (f.from + f.to));
        }
    }
    probes
}

fn assert_located_as_scanned(hull: &PlanHull) {
    for m in band_probes(hull) {
        let (face, near) = hull.locate(m);
        assert!(std::ptr::eq(face, hull.face(m)), "m={m}: locate and face disagree");
        assert_eq!(near, near_any_edge(hull, m), "m={m} in {:?}", hull.faces);
        assert_eq!(hull.near_boundary(m), near);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One face search decides the boundary band exactly as the scan
    /// over every face edge did — also on hulls whose faces are
    /// narrower than the band (or empty), where `m` is in the band of
    /// edges that are not its own face's.
    #[test]
    fn locating_a_face_decides_the_band_as_the_full_scan_did(
        start_milli in 0u64..200_000,
        // Widths in units of 1e-7 B: at m ~ 100 the band is 1e-4 B
        // wide, so these run from empty through sub-band to ordinary.
        widths in proptest::collection::vec(
            prop_oneof![0u64..4, 0u64..3_000, 0u64..400_000_000], 1..=9),
    ) {
        let mut edges = vec![0.0, start_milli as f64 / 1000.0];
        for w in &widths {
            edges.push(edges.last().unwrap() + *w as f64 * 1e-7);
        }
        edges.push(f64::INFINITY);
        let faces = edges
            .windows(2)
            .enumerate()
            .map(|(i, e)| AffineHullFace {
                partition: Partition::new(vec![1]),
                enum_index: i,
                from: e[0],
                to: e[1],
                t0: 100.0 - i as f64,
                slope: 1.0 / (1 + i) as f64,
            })
            .collect();
        assert_located_as_scanned(&PlanHull { d: 1, saf: false, faces });
    }

    /// Exact mode: a warm cache answer is bit-equal — partition and
    /// predicted time — to a direct `conditioned_best_partition` call.
    #[test]
    fn warm_exact_answers_are_bit_equal_to_the_model(
        d in 2u32..=5,
        m_int in 0u64..=400,
        kind in 0u32..=3,
        a in 0u64..=u64::MAX / 2,
        b in 0u64..=u64::MAX / 2,
    ) {
        let machine = MachineParams::ipsc860();
        let cond = summary_from(d, kind, a, b);
        let m = m_int as f64;
        let engine = PlanEngine::new(PlanOptions {
            exact_predictions: true,
            fallback: FallbackPolicy::Never,
            ..PlanOptions::default()
        });
        let q = PlanQuery::clean(d, m, machine.clone()).with_summary(cond.clone());
        let cold = engine.answer(&q);
        let warm = engine.answer(&q);
        prop_assert_eq!(&cold, &warm, "cold/warm must be identical");
        let (part, t) = conditioned_best_partition(&machine, m, d, &cond);
        prop_assert_eq!(&warm.best_partition, &part);
        prop_assert_eq!(warm.predicted_us.to_bits(), t.to_bits(),
            "exact-mode time must be bit-equal: {} vs {}", warm.predicted_us, t);
        let stats = engine.stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// Affine mode (the default warm path): the winner is still the
    /// exact fold winner, and the recombined prediction stays within
    /// 1e-9 relative of the model.
    #[test]
    fn warm_affine_answers_track_the_model(
        d in 2u32..=5,
        m_int in 0u64..=400,
        kind in 0u32..=3,
        a in 0u64..=u64::MAX / 2,
        b in 0u64..=u64::MAX / 2,
    ) {
        let machine = MachineParams::ipsc860();
        let cond = summary_from(d, kind, a, b);
        let m = m_int as f64;
        let engine = PlanEngine::new(PlanOptions {
            fallback: FallbackPolicy::Never,
            ..PlanOptions::default()
        });
        let q = PlanQuery::clean(d, m, machine.clone()).with_summary(cond.clone());
        let _ = engine.answer(&q);
        let warm = engine.answer(&q);
        let (part, t) = conditioned_best_partition(&machine, m, d, &cond);
        prop_assert_eq!(&warm.best_partition, &part);
        let tol = 1e-9 * t.abs().max(1.0);
        prop_assert!((warm.predicted_us - t).abs() <= tol,
            "affine prediction {} drifted from model {}", warm.predicted_us, t);
        // And the winner's direct price agrees with the model's time.
        let direct = conditioned_multiphase_time(&machine, m, d, part.parts(), &cond);
        prop_assert_eq!(direct.to_bits(), t.to_bits());
    }
}

/// LRU churn cannot change answers: evict a hull by capacity pressure,
/// re-query it, and the rebuilt answer is bit-equal to the first.
#[test]
fn evicted_then_requeried_answers_are_bit_equal() {
    let machine = MachineParams::ipsc860();
    let engine = PlanEngine::new(PlanOptions {
        shards: 1,
        per_shard_capacity: 2,
        exact_predictions: true,
        fallback: FallbackPolicy::Never,
        ..PlanOptions::default()
    });
    let d = 5u32;
    let queries: Vec<PlanQuery> = (0..3u32)
        .map(|i| {
            PlanQuery::clean(d, 64.0, machine.clone()).with_summary(summary_from(
                d,
                i.min(2),
                7 + i as u64 * 1000,
                13,
            ))
        })
        .collect();
    let first = engine.answer(&queries[0]);
    let _ = engine.answer(&queries[1]);
    let _ = engine.answer(&queries[2]); // capacity 2: evicts queries[0]'s hull
    let stats = engine.stats();
    assert_eq!(stats.evictions, 1, "third distinct hull must evict the first");
    let again = engine.answer(&queries[0]);
    assert_eq!(first, again, "rebuilt hull must answer bit-identically");
    let stats = engine.stats();
    assert_eq!(stats.misses, 4, "requery after eviction rebuilds");
    assert_eq!(stats.hits, 0);
}

/// The same agreement on hulls the model builds: every study-shaped
/// condition at three dimensions, both switching disciplines.
#[test]
fn built_hulls_locate_as_they_scanned() {
    let machine = MachineParams::ipsc860();
    for d in [3u32, 6, 8] {
        for kind in 0..4 {
            let cond = summary_from(d, kind, 0x5eed + kind as u64, 77);
            for switching in [SwitchingMode::Circuit, SwitchingMode::StoreAndForward] {
                assert_located_as_scanned(&PlanHull::build(&machine, switching, d, &cond));
            }
        }
    }
}

/// Eight threads, one engine, one shared query slice, each thread in
/// its own order: every answer is the single-threaded one, and each
/// is counted exactly once as a hit or a miss.
#[test]
fn concurrent_answers_equal_the_single_threaded_ones() {
    const THREADS: usize = 8;
    let machine = MachineParams::ipsc860();
    let options = PlanOptions { fallback: FallbackPolicy::Never, ..PlanOptions::default() };
    let mut queries = Vec::new();
    for d in [4u32, 6] {
        for kind in 0..4u32 {
            // One summary per condition, cloned into its queries
            // unkeyed: threads race to key equal summaries and to
            // build the same hull.
            let cond = summary_from(d, kind, 11 + kind as u64 * 977, 5);
            for i in 0..16 {
                let q = PlanQuery::clean(d, (2 + 9 * i) as f64, machine.clone());
                queries.push(if kind == 0 && i % 2 == 0 {
                    q
                } else {
                    q.with_summary(cond.clone())
                });
            }
        }
    }
    let expect: Vec<_> = {
        let alone = PlanEngine::new(options.clone());
        queries.iter().map(|q| alone.answer(q)).collect()
    };

    assert_eq!(queries.len(), 128);
    let engine = PlanEngine::new(options);
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (engine, queries, expect, barrier) = (&engine, &queries, &expect, &barrier);
            scope.spawn(move || {
                // Its own order: an odd stride walks all 128 queries.
                let n = queries.len();
                let stride = 2 * t + 1;
                barrier.wait();
                for k in 0..n {
                    let i = (t * 13 + k * stride) % n;
                    assert_eq!(engine.answer(&queries[i]), expect[i], "thread {t} query {i}");
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.hits + stats.misses, (THREADS * queries.len()) as u64);
    // Racing builders may each build a hull, never fewer than one per key.
    assert!(stats.misses >= 8, "{stats:?}");
    assert_eq!((stats.evictions, stats.fallbacks), (0, 0));
}
