//! Property suite for the analytic model's internal identities, over
//! *random* machine parameters — not just the three presets:
//!
//! * the multiphase formula recovers both classical algorithms as its
//!   special cases on overhead-free machines (`{1,...,1}` ≡ Standard
//!   Exchange, `{d}` ≡ Optimal Circuit Switched);
//! * the crossover block size genuinely separates `standard_wins` on
//!   both sides;
//! * every `conditioned_*` function under a no-op condition is
//!   **bit-equal** to its unconditioned counterpart — the model-side
//!   mirror of the engine guarantee pinned by `netcond_properties`;
//! * pricing from a `StepTable` is **bit-equal** to pricing from the
//!   summary it was built from, for every partition, both switching
//!   disciplines and the best-partition fold;
//! * the fingerprint a summary keeps is the one a freshly built equal
//!   summary computes, through any interleaving of `add_stream`,
//!   keying and cloning, and is no part of the summary's value.

use mce_model::conditioned::ConditionSummary;
use mce_model::{
    best_partition, best_partition_by, conditioned_best_partition, conditioned_best_saf_partition,
    conditioned_crossover_block_size, conditioned_multiphase_saf_time, conditioned_multiphase_time,
    conditioned_optimal_cs_time, conditioned_partial_exchange_saf_time,
    conditioned_partial_exchange_time, conditioned_standard_exchange_time,
    conditioned_standard_wins, crossover_block_size, multiphase_saf_time, multiphase_time,
    optimal_cs_time, partial_exchange_time, standard_exchange_time, standard_wins, MachineParams,
    StepTable,
};
use mce_partitions::partitions;
use proptest::prelude::*;

/// A random machine from integer draws (the vendored proptest has no
/// float strategies): λ in [0, 500], λ₀ ≤ λ, τ in (0, 5], δ in
/// [0, 50], ρ in [0, 5], barrier in [0, 300]/dim.
#[allow(clippy::too_many_arguments)]
fn machine(
    lambda_m: u64,
    lambda0_frac: u64,
    tau_m: u64,
    delta_m: u64,
    rho_m: u64,
    barrier_m: u64,
    pairwise_sync: bool,
) -> MachineParams {
    let lambda = lambda_m as f64 / 1000.0;
    MachineParams {
        name: "random".to_string(),
        lambda,
        lambda_zero: lambda * (lambda0_frac as f64 / 100.0),
        tau: tau_m.max(1) as f64 / 1000.0,
        delta: delta_m as f64 / 1000.0,
        rho: rho_m as f64 / 1000.0,
        barrier_per_dim: barrier_m as f64 / 1000.0,
        pairwise_sync,
        unforced_threshold: 100,
    }
}

/// The same machine with every per-exchange overhead the raw Eqs. 1-2
/// do not model turned off.
fn overhead_free(mut p: MachineParams) -> MachineParams {
    p.pairwise_sync = false;
    p.barrier_per_dim = 0.0;
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On an overhead-free machine the multiphase formula's special
    /// cases are the two classical algorithms, for any parameters:
    /// `{1,...,1}` prices exactly Eq. 1 and `{d}` exactly Eq. 2.
    #[test]
    fn multiphase_special_cases_recover_classical_algorithms(
        lambda_m in 0u64..500_000,
        lambda0_frac in 0u64..=100,
        tau_m in 1u64..5_000,
        delta_m in 0u64..50_000,
        rho_m in 0u64..5_000,
        // d = 1 is the degenerate overlap: `[1]` is simultaneously the
        // all-ones and the singleton partition, and the multiphase
        // formula prices it as OCS (its one phase spans the whole cube,
        // so the final shuffle is the identity and is skipped, where
        // Eq. 1 charges it).
        d in 2u32..=8,
        m_tenths in 0u64..4_000,
    ) {
        let p = overhead_free(machine(lambda_m, lambda0_frac, tau_m, delta_m, rho_m, 0, false));
        let m = m_tenths as f64 / 10.0;
        let ones = vec![1u32; d as usize];
        let se = standard_exchange_time(&p, m, d);
        let mp_ones = multiphase_time(&p, m, d, &ones);
        prop_assert!((mp_ones - se).abs() <= 1e-9 * se.max(1.0),
            "{{1;{d}}} {mp_ones} vs SE {se}");
        let ocs = optimal_cs_time(&p, m, d);
        let mp_single = multiphase_time(&p, m, d, &[d]);
        prop_assert!((mp_single - ocs).abs() <= 1e-9 * ocs.max(1.0),
            "{{{d}}} {mp_single} vs OCS {ocs}");
    }

    /// The crossover block size separates `standard_wins` on both
    /// sides, for random machines: strictly below it Standard wins,
    /// strictly above it Optimal does (whenever each side exists).
    #[test]
    fn crossover_separates_standard_wins(
        lambda_m in 1u64..500_000,
        lambda0_frac in 0u64..=100,
        tau_m in 1u64..5_000,
        delta_m in 0u64..50_000,
        rho_m in 1u64..5_000,
        d in 2u32..=10,
    ) {
        let p = overhead_free(machine(lambda_m, lambda0_frac, tau_m, delta_m, rho_m, 0, false));
        let mx = crossover_block_size(&p, d);
        prop_assert!(mx.is_finite() && mx >= 0.0, "crossover {mx}");
        if mx > 1e-6 {
            prop_assert!(standard_wins(&p, mx * 0.5, d), "below crossover {mx}");
        }
        prop_assert!(!standard_wins(&p, mx * 2.0 + 1.0, d), "above crossover {mx}");
        // At the crossover itself the two predictions coincide.
        let ts = standard_exchange_time(&p, mx, d);
        let to = optimal_cs_time(&p, mx, d);
        prop_assert!((ts - to).abs() <= 1e-9 * to.max(1.0), "{ts} vs {to} at {mx}");
    }

    /// Every conditioned entry point under a no-op summary returns the
    /// unconditioned model's result *bit for bit* — for random
    /// machines, dimensions, block sizes and partitions, with every
    /// overhead (sync, barrier) enabled.
    #[test]
    fn conditioned_noop_is_bit_equal_to_unconditioned(
        lambda_m in 0u64..500_000,
        lambda0_frac in 0u64..=100,
        tau_m in 1u64..5_000,
        delta_m in 0u64..50_000,
        rho_m in 0u64..5_000,
        barrier_m in 0u64..300_000,
        sync_bit in 0u8..2,
        d in 2u32..=7,
        m_tenths in 0u64..4_000,
        part_seed in 0u64..1_000,
    ) {
        let p = machine(lambda_m, lambda0_frac, tau_m, delta_m, rho_m, barrier_m, sync_bit == 1);
        let m = m_tenths as f64 / 10.0;
        let cond = ConditionSummary::noop(d);
        prop_assert!(cond.is_noop());

        let all = partitions(d);
        let part = &all[(part_seed % all.len() as u64) as usize];
        let dims = part.parts();
        let di = dims[0];

        prop_assert_eq!(
            conditioned_multiphase_time(&p, m, d, dims, &cond).to_bits(),
            multiphase_time(&p, m, d, dims).to_bits()
        );
        prop_assert_eq!(
            conditioned_standard_exchange_time(&p, m, d, &cond).to_bits(),
            standard_exchange_time(&p, m, d).to_bits()
        );
        prop_assert_eq!(
            conditioned_optimal_cs_time(&p, m, d, &cond).to_bits(),
            optimal_cs_time(&p, m, d).to_bits()
        );
        prop_assert_eq!(
            conditioned_partial_exchange_time(&p, m, d - di, di, d, &cond).to_bits(),
            partial_exchange_time(&p, m, di, d).to_bits()
        );
        prop_assert_eq!(
            conditioned_multiphase_saf_time(&p, m, d, dims, &cond).to_bits(),
            multiphase_saf_time(&p, m, d, dims).to_bits()
        );
        prop_assert_eq!(
            conditioned_partial_exchange_saf_time(&p, m, d - di, di, d, &cond).to_bits(),
            mce_model::saf::partial_exchange_saf_time(&p, m, di, d).to_bits()
        );
        prop_assert_eq!(
            conditioned_crossover_block_size(&p, d, &cond).to_bits(),
            crossover_block_size(&p, d).to_bits()
        );
        prop_assert_eq!(
            conditioned_standard_wins(&p, m, d, &cond),
            standard_wins(&p, m, d)
        );
        let (cp, ct) = conditioned_best_partition(&p, m, d, &cond);
        let (up, ut) = best_partition(&p, m, d);
        prop_assert_eq!(cp, up);
        prop_assert_eq!(ct.to_bits(), ut.to_bits());
    }

    /// A genuinely degrading summary (uniform slowdown > 1) never
    /// predicts a faster exchange than the clean model, for any
    /// machine and partition.
    #[test]
    fn slowdowns_never_speed_predictions_up(
        lambda_m in 0u64..500_000,
        tau_m in 1u64..5_000,
        delta_m in 0u64..50_000,
        rho_m in 0u64..5_000,
        barrier_m in 0u64..300_000,
        sync_bit in 0u8..2,
        d in 2u32..=6,
        m_tenths in 0u64..2_000,
        factor_milli in 1_001u64..6_000,
        part_seed in 0u64..1_000,
    ) {
        let p = machine(lambda_m, 50, tau_m, delta_m, rho_m, barrier_m, sync_bit == 1);
        let m = m_tenths as f64 / 10.0;
        let n = 1usize << d;
        let factor = factor_milli as f64 / 1000.0;
        let cond = ConditionSummary::from_link_factors(d, &vec![factor; n * d as usize]);
        let all = partitions(d);
        let part = &all[(part_seed % all.len() as u64) as usize];
        let dims = part.parts();
        prop_assert!(
            conditioned_multiphase_time(&p, m, d, dims, &cond)
                >= multiphase_time(&p, m, d, dims),
            "slowdown {factor} sped {part} up"
        );
        prop_assert!(
            conditioned_multiphase_saf_time(&p, m, d, dims, &cond)
                >= multiphase_saf_time(&p, m, d, dims)
        );
    }

    /// A price read from a `StepTable` is the price the summary itself
    /// yields, bit for bit: random per-link factor tables plus up to
    /// six background streams, every partition, circuit and store and
    /// forward — and so the tabled best-partition folds name the same
    /// winner at the same time as a fold over one-off evaluations.
    #[test]
    fn tabled_prices_are_bit_equal_to_one_off_prices(
        lambda_m in 0u64..500_000,
        tau_m in 1u64..5_000,
        delta_m in 0u64..50_000,
        rho_m in 0u64..5_000,
        barrier_m in 0u64..300_000,
        sync_bit in 0u8..2,
        d in 2u32..=8,
        factor_seed in 0u64..=u64::MAX / 2,
        spread_milli in 0u64..3_000,
        streams in proptest::collection::vec((1u32..256, 1u64..600, 1u64..2_000), 0..=6),
    ) {
        let p = machine(lambda_m, 50, tau_m, delta_m, rho_m, barrier_m, sync_bit == 1);
        let factors: Vec<f64> = (0..(1u64 << d) * d as u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(factor_seed);
                1.0 + ((h >> 20) % (spread_milli + 1)) as f64 / 1000.0
            })
            .collect();
        let mut cond = ConditionSummary::from_link_factors(d, &factors);
        for &(mask, busy, idle) in &streams {
            let mask = mask & ((1 << d) - 1);
            cond.add_stream(mask.max(1), busy as f64, (busy + idle) as f64);
        }
        let table = StepTable::new(&cond);
        for m in [0.0, 1.0, 37.5, 400.0] {
            for part in partitions(d) {
                let dims = part.parts();
                prop_assert_eq!(
                    conditioned_multiphase_time(&p, m, d, dims, &table).to_bits(),
                    conditioned_multiphase_time(&p, m, d, dims, &cond).to_bits(),
                    "circuit {} at m={}", part, m
                );
                prop_assert_eq!(
                    conditioned_multiphase_saf_time(&p, m, d, dims, &table).to_bits(),
                    conditioned_multiphase_saf_time(&p, m, d, dims, &cond).to_bits(),
                    "store and forward {} at m={}", part, m
                );
            }
            let (best, t) = conditioned_best_partition(&p, m, d, &cond);
            let (one_off, one_off_t) = best_partition_by(d, |part| {
                conditioned_multiphase_time(&p, m, d, part.parts(), &cond)
            });
            prop_assert_eq!((best, t.to_bits()), (one_off, one_off_t.to_bits()));
            let (best, t) = conditioned_best_saf_partition(&p, m, d, &cond);
            let (one_off, one_off_t) = best_partition_by(d, |part| {
                conditioned_multiphase_saf_time(&p, m, d, part.parts(), &cond)
            });
            prop_assert_eq!((best, t.to_bits()), (one_off, one_off_t.to_bits()));
        }
    }

    /// A summary's kept fingerprint is a memo, never state: after any
    /// interleaving of `add_stream`s with `fingerprint()` calls and
    /// clones it equals the fingerprint of a summary rebuilt from
    /// scratch (never keyed before the comparison), `==` and `Debug`
    /// do not see whether either side is keyed, and a clone that is
    /// mutated after keying leaves its source as it was.
    #[test]
    fn a_kept_fingerprint_is_the_fresh_one(
        d in 2u32..=8,
        factor_seed in 0u64..=u64::MAX / 2,
        spread_milli in 0u64..3_000,
        // Per stream, `ops` bits: 1 = key the summary first, 2 = fork
        // a clone and mutate that too, 4 = carry on with a clone.
        streams in proptest::collection::vec((1u32..256, 1u64..600, 1u64..2_000, 0u8..8), 0..=6),
    ) {
        let factors: Vec<f64> = (0..(1u64 << d) * d as u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(factor_seed);
                1.0 + ((h >> 20) % (spread_milli + 1)) as f64 / 1000.0
            })
            .collect();
        let rebuilt = |applied: &[(u32, f64, f64)]| {
            let mut fresh = ConditionSummary::from_link_factors(d, &factors);
            for &(mask, busy, period) in applied {
                fresh.add_stream(mask, busy, period);
            }
            fresh
        };
        let mut live = rebuilt(&[]);
        let mut applied = Vec::new();
        for &(mask, busy, idle, ops) in &streams {
            let stream = ((mask & ((1 << d) - 1)).max(1), busy as f64, (busy + idle) as f64);
            if ops & 1 != 0 {
                prop_assert_eq!(live.fingerprint(), rebuilt(&applied).fingerprint());
            }
            if ops & 2 != 0 {
                let mut fork = live.clone();
                prop_assert_eq!(fork.fingerprint(), rebuilt(&applied).fingerprint());
                fork.add_stream(stream.0, stream.1, stream.2);
                let mut forked = applied.clone();
                forked.push(stream);
                prop_assert_eq!(fork.fingerprint(), rebuilt(&forked).fingerprint());
                prop_assert_eq!(&live, &rebuilt(&applied));
                prop_assert_eq!(live.fingerprint(), rebuilt(&applied).fingerprint());
            }
            if ops & 4 != 0 {
                live = live.clone();
            }
            live.add_stream(stream.0, stream.1, stream.2);
            applied.push(stream);
            // Keyed or not, on either side of `==`.
            let fresh = rebuilt(&applied);
            prop_assert_eq!(&live, &fresh);
            prop_assert_eq!(&fresh, &live);
        }
        let fresh = rebuilt(&applied);
        let kept = live.fingerprint();
        prop_assert_eq!(&kept, &live.fingerprint());
        prop_assert_eq!(&live, &fresh);
        prop_assert_eq!(format!("{live:?}"), format!("{fresh:?}"));
        prop_assert_eq!(&kept, &fresh.fingerprint());
        let copy = live.clone();
        prop_assert_eq!(kept.words(), copy.fingerprint_ref().words());
        prop_assert_eq!(live.is_well_formed(), fresh.is_well_formed());
    }
}
