//! Frozen hull snapshots: every face of the planner's hull, bit for
//! bit, for three fixed conditions at d6, d8 and d10 under both
//! switching disciplines.
//!
//! The property suites compare the planner against the model *of the
//! same build*; this file compares it against the past. A change to
//! how steps are priced or how the envelope is swept must leave every
//! literal alone — a face's partition, enumeration index, interval and
//! affine coefficients are all folded in. The literals were recorded
//! on commit bd33131 (the all-pairs envelope over per-mask loops); to
//! regenerate after an *intended* model change run
//! `cargo test -p mce-plan --test hull_snapshot -- --ignored --nocapture`.

use mce_model::{ConditionSummary, MachineParams};
use mce_plan::PlanHull;
use mce_simnet::config::SwitchingMode;

/// Every link of the cube 1.75x slower.
fn uniform_slowdown(d: u32) -> ConditionSummary {
    ConditionSummary::from_link_factors(d, &vec![1.75; (1usize << d) * d as usize])
}

/// Per-link factors in `[1, 3)` from a fixed integer hash, so every
/// dimension has its own mean, minimum and maximum.
fn seeded_spread(d: u32) -> ConditionSummary {
    let factors: Vec<f64> = (0..(1u64 << d) * d as u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1991);
            1.0 + ((h >> 17) % 2000) as f64 / 1000.0
        })
        .collect();
    ConditionSummary::from_link_factors(d, &factors)
}

/// A mild spread plus five background streams of different reach, so
/// the contention term is live on some dimensions and idle on others.
fn with_streams(d: u32) -> ConditionSummary {
    let factors: Vec<f64> =
        (0..(1usize << d) * d as usize).map(|i| 1.0 + (i % 7) as f64 / 16.0).collect();
    let mut cond = ConditionSummary::from_link_factors(d, &factors);
    let full = (1u32 << d) - 1;
    for (mask, busy_us, period_us) in [
        (full, 314.0, 600.0),
        (0b101, 120.0, 900.0),
        (full >> 1, 250.0, 500.0),
        (1 << (d - 1), 75.0, 2000.0),
        (0b110, 410.0, 450.0),
    ] {
        cond.add_stream(mask, busy_us, period_us);
    }
    cond
}

/// FNV-1a over the bits of every face of the circuit hull, then of the
/// store-and-forward hull.
fn hull_digest(d: u32, cond: &ConditionSummary) -> u64 {
    let machine = MachineParams::ipsc860();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for switching in [SwitchingMode::Circuit, SwitchingMode::StoreAndForward] {
        let hull = PlanHull::build(&machine, switching, d, cond);
        fold(hull.faces.len() as u64);
        for face in &hull.faces {
            for &part in face.partition.parts() {
                fold(part as u64);
            }
            fold(face.enum_index as u64);
            fold(face.from.to_bits());
            fold(face.to.to_bits());
            fold(face.t0.to_bits());
            fold(face.slope.to_bits());
        }
    }
    digest
}

type Condition = (&'static str, fn(u32) -> ConditionSummary);

const CONDITIONS: [Condition; 3] = [
    ("uniform_slowdown", uniform_slowdown),
    ("seeded_spread", seeded_spread),
    ("with_streams", with_streams),
];

const DIMENSIONS: [u32; 3] = [6, 8, 10];

/// `SNAPSHOT[condition][dimension]`, in the order of the two tables
/// above.
const SNAPSHOT: [[u64; 3]; 3] = [
    [14601127666108095756, 13532101592811510751, 1287086376069199218], // uniform_slowdown
    [12002792037580066617, 16200550311139640516, 16251036937539606179], // seeded_spread
    [15727342993005964946, 2712314840774928363, 12505742058852231740], // with_streams
];

#[test]
fn hull_faces_are_bit_identical_to_the_recorded_ones() {
    for ((name, build), expected) in CONDITIONS.iter().zip(SNAPSHOT) {
        for (d, expected) in DIMENSIONS.into_iter().zip(expected) {
            assert_eq!(hull_digest(d, &build(d)), expected, "{name} at d{d}");
        }
    }
}

#[test]
#[ignore = "prints the literals; run after an intended model change"]
fn print_snapshot() {
    for (name, build) in CONDITIONS {
        let row: Vec<String> =
            DIMENSIONS.iter().map(|&d| hull_digest(d, &build(d)).to_string()).collect();
        println!("    [{}], // {name}", row.join(", "));
    }
}
