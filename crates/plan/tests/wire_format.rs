//! The serialized forms a planner client ships — a condition summary,
//! its fingerprint, a whole query — pinned as JSON literals recorded
//! on commit 0aac66d, before summaries kept their fingerprint and
//! fingerprints shared their words: neither shows on the wire.

use mce_model::{ConditionFingerprint, ConditionSummary, MachineParams};
use mce_plan::PlanQuery;

const SUMMARY: &str = r#"{"factors":[{"mean":1.4375,"min":1.0,"max":2.0},{"mean":1.53125,"min":1.0,"max":2.0},{"mean":1.46875,"min":1.0,"max":2.0}],"contention":[{"touch":0.125,"util":0.25,"busy_us":250.0},{"touch":0.0,"util":0.0,"busy_us":0.0},{"touch":0.125,"util":0.25,"busy_us":250.0}]}"#;

const FINGERPRINT: &str = r#"{"dimension":3,"words":[4609152743636992000,4607182418800017408,4611686018427387904,4609574956102057984,4607182418800017408,4611686018427387904,4609293481125347328,4607182418800017408,4611686018427387904,4593671619917905920,4598175219545276416,4643000109586448384,0,0,0,4593671619917905920,4598175219545276416,4643000109586448384],"digest":8629153019396192710}"#;

const QUERY: &str = r#"{"d":3,"m":64.0,"machine":{"name":"Intel iPSC-860","lambda":95.0,"lambda_zero":82.5,"tau":0.394,"delta":10.3,"rho":0.54,"barrier_per_dim":150.0,"pairwise_sync":true,"unforced_threshold":100},"condition":{"Summary":{"factors":[{"mean":1.4375,"min":1.0,"max":2.0},{"mean":1.53125,"min":1.0,"max":2.0},{"mean":1.46875,"min":1.0,"max":2.0}],"contention":[{"touch":0.125,"util":0.25,"busy_us":250.0},{"touch":0.0,"util":0.0,"busy_us":0.0},{"touch":0.125,"util":0.25,"busy_us":250.0}]}},"switching":"StoreAndForward"}"#;

fn summary() -> ConditionSummary {
    let factors: Vec<f64> = (0..24).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
    let mut s = ConditionSummary::from_link_factors(3, &factors);
    s.add_stream(0b101, 250.0, 1000.0);
    s
}

fn query(s: ConditionSummary) -> PlanQuery {
    PlanQuery::clean(3, 64.0, MachineParams::ipsc860()).with_summary(s).with_store_and_forward()
}

#[test]
fn serialized_forms_are_the_recorded_literals() {
    let fresh = summary();
    let keyed = summary();
    let fingerprint = keyed.fingerprint();
    // Keyed or not, a summary serializes as its two tables.
    for s in [&fresh, &keyed] {
        assert_eq!(serde_json::to_string(s).unwrap(), SUMMARY);
        assert_eq!(serde_json::to_string(&query(s.clone())).unwrap(), QUERY);
    }
    assert_eq!(serde_json::to_string(&fingerprint).unwrap(), FINGERPRINT);

    // And the literals read back as the values, ready to be keyed.
    let back: ConditionSummary = serde_json::from_str(SUMMARY).unwrap();
    assert_eq!(back, keyed);
    assert_eq!(back.fingerprint(), fingerprint);
    assert_eq!(serde_json::from_str::<ConditionFingerprint>(FINGERPRINT).unwrap(), fingerprint);
    assert_eq!(serde_json::from_str::<PlanQuery>(QUERY).unwrap(), query(keyed));
}

#[test]
fn a_deserialized_fingerprint_does_not_trust_its_stored_digest() {
    // Regression: the digest is what `Hash` writes and part of `==`;
    // read back verbatim, a stale or edited one made a key that equals
    // and hashes with nothing the planner computes.
    use std::hash::{Hash, Hasher};
    let fingerprint = summary().fingerprint();
    let tampered = FINGERPRINT.replace("\"digest\":8629153019396192710", "\"digest\":12345");
    assert_ne!(tampered, FINGERPRINT);
    let back: ConditionFingerprint = serde_json::from_str(&tampered).unwrap();
    assert_eq!(back, fingerprint);
    assert_eq!(back.digest(), fingerprint.digest());
    let hash = |f: &ConditionFingerprint| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        f.hash(&mut h);
        h.finish()
    };
    assert_eq!(hash(&back), hash(&fingerprint));
    // The stored digest is not read at all, so one that is missing
    // is not missed; what is written keeps its three fields.
    let missing = FINGERPRINT.replace(",\"digest\":8629153019396192710", "");
    assert_eq!(serde_json::from_str::<ConditionFingerprint>(&missing).unwrap(), fingerprint);
    assert_eq!(serde_json::to_string(&back).unwrap(), FINGERPRINT);
}

/// `SimConfig::declared_sync` is gone, but configs stored while it
/// existed still carry the key: they read back as the config without
/// it, whichever value they hold.
#[test]
fn a_stored_sim_config_with_declared_sync_reads_as_one_without() {
    use mce_simnet::SimConfig;
    let cfg = SimConfig::ipsc860(5).with_shards(4);
    let json = serde_json::to_string(&cfg).unwrap();
    assert!(!json.contains("declared_sync"), "{json}");
    for value in [true, false] {
        let stored =
            json.replace("\"shards\":4,", &format!("\"shards\":4,\"declared_sync\":{value},"));
        assert_ne!(stored, json, "the key must actually be spliced in");
        assert_eq!(serde_json::from_str::<SimConfig>(&stored).unwrap(), cfg, "{stored}");
    }
}
