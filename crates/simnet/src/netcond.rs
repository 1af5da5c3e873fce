//! Network conditions: link faults, heterogeneous link speeds and
//! deterministic background traffic.
//!
//! The base simulator models a perfect, homogeneous circuit-switched
//! hypercube. Real machines have slow cables, dead cables and
//! competing traffic, and the paper's multiphase analysis is exactly
//! about how the optimal algorithm shifts when link economics change.
//! A [`NetCondition`] attached to [`crate::SimConfig::netcond`]
//! degrades the network declaratively:
//!
//! * **Speeds** — a [`SpeedProfile`] assigns every *directed* link a
//!   slowdown factor (`1.0` = nominal, `2.0` = twice as slow),
//!   uniformly, per dimension, or per link from a seeded deterministic
//!   draw; [`NetCondition::overrides`] pin individual cables on top.
//!   A conditioned transmission over links with factors `f_i` costs
//!   `λ + τ·m·max(f_i) + δ·Σf_i` (the slowest link is the bandwidth
//!   bottleneck; every hop's switch delay stretches individually).
//! * **Faults** — [`NetCondition::faults`] kills whole cables (both
//!   directions). Before any simulated time elapses the engine checks
//!   every transmission of the compiled program: a send whose e-cube
//!   route crosses a dead cable is re-routed through an alternate
//!   xor-mask decomposition (a different dimension-correction order
//!   across the same subcube) when one exists, chosen
//!   deterministically (lowest-dimension-first depth-first search, so
//!   the unfaulted prefix matches e-cube order); when none exists the
//!   run fails up front with [`crate::SimError::Unroutable`]. Note the
//!   consequence for complete exchanges: every node pair at Hamming
//!   distance 1 exchanges directly, and a single-bit mask has exactly
//!   one decomposition, so *any* cable fault makes a complete exchange
//!   unroutable — a typed, compile-time answer, not a hang.
//! * **Background traffic** — [`BackgroundStream`]s inject periodic
//!   transmissions that occupy links (edge contention against the
//!   algorithm under test) without touching node NIC state or node
//!   memories, modelling circuits from other jobs crossing the
//!   partition. Streams are finite (`count` injections) and fully
//!   deterministic.
//!
//! Determinism: everything here is a pure function of the
//! configuration — profiles draw from their own seeds, routes are
//! searched in fixed order, injections fire on a fixed schedule. A
//! `NetCondition` with no faults, unit speed factors and no background
//! traffic is **bit-identical** to the unconditioned run (pinned by the
//! property suite and the determinism snapshots in `mce-core`).

use crate::fxhash::FxHashSet;
use crate::message::Tag;
use crate::time::SimTime;
use mce_hypercube::routing::DirectedLink;
use mce_hypercube::NodeId;
use serde::{Deserialize, Serialize};

/// An undirected cable of the cube, identified by its lower endpoint
/// and the dimension it crosses. Faulting or overriding a cable
/// affects both directed links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Cable {
    /// Endpoint with bit `dim` clear (canonical lower endpoint).
    pub node: NodeId,
    /// Dimension the cable crosses.
    pub dim: u32,
}

impl Cable {
    /// Cable at `endpoint` across `dim` (either endpoint works; the
    /// stored one is canonicalized to have bit `dim` clear).
    pub fn new(endpoint: NodeId, dim: u32) -> Cable {
        Cable { node: NodeId(endpoint.0 & !(1u32 << dim)), dim }
    }

    /// Both directed links of this cable.
    pub fn directions(&self) -> [DirectedLink; 2] {
        let a = self.node;
        let b = NodeId(self.node.0 | (1u32 << self.dim));
        [DirectedLink { from: a, to: b }, DirectedLink { from: b, to: a }]
    }
}

impl std::fmt::Display for Cable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}<->{}", self.node, NodeId(self.node.0 | (1 << self.dim)))
    }
}

/// How per-link slowdown factors are assigned. `1.0` is nominal speed;
/// `2.0` makes a link twice as slow; factors below `1.0` model faster
/// links. All draws are deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpeedProfile {
    /// Every directed link at the same factor.
    Uniform(f64),
    /// Factor by crossed dimension (missing entries default to `1.0`).
    PerDimension(Vec<f64>),
    /// Per-directed-link factor drawn uniformly from `[min, max]` by a
    /// splitmix64 hash of `(seed, from, dim)`.
    Seeded {
        /// Lower factor bound.
        min: f64,
        /// Upper factor bound.
        max: f64,
        /// Seed of the deterministic draw.
        seed: u64,
    },
}

impl Default for SpeedProfile {
    fn default() -> Self {
        SpeedProfile::Uniform(1.0)
    }
}

impl SpeedProfile {
    /// Whether this profile assigns factor `1.0` to every link.
    pub fn is_unit(&self) -> bool {
        match self {
            SpeedProfile::Uniform(f) => *f == 1.0,
            SpeedProfile::PerDimension(v) => v.iter().all(|&f| f == 1.0),
            SpeedProfile::Seeded { min, max, .. } => *min == 1.0 && *max == 1.0,
        }
    }

    fn factor(&self, from: NodeId, dim: u32) -> f64 {
        match self {
            SpeedProfile::Uniform(f) => *f,
            SpeedProfile::PerDimension(v) => v.get(dim as usize).copied().unwrap_or(1.0),
            SpeedProfile::Seeded { min, max, seed } => {
                let u = unit_draw(*seed, ((from.0 as u64) << 32) | dim as u64);
                min + (max - min) * u
            }
        }
    }
}

/// One override pinning a single cable's factor after the profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedOverride {
    /// The cable (both directions affected).
    pub cable: Cable,
    /// Its slowdown factor.
    pub factor: f64,
}

/// A deterministic background-traffic stream: starting at `start_ns`,
/// every `period_ns`, inject a `bytes`-byte transmission from `src` to
/// `dst` (`count` injections in total). Injected transmissions contend
/// for links like any circuit but bypass NIC state, node programs and
/// node memories; their payloads are never delivered. They are traced
/// (when tracing is on) under [`background_tag`] and counted in
/// [`crate::SimStats::background_transmissions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackgroundStream {
    /// Injecting node.
    pub src: NodeId,
    /// Target node (routes e-cube, or around faults).
    pub dst: NodeId,
    /// Payload size per injection, bytes.
    pub bytes: usize,
    /// Time of the first injection, ns.
    pub start_ns: u64,
    /// Interval between injections, ns.
    pub period_ns: u64,
    /// Total number of injections.
    pub count: u32,
}

impl BackgroundStream {
    /// The `j`-th phase-staggered copy out of `level`: the start time
    /// shifts by `j/level` of one period, so `level` copies spread
    /// evenly across the injection interval. The constructor behind
    /// hotspot ladders ([`crate::conformance::hotspot_condition`]).
    pub fn staggered(self, j: u32, level: u32) -> BackgroundStream {
        BackgroundStream {
            start_ns: self.start_ns + j as u64 * self.period_ns / level.max(1) as u64,
            ..self
        }
    }
}

/// How links treat transmissions of *flow-controlled* jobs (see
/// [`crate::traffic`]). Jobs without a
/// [`FlowCtl`](crate::traffic::FlowCtl) model the NX/2 kernel's
/// reliable blocking circuit establishment and are never dropped, so a
/// policy on its own cannot perturb a legacy run — the no-op pin.
///
/// All three policies signal the source's congestion window
/// (`on_drop`) and trigger a go-back-n retransmission; they differ in
/// *where* the drop is detected and *how fast* the source learns:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkPolicy {
    /// Drop at circuit establishment when the blocking link's wait
    /// queue already holds `queue_limit` transmissions: the switch
    /// refuses the circuit instead of queueing it, and the source
    /// retries after its cwnd-scaled backoff (`rto · w_max / cwnd`).
    DropTail {
        /// Waiters a busy link tolerates before refusing circuits.
        queue_limit: u32,
    },
    /// Deterministic payload corruption: each completed circuit is
    /// lost with probability `loss_per_myriad / 10_000`, decided by a
    /// splitmix64 coin keyed by `(seed, transmission id)`. The loss is
    /// discovered only at the end of the (fully priced) transmission —
    /// the expensive failure mode — and retransmitted after the
    /// cwnd-scaled backoff.
    Lossy {
        /// Loss probability in units of 1/10_000.
        loss_per_myriad: u32,
        /// Seed of the deterministic coin.
        seed: u64,
    },
    /// Drop-tail detection with an explicit negative acknowledgment:
    /// the refused source learns immediately and retries after a short
    /// fixed delay (`rto / 8`) instead of the cwnd-scaled backoff. The
    /// congestion window still shrinks on every NACK, so sustained
    /// overload keeps shaping the *window*, just not the latency of
    /// the retry itself.
    Nack {
        /// Waiters a busy link tolerates before NACKing circuits.
        queue_limit: u32,
    },
}

/// Tag bit marking background-stream transmissions in traces; disjoint
/// from `Tag::sync` (bit 63) and from any small-phase data tag.
pub const BACKGROUND_TAG_BIT: u64 = 1 << 62;

/// The trace tag of background stream `index`.
pub fn background_tag(index: usize) -> Tag {
    Tag::raw(BACKGROUND_TAG_BIT | index as u64)
}

/// Declarative network conditions for one run. The default value is a
/// no-op (unit speeds, no faults, no background traffic) and is
/// bit-identical to running without a `NetCondition` at all.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetCondition {
    /// Per-link slowdown profile.
    pub speed: SpeedProfile,
    /// Per-cable factor overrides applied after the profile.
    pub overrides: Vec<SpeedOverride>,
    /// Dead cables (both directions unusable).
    pub faults: Vec<Cable>,
    /// Background-traffic streams.
    pub background: Vec<BackgroundStream>,
    /// Link treatment of flow-controlled jobs' transmissions (drops
    /// and retransmission triggers); `None` = reliable links. Affects
    /// only jobs carrying a [`FlowCtl`](crate::traffic::FlowCtl).
    pub link_policy: Option<LinkPolicy>,
    /// Partial-fault semantics for multi-pair schedules: instead of
    /// rejecting the whole run as [`crate::SimError::Unroutable`] when
    /// a compiled send's subcube offers no fault-avoiding route, skip
    /// that (src, dst) pair — the send is not issued, the matching
    /// `WaitRecv` does not block, and the skips are counted per job in
    /// [`crate::stats::JobStats::dead_pairs_skipped`]. The receiver's
    /// buffer simply keeps its prior bytes (a data hole), so
    /// verification against a complete exchange is expected to report
    /// the missing pairs.
    pub skip_dead_pairs: bool,
}

impl NetCondition {
    /// Uniform slowdown of every link by `factor`.
    pub fn uniform_slowdown(factor: f64) -> NetCondition {
        NetCondition { speed: SpeedProfile::Uniform(factor), ..Default::default() }
    }

    /// Heterogeneous link speeds drawn deterministically from
    /// `[min, max]` by `seed`.
    pub fn seeded_speeds(min: f64, max: f64, seed: u64) -> NetCondition {
        NetCondition { speed: SpeedProfile::Seeded { min, max, seed }, ..Default::default() }
    }

    /// Add a dead cable.
    pub fn with_fault(mut self, endpoint: NodeId, dim: u32) -> NetCondition {
        self.faults.push(Cable::new(endpoint, dim));
        self
    }

    /// Pin one cable's factor.
    pub fn with_override(mut self, cable: Cable, factor: f64) -> NetCondition {
        self.overrides.push(SpeedOverride { cable, factor });
        self
    }

    /// Add a background stream.
    pub fn with_background(mut self, stream: BackgroundStream) -> NetCondition {
        self.background.push(stream);
        self
    }

    /// Attach a link policy for flow-controlled jobs.
    pub fn with_link_policy(mut self, policy: LinkPolicy) -> NetCondition {
        self.link_policy = Some(policy);
        self
    }

    /// Switch to partial-fault semantics: unroutable pairs are skipped
    /// and reported per job instead of failing the run.
    pub fn with_skip_dead_pairs(mut self) -> NetCondition {
        self.skip_dead_pairs = true;
        self
    }

    /// Whether this condition cannot affect any run: unit factors, no
    /// faults, no background traffic, no link policy, strict routing.
    pub fn is_noop(&self) -> bool {
        self.speed.is_unit()
            && self.overrides.iter().all(|o| o.factor == 1.0)
            && self.faults.is_empty()
            && self.background.is_empty()
            && self.link_policy.is_none()
            && !self.skip_dead_pairs
    }

    /// Static validity for a `d`-dimensional cube: factors finite and
    /// positive, cables within the cube, streams within the cube,
    /// non-degenerate and injecting no later than
    /// [`SimTime::HORIZON`].
    pub fn validate(&self, d: u32) -> Result<(), String> {
        let n = 1u64 << d;
        let check_factor = |what: &str, f: f64| -> Result<(), String> {
            if !f.is_finite() || f <= 0.0 {
                return Err(format!("{what} factor {f} is not a finite positive number"));
            }
            Ok(())
        };
        match &self.speed {
            SpeedProfile::Uniform(f) => check_factor("uniform speed", *f)?,
            SpeedProfile::PerDimension(v) => {
                if v.len() > d as usize {
                    return Err(format!(
                        "per-dimension speed profile has {} entries for a d={d} cube",
                        v.len()
                    ));
                }
                for &f in v {
                    check_factor("per-dimension speed", f)?;
                }
            }
            SpeedProfile::Seeded { min, max, .. } => {
                check_factor("seeded speed min", *min)?;
                check_factor("seeded speed max", *max)?;
                if min > max {
                    return Err(format!("seeded speed range [{min}, {max}] is empty"));
                }
            }
        }
        let check_cable = |what: &str, c: &Cable| -> Result<(), String> {
            if c.dim >= d || (c.node.0 as u64) >= n {
                return Err(format!("{what} cable {c} outside the d={d} cube"));
            }
            Ok(())
        };
        for o in &self.overrides {
            check_cable("override", &o.cable)?;
            check_factor("override", o.factor)?;
        }
        for c in &self.faults {
            check_cable("fault", c)?;
        }
        for (i, s) in self.background.iter().enumerate() {
            if (s.src.0 as u64) >= n || (s.dst.0 as u64) >= n {
                return Err(format!("background stream {i} endpoints outside the d={d} cube"));
            }
            if s.src == s.dst {
                return Err(format!("background stream {i} sends {} to itself", s.src));
            }
            if s.count > 1 && s.period_ns == 0 {
                return Err(format!("background stream {i} repeats with zero period"));
            }
            // The last injection fires at start + (count − 1)·period.
            let last = u64::from(s.count.saturating_sub(1))
                .checked_mul(s.period_ns)
                .and_then(|span| SimTime(s.start_ns).checked_plus_ns(span));
            if s.count > 0 && last.is_none() {
                return Err(format!(
                    "background stream {i} injects past the simulated-time horizon ({} ns)",
                    SimTime::HORIZON.as_ns()
                ));
            }
        }
        if let Some(LinkPolicy::Lossy { loss_per_myriad, .. }) = self.link_policy {
            if loss_per_myriad > 10_000 {
                return Err(format!(
                    "lossy link policy loss_per_myriad {loss_per_myriad} exceeds 10000"
                ));
            }
        }
        Ok(())
    }

    /// Per-directed-link slowdown factors, indexed `from * d + dim`
    /// (empty for the degenerate `d = 0` cube, which has no links).
    pub fn resolve_speeds(&self, d: u32) -> Vec<f64> {
        let dims = d as usize;
        let n = 1usize << d;
        let mut v = Vec::with_capacity(n * dims);
        for from in 0..n as u32 {
            for dim in 0..d {
                v.push(self.speed.factor(NodeId(from), dim));
            }
        }
        for o in &self.overrides {
            for l in o.cable.directions() {
                let i = l.from.0 as usize * dims + l.dimension() as usize;
                if i < v.len() {
                    v[i] = o.factor;
                }
            }
        }
        v
    }
}

/// Deterministic [`LinkPolicy::Lossy`] coin: whether transmission
/// `id` under `seed` is lost, at probability `loss_per_myriad / 10⁴`.
/// Pure function of its arguments; the engine mixes the source's
/// retry count into `id`, so each retransmission attempt (which
/// reuses its slab id) still draws a fresh coin.
pub fn lossy_coin(seed: u64, id: u64, loss_per_myriad: u32) -> bool {
    loss_per_myriad > 0 && unit_draw(seed, id) * 10_000.0 < loss_per_myriad as f64
}

/// Splitmix64-derived uniform draw in `[0, 1]`.
fn unit_draw(seed: u64, key: u64) -> f64 {
    let z =
        crate::fxhash::splitmix64_mix(seed ^ key.wrapping_mul(crate::fxhash::SPLITMIX64_GOLDEN));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Dense dead-link membership, indexed like the engine's `LinkTable`.
#[derive(Debug)]
pub struct FaultSet {
    bits: Vec<u64>,
    stride: usize,
    any: bool,
}

impl FaultSet {
    /// Build the set for a `d`-dimensional cube from dead cables.
    pub fn new(d: u32, cables: &[Cable]) -> FaultSet {
        let stride = (d as usize).max(1);
        let slots = (1usize << d) * stride;
        let mut bits = vec![0u64; slots.div_ceil(64)];
        for c in cables {
            for l in c.directions() {
                let i = l.from.0 as usize * stride + l.dimension() as usize;
                if i < slots {
                    bits[i / 64] |= 1 << (i % 64);
                }
            }
        }
        FaultSet { bits, stride, any: !cables.is_empty() }
    }

    /// Whether any cable is dead.
    #[inline]
    pub fn any(&self) -> bool {
        self.any
    }

    /// Whether the directed link is dead.
    #[inline]
    pub fn is_dead(&self, l: &DirectedLink) -> bool {
        if !self.any {
            return false;
        }
        let i = l.from.0 as usize * self.stride + l.dimension() as usize;
        i < self.bits.len() * 64 && self.bits[i / 64] & (1 << (i % 64)) != 0
    }
}

/// Whether the default e-cube route for `(src, mask)` crosses a dead
/// link.
pub fn ecube_route_is_dead(src: NodeId, mask: u32, faults: &FaultSet) -> bool {
    let mut cur = src.0;
    let mut diff = mask;
    while diff != 0 {
        let bit = diff & diff.wrapping_neg();
        if faults.is_dead(&DirectedLink { from: NodeId(cur), to: NodeId(cur ^ bit) }) {
            return true;
        }
        cur ^= bit;
        diff &= diff - 1;
    }
    false
}

/// Find a fault-avoiding dimension-correction order for `(src, mask)`:
/// a permutation of the set bits of `mask` such that every directed
/// link along the induced path is alive. Deterministic
/// (lowest-dimension-first depth-first search, so the result equals
/// e-cube order whenever e-cube order works); `None` when the subcube
/// offers no live decomposition.
pub fn plan_route(src: NodeId, mask: u32, faults: &FaultSet) -> Option<Vec<u8>> {
    let mut order = Vec::with_capacity(mask.count_ones() as usize);
    let mut dead_ends: FxHashSet<u32> = Default::default();
    if search(src, mask, 0, faults, &mut order, &mut dead_ends) {
        Some(order)
    } else {
        None
    }
}

fn search(
    src: NodeId,
    mask: u32,
    done: u32,
    faults: &FaultSet,
    order: &mut Vec<u8>,
    dead_ends: &mut FxHashSet<u32>,
) -> bool {
    if done == mask {
        return true;
    }
    if dead_ends.contains(&done) {
        return false;
    }
    let cur = NodeId(src.0 ^ done);
    let mut rem = mask & !done;
    while rem != 0 {
        let bit = rem & rem.wrapping_neg();
        let link = DirectedLink { from: cur, to: NodeId(cur.0 ^ bit) };
        if !faults.is_dead(&link) {
            order.push(bit.trailing_zeros() as u8);
            if search(src, mask, done | bit, faults, order, dead_ends) {
                return true;
            }
            order.pop();
        }
        rem &= rem - 1;
    }
    dead_ends.insert(done);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cable_canonicalizes_and_lists_both_directions() {
        let a = Cable::new(NodeId(7), 1); // endpoint with bit 1 set
        let b = Cable::new(NodeId(5), 1); // the other endpoint
        assert_eq!(a, b);
        assert_eq!(a.node, NodeId(5));
        let [fwd, rev] = a.directions();
        assert_eq!(fwd, DirectedLink { from: NodeId(5), to: NodeId(7) });
        assert_eq!(rev, DirectedLink { from: NodeId(7), to: NodeId(5) });
    }

    #[test]
    fn noop_detection() {
        assert!(NetCondition::default().is_noop());
        assert!(NetCondition::uniform_slowdown(1.0).is_noop());
        assert!(NetCondition::seeded_speeds(1.0, 1.0, 9).is_noop());
        assert!(!NetCondition::uniform_slowdown(2.0).is_noop());
        assert!(!NetCondition::default().with_fault(NodeId(0), 0).is_noop());
        assert!(!NetCondition::default()
            .with_background(BackgroundStream {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 8,
                start_ns: 0,
                period_ns: 1,
                count: 1,
            })
            .is_noop());
        assert!(!NetCondition::default()
            .with_link_policy(LinkPolicy::DropTail { queue_limit: 4 })
            .is_noop());
        assert!(!NetCondition::default().with_skip_dead_pairs().is_noop());
    }

    #[test]
    fn lossy_coin_is_deterministic_and_respects_bounds() {
        assert!(!lossy_coin(7, 1, 0), "zero loss never drops");
        assert!(lossy_coin(7, 1, 10_000), "certain loss always drops");
        for id in 0..64u64 {
            assert_eq!(lossy_coin(9, id, 2_500), lossy_coin(9, id, 2_500));
        }
        // Roughly a quarter of ids drop at 2500/10000.
        let drops = (0..10_000u64).filter(|&id| lossy_coin(0xC0DE, id, 2_500)).count();
        assert!((2_000..3_000).contains(&drops), "{drops}");
        // A bad rate is rejected by validation.
        let nc = NetCondition::default()
            .with_link_policy(LinkPolicy::Lossy { loss_per_myriad: 10_001, seed: 1 });
        assert!(nc.validate(3).unwrap_err().contains("loss_per_myriad"));
    }

    #[test]
    fn validate_rejects_out_of_cube_and_degenerate_inputs() {
        let nc = NetCondition::default().with_fault(NodeId(0), 5);
        assert!(nc.validate(3).unwrap_err().contains("cable"));
        let nc = NetCondition::uniform_slowdown(-2.0);
        assert!(nc.validate(3).unwrap_err().contains("factor"));
        let nc = NetCondition::seeded_speeds(3.0, 2.0, 1);
        assert!(nc.validate(3).unwrap_err().contains("empty"));
        let nc = NetCondition::default().with_background(BackgroundStream {
            src: NodeId(2),
            dst: NodeId(2),
            bytes: 8,
            start_ns: 0,
            period_ns: 10,
            count: 3,
        });
        assert!(nc.validate(3).unwrap_err().contains("itself"));
        assert!(NetCondition::default().validate(0).is_ok());
    }

    #[test]
    fn resolved_speeds_are_deterministic_and_respect_overrides() {
        let nc =
            NetCondition::seeded_speeds(1.0, 4.0, 42).with_override(Cable::new(NodeId(0), 1), 9.0);
        let a = nc.resolve_speeds(3);
        let b = nc.resolve_speeds(3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8 * 3);
        assert!(a.iter().all(|&f| (1.0..=9.0).contains(&f)));
        // Both directions of the overridden cable pinned.
        assert_eq!(a[1], 9.0); // node 0, dim 1
        assert_eq!(a[2 * 3 + 1], 9.0); // node 2, dim 1
                                       // Different seeds give different tables.
        let c = NetCondition::seeded_speeds(1.0, 4.0, 43).resolve_speeds(3);
        assert_ne!(a, c);
    }

    #[test]
    fn per_dimension_profile_maps_by_crossed_dimension() {
        let nc = NetCondition {
            speed: SpeedProfile::PerDimension(vec![1.0, 3.0]),
            ..Default::default()
        };
        let v = nc.resolve_speeds(2);
        for from in 0..4usize {
            assert_eq!(v[from * 2], 1.0);
            assert_eq!(v[from * 2 + 1], 3.0);
        }
    }

    #[test]
    fn plan_route_prefers_ecube_and_avoids_faults() {
        let no_faults = FaultSet::new(5, &[]);
        assert_eq!(plan_route(NodeId(0), 0b111, &no_faults), Some(vec![0, 1, 2]));
        // Kill the first e-cube hop 0->1: route must start differently.
        let faults = FaultSet::new(5, &[Cable::new(NodeId(0), 0)]);
        assert!(ecube_route_is_dead(NodeId(0), 0b111, &faults));
        let dims = plan_route(NodeId(0), 0b111, &faults).unwrap();
        assert_eq!(dims.len(), 3);
        assert_ne!(dims[0], 0, "must not start across the dead cable");
        // The route never crosses a dead link.
        let mut cur = 0u32;
        for &d in &dims {
            let next = cur ^ (1 << d);
            assert!(!faults.is_dead(&DirectedLink { from: NodeId(cur), to: NodeId(next) }));
            cur = next;
        }
        assert_eq!(cur, 0b111);
    }

    #[test]
    fn single_bit_masks_cannot_reroute() {
        let faults = FaultSet::new(4, &[Cable::new(NodeId(0), 2)]);
        assert_eq!(plan_route(NodeId(0), 0b100, &faults), None);
        assert_eq!(plan_route(NodeId(4), 0b100, &faults), None, "both directions dead");
        assert!(plan_route(NodeId(1), 0b100, &faults).is_some(), "other cables alive");
    }

    #[test]
    fn fully_cut_subcube_is_unroutable() {
        // Kill both exits of node 0 within the {0,1}-subcube.
        let faults = FaultSet::new(3, &[Cable::new(NodeId(0), 0), Cable::new(NodeId(0), 1)]);
        assert_eq!(plan_route(NodeId(0), 0b11, &faults), None);
        // From the far corner the same subcube is routable: both of
        // node 3's own links are alive, and only the last hop into 0
        // is constrained — but both orders end at 0 across a dead
        // cable, so 3 -> 0 is dead too.
        assert_eq!(plan_route(NodeId(3), 0b11, &faults), None);
        // A bigger mask opens a detour around the cut.
        assert!(plan_route(NodeId(0), 0b111, &faults).is_some());
    }

    #[test]
    fn background_tags_are_marked() {
        assert!(background_tag(3).0 & BACKGROUND_TAG_BIT != 0);
        assert!(!background_tag(3).is_sync());
    }
}
