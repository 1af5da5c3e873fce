//! Link arbitration and the NIC concurrency window: issuing and
//! pricing transmissions, the dirty set of pending transmissions due a
//! start attempt, the wait-list wake-ups, and the pending scan that
//! establishes circuits in global issue order.

use super::{Event, Payload, Runtime, Slab, Transmission, MAX_HOPS, NO_SLOT};
use crate::config::{SimConfig, SwitchingMode};
use crate::link::{LinkTable, TransmissionId};
use crate::message::{MsgKind, Tag};
use crate::netcond::background_tag;
use crate::time::{round_ns, us_to_ns, SimTime};
use crate::trace::{TraceEvent, WaitCause};
use mce_hypercube::routing::DirectedLink;
use mce_hypercube::NodeId;

/// The arbiter's recycled state.
pub(super) struct Arbiter {
    /// Directed-link occupancy and wait lists, kept across runs of the
    /// same dimension (`dim`).
    pub(super) links: LinkTable,
    dim: u32,
    /// Pending transmissions due a start attempt, kept sorted by
    /// queue sequence (global issue order). Almost always one entry
    /// deep, so a sorted vector beats a tree.
    pub(super) dirty: Vec<(u64, TransmissionId)>,
    /// Transmissions watching a physical node's NIC intervals. (Those
    /// watching a directed link wait in `links`.)
    node_watch: Vec<Vec<TransmissionId>>,
    /// Scratch a wake-up drains wait lists into, so that the lists
    /// themselves keep their allocations.
    woken: Vec<TransmissionId>,
    /// Queue sequence of the next pending stint: its position in global
    /// issue order.
    next_qseq: u64,
    /// The run's λ, λ₀, τ and δ in integer nanoseconds, converted once
    /// per run: the unconditioned pricing path runs per transmission
    /// and must not pay four float-to-int rounds each time. Identical
    /// values to the `SimConfig::*_ns` helpers.
    rates: [u64; 4],
}

impl Default for Arbiter {
    fn default() -> Self {
        Arbiter {
            links: LinkTable::for_cube(0),
            dim: 0,
            dirty: Vec::new(),
            node_watch: Vec::new(),
            woken: Vec::new(),
            next_qseq: 0,
            rates: [0; 4],
        }
    }
}

impl Arbiter {
    /// Size the tables for a run of `cfg` and convert its rates. Shard
    /// runtimes keep the whole-cube link table too: a shard may sit on
    /// any coset of the cube, and its nodes touch only their own rows.
    /// NIC wait-watchers live at *physical* nodes: a multi-job context
    /// blocked on a node's NIC state must wake when any co-tenant
    /// context of that node changes it.
    pub(super) fn lay_out(&mut self, cfg: &SimConfig) {
        if self.dim != cfg.dimension {
            self.links = LinkTable::for_cube(cfg.dimension);
            self.dim = cfg.dimension;
        }
        self.node_watch.resize_with(cfg.num_nodes(), Vec::new);
        let p = &cfg.params;
        self.rates = [p.lambda, p.lambda_zero, p.tau, p.delta].map(us_to_ns);
    }

    /// Forget the run: registrations, held links, speeds, counters.
    pub(super) fn clear(&mut self) {
        self.dirty.clear();
        self.links.clear_watchers();
        self.node_watch.iter_mut().for_each(Vec::clear);
        if self.links.busy_count() > 0 {
            self.links.clear();
        }
        if self.links.has_speeds() {
            self.links.clear_speeds();
        }
        self.next_qseq = 0;
    }

    /// Sorted-unique insert into the dirty list.
    fn dirty_insert(&mut self, key: (u64, TransmissionId)) {
        if let Err(i) = self.dirty.binary_search(&key) {
            self.dirty.insert(i, key);
        }
    }

    /// Empty `woken` onto the dirty set, skipping registrations that
    /// outlived their transmission or its wait.
    fn mark_woken(&mut self, slab: &Slab) {
        for id in self.woken.drain(..) {
            let Some(tr) = slab.live(id).filter(|tr| tr.pending) else { continue };
            if let Err(i) = self.dirty.binary_search(&(tr.qseq, id)) {
                self.dirty.insert(i, (tr.qseq, id));
            }
        }
    }
}

/// A route expanded onto the stack (no heap allocation): one directed
/// link per hop.
pub(super) struct Route {
    hops: [DirectedLink; MAX_HOPS],
    len: usize,
}

impl Route {
    /// The e-cube route of `(src, mask)`: correcting the lowest
    /// differing bit first, identical to
    /// [`ecube_path`](mce_hypercube::routing::ecube_path).
    #[inline]
    pub(super) fn ecube(src: NodeId, mask: u32) -> Route {
        let mut route = Route::empty();
        let (mut cur, mut diff) = (src.0, mask);
        while diff != 0 {
            cur = route.hop(cur, cur ^ (diff & diff.wrapping_neg()));
            diff &= diff - 1;
        }
        route
    }

    /// The route from `src` correcting dimensions in the order given (a
    /// fault-avoiding decomposition of the xor mask).
    #[inline]
    fn along(src: NodeId, dims: &[u8]) -> Route {
        let mut route = Route::empty();
        let mut cur = src.0;
        for &dim in dims {
            cur = route.hop(cur, cur ^ (1u32 << dim));
        }
        route
    }

    #[inline]
    fn empty() -> Route {
        Route { hops: [DirectedLink { from: NodeId(0), to: NodeId(0) }; MAX_HOPS], len: 0 }
    }

    /// Append the hop `from -> to`; returns `to`.
    #[inline]
    fn hop(&mut self, from: u32, to: u32) -> u32 {
        self.hops[self.len] = DirectedLink { from: NodeId(from), to: NodeId(to) };
        self.len += 1;
        to
    }
}

impl std::ops::Deref for Route {
    type Target = [DirectedLink];

    #[inline]
    fn deref(&self) -> &[DirectedLink] {
        &self.hops[..self.len]
    }
}

/// Deterministic multiplicative jitter in `[1 - frac, 1 + frac]`,
/// derived from (seed, transmission id) by splitmix64.
pub(super) fn jitter(base_ns: u64, frac: f64, seed: u64, id: TransmissionId) -> u64 {
    let z = crate::fxhash::splitmix64_mix(seed ^ id.wrapping_mul(crate::fxhash::SPLITMIX64_GOLDEN));
    // Map to [-1, 1).
    let u = (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
    round_ns(base_ns as f64 * (1.0 + frac * u))
}

impl<'c> Runtime<'c> {
    /// The route of a transmission from context `src` over `mask` for
    /// this run: the fault-avoiding override when the conditioned state
    /// holds one, the plain e-cube expansion otherwise. Routes live on
    /// the physical cube.
    #[inline]
    pub(super) fn route(&self, src: NodeId, mask: u32) -> Route {
        let src = self.phys(src);
        if let Some(cond) = &self.conditioned {
            if let Some(dims) = cond.reroutes.get(&(src.0, mask)) {
                return Route::along(src, dims);
            }
        }
        Route::ecube(src, mask)
    }

    /// Fire one injection of background stream `si`: a link-occupying
    /// transmission of the stream's length that bypasses NIC state and
    /// delivery. Schedules the stream's next injection.
    pub(super) fn inject_background(&mut self, si: usize, t: SimTime) {
        let (src, dst, bytes, period_ns, remaining) = {
            let cond = self.conditioned.as_mut().expect("Inject event on unconditioned run");
            let s = cond.streams[si];
            cond.remaining[si] -= 1;
            (s.src, s.dst, s.bytes, s.period_ns, cond.remaining[si])
        };
        let tag = background_tag(si);
        self.issue(src, dst, tag, MsgKind::Forced, Payload::Len(bytes), NO_SLOT, t);
        if remaining > 0 {
            self.sched.push(t.plus_ns(period_ns), Event::Inject(si as u32));
        }
        self.run_pending_scan(t);
    }

    /// Price one transmission (or one store-and-forward hop) over
    /// conditioned links: duration, the UNFORCED reserve surcharge
    /// and jitter, as a pure function of `(bytes, kind, factors, id)`
    /// — the single source of truth shared by the issue path and the
    /// store-and-forward hop-repricing path, so the two cannot
    /// diverge. (The reserve-handshake *statistic* is counted once at
    /// issue, not here.)
    pub(super) fn conditioned_priced_ns(
        &self,
        bytes: usize,
        kind: MsgKind,
        max_f: f64,
        sum_f: f64,
        id: TransmissionId,
    ) -> u64 {
        let mut dur = self.cfg.conditioned_transmission_ns(bytes, max_f, sum_f);
        if kind == MsgKind::Unforced && bytes > self.cfg.params.unforced_threshold {
            dur += self.cfg.conditioned_reserve_ack_ns(sum_f);
        }
        if self.cfg.jitter_frac > 0.0 {
            dur = jitter(dur, self.cfg.jitter_frac, self.cfg.seed, id);
        }
        dur
    }

    /// Issue a transmission onto the pending list: a background
    /// injection when the payload is a length only.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn issue(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: Tag,
        kind: MsgKind,
        payload: Payload,
        dst_slot: u32,
        t: SimTime,
    ) -> TransmissionId {
        let id = self.slab.next_id();
        let nbytes = payload.len();
        if let Payload::InPlace(..) = payload {
            self.del.inplace_out[src.index()] = Some(id);
        }
        // Same-job contexts differ only in physical-node bits, so the
        // xor-mask is the physical route mask; routes and links live on
        // the physical cube.
        let mask = src.0 ^ dst.0;
        let hops = mask.count_ones();
        let circuit = self.cfg.switching == SwitchingMode::Circuit;
        // Conditioned network: (max, sum) factors of the actual
        // (possibly fault-rerouted) path. For store-and-forward this
        // prices hop 0; later hops are re-priced as they queue.
        let factors = if self.arb.links.has_speeds() {
            let route = self.route(src, mask);
            Some(if circuit {
                self.arb.links.segment_factors(&route)
            } else {
                let f = self.arb.links.factor(&route[0]);
                (f, f)
            })
        } else {
            None
        };
        if kind == MsgKind::Unforced && nbytes > self.cfg.params.unforced_threshold {
            self.stats.reserve_handshakes += 1;
        }
        let duration_ns = match factors {
            Some((max_f, sum_f)) => self.conditioned_priced_ns(nbytes, kind, max_f, sum_f, id),
            None => {
                // Integer pricing from the precomputed per-run rates;
                // bit-identical to `SimConfig::transmission_ns` (one
                // hop in store-and-forward mode) / `reserve_ack_ns`.
                let [lambda, lambda0, tau, delta] = self.arb.rates;
                let bytes = nbytes as u64;
                let lam = if bytes == 0 { lambda0 } else { lambda };
                let dur_hops = if circuit { hops as u64 } else { 1 };
                let mut dur = lam + tau * bytes + delta * dur_hops;
                if kind == MsgKind::Unforced && nbytes > self.cfg.params.unforced_threshold {
                    dur += 2 * (lambda0 + delta * dur_hops);
                }
                if self.cfg.jitter_frac > 0.0 {
                    dur = jitter(dur, self.cfg.jitter_frac, self.cfg.seed, id);
                }
                dur
            }
        };
        let qseq = self.arb.next_qseq;
        self.arb.next_qseq += 1;
        let tr = Transmission {
            payload,
            src,
            dst,
            mask,
            dst_slot,
            tag,
            duration_ns,
            requested_at: t,
            qseq,
            kind,
            hop_idx: 0,
            blocked_by_link: false,
            blocked_by_nic: false,
            pending: true,
        };
        self.slab.insert(tr);
        self.arb.dirty_insert((qseq, id));
        id
    }

    /// Put transmission `id` back on the pending list at `t` under a
    /// fresh queue sequence, exactly as if it had just been issued —
    /// its one-shot blocking flags cleared, so each stint's wait is
    /// accounted once — and run the pending scan.
    pub(super) fn requeue(&mut self, id: TransmissionId, t: SimTime) {
        let qseq = self.arb.next_qseq;
        self.arb.next_qseq += 1;
        let tr = self.slab.get_mut(id);
        tr.requested_at = t;
        tr.blocked_by_link = false;
        tr.blocked_by_nic = false;
        tr.qseq = qseq;
        tr.pending = true;
        self.arb.dirty_insert((qseq, id));
        self.run_pending_scan(t);
    }

    /// Move every watcher of the segment's links onto the dirty set.
    /// Called for both acquires (a watcher may need its blocked-by-link
    /// flag and contention accounting updated) and releases (a watcher
    /// may now start).
    pub(super) fn wake_link_watchers(&mut self, segment: &[DirectedLink]) {
        if self.arb.links.has_watchers() {
            self.arb.links.drain_watchers(segment, &mut self.arb.woken);
            self.arb.mark_woken(&self.slab);
        }
    }

    /// Move every watcher of physical node `x`'s NIC state onto the
    /// dirty set.
    fn wake_node_watchers(&mut self, x: NodeId) {
        let watch = &mut self.arb.node_watch[x.index()];
        if !watch.is_empty() {
            self.arb.woken.append(watch);
            self.arb.mark_woken(&self.slab);
        }
    }

    /// Close transmission `id`'s NIC intervals at `t` — the outgoing
    /// one at context `src` and the incoming one at `dst`, each when
    /// given — and wake the transmissions watching those NICs.
    ///
    /// This is the only place an interval closes, and it closes at the
    /// interval's own end (asserted): a transmission blocked by the
    /// concurrency window is retried by the handler that closes the
    /// blocking interval, at the first instant it can start (see
    /// [`crate::shard`]).
    pub(super) fn release_nic(
        &mut self,
        id: TransmissionId,
        src: Option<NodeId>,
        dst: Option<NodeId>,
        t: SimTime,
    ) {
        if let Some(src) = src {
            let outgoing = &mut self.nodes[src.index()].outgoing;
            debug_assert!(matches!(*outgoing, Some((oid, _, end)) if oid == id && end == t));
            *outgoing = None;
            self.wake_node_watchers(self.phys(src));
        }
        if let Some(dst) = dst {
            let incoming = &mut self.nodes[dst.index()].incoming;
            debug_assert!(incoming.iter().any(|&(iid, _, end)| iid == id && end == t));
            incoming.retain(|&(iid, _, _)| iid != id);
            self.wake_node_watchers(self.phys(dst));
        }
    }

    /// Retry dirty pending transmissions in global queue order at time
    /// `t`, in passes until none is dirty. Candidates dirtied *during* a
    /// pass join it only at positions after the current cursor (the
    /// state a single in-order sweep would observe); earlier ones — a
    /// start that wakes a transmission queued before it — get the next
    /// pass, by this same handler. So every wake is retried by the
    /// handler that caused it, never by a later, unrelated one (see
    /// [`crate::shard`]).
    pub(super) fn run_pending_scan(&mut self, t: SimTime) {
        let mut cursor: Option<(u64, TransmissionId)> = None;
        loop {
            // First dirty key strictly beyond the cursor.
            let idx = match cursor {
                None => 0,
                Some(c) => self.arb.dirty.partition_point(|&k| k <= c),
            };
            if idx >= self.arb.dirty.len() {
                if self.arb.dirty.is_empty() {
                    break;
                }
                cursor = None;
                continue;
            }
            let key = self.arb.dirty.remove(idx);
            cursor = Some(key);
            let (qseq, id) = key;
            if self.slab.pending_as(id, qseq) {
                self.try_start(id, t);
            }
        }
    }

    /// NIC concurrency window (Section 7.2): an outgoing transmission
    /// at the source may not overlap an incoming one unless their
    /// starts are within the window; symmetrically for the receiver's
    /// active outgoing. The NIC is physical-node hardware, so on
    /// multi-job runs the intervals of every co-tenant context of the
    /// node count. Returns whether an interval still open at `t`
    /// started more than the window before `t`.
    fn nic_blocked(
        &self,
        src: NodeId,
        dst: NodeId,
        first_hop: bool,
        last_hop: bool,
        t: SimTime,
    ) -> bool {
        let window = self.cfg.concurrency_window_ns;
        let blocks = |&(_, start, end): &(TransmissionId, SimTime, SimTime)| {
            end > t && t.since(start) > window
        };
        let (phys_src, phys_dst) = (self.phys(src).index(), self.phys(dst).index());
        (0..self.num_jobs).any(|j| {
            let base = self.job_contexts(j).start;
            (first_hop && self.nodes[base + phys_src].incoming.iter().any(blocks))
                || (last_hop && self.nodes[base + phys_dst].outgoing.iter().any(blocks))
        })
    }

    /// Try to establish the next segment of transmission `id` at time
    /// `t`: the whole circuit in circuit mode, the next single hop in
    /// store-and-forward mode. On failure, registers the wait-queue
    /// watchers that will re-dirty the transmission.
    fn try_start(&mut self, id: TransmissionId, t: SimTime) -> bool {
        let saf = self.cfg.switching == SwitchingMode::StoreAndForward;
        let (src, dst, mask, hop_idx, background) = {
            let tr = self.slab.get(id);
            (tr.src, tr.dst, tr.mask, tr.hop_idx as usize, tr.background())
        };
        let route = self.route(src, mask);
        let segment = if saf { &route[hop_idx..hop_idx + 1] } else { &route[..] };
        let first_hop = hop_idx == 0;
        let last_hop = !saf || hop_idx + 1 == route.len();
        if !self.arb.links.all_free(segment) {
            // Reactive sources under a drop-tail/NACK policy: the
            // switch may refuse the circuit instead of queueing it.
            if !background && !saf {
                if let Some(nack) = self.refusal(src, segment) {
                    self.drop_transmission(id, t, nack);
                    return false;
                }
            }
            let tr = self.slab.get_mut(id);
            if !tr.blocked_by_link {
                tr.blocked_by_link = true;
                // Background injections contend but stay out of the
                // algorithm's contention statistics.
                if !background {
                    self.stats.edge_contention_events += 1;
                }
            }
            self.arb.links.watch(segment, id);
            return false;
        }
        // Background traffic models pass-through circuits from other
        // partitions: it occupies links only and bypasses the NIC rule.
        if !background && self.nic_blocked(src, dst, first_hop, last_hop, t) {
            let tr = self.slab.get_mut(id);
            if !tr.blocked_by_nic {
                tr.blocked_by_nic = true;
                self.stats.nic_serialization_events += 1;
            }
            // Wake when one of our links is touched, or when the
            // blocking endpoints' NIC intervals change — the blocking
            // interval closes at its end, in `release_nic`.
            self.arb.links.watch(segment, id);
            for (end, node) in [(first_hop, src), (last_hop, dst)] {
                let phys = self.phys(node).index();
                let watch = &mut self.arb.node_watch[phys];
                if end && !watch.contains(&id) {
                    watch.push(id);
                }
            }
            return false;
        }
        // Start: hold the segment for its duration.
        let (end, bytes, tag, requested_at, by_link, by_nic) = {
            let tr = self.slab.get_mut(id);
            tr.pending = false;
            let end = t.plus_ns(tr.duration_ns);
            (end, tr.payload.len(), tr.tag, tr.requested_at, tr.blocked_by_link, tr.blocked_by_nic)
        };
        let wait = t.since(requested_at);
        self.arb.links.acquire(segment, id);
        if background {
            if first_hop {
                self.stats.background_transmissions += 1;
                self.stats.background_bytes += bytes as u64;
            }
        } else {
            self.stats.link_crossings += segment.len() as u64;
            if first_hop {
                self.nodes[src.index()].outgoing = Some((id, t, end));
                self.wake_node_watchers(self.phys(src));
                self.stats.transmissions += 1;
                self.stats.bytes_moved += bytes as u64;
            }
            if last_hop {
                self.nodes[dst.index()].incoming.push((id, t, end));
                self.wake_node_watchers(self.phys(dst));
            }
            if by_link {
                self.stats.edge_contention_wait_ns += wait;
            } else if by_nic {
                self.stats.nic_serialization_wait_ns += wait;
            }
            if !self.stats.jobs.is_empty() {
                let job = self.job_of(src);
                let js = &mut self.stats.jobs[job];
                if first_hop {
                    js.transmissions += 1;
                    js.bytes_moved += bytes as u64;
                }
                if by_link {
                    js.edge_contention_wait_ns += wait;
                } else if by_nic {
                    js.nic_wait_ns += wait;
                }
            }
        }
        // An acquire can flip a watcher's blocking cause; give link
        // watchers their in-order look at the new state.
        self.wake_link_watchers(segment);
        if let Some(sink) = self.sink.as_mut() {
            // The full hold extent is known at establishment, so every
            // span is emitted complete — no start/end pairing.
            for link in segment {
                sink.emit(TraceEvent::LinkHold {
                    from: link.from,
                    to: link.to,
                    start: t,
                    end,
                    tag,
                    bytes,
                    background,
                });
            }
            if !background {
                if first_hop {
                    sink.emit(TraceEvent::NicSend { node: src, start: t, end, tag, bytes });
                }
                if last_hop {
                    sink.emit(TraceEvent::NicRecv { node: dst, start: t, end, tag });
                }
                if wait > 0 && (by_link || by_nic) {
                    let cause = if by_link { WaitCause::Contention } else { WaitCause::NicLapse };
                    sink.emit(TraceEvent::Wait { node: src, cause, start: requested_at, end: t });
                }
            }
        }
        self.sched.push(end, Event::TransmissionEnd(id));
        true
    }
}
