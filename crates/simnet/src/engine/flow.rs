//! Flow control under a link policy (see [`crate::traffic`]): refused
//! and lost circuits, the go-back-n retransmission, per-source
//! congestion windows and retry budgets.

use super::{Event, Runtime, SimError};
use crate::config::SimConfig;
use crate::link::TransmissionId;
use crate::netcond::{lossy_coin, LinkPolicy};
use crate::time::SimTime;
use crate::trace::{FlowKind, TraceEvent};
use crate::traffic::{CwndState, FlowCtl};
use mce_hypercube::routing::DirectedLink;
use mce_hypercube::NodeId;

/// The flow-control layer's per-run state.
#[derive(Default)]
pub(super) struct Flow {
    /// The run's link policy (copied out of the netcond); `None` =
    /// reliable links, and the fields below stay empty.
    policy: Option<LinkPolicy>,
    /// Per-job flow control; empty unless a link policy *and* at least
    /// one flow-controlled job are configured (the reactive machinery
    /// costs the legacy path nothing).
    ctl: Vec<Option<FlowCtl>>,
    /// Per-context congestion-window state (empty when `ctl` is).
    cwnd: Vec<CwndState>,
    /// Per-context consecutive-drop counters (empty when `ctl` is).
    retries: Vec<u32>,
}

impl Flow {
    /// The flow state of a run of `n` contexts under `cfg`.
    pub(super) fn new(cfg: &SimConfig, n: usize) -> Self {
        let policy = cfg.netcond.as_ref().and_then(|nc| nc.link_policy);
        if policy.is_none() || cfg.jobs.iter().all(|j| j.flow.is_none()) {
            return Flow { policy, ..Flow::default() };
        }
        let phys_n = cfg.num_nodes();
        let cwnd = cfg
            .jobs
            .iter()
            .flat_map(|j| {
                std::iter::repeat_n(j.flow.unwrap_or_default().cwnd.instantiate(), phys_n)
            })
            .collect();
        Flow { policy, ctl: cfg.jobs.iter().map(|j| j.flow).collect(), cwnd, retries: vec![0; n] }
    }
}

impl<'c> Runtime<'c> {
    /// This context's flow control, when the run's reactive machinery
    /// is active and the context's job opted in.
    #[inline]
    fn flow_of(&self, x: NodeId) -> Option<&FlowCtl> {
        self.flow.ctl.get(self.job_of(x)).and_then(Option::as_ref)
    }

    /// Drop-tail / NACK policies: a flow-controlled source's circuit
    /// whose blocking link's wait queue is already at the limit is
    /// refused instead of queued. `Some(nack)` when refused, `nack`
    /// selecting the short fixed NACK delay.
    pub(super) fn refusal(&self, src: NodeId, segment: &[DirectedLink]) -> Option<bool> {
        let (queue_limit, nack) = match self.flow.policy {
            Some(LinkPolicy::DropTail { queue_limit }) => (queue_limit, false),
            Some(LinkPolicy::Nack { queue_limit }) => (queue_limit, true),
            _ => return None,
        };
        self.flow_of(src)?;
        let links = &self.arb.links;
        let queued = segment
            .iter()
            .filter(|l| !links.all_free(std::slice::from_ref(l)))
            .map(|l| links.watchers(l))
            .max()
            .unwrap_or(0);
        (queued as u32 >= queue_limit).then_some(nack)
    }

    /// Lossy-link policy: whether circuit `id`, having run its full
    /// (priced) duration, lost its payload. Only flow-controlled
    /// sources lose payloads.
    pub(super) fn lost(&self, id: TransmissionId) -> bool {
        let Some(LinkPolicy::Lossy { loss_per_myriad, seed }) = self.flow.policy else {
            return false;
        };
        let tr = self.slab.get(id);
        !tr.background() && self.flow_of(tr.src).is_some() && {
            // Retransmissions reuse the slab id, so mix the source's
            // attempt count into the coin key — each retry draws a
            // fresh coin instead of replaying the loss forever.
            let attempt = u64::from(self.flow.retries[tr.src.index()]);
            let key = id.wrapping_add(attempt.wrapping_mul(crate::fxhash::SPLITMIX64_GOLDEN));
            lossy_coin(seed, key, loss_per_myriad)
        }
    }

    /// A flow-controlled transmission was dropped (lossy link) or
    /// refused (drop-tail / NACK at circuit establishment): shrink the
    /// source's window, charge its retry budget, and schedule the
    /// go-back-n retransmission — or raise the typed
    /// [`SimError::RetriesExhausted`] when the budget is gone. `nack`
    /// selects the short fixed NACK delay over the cwnd-scaled
    /// backoff.
    pub(super) fn drop_transmission(&mut self, id: TransmissionId, t: SimTime, nack: bool) {
        let (src, dst) = {
            let tr = self.slab.get(id);
            (tr.src, tr.dst)
        };
        let job = self.job_of(src);
        let ctx = src.index();
        self.stats.flow_drops += 1;
        if let Some(js) = self.stats.jobs.get_mut(job) {
            js.drops += 1;
        }
        self.emit_flow(src, FlowKind::Drop, t);
        self.update_cwnd(src, t, CwndState::on_drop);
        self.flow.retries[ctx] += 1;
        // Off the pending list until the retransmission fires.
        self.slab.get_mut(id).pending = false;
        let fc = self.flow.ctl[job].expect("drop on a non-flow-controlled job");
        let retries = self.flow.retries[ctx];
        if retries > fc.max_retries {
            let exhausted = SimError::RetriesExhausted { job: job as u32, src, dst, retries };
            self.fatal.get_or_insert(exhausted);
            return;
        }
        let delay = if nack { (fc.rto_ns / 8).max(1) } else { fc.backoff_ns(&self.flow.cwnd[ctx]) };
        let until = t.plus_ns(delay);
        self.emit_flow(src, FlowKind::Backoff { until }, t);
        self.sched.push(until, Event::Retransmit(id));
    }

    /// Re-issue a dropped transmission: back onto the pending list
    /// under a fresh queue sequence, exactly as if it had just been
    /// issued (the payload — in-place or owned — never moved).
    pub(super) fn fire_retransmit(&mut self, id: TransmissionId, t: SimTime) {
        let Some(src) = self.slab.live(id).map(|tr| tr.src) else { return };
        let job = self.job_of(src);
        self.stats.retransmissions += 1;
        if let Some(js) = self.stats.jobs.get_mut(job) {
            js.retransmissions += 1;
        }
        self.emit_flow(src, FlowKind::Retransmit, t);
        self.requeue(id, t);
    }

    /// Acknowledge a completed circuit to a flow-controlled source's
    /// congestion window and re-arm its retry budget.
    pub(super) fn ack(&mut self, src: NodeId, t: SimTime) {
        if self.flow_of(src).is_some() {
            self.update_cwnd(src, t, CwndState::on_ack);
            self.flow.retries[src.index()] = 0;
        }
    }

    /// Apply `update` to `src`'s congestion window; a changed window
    /// is traced.
    fn update_cwnd(&mut self, src: NodeId, t: SimTime, update: fn(&mut CwndState)) {
        let cwnd = &mut self.flow.cwnd[src.index()];
        let before = cwnd.cwnd();
        update(cwnd);
        let window = cwnd.cwnd();
        if window != before {
            self.emit_flow(src, FlowKind::Cwnd { window }, t);
        }
    }

    /// Trace hook: one flow-control event of context `node`.
    fn emit_flow(&mut self, node: NodeId, kind: FlowKind, at: SimTime) {
        let job = self.job_of(node) as u32;
        if let Some(sink) = self.sink.as_mut() {
            sink.emit(TraceEvent::Flow { job, node, kind, at });
        }
    }
}
