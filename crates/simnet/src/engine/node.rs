//! One node's step through its ops, and barriers.

use super::delivery::{apply_block_permutation, SLOT_BUFFERED, SLOT_DELIVERED, SLOT_POSTED};
use super::{Event, Payload, Runtime, SimError, Status};
use crate::compile::{Compiled, CompiledOp};
use crate::config::SwitchingMode;
use crate::time::SimTime;
use crate::trace::{TraceEvent, WaitCause};
use mce_hypercube::NodeId;
use std::ops::Range;

/// Barrier counters, and the driver's hold on a completed barrier.
pub(super) struct Barriers {
    /// Per-job barrier-entry counters (barriers are job-local: jobs
    /// never synchronize with each other).
    pub(super) entered: Vec<u64>,
    /// Barrier-entry count that releases a job's barrier: the per-job
    /// node count on the master runtime, `u64::MAX` inside a shard
    /// window (a shard never releases a barrier on its own — the
    /// driver coordinates the release across shards; see
    /// [`crate::shard`]).
    pub(super) target: u64,
    /// When set, a completed barrier records its release time in
    /// `held_release` instead of waking the nodes: the driver runs one
    /// barrier-delimited phase at a time and decides each phase's
    /// execution mode at the boundary. Off for every run that
    /// [`crate::shard`] does not admit, and for the rerun after a
    /// window violation.
    pub(super) hold: bool,
    /// Release time of the barrier that completed under `hold` (last
    /// entry time + barrier cost).
    pub(super) held_release: Option<SimTime>,
    /// Time of the most recent barrier entry; the driver takes the
    /// max across shards to time a windowed phase's release.
    pub(super) last_entry: SimTime,
}

impl<'c> Runtime<'c> {
    /// Execute ops at node `x` starting at time `t` until it blocks,
    /// yields, or finishes.
    pub(super) fn step_node(
        &mut self,
        x: NodeId,
        t: SimTime,
        compiled: &Compiled,
    ) -> Result<(), SimError> {
        let xi = x.index();
        if self.nodes[xi].status == Status::Done {
            return Ok(()); // stale wake-up after completion
        }
        if !self.bound.left.is_empty() && self.cut_by_floor(x, t, compiled) {
            return Ok(());
        }
        self.nodes[xi].status = Status::Ready;
        loop {
            let pc = self.nodes[xi].pc;
            let Some(op) = compiled.programs[xi].ops(&compiled.ops).get(pc) else {
                self.nodes[xi].status = Status::Done;
                self.nodes[xi].finish = t;
                self.context_finished(t);
                return Ok(());
            };
            match op {
                CompiledOp::PostRecv { slot, start, end, tag } => {
                    self.nodes[xi].pc += 1;
                    let slot = *slot as usize;
                    let gi = self.del.slot_base[xi] as usize + slot;
                    if self.del.slots[gi].flags & SLOT_BUFFERED != 0 {
                        // Late post of a buffered UNFORCED message.
                        let (tag, into) = (*tag, *start as usize..*end as usize);
                        self.del.slots[gi].flags &= !SLOT_BUFFERED;
                        let buf = self.del.buffered.remove(&(gi as u32)).expect("buffered payload");
                        let payload = Payload::Owned(buf);
                        self.deliver(x, &payload, x, slot, tag, into)?;
                        self.del.recycle_payload(payload);
                    } else {
                        let s = &mut self.del.slots[gi];
                        s.start = *start;
                        s.end = *end;
                        s.flags |= SLOT_POSTED;
                    }
                }
                CompiledOp::Send { dst, start, end, dst_slot, tag, kind } => {
                    // Self-sends were rejected by the compile pass
                    // (`SimError::SelfSend`), so `dst != x` here.
                    self.nodes[xi].pc += 1;
                    if self.pair_is_dead(x, *dst) {
                        // Partial-fault semantics: the pair's subcube
                        // offers no route — skip the send (the matching
                        // WaitRecv at the receiver skips too).
                        let job = self.job_of(x);
                        if let Some(js) = self.stats.jobs.get_mut(job) {
                            js.dead_pairs_skipped += 1;
                        }
                        continue;
                    }
                    let payload = if self.cfg.switching == SwitchingMode::Circuit {
                        // Zero-copy: the sender blocks for the whole
                        // circuit, so the bytes stay in its memory until
                        // delivery (or until an inbound delivery into the
                        // range materializes them).
                        Payload::InPlace(*start, *end)
                    } else {
                        // Store-and-forward frees the sender after hop 0
                        // — its memory may change while the message is
                        // in flight — so copy now.
                        let from = *start as usize..*end as usize;
                        Payload::Owned(self.del.pooled_copy(&self.memories[xi][from]))
                    };
                    let id = self.issue(x, *dst, *tag, *kind, payload, *dst_slot, t);
                    self.nodes[xi].status = Status::Sending(id);
                    self.run_pending_scan(t);
                    return Ok(());
                }
                CompiledOp::WaitRecv { slot, src, .. } => {
                    if self.pair_is_dead(*src, x) {
                        // The sender skipped this pair; don't block on
                        // a message that will never arrive.
                        self.nodes[xi].pc += 1;
                        continue;
                    }
                    let gi = self.del.slot_base[xi] as usize + *slot as usize;
                    if self.del.slots[gi].flags & SLOT_DELIVERED != 0 {
                        self.nodes[xi].pc += 1;
                    } else {
                        self.nodes[xi].status = Status::Waiting(*slot);
                        return Ok(());
                    }
                }
                CompiledOp::Permute { perm_idx, block_bytes } => {
                    self.nodes[xi].pc += 1;
                    let perm = &compiled.perms[*perm_idx as usize];
                    let block_bytes = *block_bytes as usize;
                    let total = perm.len() * block_bytes;
                    apply_block_permutation(
                        &mut self.memories[xi],
                        perm,
                        block_bytes,
                        &mut self.del.scratch,
                    );
                    let dur = self.cfg.shuffle_ns(total);
                    self.sched.push(t.plus_ns(dur), Event::NodeReady(x));
                    self.nodes[xi].status = Status::Ready;
                    return Ok(());
                }
                CompiledOp::Barrier => {
                    self.nodes[xi].pc += 1;
                    self.nodes[xi].status = Status::InBarrier;
                    self.enter_barrier(x, t);
                    return Ok(());
                }
                CompiledOp::Compute { ns } => {
                    self.nodes[xi].pc += 1;
                    let Some(done) = t.checked_plus_ns(*ns) else {
                        return Err(SimError::InvalidProgram {
                            node: x,
                            reason: format!(
                                "Compute of {ns} ns at {} ns passes the simulated-time horizon \
                                 ({} ns)",
                                t.as_ns(),
                                SimTime::HORIZON.as_ns()
                            ),
                        });
                    };
                    self.sched.push(done, Event::NodeReady(x));
                    return Ok(());
                }
                CompiledOp::Mark { label } => {
                    self.nodes[xi].pc += 1;
                    let entry = self.stats.marks.entry(*label).or_insert(t);
                    if *entry < t {
                        *entry = t;
                    }
                }
            }
        }
    }

    /// Context `x` enters a barrier at `t`. Barriers are job-local:
    /// only the entering job's contexts count toward (and wake from)
    /// it.
    fn enter_barrier(&mut self, x: NodeId, t: SimTime) {
        let job = self.job_of(x);
        self.barriers.entered[job] += 1;
        self.barriers.last_entry = t;
        if let Some(sink) = self.sink.as_mut() {
            sink.barrier_entry[x.index()] = t;
        }
        if self.barriers.entered[job] != self.barriers.target {
            return;
        }
        self.barriers.entered[job] = 0;
        self.stats.barriers += 1;
        let release = t.plus_ns(self.cfg.barrier_ns());
        if self.sink.is_some() {
            self.emit_barrier(job, t, release);
        }
        if self.barriers.hold {
            // Sharded driver: stop at the phase boundary instead of
            // waking the nodes; the event queue drains empty and the
            // driver decides how the next phase executes.
            self.barriers.held_release = Some(release);
        } else {
            self.wake_contexts(self.job_contexts(job), release);
        }
    }

    /// Every context of `contexts` ready at `at`, in context order: a
    /// barrier release, or a job's start.
    pub(super) fn wake_contexts(&mut self, contexts: Range<usize>, at: SimTime) {
        for i in contexts {
            self.sched.push(at, Event::NodeReady(NodeId(i as u32)));
        }
    }

    /// Whether `(src, dst)` is a dead pair under
    /// [`crate::NetCondition::skip_dead_pairs`] (always false otherwise).
    #[inline]
    pub(super) fn pair_is_dead(&self, src: NodeId, dst: NodeId) -> bool {
        match &self.conditioned {
            Some(c) if !c.dead_pairs.is_empty() => {
                c.dead_pairs.contains(&(src.0 & self.node_mask, (src.0 ^ dst.0) & self.node_mask))
            }
            _ => false,
        }
    }

    /// Trace hook (cold): emit the job-level barrier span plus one
    /// barrier-wait span per context of the job, from each context's
    /// recorded entry time to the release.
    fn emit_barrier(&mut self, job: usize, last_entry: SimTime, release: SimTime) {
        let contexts = self.job_contexts(job);
        let Some(sink) = self.sink.as_mut() else { return };
        sink.emit(TraceEvent::Barrier { job: job as u32, start: last_entry, end: release });
        for i in contexts {
            let start = sink.barrier_entry[i];
            sink.emit(TraceEvent::Wait {
                node: NodeId(i as u32),
                cause: WaitCause::Barrier,
                start,
                end: release,
            });
        }
    }
}
