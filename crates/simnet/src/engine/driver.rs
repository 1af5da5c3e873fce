//! The driver loop behind every run: seed, drain, and at each held
//! barrier the next phase's mode — globally serialized, or split into
//! concurrent shard windows. Also the event scheduler, and a bounded
//! run's bound and price floor.

use super::{Event, Recycled, Runtime, SimError, SimResult, Status};
use crate::compile::{Compiled, CompiledOp};
use crate::floor::PriceFloor;
use crate::sched::CalendarQueue;
use crate::shard::{PhaseMode, ShardPlan};
use crate::time::SimTime;
use mce_hypercube::NodeId;
use std::collections::VecDeque;

/// The engine's event scheduler: the [`CalendarQueue`] heap over
/// `(time, seq, Event)` and the same-time FIFO (events scheduled for
/// the instant currently being drained skip the heap entirely — they
/// dominate the event mix).
pub(super) struct Scheduler {
    pub(super) events: CalendarQueue<Event>,
    fifo: VecDeque<Event>,
    /// Sequence stamp of the last queued event; orders same-time
    /// entries by push order.
    seq: u64,
    /// The simulated time currently being drained; `u64::MAX` before
    /// the first event, so that seeding queues every event.
    cur_t: SimTime,
    /// A bounded run's last instant ([`crate::SimArena::run_until`]):
    /// [`Scheduler::pop_next`] hands out no event scheduled after it.
    /// `None` — what every re-arm leaves — bounds nothing.
    pub(super) until: Option<SimTime>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler {
            events: CalendarQueue::default(),
            fifo: VecDeque::new(),
            seq: 0,
            cur_t: SimTime(u64::MAX),
            until: None,
        }
    }
}

impl Scheduler {
    /// Empty after a run (finished, failed or abandoned), so the next
    /// run starts from the `Default` state: drop all entries, zero the
    /// telemetry and the bound, keep every allocation.
    pub(super) fn reset(&mut self) {
        self.events.clear();
        self.fifo.clear();
        self.seq = 0;
        self.cur_t = SimTime(u64::MAX);
        self.until = None;
    }

    /// Schedule `ev` at `at`.
    #[inline]
    pub(super) fn push(&mut self, at: SimTime, ev: Event) {
        if at == self.cur_t {
            // Same-time events keep sequence order by construction:
            // everything already queued for this instant was pushed
            // earlier (smaller sequence), everything pushed now
            // appends in order.
            self.fifo.push_back(ev);
        } else {
            self.seq += 1;
            self.events.push(at.as_ns(), self.seq, ev);
        }
    }

    /// Next event in exact `(time, seq)` order: queued entries for the
    /// current instant precede FIFO entries (they carry smaller
    /// sequence numbers), the FIFO drains next, and only then does
    /// time advance to the queue's next instant — unless that instant
    /// lies past `until`, where a bounded run stops with the event
    /// still queued. Time advances nowhere else, so the bound is
    /// tested once per instant, not once per event.
    #[inline]
    fn pop_next(&mut self) -> Option<(SimTime, Event)> {
        if let Some((t, _, ev)) = self.events.pop_if_time(self.cur_t.as_ns()) {
            return Some((SimTime(t), ev));
        }
        if let Some(ev) = self.fifo.pop_front() {
            return Some((self.cur_t, ev));
        }
        if let Some(until) = self.until {
            if self.events.peek()?.0 > until.as_ns() {
                return None;
            }
        }
        let (t, _, ev) = self.events.pop()?;
        self.cur_t = SimTime(t);
        Some((SimTime(t), ev))
    }
}

/// A bounded run's bookkeeping ([`crate::SimArena::run_until`]); the
/// bound itself is the scheduler's `until`.
#[derive(Default)]
pub(super) struct Bound {
    /// The run's price floor: set on bounded runs, and on every run of
    /// a debug build (which checks it in `finish`).
    pub(super) floor: Option<PriceFloor>,
    /// Bounded runs only (empty otherwise): per context, the floor of
    /// the ops from the second field's pc on, settled lazily at each
    /// step (see `cut_by_floor`).
    pub(super) left: Vec<(u64, u32)>,
    /// Set when a context's floor passed the bound: the run was
    /// abandoned mid-drain.
    cut: bool,
    /// Bounded runs only: contexts not finished yet. When the last one
    /// finishes, the bound shrinks to that instant.
    unfinished: usize,
}

/// What only a run that may open shard windows uses: the per-shard
/// window arenas, recycled across windows and runs; empty until a
/// windowed phase runs.
pub(super) type Windows = Vec<WindowArena>;

/// One shard's recycled window runtime.
#[derive(Default)]
pub(super) struct WindowArena {
    state: Recycled,
    /// Full-size memory shell: one empty `Vec<u8>` per node, with the
    /// shard's own memories swapped in and out per window.
    shell: Vec<Vec<u8>>,
    /// The shard's node list of the current window.
    nodes: Vec<u32>,
}

/// Outcome of one shard window.
enum WindowEnd {
    /// All nodes entered their next barrier; it releases at the time
    /// carried here.
    Released(SimTime),
    /// The run ended inside the window (every node done, or stuck).
    Complete,
}

impl<'c> Runtime<'c> {
    /// The one driver loop behind every run: seed, drain, and at each
    /// held barrier (`barriers.hold`) pick the next phase's mode —
    /// globally serialized, or split into concurrent shard windows.
    /// A run that holds no barrier leaves the loop after its first
    /// drain: that is the sequential engine. Runs to the end or —
    /// bounded — to the first instant past `until`: `None` when that
    /// leaves a program unfinished.
    pub(super) fn drive(
        &mut self,
        compiled: &Compiled,
        until: Option<SimTime>,
        windows: &mut Windows,
    ) -> Result<Option<SimResult>, SimError> {
        self.sched.until = until;
        if let Some(until) = until {
            self.bound.unfinished = self.nodes.len();
            // Nothing finishes past the horizon, so no floor can pass
            // it: a run bounded there only stops with its programs.
            if until < SimTime::HORIZON {
                self.arm_floor(compiled);
            }
        }
        self.seed();
        'phases: loop {
            self.drain(compiled)?;
            // Queue drained with no held barrier: the run completed,
            // deadlocked or hit its bound.
            let Some(mut release) = self.barriers.held_release.take() else {
                break;
            };
            loop {
                match self.phase_mode(compiled) {
                    PhaseMode::Global { cross_sends } => {
                        self.stats.shard_barrier_stalls += 1;
                        self.stats.shard_cross_events += cross_sends;
                        self.wake_contexts(0..self.nodes.len(), release);
                        continue 'phases;
                    }
                    PhaseMode::Windowed(plan) => {
                        self.stats.shard_windows += 1;
                        match self.run_window(compiled, release, plan, windows)? {
                            WindowEnd::Complete => break 'phases,
                            WindowEnd::Released(next) => release = next,
                        }
                    }
                }
            }
        }
        if self.bound.cut {
            return Ok(None);
        }
        // Events left behind a drained scheduler are the ones a bound
        // held back.
        if !self.sched.events.is_empty() {
            if self.nodes.iter().any(|s| s.status != Status::Done) {
                return Ok(None);
            }
            // Every program finished by `until`, so `finish_time` is
            // settled and what is still queued is background traffic —
            // unless a store-and-forward payload nobody waits for is
            // still hopping towards a memory: that tail runs out, one
            // instant at a time, and the background only as far as it
            // does.
            while self.slab.entries.iter().flatten().any(|tr| !tr.background()) {
                let Some((next, ..)) = self.sched.events.peek() else { break };
                self.sched.until = Some(SimTime(next));
                self.drain(compiled)?;
            }
        }
        self.finish(compiled).map(Some)
    }

    /// Execute one windowed phase for [`Runtime::drive`], from the
    /// barrier it held: split this master runtime into per-shard
    /// window runtimes (recycled through `arenas`, one per shard),
    /// drain them concurrently, and merge the results back in
    /// shard-index order (every merge step is deterministic, and the
    /// shards' state is disjoint by the window invariant). The master
    /// queue stays empty throughout; the outcome says whether the next
    /// barrier releases or the run ended.
    fn run_window(
        &mut self,
        compiled: &Compiled,
        release: SimTime,
        plan: ShardPlan,
        arenas: &mut Windows,
    ) -> Result<WindowEnd, SimError> {
        let count = plan.count as usize;
        let d = self.cfg.dimension;
        let n = self.nodes.len();
        arenas.resize_with(arenas.len().max(count), WindowArena::default);
        // The system is quiescent at a barrier boundary: no pending
        // retries, no live circuits, no in-place payloads.
        debug_assert!(self.arb.dirty.is_empty());
        debug_assert_eq!(self.arb.links.busy_count(), 0);
        debug_assert!(self.del.inplace_out.iter().all(Option::is_none));
        let mut shard_rts: Vec<(Runtime<'c>, Vec<u32>)> = Vec::with_capacity(count);
        for (s, arena) in arenas.iter_mut().enumerate().take(count) {
            let mut list = std::mem::take(&mut arena.nodes);
            plan.nodes_of(d, s as u32, &mut list);
            let mut shell = std::mem::take(&mut arena.shell);
            shell.resize(n, Vec::new());
            let state = std::mem::take(&mut arena.state);
            let mut srt = Runtime::new(self.cfg, compiled, shell, None, state, Some(&list));
            // A shard never releases a barrier on its own: its nodes
            // pile up in `barriers.entered` and the queue drains empty,
            // ending the window.
            srt.barriers.target = u64::MAX;
            for &x in &list {
                srt.take_node(self, x as usize, compiled);
            }
            // Seed in node order — the projection of the sequential
            // barrier release onto this shard.
            for &x in &list {
                srt.sched.push(release, Event::NodeReady(NodeId(x)));
            }
            shard_rts.push((srt, list));
        }
        let results = rayon::parallel_map(shard_rts, |(mut srt, list)| {
            let res = srt.drain(compiled);
            (srt, list, res)
        });
        let mut entered = 0u64;
        let mut last_entry = SimTime::ZERO;
        let mut first_err: Option<SimError> = None;
        for (s, (mut srt, list, res)) in results.into_iter().enumerate() {
            for &x in &list {
                self.take_node(&mut srt, x as usize, compiled);
            }
            // Cross-boundary UNFORCED buffering: carry early arrivals
            // into the master map, translating the shard's packed slot
            // indices back to global ones (shards own disjoint slots).
            // The next phase then runs globally. `Delivery::lay_out`
            // packs the shard's cells in `list` order, so `slot_base` is
            // ascending along `list`, starts at 0, and `k` lies in the
            // cells of the last listed node whose base is at most `k`
            // (a node with no cells shares its base with the next one).
            let base = &srt.del.slot_base;
            for (k, v) in srt.del.buffered.drain() {
                let owner = list[list.partition_point(|&x| base[x as usize] <= k) - 1] as usize;
                let gk = self.del.slot_base[owner] + (k - base[owner]);
                self.del.buffered.insert(gk, v);
            }
            self.stats.absorb(&srt.stats);
            entered += srt.barriers.entered[0];
            last_entry = last_entry.max(srt.barriers.last_entry);
            let peak = srt.sched.events.peak_pending();
            self.stats.shard_peak_pending = self.stats.shard_peak_pending.max(peak);
            if first_err.is_none() {
                first_err = res.err();
            }
            let shell = std::mem::take(&mut srt.memories);
            arenas[s] = WindowArena { state: srt.reclaim(), shell, nodes: list };
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if entered == n as u64 {
            self.stats.barriers += 1;
            return Ok(WindowEnd::Released(last_entry.plus_ns(self.cfg.barrier_ns())));
        }
        // Not every node reached a barrier: either the whole run is
        // done, or it deadlocked — `finish` tells them apart.
        Ok(WindowEnd::Complete)
    }

    /// Move node `xi` — memory, state, receive slots — from `from` into
    /// this runtime across a shard-window boundary, reusing this
    /// runtime's allocations (a derived `clone` would allocate a fresh
    /// `incoming` per node per window).
    fn take_node(&mut self, from: &mut Runtime<'c>, xi: usize, compiled: &Compiled) {
        std::mem::swap(&mut self.memories[xi], &mut from.memories[xi]);
        let (dst, src) = (&mut self.nodes[xi], &from.nodes[xi]);
        dst.pc = src.pc;
        dst.status = src.status;
        dst.outgoing = src.outgoing;
        dst.incoming.clear();
        dst.incoming.extend_from_slice(&src.incoming);
        dst.finish = src.finish;
        let slots = compiled.programs[xi].num_slots as usize;
        let (to, at) = (self.del.slot_base[xi] as usize, from.del.slot_base[xi] as usize);
        self.del.slots[to..to + slots].copy_from_slice(&from.del.slots[at..at + slots]);
    }

    /// Queue the run's initial events: every node context ready at its
    /// job's start offset (time zero on single-tenant runs), plus the
    /// first injection of each live background stream.
    fn seed(&mut self) {
        for j in 0..self.num_jobs {
            let at = self.cfg.jobs.get(j).map_or(SimTime::ZERO, |job| SimTime(job.start_ns));
            self.wake_contexts(self.job_contexts(j), at);
        }
        if let Some(cond) = &self.conditioned {
            for (i, s) in cond.streams.iter().enumerate() {
                if cond.remaining[i] > 0 {
                    self.sched.push(SimTime(s.start_ns), Event::Inject(i as u32));
                }
            }
        }
    }

    /// Dispatch events in `(time, seq)` order until the queue is
    /// empty — which means the run completed, deadlocked, or (under
    /// `barriers.hold`) reached a phase boundary.
    fn drain(&mut self, compiled: &Compiled) -> Result<(), SimError> {
        while let Some((t, ev)) = self.sched.pop_next() {
            // Every handler that dirties a transmission scans until none
            // is dirty: no handler retries another's wake-ups.
            debug_assert!(self.arb.dirty.is_empty());
            match ev {
                Event::NodeReady(x) => self.step_node(x, t, compiled)?,
                Event::TransmissionEnd(id) => self.finish_transmission(id, t)?,
                Event::Inject(i) => self.inject_background(i as usize, t),
                Event::Retransmit(id) => self.fire_retransmit(id, t),
            }
            // Errors raised inside the pending scan (a flow-controlled
            // source out of retries) surface between events.
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Post-drain wrap-up: deadlock detection, scheduler telemetry,
    /// result assembly.
    fn finish(&mut self, compiled: &Compiled) -> Result<SimResult, SimError> {
        // All events drained: every node must be Done.
        let stuck: Vec<(NodeId, String)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status != Status::Done)
            .map(|(i, s)| {
                let reason = match s.status {
                    Status::Waiting(_) => match compiled.programs[i].ops(&compiled.ops).get(s.pc) {
                        Some(CompiledOp::WaitRecv { src, tag, .. }) => {
                            format!("waiting for ({src}, {tag})")
                        }
                        _ => "waiting".to_string(),
                    },
                    Status::InBarrier => "in barrier".to_string(),
                    Status::Sending(id) => format!("sending #{id}"),
                    other => format!("{other:?}"),
                };
                (NodeId(i as u32), reason)
            })
            .collect();
        if !stuck.is_empty() {
            return Err(SimError::Deadlock { stuck, forced_drops: self.stats.forced_drops });
        }
        if cfg!(debug_assertions) {
            self.assert_floor(compiled);
        }
        // Scheduler telemetry: peak pending of the main event heap.
        self.stats.sched_peak_pending = self.sched.events.peak_pending();
        let finish_time = self.nodes.iter().map(|s| s.finish).max().unwrap_or(SimTime::ZERO);
        // Per-job finish: the job's last context to complete.
        for j in 0..self.stats.jobs.len() {
            let contexts = &self.nodes[self.job_contexts(j)];
            self.stats.jobs[j].finish_ns =
                contexts.iter().map(|s| s.finish.as_ns()).max().unwrap_or(0);
        }
        let trace = match self.sink.as_mut() {
            Some(sink) => {
                self.stats.trace_events_dropped = sink.ring.dropped();
                sink.ring.drain()
            }
            None => Vec::new(),
        };
        Ok(SimResult {
            finish_time,
            node_finish: self.nodes.iter().map(|s| s.finish).collect(),
            memories: std::mem::take(&mut self.memories),
            stats: std::mem::take(&mut self.stats),
            trace,
        })
    }

    /// The floor of `ops`, context `x`'s ops from some pc on, under this
    /// run's prices and dead pairs.
    fn ops_floor(&self, floor: &PriceFloor, x: NodeId, ops: &[CompiledOp], c: &Compiled) -> u64 {
        ops.iter().fold(0u64, |sum, op| {
            let dead = |dst: u32| self.pair_is_dead(x, NodeId(dst));
            sum.saturating_add(floor.compiled_op_ns(x.0, op, &c.perms, dead))
        })
    }

    /// Bounded runs: every context's floor is its whole program's,
    /// settled at pc 0.
    fn arm_floor(&mut self, compiled: &Compiled) {
        let floor = self.bound.floor.expect("a bounded run prices its floor");
        let programs = compiled.programs.iter().enumerate();
        let left = programs
            .map(|(xi, p)| {
                (self.ops_floor(&floor, NodeId(xi as u32), p.ops(&compiled.ops), compiled), 0)
            })
            .collect();
        self.bound.left = left;
    }

    /// Bounded runs, at each step of context `x` at `t`: take the ops
    /// it executed since its last step off its floor, and abandon the
    /// run when what is left cannot end by the bound — `t + left >
    /// until`, so the context cannot finish by `until` and neither can
    /// the run. The queue is emptied so that the drain ends at once,
    /// and `bound.cut` tells [`Runtime::drive`] why. Cutting here never
    /// changes the outcome of a run that finishes by `until`; a runtime
    /// error the run would have met before `until` reads as a loss.
    pub(super) fn cut_by_floor(&mut self, x: NodeId, t: SimTime, compiled: &Compiled) -> bool {
        let (Some(floor), Some(until)) = (self.bound.floor, self.sched.until) else {
            return false;
        };
        let xi = x.index();
        let pc = self.nodes[xi].pc;
        let (left, settled) = self.bound.left[xi];
        let ops = &compiled.programs[xi].ops(&compiled.ops)[settled as usize..pc];
        let left = left.saturating_sub(self.ops_floor(&floor, x, ops, compiled));
        self.bound.left[xi] = (left, pc as u32);
        if t.as_ns().saturating_add(left) <= until.as_ns() {
            return false;
        }
        self.bound.cut = true;
        self.sched.events.clear();
        self.sched.fifo.clear();
        true
    }

    /// Bounded runs: a context finished at `t`. When it was the last
    /// one, the finish time is settled and nothing past `t` can change
    /// the result: the bound shrinks to `t`.
    #[inline]
    pub(super) fn context_finished(&mut self, t: SimTime) {
        if self.sched.until.is_some() {
            self.bound.unfinished -= 1;
            if self.bound.unfinished == 0 {
                self.sched.until = Some(t);
            }
        }
    }

    /// Debug builds: no context of a finished run ended before its job's
    /// start plus its program's floor. Checks the floor's soundness on
    /// every run the debug suite finishes.
    fn assert_floor(&self, compiled: &Compiled) {
        let Some(floor) = self.bound.floor else { return };
        for (xi, p) in compiled.programs.iter().enumerate() {
            let x = NodeId(xi as u32);
            let start = self.cfg.jobs.get(self.job_of(x)).map_or(0, |job| job.start_ns);
            let least =
                start.saturating_add(self.ops_floor(&floor, x, p.ops(&compiled.ops), compiled));
            let finish = self.nodes[xi].finish.as_ns();
            assert!(
                finish >= least,
                "context {x} finished at {finish} ns, before its floor {least} ns"
            );
        }
    }

    /// Classify the phase that starts at the barrier just held: fold
    /// the precomputed send-mask unions of every node's current
    /// segment (e-cube routes never leave the mask `src ^ dst`, so any
    /// address bits outside the union are a valid shard axis) and pick
    /// the widest [`ShardPlan`] avoiding them. A phase whose sends
    /// cover every bit — or an UNFORCED payload buffered across the
    /// phase boundary — runs on the globally serialized path instead.
    fn phase_mode(&self, compiled: &Compiled) -> PhaseMode {
        let mut used = 0u32;
        for (i, st) in self.nodes.iter().enumerate() {
            if st.status == Status::Done {
                continue;
            }
            let p = &compiled.programs[i];
            let segs = &compiled.segs[p.segs_start as usize..p.segs_end as usize];
            // Last segment starting at or before the node's pc (at a
            // held barrier the pc sits exactly on a segment start).
            let k = segs.partition_point(|&(start, _)| start as usize <= st.pc);
            if k > 0 {
                used |= segs[k - 1].1;
            }
        }
        let plan = if self.del.buffered.is_empty() {
            ShardPlan::avoiding(self.cfg.dimension, self.cfg.shards, used)
        } else {
            None
        };
        match plan {
            Some(plan) => PhaseMode::Windowed(plan),
            None => PhaseMode::Global { cross_sends: self.cross_sends(compiled) },
        }
    }

    /// Cross-shard sends of the phase ahead under the *configured*
    /// top-bit layout — telemetry for phases forced onto the global
    /// path (the per-op walk only runs on that already-serialized
    /// path).
    fn cross_sends(&self, compiled: &Compiled) -> u64 {
        let plan = ShardPlan::new(self.cfg.dimension, self.cfg.shards);
        let mut cross = 0u64;
        for (i, st) in self.nodes.iter().enumerate() {
            if st.status == Status::Done {
                continue;
            }
            let ops = compiled.programs[i].ops(&compiled.ops);
            let home = plan.shard_of(i as u32);
            for op in &ops[st.pc..] {
                match op {
                    CompiledOp::Barrier => break,
                    CompiledOp::Send { dst, .. } if plan.shard_of(dst.0) != home => cross += 1,
                    _ => {}
                }
            }
        }
        cross
    }
}
