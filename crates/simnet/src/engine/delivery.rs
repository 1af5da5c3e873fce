//! Transmission completion and payload delivery: circuit and
//! store-and-forward completion, FORCED / UNFORCED delivery into the
//! receivers' slots, copy-on-write of in-place payloads, the
//! payload-buffer pool, and the permute kernel.

use super::{Event, Payload, Runtime, SimError, Status, Transmission, NO_SLOT};
use crate::compile::CompiledProgram;
use crate::config::SwitchingMode;
use crate::fxhash::FxHashMap;
use crate::link::TransmissionId;
use crate::message::{MsgKind, Tag};
use crate::time::SimTime;
use crate::trace::TraceEvent;
use mce_hypercube::NodeId;
use std::ops::Range;

/// Single-use receive cell for one `(src, tag)` key: 12 bytes, packed
/// for the flat all-nodes slot table (d10 runs hold >10^5 slots, so
/// cell size is directly per-run allocation and reset traffic). The
/// rare early-arriving UNFORCED payload lives in a side map keyed by
/// global slot index, not here.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Slot {
    /// Posted receive range (valid when `POSTED` is set).
    pub(super) start: u32,
    pub(super) end: u32,
    pub(super) flags: u8,
}

/// [`Slot::flags`]: a receive is posted and undelivered.
pub(super) const SLOT_POSTED: u8 = 1;
/// [`Slot::flags`]: the message was delivered.
pub(super) const SLOT_DELIVERED: u8 = 1 << 1;
/// [`Slot::flags`]: an UNFORCED payload is buffered in the side map.
pub(super) const SLOT_BUFFERED: u8 = 1 << 2;

/// The delivery layer's recycled state.
#[derive(Default)]
pub(super) struct Delivery {
    /// Flat receive-slot table over all nodes (one allocation; node
    /// `x`'s cells start at `slot_base[x]`).
    pub(super) slots: Vec<Slot>,
    pub(super) slot_base: Vec<u32>,
    /// Early-arriving UNFORCED payloads, keyed by global slot index.
    pub(super) buffered: FxHashMap<u32, Vec<u8>>,
    /// Per node, the outstanding transmission whose payload is still
    /// in-place in that node's memory (at most one: a sender blocks on
    /// its send). Checked by every delivery into the node.
    pub(super) inplace_out: Vec<Option<TransmissionId>>,
    /// Reusable payload buffers.
    pool: Vec<Vec<u8>>,
    /// Pool retention cap: scaled to the cube so a full wave of
    /// concurrent transmissions recycles without reallocating.
    pool_cap: usize,
    /// Reusable scratch for block permutations.
    pub(super) scratch: Vec<u8>,
}

impl Delivery {
    /// Lay the slot tables out for a run of `programs`, every cell
    /// empty. A shard window runtime (`shard`: its nodes) packs only its
    /// own nodes' cells, contiguous and sized to the subcube; its table
    /// is only right-sized, not emptied — the split pass overwrites
    /// every cell from the master, and across windows of equal size the
    /// allocation stays untouched.
    pub(super) fn lay_out(&mut self, programs: &[CompiledProgram], shard: Option<&[u32]>) {
        let n = programs.len();
        self.slot_base.resize(n, 0);
        let mut total = 0u32;
        let mut lay = |x: usize| {
            self.slot_base[x] = total;
            total += programs[x].num_slots;
        };
        match shard {
            Some(list) => list.iter().for_each(|&x| lay(x as usize)),
            None => {
                (0..n).for_each(lay);
                self.slots.clear();
            }
        }
        if self.slots.len() != total as usize {
            self.slots.clear();
            self.slots.resize(total as usize, Slot::default());
        }
        self.inplace_out.resize(n, None);
        self.pool_cap = (2 * n).max(64);
    }

    /// Forget the run's payloads. The pool and scratch survive as they
    /// are: their contents are overwritten before use. So do the slot
    /// tables, which [`Delivery::lay_out`] re-lays for every run.
    pub(super) fn clear(&mut self) {
        self.buffered.clear();
        self.inplace_out.clear();
    }

    /// Check a buffer out of the pool and fill it with a copy of
    /// `bytes` — the single pool-checkout-and-copy behind every path
    /// that materializes payload bytes out of a node's memory.
    pub(super) fn pooled_copy(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(bytes);
        buf
    }

    /// Return a payload buffer to the pool.
    pub(super) fn recycle(&mut self, buf: Vec<u8>) {
        // Payloads within one run are near-uniform in size, so pooled
        // buffers are almost always reusable as-is; the cap tracks the
        // cube's concurrency (up to ~2·n buffers live at once when a
        // step's wave of sends overlaps the next).
        if buf.capacity() > 0 && self.pool.len() < self.pool_cap {
            self.pool.push(buf);
        }
    }

    /// Return an owned payload's buffer to the pool.
    pub(super) fn recycle_payload(&mut self, payload: Payload) {
        if let Payload::Owned(buf) = payload {
            self.recycle(buf);
        }
    }
}

impl<'c> Runtime<'c> {
    /// A transmission's end — a whole circuit's, or one
    /// store-and-forward hop's: release what it held, then retransmit,
    /// forward or deliver it.
    pub(super) fn finish_transmission(
        &mut self,
        id: TransmissionId,
        t: SimTime,
    ) -> Result<(), SimError> {
        let circuit = self.cfg.switching == SwitchingMode::Circuit;
        // Decide a lossy link's coin BEFORE taking the transmission out
        // of the slab — a lost one stays live (its in-place payload
        // included) for the retransmission.
        let lost = circuit && self.lost(id);
        let (src, dst, mask, hop, background) = {
            let tr = self.slab.get(id);
            (tr.src, tr.dst, tr.mask, tr.hop_idx as usize, tr.background())
        };
        let route = self.route(src, mask);
        let held = if circuit { &route[..] } else { &route[hop..hop + 1] };
        self.arb.links.release(held, id);
        self.wake_link_watchers(held);
        let last_hop = hop + 1 >= route.len();
        if !background {
            // A circuit closes both NIC intervals. A store-and-forward
            // sender's buffer is free once the message is stored at the
            // first intermediate node, so hop 0 releases (and wakes) the
            // sender; the last hop closes the receiver's interval.
            let (src_nic, dst_nic) =
                ((hop == 0).then_some(src), (circuit || last_hop).then_some(dst));
            self.release_nic(id, src_nic, dst_nic, t);
            if !circuit && hop == 0 {
                self.sched.push(t, Event::NodeReady(src));
            }
        }
        if lost {
            self.drop_transmission(id, t, false);
            self.run_pending_scan(t);
            return Ok(());
        }
        if !circuit && !last_hop {
            let tr = self.slab.get_mut(id);
            tr.hop_idx += 1;
            let (bytes, kind) = (tr.payload.len(), tr.kind);
            if self.arb.links.has_speeds() {
                // Conditioned network: re-price the next hop by its
                // own link factor (heterogeneous hops differ).
                let f = self.arb.links.factor(&route[hop + 1]);
                self.slab.get_mut(id).duration_ns =
                    self.conditioned_priced_ns(bytes, kind, f, f, id);
            }
            self.requeue(id, t);
            return Ok(());
        }
        let tr = self.slab.take(id);
        if circuit && !background {
            self.ack(src, t);
        }
        self.deliver_and_wake(tr, t)
    }

    /// Deliver a completed transmission's payload and wake the
    /// affected nodes: the receiver when it waits for the message, and
    /// a circuit's sender, blocked on its send (a store-and-forward
    /// sender was released after hop 0).
    fn deliver_and_wake(&mut self, tr: Transmission, t: SimTime) -> Result<(), SimError> {
        if tr.background() {
            // Background payloads are never delivered: the length
            // models traffic from outside the partition. Freed links
            // may unblock pending circuits.
            self.run_pending_scan(t);
            return Ok(());
        }
        if let Payload::InPlace(..) = tr.payload {
            self.del.inplace_out[tr.src.index()] = None;
        }
        let di = tr.dst.index();
        let slot = tr.dst_slot;
        let posted = if slot == NO_SLOT {
            None
        } else {
            let s = &mut self.del.slots[self.del.slot_base[di] as usize + slot as usize];
            let posted = s.flags & SLOT_POSTED != 0;
            s.flags &= !SLOT_POSTED;
            posted.then_some(s.start as usize..s.end as usize)
        };
        if let Some(into) = posted {
            self.deliver(tr.src, &tr.payload, tr.dst, slot as usize, tr.tag, into)?;
            self.del.recycle_payload(tr.payload);
            if self.nodes[di].status == Status::Waiting(slot) {
                self.sched.push(t, Event::NodeReady(tr.dst));
            }
        } else if tr.kind == MsgKind::Unforced && slot != NO_SLOT {
            // Buffering outlives the sender's blocked window:
            // materialize an in-place payload now.
            let payload = match tr.payload {
                Payload::InPlace(ps, pe) => {
                    self.del.pooled_copy(&self.memories[tr.src.index()][ps as usize..pe as usize])
                }
                Payload::Owned(buf) => buf,
                Payload::Len(_) => unreachable!("background payloads are never delivered"),
            };
            let gi = self.del.slot_base[di] + slot;
            self.del.slots[gi as usize].flags |= SLOT_BUFFERED;
            self.del.buffered.insert(gi, payload);
        } else {
            if tr.kind == MsgKind::Forced {
                self.stats.forced_drops += 1;
                if let Some(sink) = self.sink.as_mut() {
                    let (src, dst, tag) = (tr.src, tr.dst, tr.tag);
                    sink.emit(TraceEvent::ForcedDrop { src, dst, tag, at: t });
                }
            }
            // A dropped FORCED message, or an UNFORCED one whose key
            // the receiver never posts: the bytes are unobservable.
            self.del.recycle_payload(tr.payload);
        }
        if self.cfg.switching == SwitchingMode::Circuit {
            // The blocking send completes: wake the sender.
            self.sched.push(t, Event::NodeReady(tr.src));
        }
        // Freed links / NIC units may unblock pending circuits.
        self.run_pending_scan(t);
        Ok(())
    }

    /// A delivery is about to write `memories[x][into]`: if `x` has an
    /// outstanding in-place outgoing payload overlapping that range,
    /// copy its bytes out *first*, preserving the frozen-at-issue
    /// payload semantics of the copying engine exactly.
    fn materialize_overlap(&mut self, x: NodeId, into: &Range<usize>) {
        let xi = x.index();
        let Some(oid) = self.del.inplace_out[xi] else { return };
        let Payload::InPlace(ps, pe) = self.slab.get(oid).payload else {
            unreachable!("inplace_out names an in-place transmission")
        };
        if (ps as usize) < into.end && into.start < pe as usize {
            let buf = self.del.pooled_copy(&self.memories[xi][ps as usize..pe as usize]);
            self.slab.get_mut(oid).payload = Payload::Owned(buf);
            self.del.inplace_out[xi] = None;
        }
    }

    /// Copy `payload`, sent by `src`, into `node`'s posted range `into`
    /// and mark the slot delivered: one copy, straight from the
    /// sender's memory for an in-place payload.
    pub(super) fn deliver(
        &mut self,
        src: NodeId,
        payload: &Payload,
        node: NodeId,
        slot: usize,
        tag: Tag,
        into: Range<usize>,
    ) -> Result<(), SimError> {
        let sent = payload.len();
        if into.len() != sent {
            return Err(SimError::SizeMismatch { node, tag, posted: into.len(), sent });
        }
        self.materialize_overlap(node, &into);
        let (si, di) = (src.index(), node.index());
        match *payload {
            Payload::InPlace(ps, pe) => {
                debug_assert_ne!(si, di, "self-sends are rejected at compile time");
                let (src_mem, dst_mem): (&[u8], &mut [u8]) = if si < di {
                    let (left, right) = self.memories.split_at_mut(di);
                    (&left[si], &mut right[0])
                } else {
                    let (left, right) = self.memories.split_at_mut(si);
                    (&right[0], &mut left[di])
                };
                dst_mem[into].copy_from_slice(&src_mem[ps as usize..pe as usize]);
            }
            Payload::Owned(ref buf) => self.memories[di][into].copy_from_slice(buf),
            Payload::Len(_) => unreachable!("background payloads are never delivered"),
        }
        self.del.slots[self.del.slot_base[di] as usize + slot].flags |= SLOT_DELIVERED;
        Ok(())
    }
}

/// Apply a block permutation in place: block `i` moves to `perm[i]`.
/// `scratch` is a reusable staging buffer (grown on demand) so the hot
/// path never allocates. When the permutation covers the whole memory
/// — every builder in this repository permutes full node memories —
/// the permuted scratch is *swapped* in wholesale instead of copied
/// back, halving the memory traffic of the shuffle phases.
pub(super) fn apply_block_permutation(
    memory: &mut Vec<u8>,
    perm: &[u32],
    block_bytes: usize,
    scratch: &mut Vec<u8>,
) {
    if block_bytes == 0 || perm.is_empty() {
        return;
    }
    let total = perm.len() * block_bytes;
    if total == memory.len() {
        // Full-memory permute: scatter into scratch, swap buffers.
        // (After the first call scratch is a previous memory of the
        // same length, so the resize is a no-op, not a memset.)
        scratch.resize(total, 0);
        scatter_blocks(memory, perm, block_bytes, scratch);
        std::mem::swap(memory, scratch);
        return;
    }
    if scratch.len() < total {
        scratch.resize(total, 0);
    }
    let scratch = &mut scratch[..total];
    scatter_blocks(&memory[..total], perm, block_bytes, scratch);
    memory[..total].copy_from_slice(scratch);
}

/// Block `i` of `src` to block `perm[i]` of `dst` (both
/// `perm.len() * block_bytes` long).
#[inline]
fn scatter_blocks(src: &[u8], perm: &[u32], block_bytes: usize, dst: &mut [u8]) {
    for (block, &p) in src.chunks_exact(block_bytes).zip(perm) {
        let at = p as usize * block_bytes;
        copy_block(&mut dst[at..at + block_bytes], block);
    }
}

/// Copy one permute block (`dst.len() == src.len()`). A block of
/// 8..=64 bytes moves as two fixed-width copies of its first and last
/// `w` bytes (w = 8, 16 or 32, overlapping unless the block is exactly
/// 2w), each of which compiles to plain loads and stores; a
/// `copy_from_slice` of runtime length is a libc `memcpy` call, and
/// the shuffles of small-block exchanges make millions of them. Other
/// sizes take `copy_from_slice`.
#[inline(always)]
fn copy_block(dst: &mut [u8], src: &[u8]) {
    match src.len() {
        8..=16 => copy_ends::<8>(dst, src),
        17..=32 => copy_ends::<16>(dst, src),
        33..=64 => copy_ends::<32>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

/// `dst[..W]` and `dst[n - W..]` from the same ranges of `src`
/// (`W ≤ n = src.len() = dst.len()`): together every byte once or
/// twice, always with its own value.
#[inline(always)]
fn copy_ends<const W: usize>(dst: &mut [u8], src: &[u8]) {
    let n = src.len();
    dst[..W].copy_from_slice(&src[..W]);
    dst[n - W..n].copy_from_slice(&src[n - W..n]);
}

/// The per-block `copy_from_slice` body [`apply_block_permutation`]
/// had before [`copy_block`]: the differential's reference.
#[cfg(test)]
pub(super) fn apply_block_permutation_reference(
    memory: &mut Vec<u8>,
    perm: &[u32],
    block_bytes: usize,
    scratch: &mut Vec<u8>,
) {
    if block_bytes == 0 || perm.is_empty() {
        return;
    }
    let total = perm.len() * block_bytes;
    if total == memory.len() {
        scratch.resize(total, 0);
        for (i, &p) in perm.iter().enumerate() {
            let srcr = i * block_bytes..(i + 1) * block_bytes;
            let dstr = p as usize * block_bytes..(p as usize + 1) * block_bytes;
            scratch[dstr].copy_from_slice(&memory[srcr]);
        }
        std::mem::swap(memory, scratch);
        return;
    }
    if scratch.len() < total {
        scratch.resize(total, 0);
    }
    let scratch = &mut scratch[..total];
    for (i, &p) in perm.iter().enumerate() {
        let srcr = i * block_bytes..(i + 1) * block_bytes;
        let dstr = p as usize * block_bytes..(p as usize + 1) * block_bytes;
        scratch[dstr].copy_from_slice(&memory[srcr]);
    }
    memory[..total].copy_from_slice(scratch);
}
