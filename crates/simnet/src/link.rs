//! Directed-link occupancy.
//!
//! A circuit holds every directed link of its e-cube path for its whole
//! duration. This module tracks which transmission (if any) holds each
//! directed link, and counts contention events for the statistics
//! report.
//!
//! Storage is a dense whole-cube table indexed by `(from, dimension)`
//! — O(1) checks with no hashing on the engine's hot path. Shard
//! windows use the same layout: a shard may sit on any coset of the
//! cube, and its nodes touch only their own rows.
//!
//! The same index addresses each link's *wait list*: the transmissions
//! blocked on the link, re-examined by the engine whenever it is
//! acquired or released. The lists are allocated by the first
//! registration, so a contention-free run (and every contention-free
//! shard window) carries none.

use mce_hypercube::routing::DirectedLink;

/// Identifier of a transmission within one simulation run.
pub type TransmissionId = u64;

/// Slot value marking a free link (transmission ids start at 1).
const FREE: TransmissionId = 0;

/// Occupancy table over all directed links of the cube.
///
/// When the run is *conditioned* (see [`crate::netcond`]) the table
/// additionally carries a per-directed-link slowdown factor, installed
/// by [`LinkTable::set_speeds`] before the run and queried on every
/// transmission start; an empty speed table means the homogeneous
/// nominal network and costs nothing on the hot path.
#[derive(Debug)]
pub struct LinkTable {
    /// Holder of each directed link (`FREE` = unheld), indexed by
    /// `from * stride + dimension`.
    busy: Vec<TransmissionId>,
    /// Dimensions per node in the index space.
    stride: usize,
    /// Number of currently busy directed links.
    busy_links: usize,
    /// Per-link slowdown factors, same indexing as `busy`; empty for
    /// unconditioned runs (factor `1.0` everywhere).
    speeds: Vec<f64>,
    /// Per-link wait lists, same indexing as `busy`; empty until the
    /// first [`LinkTable::watch`]. A drained list keeps its capacity,
    /// so a link that blocks circuits again and again allocates once.
    watch: Vec<Vec<TransmissionId>>,
    /// Registrations across all wait lists; zero lets the engine skip
    /// a wake-up and [`LinkTable::clear_watchers`] return without
    /// touching a list.
    watch_entries: usize,
}

impl LinkTable {
    /// Fresh, all-free table for a `d`-dimensional cube.
    pub fn for_cube(d: u32) -> Self {
        let stride = (d as usize).max(1);
        LinkTable {
            busy: vec![FREE; stride << d],
            stride,
            busy_links: 0,
            speeds: Vec::new(),
            watch: Vec::new(),
            watch_entries: 0,
        }
    }

    #[inline]
    fn index(&self, l: &DirectedLink) -> usize {
        l.from.0 as usize * self.stride + l.dimension() as usize
    }

    /// Whether every link in `path` is currently free.
    pub fn all_free(&self, path: &[DirectedLink]) -> bool {
        path.iter().all(|l| self.busy[self.index(l)] == FREE)
    }

    /// Atomically acquire all links in `path` for transmission `id`.
    ///
    /// # Panics
    ///
    /// Panics if any link is already busy — callers must check
    /// [`LinkTable::all_free`] first (the engine serializes attempts).
    pub fn acquire(&mut self, path: &[DirectedLink], id: TransmissionId) {
        assert_ne!(id, FREE, "transmission ids start at 1");
        for l in path {
            let i = self.index(l);
            assert_eq!(self.busy[i], FREE, "link {l} already held; engine bug");
            self.busy[i] = id;
            self.busy_links += 1;
        }
    }

    /// Release all links held by transmission `id` along `path`.
    pub fn release(&mut self, path: &[DirectedLink], id: TransmissionId) {
        for l in path {
            let i = self.index(l);
            assert_eq!(self.busy[i], id, "link {l} not held by {id}; engine bug");
            self.busy[i] = FREE;
            self.busy_links -= 1;
        }
    }

    /// Number of currently busy directed links.
    pub fn busy_count(&self) -> usize {
        self.busy_links
    }

    /// Force every link free, keeping the backing allocation. Used
    /// when re-arming the table after an aborted run that left
    /// circuits established.
    pub fn clear(&mut self) {
        self.busy.fill(FREE);
        self.busy_links = 0;
    }

    /// Register `id` on the wait list of every link in `path` (once
    /// per link, however often it asks).
    pub(crate) fn watch(&mut self, path: &[DirectedLink], id: TransmissionId) {
        if self.watch.is_empty() {
            self.watch.resize_with(self.busy.len(), Vec::new);
        }
        for l in path {
            let i = self.index(l);
            let waiting = &mut self.watch[i];
            if !waiting.contains(&id) {
                waiting.push(id);
                self.watch_entries += 1;
            }
        }
    }

    /// Transmissions registered on `l`'s wait list.
    pub(crate) fn watchers(&self, l: &DirectedLink) -> usize {
        self.watch.get(self.index(l)).map_or(0, Vec::len)
    }

    /// Whether any wait list holds a registration.
    #[inline]
    pub(crate) fn has_watchers(&self) -> bool {
        self.watch_entries > 0
    }

    /// Move every registration on `path`'s links to the end of `out`,
    /// leaving those lists empty with their capacity.
    pub(crate) fn drain_watchers(&mut self, path: &[DirectedLink], out: &mut Vec<TransmissionId>) {
        for l in path {
            let i = self.index(l);
            if let Some(waiting) = self.watch.get_mut(i) {
                self.watch_entries -= waiting.len();
                out.append(waiting);
            }
        }
    }

    /// Forget every registration, keeping the lists. A run that
    /// registered none — or whose wake-ups drained them all — pays one
    /// comparison.
    pub(crate) fn clear_watchers(&mut self) {
        if self.watch_entries > 0 {
            self.watch.iter_mut().for_each(Vec::clear);
            self.watch_entries = 0;
        }
    }

    /// Install per-directed-link slowdown factors for a conditioned
    /// run. `factors` is indexed `from * d + dim` (the layout of
    /// [`crate::netcond::NetCondition::resolve_speeds`]) and is
    /// re-strided into this table's index space.
    pub fn set_speeds(&mut self, d: u32, factors: &[f64]) {
        let n = 1usize << d;
        let dims = d as usize;
        debug_assert_eq!(factors.len(), n * dims);
        self.speeds.clear();
        self.speeds.resize(n * self.stride, 1.0);
        for node in 0..n {
            for dim in 0..dims {
                self.speeds[node * self.stride + dim] = factors[node * dims + dim];
            }
        }
    }

    /// Drop the speed table (back to the homogeneous nominal network).
    pub fn clear_speeds(&mut self) {
        self.speeds.clear();
    }

    /// Whether a speed table is installed (i.e. the run is
    /// conditioned).
    #[inline]
    pub fn has_speeds(&self) -> bool {
        !self.speeds.is_empty()
    }

    /// Slowdown factor of one directed link (`1.0` when no speed table
    /// is installed).
    #[inline]
    pub fn factor(&self, l: &DirectedLink) -> f64 {
        if self.speeds.is_empty() {
            1.0
        } else {
            self.speeds[self.index(l)]
        }
    }

    /// `(max, sum)` of the slowdown factors along `path`, in path
    /// order (the deterministic summation order).
    pub fn segment_factors(&self, path: &[DirectedLink]) -> (f64, f64) {
        let mut max_f = 0.0f64;
        let mut sum_f = 0.0f64;
        for l in path {
            let f = self.factor(l);
            if f > max_f {
                max_f = f;
            }
            sum_f += f;
        }
        (max_f, sum_f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_hypercube::routing::ecube_path;
    use mce_hypercube::NodeId;

    fn links_of(s: u32, t: u32) -> Vec<DirectedLink> {
        ecube_path(NodeId(s), NodeId(t)).links().collect()
    }

    #[test]
    fn acquire_release_cycle() {
        let mut table = LinkTable::for_cube(3);
        let p = links_of(0, 7);
        assert!(table.all_free(&p));
        table.acquire(&p, 1);
        assert!(!table.all_free(&p));
        assert_eq!(table.busy_count(), 3);
        table.release(&p, 1);
        assert!(table.all_free(&p));
        assert_eq!(table.busy_count(), 0);
    }

    #[test]
    fn detects_conflicting_paths() {
        let mut table = LinkTable::for_cube(5);
        // Paper's example: 0->31 and 2->23 share directed link 3->7.
        let p1 = links_of(0, 31);
        let p2 = links_of(2, 23);
        table.acquire(&p1, 1);
        assert!(!table.all_free(&p2));
        let shared = DirectedLink { from: NodeId(3), to: NodeId(7) };
        let blocked: Vec<_> = p2.iter().filter(|l| !table.all_free(&[**l])).collect();
        assert_eq!(blocked, [&shared]);
        // 14->11 shares only a node with 0->31: free to proceed.
        let p3 = links_of(14, 11);
        assert!(table.all_free(&p3));
    }

    #[test]
    fn opposite_directions_independent() {
        let mut table = LinkTable::for_cube(3);
        table.acquire(&links_of(0, 7), 1);
        assert!(table.all_free(&links_of(7, 0)), "full duplex");
    }

    #[test]
    fn speed_table_installs_and_clears() {
        let mut table = LinkTable::for_cube(2);
        assert!(!table.has_speeds());
        let l01 = DirectedLink { from: NodeId(0), to: NodeId(1) };
        assert_eq!(table.factor(&l01), 1.0);
        // Layout from resolve_speeds: from * d + dim for d = 2.
        let mut factors = vec![1.0; 4 * 2];
        factors[0] = 3.0; // node 0, dim 0
        factors[2 * 2 + 1] = 0.5; // node 2, dim 1
        table.set_speeds(2, &factors);
        assert!(table.has_speeds());
        assert_eq!(table.factor(&l01), 3.0);
        let l20 = DirectedLink { from: NodeId(2), to: NodeId(0) };
        assert_eq!(table.factor(&l20), 0.5);
        let path = [l01, l20];
        assert_eq!(table.segment_factors(&path), (3.0, 3.5));
        table.clear_speeds();
        assert!(!table.has_speeds());
        assert_eq!(table.factor(&l01), 1.0);
    }

    #[test]
    fn wait_lists_register_once_drain_whole_and_keep_their_capacity() {
        let mut table = LinkTable::for_cube(3);
        let p = links_of(0, 7);
        assert!(!table.has_watchers());
        table.clear_watchers(); // nothing allocated, nothing to walk
        table.watch(&p, 4);
        table.watch(&p, 4);
        table.watch(&p[..1], 9);
        assert_eq!(table.watchers(&p[0]), 2);
        assert_eq!(table.watchers(&p[2]), 1);
        assert_eq!(table.watchers(&links_of(7, 0)[0]), 0, "other direction");
        let mut woken = vec![77];
        table.drain_watchers(&p[..2], &mut woken);
        assert_eq!(woken, [77, 4, 9, 4]);
        assert_eq!(table.watchers(&p[0]), 0);
        assert!(table.has_watchers(), "4 still waits on the last hop");
        let kept = table.watch[table.index(&p[0])].capacity();
        assert!(kept >= 2, "a drained list keeps its allocation");
        table.clear_watchers();
        assert!(!table.has_watchers());
        assert_eq!(table.watchers(&p[2]), 0);
    }

    #[test]
    #[should_panic(expected = "already held")]
    fn double_acquire_is_an_engine_bug() {
        let mut table = LinkTable::for_cube(2);
        let p = links_of(0, 3);
        table.acquire(&p, 1);
        table.acquire(&p, 2);
    }
}
