//! The doors into the engine and run setup: [`SimArena`] and its
//! `run*` doors, the shape and horizon checks, and the resolution of a
//! network condition before any simulated time elapses.

use super::driver::Windows;
use super::{Recycled, Runtime, SimError, SimResult};
use crate::compile::{compile, shared_compiled_for, Compiled, CompiledOp};
use crate::config::SimConfig;
use crate::floor::PriceFloor;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::netcond::{ecube_route_is_dead, plan_route, BackgroundStream, FaultSet, NetCondition};
use crate::program::Program;
use crate::time::SimTime;
use crate::trace::TraceConfig;
use mce_hypercube::NodeId;
use std::sync::Arc;

/// Per-run state of a conditioned network (faults resolved to route
/// overrides, background-stream schedule). Built before any simulated
/// time elapses; `None` on unconditioned runs.
pub(super) struct Conditioned {
    /// Fault-avoiding dimension orders for every `(src, mask)` whose
    /// e-cube route crosses a dead cable. Keyed by *physical* source
    /// node: multi-job contexts of one node share routes.
    pub(super) reroutes: FxHashMap<(u32, u32), Vec<u8>>,
    /// Under [`NetCondition::skip_dead_pairs`]: every `(phys src,
    /// mask)` with *no* fault-avoiding route. Sends to these pairs are
    /// skipped (and counted per job) instead of failing the run;
    /// empty otherwise.
    pub(super) dead_pairs: FxHashSet<(u32, u32)>,
    /// Background streams (copied out of the config).
    pub(super) streams: Vec<BackgroundStream>,
    /// Injections left per stream (zeroed for streams whose pair is
    /// dead under `skip_dead_pairs`).
    pub(super) remaining: Vec<u32>,
}

/// Fault-avoiding routes keyed by `(phys src, mask)`, and the pairs
/// skipped as dead (see [`Conditioned`]).
pub(crate) type FaultRoutes = (FxHashMap<(u32, u32), Vec<u8>>, FxHashSet<(u32, u32)>);

/// Resolve `nc`'s faults for every send of a program set — `sends`
/// yields `(context, destination)` in program order — and every
/// background stream: a fault-avoiding route for each pair whose
/// e-cube route crosses a dead cable, a dead pair under
/// [`NetCondition::skip_dead_pairs`] where none exists, or the first
/// such pair's [`SimError::Unroutable`]. The one resolution behind a
/// run's conditioned state and [`crate::floor::finish_floor`].
pub(crate) fn resolve_faults(
    cfg: &SimConfig,
    nc: &NetCondition,
    sends: impl IntoIterator<Item = (u32, u32)>,
) -> Result<FaultRoutes, SimError> {
    let mut reroutes: FxHashMap<(u32, u32), Vec<u8>> = Default::default();
    let mut dead_pairs: FxHashSet<(u32, u32)> = Default::default();
    // Multi-job contexts fold onto physical nodes: routes, faults and
    // dead pairs are all per-`(phys src, mask)`.
    let node_mask = cfg.num_nodes() as u32 - 1;
    let skip = nc.skip_dead_pairs;
    let faults = FaultSet::new(cfg.dimension, &nc.faults);
    if faults.any() {
        let mut resolve = |src: NodeId, dst: NodeId| -> Result<(), SimError> {
            let mask = src.0 ^ dst.0;
            if mask == 0
                || reroutes.contains_key(&(src.0, mask))
                || dead_pairs.contains(&(src.0, mask))
                || !ecube_route_is_dead(src, mask, &faults)
            {
                return Ok(());
            }
            match plan_route(src, mask, &faults) {
                Some(dims) => {
                    reroutes.insert((src.0, mask), dims);
                    Ok(())
                }
                None if skip => {
                    dead_pairs.insert((src.0, mask));
                    Ok(())
                }
                None => Err(SimError::Unroutable { src, dst }),
            }
        };
        for (x, dst) in sends {
            resolve(NodeId(x & node_mask), NodeId(dst & node_mask))?;
        }
        for stream in &nc.background {
            resolve(stream.src, stream.dst)?;
        }
    }
    Ok((reroutes, dead_pairs))
}

/// Resolve a [`NetCondition`] against a compiled program set: find a
/// fault-avoiding route for every send and every background stream (or
/// fail with [`SimError::Unroutable`]), and set up the injection
/// schedule.
fn build_conditioned(
    cfg: &SimConfig,
    compiled: &Compiled,
    nc: &NetCondition,
) -> Result<Conditioned, SimError> {
    let (reroutes, dead_pairs) = resolve_faults(cfg, nc, sends(compiled).map(|(x, d)| (x, d.0)))?;
    // A dead background stream injects nothing instead of erroring.
    let remaining = nc
        .background
        .iter()
        .map(|s| if dead_pairs.contains(&(s.src.0, s.src.0 ^ s.dst.0)) { 0 } else { s.count })
        .collect();
    Ok(Conditioned { reroutes, dead_pairs, streams: nc.background.clone(), remaining })
}

/// The way into the engine: drives any number of runs while
/// recycling the allocations a fresh arena would rebuild per run —
/// payload-buffer pools, the event heap and FIFO, wait-queue tables,
/// per-node state, the link table (per dimension) and permute scratch.
/// Four doors start a run: [`SimArena::run`], [`SimArena::run_until`],
/// [`SimArena::run_shared`] and [`SimArena::run_spec`]. A shared
/// program set's compilation comes from the process-wide cache (see
/// [`crate::compile`]); the arena keeps no compile cache of its own.
///
/// Every door ends in one driver loop over one master runtime, built
/// once per run: it seeds the events and drains them, and a run that
/// [`crate::shard`] admits holds each barrier to run the next phase
/// either globally or in concurrent subcube windows. Any other run
/// holds no barrier and leaves the loop after its first drain — the
/// sequential engine is that loop with no windows. A windowed run is
/// never rerun: each window's event order is fixed by its own shard's
/// inputs (see [`crate::shard`]).
///
/// Arena reuse is invisible in the results: every run starts from
/// fully reset state, so outputs are bit-identical to a run on a fresh
/// arena (pinned by the determinism-snapshot suite in `mce-core`). An
/// arena is cheap to create: a one-off run is
/// `SimArena::new().run(..)`, and batch executors keep one per worker
/// thread.
#[derive(Default)]
pub struct SimArena {
    /// What every run takes whole and hands back.
    state: Recycled,
    /// What only a run that may open shard windows uses.
    windows: Windows,
}

impl SimArena {
    /// Fresh arena with no recycled allocations yet.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Run one simulation, reusing this arena's allocations. Programs
    /// are compiled for this run only; for program sets shared across
    /// several runs prefer [`SimArena::run_shared`], whose compilation
    /// is cached process-wide.
    pub fn run(
        &mut self,
        cfg: &SimConfig,
        programs: &[Program],
        memories: Vec<Vec<u8>>,
    ) -> Result<SimResult, SimError> {
        self.run_one(cfg, programs, None, memories, None)
    }

    /// [`SimArena::run`] given a bound: the run is abandoned
    /// (`Ok(None)`) as soon as some program provably cannot finish by
    /// `until` — a context stepped at `t` whose remaining ops' price
    /// floor (see [`crate::floor`]) ends past `until` — and at the
    /// latest the first time simulated time would advance past `until`
    /// with some program unfinished. When every program finished by
    /// then (`until` itself included) the result carries the unbounded
    /// run's `finish_time`, memories and statistics, except for the
    /// background traffic: the bound shrinks to the instant the last
    /// program finishes, and what is injected after that is neither
    /// simulated nor counted (`background_*`; the `sched_*` telemetry
    /// follows the events actually queued) — unless a store-and-forward
    /// payload nobody waits for is still on its way to a memory, in
    /// which case the run goes on exactly until that payload lands.
    /// A bound of [`SimTime::HORIZON`] therefore bounds nothing but the
    /// background tail.
    ///
    /// For callers that compare runs and already hold a finish time to
    /// beat. The bound is an argument because it belongs to one
    /// question about a run, not to the machine a [`SimConfig`]
    /// describes; a bounded run is sequential whatever `cfg.shards`
    /// says, and an abandoned run leaves the arena as an errored one
    /// does: ready for the next. The floor costs a bounded run one
    /// compare per node step (and one pass over the ops to set it up);
    /// an unbounded run, and one bounded at the horizon (no floor can
    /// pass it), carries no floor state and pays one untaken branch per
    /// node step, nothing per event.
    ///
    /// # Errors
    ///
    /// The run's [`SimError`]. Errors found before any simulated time
    /// elapses (config, compile, horizon, [`SimError::Unroutable`])
    /// always surface; a runtime error the run would have met after
    /// the cut — past `until`, or between a floor cut and `until` —
    /// does not: that run had lost.
    pub fn run_until(
        &mut self,
        cfg: &SimConfig,
        programs: &[Program],
        memories: Vec<Vec<u8>>,
        until: SimTime,
    ) -> Result<Option<SimResult>, SimError> {
        self.run_bounded(cfg, programs, None, memories, None, Some(until))
    }

    /// Run a *shared* program set (identified by its `Arc`): the
    /// compile pass is cached process-wide, so seed sweeps and config
    /// sweeps over one program set compile once instead of once per
    /// run.
    pub fn run_shared(
        &mut self,
        cfg: &SimConfig,
        programs: &Arc<Vec<Program>>,
        memories: Vec<Vec<u8>>,
    ) -> Result<SimResult, SimError> {
        self.run_one(cfg, programs, Some(programs), memories, None)
    }

    /// The one run path behind every unbounded public door
    /// ([`SimArena::run`], [`SimArena::run_shared`] and
    /// [`SimArena::run_spec`]). `shared` is the compile-cache key: the
    /// `Arc` identity of `programs` when later runs may present the
    /// same set again, `None` to compile for this run only. `trace`
    /// enables structured event capture (`None` = off).
    pub(crate) fn run_one(
        &mut self,
        cfg: &SimConfig,
        programs: &[Program],
        shared: Option<&Arc<Vec<Program>>>,
        memories: Vec<Vec<u8>>,
        trace: Option<&TraceConfig>,
    ) -> Result<SimResult, SimError> {
        let out = self.run_bounded(cfg, programs, shared, memories, trace, None)?;
        Ok(out.expect("only a bounded run is abandoned"))
    }

    /// [`SimArena::run_one`] with the bound of [`SimArena::run_until`]
    /// (`None` = run to the end, which always yields a result).
    fn run_bounded(
        &mut self,
        cfg: &SimConfig,
        programs: &[Program],
        shared: Option<&Arc<Vec<Program>>>,
        memories: Vec<Vec<u8>>,
        trace: Option<&TraceConfig>,
        until: Option<SimTime>,
    ) -> Result<Option<SimResult>, SimError> {
        check_shape(cfg, programs.len(), memories.len())?;
        let t0 = std::time::Instant::now();
        let (compiled, hit) = match shared {
            Some(set) => shared_compiled_for(set, &memories)?,
            None => (Arc::new(compile(programs, &memories)?), false),
        };
        let compile_ns = t0.elapsed().as_nanos() as u64;
        let Some(mut out) = self.run_compiled(cfg, &compiled, memories, trace, until)? else {
            return Ok(None);
        };
        out.stats.compile_ns = compile_ns;
        if hit {
            out.stats.compile_shared_hits = 1;
        } else {
            out.stats.compile_misses = 1;
        }
        Ok(Some(out))
    }

    fn run_compiled(
        &mut self,
        cfg: &SimConfig,
        compiled: &Compiled,
        memories: Vec<Vec<u8>>,
        trace: Option<&TraceConfig>,
        until: Option<SimTime>,
    ) -> Result<Option<SimResult>, SimError> {
        check_horizon(cfg, compiled)?;
        check_jobs(cfg, compiled)?;
        // Resolve network conditions (fault-avoiding routes, injection
        // schedule) before any simulated time elapses; Unroutable
        // surfaces here.
        let conditioned = match &cfg.netcond {
            Some(nc) => Some(build_conditioned(cfg, compiled, nc)?),
            None => None,
        };
        let speeds = cfg.netcond.as_ref().map(|nc| nc.resolve_speeds(cfg.dimension));
        // The price floor (see [`crate::floor`]): what a bounded run
        // cuts on, and what a debug build checks every finished run
        // against. An unbounded release run prices nothing.
        let floor = (until.is_some() || cfg!(debug_assertions))
            .then(|| PriceFloor::new(cfg, speeds.as_deref()));
        let state = std::mem::take(&mut self.state);
        let mut rt = Runtime::new(cfg, compiled, memories, trace, state, None);
        if let Some(speeds) = &speeds {
            rt.arb.links.set_speeds(cfg.dimension, speeds);
            rt.conditioned = conditioned;
        }
        rt.bound.floor = floor;
        // A run `shard::eligible` admits holds every barrier, so the
        // driver can run the next phase in subcube windows; any other
        // run never holds one and is the plain sequential engine.
        rt.barriers.hold = crate::shard::eligible(cfg, trace.is_some(), until.is_some());
        let out = rt.drive(compiled, until, &mut self.windows);
        self.state = rt.reclaim();
        out
    }
}

/// Every send of a compiled set as `(context, destination)`, in
/// program order.
fn sends(compiled: &Compiled) -> impl Iterator<Item = (u32, NodeId)> + '_ {
    compiled.programs.iter().enumerate().flat_map(|(x, program)| {
        program.ops(&compiled.ops).iter().filter_map(move |op| match op {
            CompiledOp::Send { dst, .. } => Some((x as u32, *dst)),
            _ => None,
        })
    })
}

/// Jobs share links, never messages: a send whose xor-mask leaves the
/// physical-node bits would alias another job's context. Rejected up
/// front, like self-sends (a single-tenant set has no such send).
fn check_jobs(cfg: &SimConfig, compiled: &Compiled) -> Result<(), SimError> {
    if cfg.num_jobs() == 1 {
        return Ok(());
    }
    let node_mask = cfg.num_nodes() as u32 - 1;
    match sends(compiled).find(|&(x, dst)| x ^ dst.0 > node_mask) {
        Some((x, dst)) => Err(SimError::InvalidProgram {
            node: NodeId(x),
            reason: format!(
                "cross-job send to context {dst}: jobs share the cube's links, not messages"
            ),
        }),
        None => Ok(()),
    }
}

/// Shared config/shape validation for every arena-driven run.
pub(crate) fn check_shape(
    cfg: &SimConfig,
    num_programs: usize,
    num_memories: usize,
) -> Result<(), SimError> {
    cfg.validate().map_err(|reason| SimError::InvalidConfig { reason })?;
    let n = cfg.total_contexts();
    if num_programs != n || num_memories != n {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "cube of {} nodes x {} job(s) needs one program and one memory per node \
                 context ({n} total; got {num_programs} programs, {num_memories} memories)",
                cfg.num_nodes(),
                cfg.num_jobs(),
            ),
        });
    }
    Ok(())
}

/// Bound every duration the engine prices with unchecked `u64`
/// arithmetic within [`SimTime::HORIZON`], once per run and before any
/// simulated time elapses: the set's longest `Send` and a zero-byte
/// one (`λ` or `λ₀` + `τ·bytes` + `δ·d`, the UNFORCED reserve past its
/// threshold and the jitter's `1 + frac` included; background streams
/// count as sends), its longest `Permute` (`ρ·bytes`) and, if it has
/// one, a barrier (`barrier_per_dim·d`). Every hop count is taken as
/// `d`, so each price is an upper bound, computed in `u128`, where a
/// `u64` rate times a byte count cannot overflow. The error names the
/// largest term of the price that passes the horizon.
fn check_horizon(cfg: &SimConfig, compiled: &Compiled) -> Result<(), SimError> {
    let p = &cfg.params;
    let ns = |us: f64| u128::from(crate::time::us_to_ns(us));
    let d = u128::from(cfg.dimension);
    let horizon = u128::from(SimTime::HORIZON.as_ns());
    let past = |name: &str, what: String, price: u128| SimError::InvalidConfig {
        reason: format!(
            "{name}: {what} prices at {price} ns, past the simulated-time horizon ({horizon} ns)"
        ),
    };
    let streams = cfg.netcond.iter().flat_map(|nc| &nc.background).filter(|s| s.count > 0);
    let longest_send = (compiled.total_sends > 0)
        .then_some(compiled.max_send_bytes)
        .into_iter()
        .chain(streams.map(|s| s.bytes))
        .max();
    if let Some(longest) = longest_send {
        for bytes in [0, longest] {
            let reserve = u128::from(bytes > p.unforced_threshold);
            let terms = [
                if bytes == 0 {
                    ("lambda_zero", ns(p.lambda_zero))
                } else {
                    ("lambda", ns(p.lambda))
                },
                ("tau", ns(p.tau) * bytes as u128),
                ("delta", ns(p.delta) * d * (1 + 2 * reserve)),
                ("lambda_zero", 2 * ns(p.lambda_zero) * reserve),
            ];
            let price: u128 = terms.iter().map(|&(_, t)| t).sum();
            let what = || format!("a send of {bytes} bytes across a d{d} cube");
            if price > horizon {
                let (name, _) = terms.iter().max_by_key(|&&(_, t)| t).expect("four terms");
                return Err(past(name, what(), price));
            }
            // `jitter` scales in f64: below 2^63 it rounds to at most
            // 2^63 − 1024 ns.
            let jittered = price as f64 * (1.0 + cfg.jitter_frac);
            if cfg.jitter_frac > 0.0 && jittered >= horizon as f64 {
                return Err(past("jitter_frac", what(), jittered as u128));
            }
        }
    }
    let shuffle = ns(p.rho) * compiled.max_permute_bytes as u128;
    if shuffle > horizon {
        let what = format!("a permute of {} bytes", compiled.max_permute_bytes);
        return Err(past("rho", what, shuffle));
    }
    // Every program ends one segment, and every barrier one more.
    let has_barrier = compiled.segs.len() > compiled.programs.len();
    let barrier = ns(p.barrier_per_dim) * d;
    if has_barrier && barrier > horizon {
        return Err(past("barrier_per_dim", format!("a barrier on a d{d} cube"), barrier));
    }
    Ok(())
}
