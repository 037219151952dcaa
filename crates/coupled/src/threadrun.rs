//! Functional parallel runner: every MPI rank is an OS thread.
//!
//! This is the *real* parallel implementation (paper §IV): ranks own
//! disjoint sets of coarse cells, keep only their own particles,
//! migrate particles with the configured exchange strategy after
//! every move phase, sum boundary charge with an all-reduce before
//! the Poisson solve, and re-decompose with the measured-lii dynamic
//! load balancer. Used for validation (serial vs parallel, paper
//! Fig. 8/9) and for the threaded benches.
//!
//! The step itself is the one [`StepPipeline`]; this module only
//! supplies [`ThreadedBackend`] — real `vmpi` communication plus
//! measured [`crate::engine::WallClock`] timing — and the run
//! harness around it. Rank 0 additionally drives an [`obs::Recorder`]
//! (metrics registry + trace sink) when the run's
//! [`crate::config::ObsConfig`] asks for one.
//!
//! # Faults and recovery (DESIGN.md §12)
//!
//! Every communication call is fallible ([`vmpi::CommError`]); the
//! backend latches the first error it sees, aborts its rank so peers
//! collapse promptly instead of waiting out timeouts, and the rank
//! surfaces the failure. [`run_threaded_result`] is the recovering
//! entry point: with a [`vmpi::FaultPlan`] installed each
//! rank's transport is wrapped in [`vmpi::ChaosComm`] (deterministic
//! drop/duplicate/delay/stall/kill injection) under
//! [`vmpi::ReliableComm`] (sequence numbers, dedup and journal
//! retransmission), and under
//! [`FaultPolicy::RestartFromCheckpoint`] a detected rank death tears
//! the world down, restores every rank from the last consistent
//! in-memory checkpoint (taken every
//! [`RunConfig::checkpoint_every`] steps, only at fault-free
//! boundaries) and replays to completion. Because the reliability
//! sublayer delivers exactly the clean run's per-pair payloads in
//! order, and v2 checkpoints capture the whole evolving per-rank
//! state, the recovered run finishes **bitwise identical** to the
//! clean one; the trace of a recovered run contains only the replayed
//! steps.
//!
//! Determinism note: each rank owns an independent RNG stream, so a
//! k-rank run is statistically — not bitwise — equivalent to the
//! serial run, exactly like the paper's MPI solver ("minor
//! differences ... mainly due to random seeds").

use crate::checkpoint::{checkpoint_rank, restore_rank, CheckpointError};
use crate::config::{FaultPolicy, RunConfig};
use crate::engine::{
    build_world, seed_partition, Backend, BackendStats, Balancing, CommLedger, ExchangeInfo,
    ExchangeScratch, RankEngine, SerialBackend, StepComm, StepOutcome, StepPipeline, WallClock,
    SAMPLED_PHASES,
};
use crate::machine::{CostModel, MachineProfile};
use crate::report::{ReportBuilder, RunReport};
use crate::state::StepRecord;
use crate::timers::{Breakdown, Phase};
use balance::{load_imbalance_indicator, RankTimes};
use dsmc::Injector;
use mesh::NestedMesh;
use obs::{Recorder, Tee};
use particles::{pack_index, unpack_all, ParticleBuffer, SpeciesTable};
use partition::{block_ranges, Decomposition};
use std::sync::{Arc, Mutex};
use vmpi::collectives::{
    allgather_f64, allgather_u64, allreduce_sum_f64, allreduce_sum_u64, broadcast, gather,
};
use vmpi::{
    exchange_hier_overlapped, exchange_into, run_world, ChaosComm, ChaosWorld, Comm, CommError,
    CommResult, NodeMap, ReliableComm, ReliableWorld, Strategy,
};

/// Recovery replays attempted before a fault is surfaced to the
/// caller — a backstop against fault plans (or genuinely broken
/// transports) that keep killing the run faster than checkpoints can
/// advance it.
const MAX_RECOVERIES: usize = 8;

/// Why a threaded run failed (see [`run_threaded_result`]).
#[derive(Debug)]
pub enum RunError {
    /// A rank died — a fault-plan kill, an exhausted retry budget, or
    /// a wedged peer — and the policy was [`FaultPolicy::Abort`], or
    /// the bounded recovery budget was already spent.
    RankFailure {
        /// First failing rank (lowest rank id when several latch).
        rank: usize,
        /// DSMC step the failure surfaced at (`steps` = during the
        /// end-of-run diagnostics collectives).
        step: usize,
        error: CommError,
        /// Checkpoint restarts performed before giving up.
        recoveries: usize,
    },
    /// A recovery replay could not restore a stored checkpoint; never
    /// recoverable, surfaced under every policy.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::RankFailure {
                rank,
                step,
                error,
                recoveries,
            } => write!(
                f,
                "rank {rank} failed at step {step}: {error} (after {recoveries} recoveries)"
            ),
            RunError::Checkpoint(e) => write!(f, "recovery checkpoint unusable: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// One rank's failure, surfaced out of [`rank_main`].
enum RankError {
    Comm { step: usize, error: CommError },
    Checkpoint(CheckpointError),
}

/// Per-rank in-memory checkpoint slots shared across recovery
/// attempts: `(next step to run, checkpoint_rank envelope)`. Slots are
/// only written after a world-wide barrier at the boundary succeeds,
/// so the stored set is always consistent (every rank at the same
/// step).
type CheckpointStore = Vec<Mutex<Option<(usize, Vec<u8>)>>>;

/// Run the coupled solver on `run.ranks` OS threads for `run.steps`
/// DSMC iterations, panicking on failure (the historical signature;
/// use [`run_threaded_result`] to handle faults).
pub fn run_threaded(run: &RunConfig) -> RunReport {
    match run_threaded_result(run) {
        Ok(report) => report,
        Err(e) => panic!("threaded run failed: {e}"),
    }
}

/// Run the coupled solver on `run.ranks` OS threads, applying the
/// configured fault plan and recovery policy.
///
/// With [`RunConfig::fault_plan`] set, each rank's transport becomes
/// `ReliableComm<ChaosComm<ThreadComm>>`; the chaos and reliability
/// worlds are shared across recovery attempts, so kill events stay
/// one-shot and the injected/retry counters in the returned report
/// are cumulative over replays.
///
/// This is the one-shot wrapper around [`EngineSession`]: build a
/// session, attempt until done or the retry policy says stop. Hold an
/// `EngineSession` directly when the engine's lifecycle must outlive
/// one call — e.g. the job server re-attempts a crashed job from the
/// session's checkpoints on another worker.
pub fn run_threaded_result(run: &RunConfig) -> Result<RunReport, RunError> {
    let mut session = EngineSession::new(run);
    loop {
        match session.attempt() {
            Ok(report) => return Ok(report),
            Err(e) => {
                if !session.can_retry_after(&e) {
                    return Err(e);
                }
                session.prepare_retry();
            }
        }
    }
}

/// Engine lifecycle detached from process (and call) lifecycle: mesh,
/// species, initial decomposition, fault-injection worlds and the
/// checkpoint store built once, then any number of [`attempt`]s run
/// against them. Checkpoints and the one-shot fault state live in the
/// session, so an attempt that dies mid-run (worker crash, fault-plan
/// kill) can be resumed later — even from a different thread — by
/// calling [`attempt`] again after [`prepare_retry`].
///
/// [`run_threaded_result`] is the simple driver: it owns a session
/// for exactly one `loop { attempt / prepare_retry }`. The job server
/// stashes sessions across worker deaths instead.
///
/// [`attempt`]: EngineSession::attempt
/// [`prepare_retry`]: EngineSession::prepare_retry
pub struct EngineSession {
    run: RunConfig,
    nm: Arc<NestedMesh>,
    species: Arc<SpeciesTable>,
    h_id: u8,
    hp_id: u8,
    owner0: Vec<u32>,
    xadj: Vec<u32>,
    adjncy: Vec<u32>,
    chaos: Option<Arc<ChaosWorld>>,
    reliable: Option<Arc<ReliableWorld>>,
    store: CheckpointStore,
    recoveries: usize,
    attempts: usize,
}

impl std::fmt::Debug for EngineSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSession")
            .field("ranks", &self.run.ranks)
            .field("steps", &self.run.steps)
            .field("attempts", &self.attempts)
            .field("recoveries", &self.recoveries)
            .finish_non_exhaustive()
    }
}

impl EngineSession {
    /// Build the immutable world for `run`: mesh hierarchy, species
    /// table, seed decomposition, fault worlds and empty checkpoint
    /// slots. No simulation work happens until [`EngineSession::attempt`].
    pub fn new(run: &RunConfig) -> Self {
        let (nm, species, h_id, hp_id) = build_world(&run.sim);
        // initial unweighted decomposition, shared by all ranks
        let (xadj, adjncy, owner0) = seed_partition(&nm, run.ranks);
        let chaos = run
            .fault_plan
            .clone()
            .map(|plan| ChaosWorld::new(plan, run.ranks));
        let reliable = run
            .fault_plan
            .is_some()
            .then(|| ReliableWorld::new(run.ranks));
        let store: CheckpointStore = (0..run.ranks).map(|_| Mutex::new(None)).collect();

        EngineSession {
            run: run.clone(),
            nm,
            species,
            h_id,
            hp_id,
            owner0,
            xadj,
            adjncy,
            chaos,
            reliable,
            store,
            recoveries: 0,
            attempts: 0,
        }
    }

    /// The configuration this session was built for.
    pub fn config(&self) -> &RunConfig {
        &self.run
    }

    /// Checkpoint restarts performed so far.
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// Engine attempts performed so far (1 + recoveries once at least
    /// one attempt ran).
    pub fn attempt_count(&self) -> usize {
        self.attempts
    }

    /// Run one world pass: every rank resumes from its checkpoint slot
    /// (step 0 when empty) and steps to completion. On success returns
    /// rank 0's report; on failure returns the first failing rank's
    /// error, stamped with the session's recovery count. The session
    /// stays usable after an error — call [`EngineSession::can_retry_after`]
    /// and [`EngineSession::prepare_retry`] to replay.
    pub fn attempt(&mut self) -> Result<RunReport, RunError> {
        self.attempts += 1;
        let results = run_world(self.run.ranks, |comm| match (&self.chaos, &self.reliable) {
            (Some(cw), Some(rw)) => {
                let comm = ReliableComm::new(ChaosComm::new(comm, cw.clone()), rw.clone());
                rank_main(&comm, self)
            }
            _ => rank_main(&comm, self),
        });

        let mut failure: Option<(usize, usize, CommError)> = None;
        let mut rank0 = None;
        for (rank, res) in results.into_iter().enumerate() {
            match res {
                Ok(report) => {
                    if rank == 0 {
                        rank0 = Some(report);
                    }
                }
                Err(RankError::Checkpoint(e)) => return Err(RunError::Checkpoint(e)),
                Err(RankError::Comm { step, error }) => {
                    if failure.is_none() {
                        failure = Some((rank, step, error));
                    }
                }
            }
        }
        match failure {
            None => Ok(rank0.expect("rank 0 report")),
            Some((rank, step, error)) => Err(RunError::RankFailure {
                rank,
                step,
                error,
                recoveries: self.recoveries,
            }),
        }
    }

    /// Whether the configured policy permits replaying after `err`:
    /// a rank failure under [`FaultPolicy::RestartFromCheckpoint`]
    /// with recovery budget left. Checkpoint-restore errors are never
    /// retryable.
    pub fn can_retry_after(&self, err: &RunError) -> bool {
        matches!(err, RunError::RankFailure { .. })
            && self.run.on_fault == FaultPolicy::RestartFromCheckpoint
            && self.recoveries < MAX_RECOVERIES
    }

    /// Arm the next replay: count the recovery and flush the failed
    /// attempt's in-flight chaos holds and reliability journals
    /// (counters stay cumulative). One-shot kill events have already
    /// fired and stay fired, so the replay runs past the kill step.
    pub fn prepare_retry(&mut self) {
        self.recoveries += 1;
        if let Some(cw) = &self.chaos {
            cw.reset_pairs();
        }
        if let Some(rw) = &self.reliable {
            rw.reset();
        }
    }
}

/// Serialise the particles of `buf` that no longer belong to `me`
/// straight into their destinations' wire buffers, building the keep
/// mask in the same pass. Compaction is left to the caller — under an
/// overlapped hierarchical exchange it runs while the sends are in
/// flight. Returns the emigrant count.
fn pack_emigrants(
    buf: &ParticleBuffer,
    owner: &[u32],
    me: usize,
    ranks: usize,
    scratch: &mut ExchangeScratch,
) -> usize {
    scratch.outgoing.resize_with(ranks, Vec::new);
    for b in scratch.outgoing.iter_mut() {
        b.clear();
    }
    scratch.keep.clear();
    scratch.keep.resize(buf.len(), true);
    let mut emigrants = 0usize;
    for i in 0..buf.len() {
        let dest = owner[buf.cell[i] as usize] as usize;
        if dest != me {
            pack_index(buf, i, &mut scratch.outgoing[dest]);
            scratch.keep[i] = false;
            emigrants += 1;
        }
    }
    emigrants
}

/// Resolve [`Strategy::Auto`] for one exchange: every rank contributes
/// its per-destination byte counts (8·ranks bytes), rank 0 assembles
/// the migration byte matrix and scores the concrete strategies with
/// the cost model — Hier on the node map the exchange runs on — and
/// the 1-byte pick is broadcast. The pick only
/// changes the message schedule — every strategy delivers identical
/// buffers — so the machine profile behind `cost` can never affect
/// physics.
fn resolve_strategy<C: Comm>(
    comm: &C,
    configured: Strategy,
    outgoing: &[Vec<u8>],
    cost: &CostModel,
) -> CommResult<Strategy> {
    if configured != Strategy::Auto {
        return Ok(configured);
    }
    let mut row = Vec::with_capacity(outgoing.len() * 8);
    for b in outgoing {
        row.extend_from_slice(&(b.len() as u64).to_le_bytes());
    }
    let choice = gather(comm, 0, row)?.map(|rows| {
        let matrix: Vec<Vec<u64>> = rows
            .iter()
            .map(|r| {
                r.chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect()
            })
            .collect();
        vec![cost.pick_strategy(&matrix).concrete_index() as u8]
    });
    match broadcast(comm, 0, choice)?.first() {
        Some(&i) if (i as usize) < Strategy::CONCRETE.len() => Ok(Strategy::CONCRETE[i as usize]),
        _ => Err(CommError::Malformed {
            what: "auto strategy pick",
        }),
    }
}

/// One full particle migration under `be`'s strategy and ownership:
/// pack emigrants, resolve the strategy, run the wire exchange through
/// the reused scratch buffers, unpack immigrants. Returns the concrete
/// strategy that carried it.
///
/// Under [`Strategy::Hier`] with [`RunConfig::overlap`] set, the
/// buffer compaction (and, for the DSMC exchange, the collide
/// pre-bucketing — set `prebucket`) runs inside
/// [`exchange_hier_overlapped`]'s window: after the phase-1
/// nonblocking sends are posted, before the first fence-and-drain.
/// Only RNG-free work moves into the window, so the delivered state
/// is bitwise identical to the sequential path either way (compaction
/// order relative to the wire is unobservable, and pre-built collide
/// buckets list the same indices in the same order).
fn migrate<C: Comm>(
    be: &ThreadedBackend<'_, C>,
    eng: &mut RankEngine,
    prebucket: bool,
) -> CommResult<Strategy> {
    let (comm, cost) = (be.comm, &be.cost);
    let me = comm.rank();
    let RankEngine {
        particles,
        exch,
        collisions,
        h_id,
        ..
    } = eng;
    let emigrants = pack_emigrants(particles, &be.owner, me, comm.size(), exch);
    let strategy = resolve_strategy(comm, be.strategy, &exch.outgoing, cost)?;
    let ExchangeScratch {
        keep,
        outgoing,
        incoming,
    } = exch;
    let overlapped = strategy == Strategy::Hier && be.overlap;
    if !overlapped && emigrants > 0 {
        particles.compact(keep);
    }
    if strategy == Strategy::Hier {
        let do_prebucket = overlapped && prebucket;
        exchange_hier_overlapped(comm, &cost.nodes, outgoing, incoming, || {
            if overlapped {
                if emigrants > 0 {
                    particles.compact(keep);
                }
                if do_prebucket {
                    collisions.prebucket(particles, *h_id);
                }
            }
        })?;
        let from = particles.len();
        for inc in incoming.iter() {
            unpack_all(inc, particles);
        }
        if do_prebucket {
            collisions.extend_bucket(particles, from, *h_id);
        }
    } else {
        exchange_into(comm, strategy, &cost.nodes, outgoing, incoming)?;
        for inc in incoming.iter() {
            unpack_all(inc, particles);
        }
    }
    Ok(strategy)
}

/// Real-communication backend: `vmpi` collectives between the phases,
/// measured [`WallClock`] timing, measured-lii rebalancing
/// (Algorithm 1).
///
/// The [`Backend`] trait is infallible, so communication errors are
/// *latched*: the first [`CommError`] is stored, the rank aborts its
/// comm (collapsing peers' blocking operations promptly), and every
/// later comm-touching backend call short-circuits to a local
/// fallback. The run harness checks [`ThreadedBackend::fault`] after
/// each step and discards the poisoned rank state.
pub struct ThreadedBackend<'a, C: Comm> {
    comm: &'a C,
    strategy: Strategy,
    /// Parameters for the Auto decision rule. The threaded backend
    /// has no real α/β of its own, so the Tianhe-2 profile is the
    /// documented default; see [`resolve_strategy`] for why this can
    /// never change the physics. Its node map is the one Hier runs
    /// on (from [`RunConfig::ranks_per_node`]; 0 = two equal halves),
    /// so Auto prices Hier on the grouping it would execute.
    cost: CostModel,
    /// Overlap compaction/pre-bucketing with the hierarchical
    /// exchange (from [`RunConfig::overlap`]).
    overlap: bool,
    owner: Vec<u32>,
    xadj: &'a [u32],
    adjncy: &'a [u32],
    /// The balancer and decomposition mode. Under the split
    /// Eulerian/Lagrangian mode the field grid stays statically
    /// block-partitioned and the charge reduction becomes a per-owner
    /// gather/scatter (see [`Backend::reduce_charge`]).
    balancing: Balancing,
    clock: WallClock,
    /// Per-rank populations from the Reindex allgather (reused for
    /// the step trace's share).
    pops: Vec<u64>,
    /// Fed world-counter readings at each step boundary.
    ledger: CommLedger,
    /// First communication error observed; once set, comm-touching
    /// calls short-circuit (the rank's state is already condemned).
    fault: Option<CommError>,
}

impl<'a, C: Comm> ThreadedBackend<'a, C> {
    pub fn new(
        comm: &'a C,
        run: &RunConfig,
        owner0: &[u32],
        xadj: &'a [u32],
        adjncy: &'a [u32],
    ) -> Self {
        let n = comm.size();
        ThreadedBackend {
            comm,
            strategy: run.strategy,
            cost: CostModel {
                nodes: match run.ranks_per_node {
                    0 => NodeMap::default_for(n),
                    rpn => NodeMap::grouped(n, rpn),
                },
                ..CostModel::new(MachineProfile::tianhe2(), n)
            },
            overlap: run.overlap,
            owner: owner0.to_vec(),
            xadj,
            adjncy,
            balancing: Balancing::new(run),
            clock: WallClock::start(),
            pops: Vec::new(),
            ledger: CommLedger::default(),
            fault: None,
        }
    }

    /// The first communication error this backend latched, if any.
    pub fn fault(&self) -> Option<CommError> {
        self.fault
    }

    /// The coarse-cell ownership map the backend is running under
    /// (changes when the balancer remaps).
    pub fn owner(&self) -> &[u32] {
        &self.owner
    }

    /// The world's cumulative `(transactions, bytes)` counters.
    fn wire(&self) -> (u64, u64) {
        (self.comm.stats().transactions(), self.comm.stats().bytes())
    }

    /// Latch the first fault and abort this rank's comm so peers
    /// blocked on it collapse with [`CommError::PeerDead`] instead of
    /// waiting out their timeouts.
    fn latch(&mut self, error: CommError) {
        if self.fault.is_none() {
            self.fault = Some(error);
            self.comm.abort();
        }
    }

    /// Carry one migration and record its attribution: the strategy
    /// index plus the world-counter delta observed around it. The
    /// delta is best-effort per exchange (other ranks may be
    /// mid-flight); per-*step* deltas are exact. `prebucket` allows
    /// the overlapped hierarchical path to pre-bucket the collide
    /// lists (DSMC exchange only — the buckets must be consumed by
    /// the very next collide pass).
    fn migrate_and_tally(&mut self, eng: &mut RankEngine, prebucket: bool) {
        if self.fault.is_some() {
            return;
        }
        let before = self.wire();
        match migrate(self, eng, prebucket) {
            Ok(s) => {
                let after = self.wire();
                let info = ExchangeInfo {
                    transactions: after.0.saturating_sub(before.0),
                    bytes: after.1.saturating_sub(before.1),
                    ..ExchangeInfo::default()
                };
                self.ledger.carried(s, info);
            }
            Err(e) => self.latch(e),
        }
    }
}

impl<C: Comm> Backend for ThreadedBackend<'_, C> {
    fn begin_step(&mut self, _eng: &RankEngine) {
        self.clock.begin_step();
    }

    fn lap(
        &mut self,
        phase: Phase,
        _sub: usize,
        _eng: &RankEngine,
        _rec: &StepRecord,
        bd: &mut Breakdown,
    ) {
        self.clock.lap(bd, phase);
    }

    fn exchange(&mut self, eng: &mut RankEngine, phase: Phase, _sub: usize) {
        // only the DSMC exchange is immediately followed by the
        // collide pass, so only it may pre-bucket under overlap
        self.migrate_and_tally(eng, phase == Phase::DsmcExchange);
    }

    fn take_exchange_info(&mut self) -> Option<ExchangeInfo> {
        self.ledger.pending.take()
    }

    fn step_comm(&mut self) -> StepComm {
        let now = self.wire();
        self.ledger.close_step(now)
    }

    fn reduce_charge(&mut self, _eng: &RankEngine, node_charge: Vec<f64>) -> Vec<f64> {
        if self.fault.is_some() {
            return node_charge;
        }
        // sum boundary/node charge across ranks (paper §IV-C
        // reduction); every rank then solves the replicated system.
        // Under the Eulerian/Lagrangian split each static field owner
        // reduces its own block and scatters it back — the additions
        // happen in the same rank order, so the result is bitwise
        // identical to the allreduce.
        let reduced = if self.balancing.decomp == Decomposition::EulLag {
            eullag_reduce_charge(self.comm, &node_charge)
        } else {
            allreduce_sum_f64(self.comm, &node_charge)
        };
        match reduced {
            Ok(summed) => summed,
            Err(e) => {
                self.latch(e);
                node_charge
            }
        }
    }

    fn reindex_base(&mut self, eng: &RankEngine) -> u64 {
        if self.fault.is_some() {
            return 0;
        }
        match allgather_u64(self.comm, eng.particles.len() as u64) {
            Ok(pops) => {
                self.pops = pops;
                self.pops[..self.comm.rank()].iter().sum()
            }
            Err(e) => {
                self.latch(e);
                0
            }
        }
    }

    fn rebalance(
        &mut self,
        eng: &mut RankEngine,
        bd: &Breakdown,
        _rec: &StepRecord,
    ) -> StepOutcome {
        if self.fault.is_some() {
            return StepOutcome::default();
        }
        // share measured times: (total, migration, poisson) triples —
        // extended with the per-phase kernel times when the
        // timer-augmented cost source wants samples (the wire layout
        // stays the 3-float triple otherwise, so the default path's
        // message stream is untouched)
        let sampling = self.balancing.wants_samples();
        let mut mine = vec![bd.total(), bd.migration(), bd.poisson()];
        if sampling {
            mine.extend(SAMPLED_PHASES.map(|p| bd[p]));
        }
        let width = mine.len();
        let all = match allgather_f64(self.comm, &mine) {
            Ok(all) => all,
            Err(e) => {
                self.latch(e);
                return StepOutcome::default();
            }
        };
        let times: Vec<RankTimes> = all
            .chunks_exact(width)
            .map(|c| RankTimes {
                total: c[0],
                migration: c[1],
                poisson: c[2],
            })
            .collect();
        // world-wide kernel seconds, summed in rank order (zeros
        // unless sampling widened the rows)
        let mut phase_secs = [0.0; 3];
        for c in all.chunks_exact(width) {
            for (s, v) in phase_secs.iter_mut().zip(&c[3..]) {
                *s += v;
            }
        }
        let mut outcome = StepOutcome {
            lii: load_imbalance_indicator(&times),
            ..StepOutcome::default()
        };
        if self.balancing.rebalancer.is_none() {
            return outcome;
        }
        // global per-cell counts (needed by the load model), reduced
        // as one `[neutral | charged]` u64 payload
        let (mut local, charged) = eng.counts_per_cell();
        local.extend_from_slice(&charged);
        let global = match allreduce_sum_u64(self.comm, &local) {
            Ok(global) => global,
            Err(e) => {
                self.latch(e);
                return outcome;
            }
        };
        let counts = global.split_at(charged.len());
        // every rank runs the (deterministic) algorithm on the same
        // inputs => identical new ownership everywhere
        let remap_started = std::time::Instant::now();
        let graph = (self.xadj, self.adjncy);
        let ranks = self.comm.size();
        if let Some(new_owner) =
            self.balancing
                .step(&mut outcome, phase_secs, graph, counts, &self.owner, ranks)
        {
            self.owner = new_owner;
            let me = self.comm.rank() as u32;
            let owner = &self.owner;
            eng.injector = Injector::with_filter(&eng.nm.coarse, |t| owner[t as usize] == me);
            self.migrate_and_tally(eng, false);
            outcome.remap_seconds = remap_started.elapsed().as_secs_f64();
        }
        outcome
    }

    fn end_step(&mut self, _eng: &RankEngine, _bd: &mut Breakdown) {}

    fn share(&self, _eng: &RankEngine) -> Vec<f64> {
        let total = self.pops.iter().sum::<u64>().max(1) as f64;
        self.pops.iter().map(|&p| p as f64 / total).collect()
    }

    fn stats(&self) -> BackendStats {
        self.ledger.stats(&self.balancing)
    }
}

/// Gather/scatter charge reduction of the Eulerian/Lagrangian split
/// (DESIGN.md §15): the field grid is statically block-partitioned
/// over ranks, each owner gathers every rank's contribution to its
/// block, reduces them in rank order, and broadcasts the reduced
/// block back so every rank can run the replicated Poisson solve.
/// Summing per element in rank order makes the result bitwise
/// identical to [`allreduce_sum_f64`] over the same inputs.
fn eullag_reduce_charge<C: Comm>(comm: &C, node_charge: &[f64]) -> CommResult<Vec<f64>> {
    let me = comm.rank();
    let ranges = block_ranges(node_charge.len(), comm.size());
    // phase 1: each owner gathers and reduces its block
    let mut owned: Vec<f64> = Vec::new();
    for (root, range) in ranges.iter().enumerate() {
        let bytes: Vec<u8> = node_charge[range.clone()]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        if let Some(parts) = gather(comm, root, bytes)? {
            let mut acc = vec![0.0f64; range.len()];
            for part in &parts {
                if part.len() != range.len() * 8 {
                    return Err(CommError::Malformed {
                        what: "eullag charge block",
                    });
                }
                for (a, chunk) in acc.iter_mut().zip(part.chunks_exact(8)) {
                    *a += f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                }
            }
            owned = acc;
        }
    }
    // phase 2: owners scatter the reduced blocks; every rank
    // reassembles the full vector
    let mut out = vec![0.0f64; node_charge.len()];
    for (root, range) in ranges.iter().enumerate() {
        let mine = (me == root).then(|| {
            owned
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect::<Vec<u8>>()
        });
        let block = broadcast(comm, root, mine)?;
        if block.len() != range.len() * 8 {
            return Err(CommError::Malformed {
                what: "eullag reduced block",
            });
        }
        for (slot, chunk) in out[range.clone()].iter_mut().zip(block.chunks_exact(8)) {
            *slot = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
    }
    Ok(out)
}

/// Read a checkpoint-store slot, surviving a poisoned lock (a rank
/// that panicked while storing): the stored bytes are still the last
/// consistently committed envelope.
fn read_slot(slot: &Mutex<Option<(usize, Vec<u8>)>>) -> Option<(usize, Vec<u8>)> {
    slot.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// One rank's attempt under session `s`: resume, step, checkpoint,
/// and (on rank 0) report.
fn rank_main<C: Comm>(comm: &C, s: &EngineSession) -> Result<RunReport, RankError> {
    let (run, me) = (&s.run, comm.rank());
    let mut eng = RankEngine::for_rank(
        run.sim.clone(),
        s.nm.clone(),
        s.species.clone(),
        s.h_id,
        s.hp_id,
        &s.owner0,
        me,
        run.threads_per_rank,
    );
    // Resume from the last consistently committed checkpoint, if one
    // exists (a recovery replay); otherwise start from step 0.
    let (start_step, owner) = match read_slot(&s.store[me]) {
        Some((next_step, blob)) => {
            let owner = restore_rank(&mut eng, me, &blob).map_err(RankError::Checkpoint)?;
            (next_step, owner)
        }
        None => (0, s.owner0.clone()),
    };
    let mut be = ThreadedBackend::new(comm, run, &owner, &s.xadj, &s.adjncy);
    let pipeline = StepPipeline {
        sort_every: run.sort_every,
    };
    let mut builder = ReportBuilder::new();
    // Rank 0 additionally drives the run's observability: one
    // Recorder taps the shared metrics registry and streams events to
    // the configured trace sink. Other ranks observe nothing.
    let mut recorder = if me == 0 {
        let sink = run.obs.trace.make_sink().map_err(|_| RankError::Comm {
            step: start_step,
            error: CommError::Malformed {
                what: "trace sink creation",
            },
        })?;
        let mut rec = Recorder::new(run.obs.metrics.as_ref(), sink);
        rec.meta(run.ranks, run.steps);
        Some(rec)
    } else {
        None
    };
    for step in start_step..run.steps {
        // fire scheduled stall/kill events for this rank, if any
        if let Err(error) = comm.on_step(step) {
            return Err(RankError::Comm { step, error });
        }
        match recorder.as_mut() {
            Some(rec) => {
                let mut obs = Tee(&mut builder, rec);
                pipeline.run_step(&mut eng, &mut be, &mut obs, step);
            }
            None => {
                pipeline.run_step(&mut eng, &mut be, &mut builder, step);
            }
        }
        if let Some(error) = be.fault() {
            return Err(RankError::Comm { step, error });
        }
        // Consistent checkpoint: the barrier proves every rank
        // reached this fault-free boundary, so the stored set is a
        // coherent restart point even if a fault lands one
        // instruction later.
        if run.checkpoint_every > 0 && (step + 1) % run.checkpoint_every == 0 {
            match comm.barrier() {
                Ok(()) => {
                    let envelope = checkpoint_rank(&eng, be.owner());
                    *s.store[me].lock().unwrap_or_else(|p| p.into_inner()) =
                        Some((step + 1, envelope));
                }
                Err(error) => return Err(RankError::Comm { step, error }),
            }
        }
    }
    // every rank exports its kernel-pool busy time
    eng.export_pool_busy(run.obs.metrics.as_ref(), me);

    // --- final diagnostics: global H density per coarse cell ---------
    let at_diag = |error| RankError::Comm {
        step: run.steps,
        error,
    };
    let counts = allreduce_sum_f64(comm, &eng.neutral_counts()).map_err(at_diag)?;
    let pops = allgather_u64(comm, eng.particles.len() as u64).map_err(at_diag)?;

    // counters read *after* the diagnostics collectives so faults
    // injected into them are counted too
    let faults_injected = s.chaos.as_ref().map_or(0, |c| c.injected_total());
    let comm_retries = s.reliable.as_ref().map_or(0, |r| r.retries());
    let comm_dedup_dropped = s.reliable.as_ref().map_or(0, |r| r.dedup_dropped());
    if let Some(rec) = recorder.as_mut() {
        // faults were possible this run only if a plan was installed
        if s.chaos.is_some() || s.recoveries > 0 {
            rec.fault_summary(
                s.recoveries,
                comm_retries,
                comm_dedup_dropped,
                faults_injected,
            );
        }
        rec.finish();
    }

    let mut report = builder.finish();
    report.density_h = eng.density_h(&counts);
    report.population = pops.iter().sum::<u64>() as usize;
    // Backend-accumulated per-step totals, NOT `comm.stats()` read
    // here: the diagnostics collectives above already bumped the raw
    // counters, and the report promises trace sums == totals exactly.
    be.stats().fill(&mut report);
    report.recoveries = s.recoveries;
    report.comm_retries = comm_retries;
    report.comm_dedup_dropped = comm_dedup_dropped;
    report.faults_injected = faults_injected;
    Ok(report)
}

/// Reference serial run of the same configuration (the paper's
/// validated serial baseline), returning the same diagnostics — now
/// including a measured breakdown and per-step trace, through the
/// same pipeline.
pub fn run_serial(run: &RunConfig) -> RunReport {
    let mut eng = RankEngine::new(run.sim.clone());
    let pipeline = StepPipeline {
        sort_every: run.sort_every,
    };
    let report = pipeline.run_whole(&mut eng, &mut SerialBackend::new(), &run.obs, 1, run.steps);
    eng.export_pool_busy(run.obs.metrics.as_ref(), 0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataset, RunConfig};
    use vmpi::{FaultAction, FaultPlan};

    /// The D1 configuration every test here starts from.
    fn base(ranks: usize, steps: usize) -> crate::config::RunConfigBuilder {
        RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(ranks)
            .seed(5)
            .steps(steps)
    }

    fn quick_run(ranks: usize, strategy: Strategy, lb: bool) -> RunReport {
        let run = base(ranks, 12)
            .strategy(strategy)
            .rebalance(lb.then(|| balance::RebalanceConfig {
                t_interval: 4,
                ..Default::default()
            }))
            .build()
            .expect("valid test config");
        run_threaded(&run)
    }

    #[test]
    fn threaded_run_produces_particles() {
        let r = quick_run(3, Strategy::Distributed, false);
        assert!(r.population > 0);
        assert!(r.transactions > 0, "ranks must communicate");
        assert!(r.density_h.iter().any(|&d| d > 0.0));
        assert_eq!(r.recoveries, 0, "clean run never recovers");
        assert_eq!(r.faults_injected, 0, "clean run injects nothing");
    }

    #[test]
    fn strategies_agree_statistically() {
        let dc = quick_run(3, Strategy::Distributed, false);
        let cc = quick_run(3, Strategy::Centralized, false);
        // same seeds, same physics: populations must be close
        let diff =
            (dc.population as f64 - cc.population as f64).abs() / dc.population.max(1) as f64;
        assert!(diff < 0.15, "dc {} vs cc {}", dc.population, cc.population);
    }

    #[test]
    fn parallel_matches_serial_density() {
        let run = base(4, 16)
            .rebalance(None)
            .build()
            .expect("valid test config");
        let par = run_threaded(&run);
        let ser = run_serial(&run);
        // total inventory within statistical scatter
        let tot_par: f64 = par.density_h.iter().sum();
        let tot_ser: f64 = ser.density_h.iter().sum();
        let rel = (tot_par - tot_ser).abs() / tot_ser.max(1e-300);
        assert!(rel < 0.2, "parallel {tot_par} vs serial {tot_ser}");
    }

    #[test]
    fn rebalancing_fires_in_threaded_mode() {
        let r = quick_run(4, Strategy::Distributed, true);
        assert!(r.rebalances >= 1, "threaded balancer never fired");
        assert!(r.population > 0);
        let fired: usize = r.trace.iter().filter(|t| t.rebalanced).count();
        assert_eq!(fired, r.rebalances, "trace must record each rebalance");
    }

    #[test]
    fn sparse_matches_distributed_exactly() {
        // same seeds, and both strategies deliver identical buffers in
        // identical source order — the full pipeline must agree bit
        // for bit, not just statistically. (No load balancer here: its
        // trigger is *measured wall time*, which is nondeterministic
        // across runs regardless of strategy.)
        let dc = quick_run(3, Strategy::Distributed, false);
        let sp = quick_run(3, Strategy::Sparse, false);
        assert_eq!(sp.population, dc.population);
        assert_eq!(sp.density_h, dc.density_h);
        let [_, _, sparse_uses, _] = sp.strategy_uses;
        assert!(sparse_uses > 0, "sparse never carried an exchange");
    }

    #[test]
    fn hier_matches_distributed_exactly() {
        // the hierarchical schedule delivers the same buffers in the
        // same source order as every flat strategy, with or without
        // an explicit node map — the full pipeline must agree bitwise
        let dc = quick_run(4, Strategy::Distributed, false);
        let hier = {
            let run = base(4, 12)
                .strategy(Strategy::Hier)
                .ranks_per_node(2)
                .rebalance(None)
                .build()
                .expect("valid test config");
            run_threaded(&run)
        };
        assert_eq!(hier.population, dc.population);
        assert_eq!(hier.density_h, dc.density_h);
        let [_, _, _, hier_uses] = hier.strategy_uses;
        assert!(hier_uses > 0, "hier never carried an exchange");
    }

    #[test]
    fn overlapped_hier_is_bitwise_identical_to_sequential_hier() {
        let hier = |overlap: bool| {
            let run = base(4, 12)
                .strategy(Strategy::Hier)
                .ranks_per_node(2)
                .overlap(overlap)
                .rebalance(None)
                .build()
                .expect("valid test config");
            run_threaded(&run)
        };
        let seq = hier(false);
        let ov = hier(true);
        assert_eq!(ov.population, seq.population);
        assert_eq!(ov.density_h, seq.density_h, "overlap changed physics");
        // the wire schedule must be unchanged too: same exchanges, all
        // hierarchical. (Absolute transaction totals are sampled from
        // the world-shared counter while other ranks may be mid-flight
        // in a collective, so they carry a few messages of run-to-run
        // jitter and are not compared here.)
        assert_eq!(
            ov.strategy_uses, seq.strategy_uses,
            "overlap changed schedule"
        );
    }

    #[test]
    fn auto_prices_hier_on_the_node_map_the_exchange_runs() {
        // 4 ranks: Hier runs on two halves by default, or on the
        // configured grouping; Auto's Hier score must price exactly
        // that map's traffic, not a one-node Tianhe-2 grouping
        let m: Vec<Vec<u64>> = (0..4)
            .map(|s| (0..4).map(|d| if s == d { 0 } else { 4_000 }).collect())
            .collect();
        for (rpn, nodes) in [(0, NodeMap::default_for(4)), (1, NodeMap::grouped(4, 1))] {
            let run = base(4, 1)
                .strategy(Strategy::Auto)
                .ranks_per_node(rpn)
                .build()
                .expect("valid test config");
            let (m, nodes) = (&m, &nodes);
            run_world(4, |comm| {
                let be = ThreadedBackend::new(&comm, &run, &[], &[], &[]);
                let hier = vmpi::traffic(Strategy::Hier, nodes, m);
                let want = be.cost.exchange_time(Strategy::Hier, &hier);
                assert_eq!(be.cost.exchange_time_for(Strategy::Hier, m), want);
            });
        }
    }

    #[test]
    fn auto_resolves_concrete_strategies() {
        let a = quick_run(3, Strategy::Auto, false);
        assert!(a.population > 0);
        let used: u64 = a.strategy_uses.iter().sum();
        // one DSMC exchange + one per PIC substep, every step
        assert!(
            used >= 12,
            "expected an exchange tally per step, got {used}"
        );
        // same seeds → same physics as any fixed strategy
        let dc = quick_run(3, Strategy::Distributed, false);
        assert_eq!(a.population, dc.population);
        assert_eq!(a.density_h, dc.density_h);
    }

    #[test]
    fn every_driver_reports_a_trace() {
        let r = quick_run(3, Strategy::Distributed, false);
        assert_eq!(r.trace.len(), 12);
        for t in &r.trace {
            assert_eq!(t.share.len(), 3);
            assert!((t.share.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        let run = base(1, 4)
            .rebalance(None)
            .build()
            .expect("valid test config");
        let s = run_serial(&run);
        assert_eq!(s.trace.len(), 4);
        assert!(s.breakdown.total() > 0.0, "serial breakdown now measured");
        assert!((s.total_time - s.breakdown.total()).abs() < 1e-12);
    }

    #[test]
    fn lossy_transport_matches_the_clean_run_bitwise() {
        let cfg = |plan: Option<FaultPlan>| {
            base(3, 12)
                .rebalance(None)
                .fault_plan(plan)
                .build()
                .expect("valid test config")
        };
        let clean = run_threaded(&cfg(None));
        let plan = FaultPlan::seeded(0xFA11)
            .drops(40)
            .dups(40)
            .delays(40, 3)
            .action(1, 0, 0, FaultAction::Drop);
        let chaotic = run_threaded_result(&cfg(Some(plan))).expect("reliable layer recovers");
        assert_eq!(chaotic.density_h, clean.density_h);
        assert_eq!(chaotic.population, clean.population);
        assert!(chaotic.faults_injected > 0, "plan must have injected");
        assert!(
            chaotic.comm_retries > 0,
            "the pinned drop must force a retransmission"
        );
    }

    #[test]
    fn abort_policy_surfaces_a_kill() {
        let run = base(3, 8)
            .rebalance(None)
            .fault_plan(Some(FaultPlan::seeded(1).kill(1, 3)))
            .build()
            .expect("valid test config");
        match run_threaded_result(&run) {
            Err(RunError::RankFailure {
                step, recoveries, ..
            }) => {
                assert!(step >= 3, "no rank can fail before the kill fires");
                assert_eq!(recoveries, 0, "abort policy never replays");
            }
            other => panic!("expected a rank failure, got {other:?}"),
        }
    }

    #[test]
    fn kill_recovers_from_checkpoint_bitwise() {
        let cfg = |plan: Option<FaultPlan>| {
            base(3, 12)
                .rebalance(None)
                .checkpoint_every(4)
                .on_fault(FaultPolicy::RestartFromCheckpoint)
                .fault_plan(plan)
                .build()
                .expect("valid test config")
        };
        let clean = run_threaded(&cfg(None));
        let killed =
            run_threaded_result(&cfg(Some(FaultPlan::seeded(2).kill(2, 6)))).expect("recovers");
        assert_eq!(killed.recoveries, 1, "exactly one replay");
        assert_eq!(killed.density_h, clean.density_h, "recovery is bitwise");
        assert_eq!(killed.population, clean.population);
        // the replay resumed from the step-4 checkpoint
        assert_eq!(killed.trace.len(), 12 - 4, "trace holds replayed steps");
    }
}
