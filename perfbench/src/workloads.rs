//! The four workloads and the drivers that run one closed batch of
//! each. A workload builds its [`RunConfig`] from the seed; a driver
//! runs it once through the program's public API, timed from
//! outside, and returns an [`Outcome`].
//!
//! Untraced runs are what a user runs: the bench-driven serial
//! pipeline, [`EngineSession`] or [`ClusterSim::step`]. Traced runs
//! add the program's own observability (metrics registry + trace
//! sink) and the benchmark's per-step timing and allocation counts,
//! then call into single layers directly on the final state
//! ([`crate::probes`]).

use crate::alloc::{self, Tally};
use crate::probes::{self, Probes};
use coupled::prelude::*;
use coupled::{
    Backend, BackendStats, Breakdown, ExchangeInfo, Phase, RankEngine, SerialBackend, StepComm,
    StepOutcome, StepPipeline, StepRecord, ThreadedBackend,
};
use mesh::NestedMesh;
use obs::json::{obj, Json};
use obs::{NullObserver, Observer, Recorder};
use particles::SpeciesTable;
use partition::{part_graph_kway, Graph, KwayOptions};
use std::sync::Arc;
use std::time::Instant;
use vmpi::collectives::{allgather_u64, allreduce_sum_f64};
use vmpi::Comm;

/// Rank count of the paper's Table V KM overhead, at which the
/// modelled workload's final state is re-partitioned and remapped
/// directly. The workload itself steps at 192 ranks: at 768 its
/// rebalance steps, which allocate and sweep 768 × 768 matrices, made
/// run-to-run spread approach the benchmark's bound on a shared host.
const PAPER_RANKS: usize = 768;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Plume,
    GasboxT2,
    Plume2RankLb,
    Paper192,
}

/// `Full` is what the benchmark measures; `Tiny` runs the same code
/// paths in well under a second, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Plume,
        Workload::GasboxT2,
        Workload::Plume2RankLb,
        Workload::Paper192,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Plume => "plume",
            Workload::GasboxT2 => "gasbox_t2",
            Workload::Plume2RankLb => "plume_2rank_lb",
            Workload::Paper192 => "paper_192",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The run this workload measures for `seed`.
    pub fn config(self, seed: u64, size: Size) -> RunConfig {
        let tiny = size == Size::Tiny;
        // D1 plume with a dense ion beam: ~118k mostly-charged
        // particles after 8 steps at scale 0.03
        let plume = || {
            let mut sim = Dataset::D1.config(if tiny { 0.01 } else { 0.03 });
            sim.density_hplus = if tiny { 2e11 } else { 1e12 };
            RunConfig::builder().sim(sim).seed(seed)
        };
        let built = match self {
            Workload::Plume => plume()
                .ranks(1)
                .steps(if tiny { 3 } else { 8 })
                .rebalance(None)
                .build(),
            Workload::Plume2RankLb => plume()
                .ranks(2)
                .steps(if tiny { 4 } else { 8 })
                .rebalance_every(2)
                .rebalance_threshold(0.0)
                .build(),
            Workload::GasboxT2 => {
                let mut run = coupled::scenario::canned("thermal_box")
                    .expect("canned scenario parses")
                    .run;
                run.sim.density_h = if tiny { 7e19 } else { 7e21 };
                run.sim.weight_h = 3e9;
                RunConfig::builder()
                    .sim(run.sim)
                    .seed(seed)
                    .ranks(1)
                    .threads_per_rank(2)
                    .steps(if tiny { 3 } else { run.steps })
                    .rebalance(None)
                    .build()
            }
            Workload::Paper192 => RunConfig::builder()
                .paper(Dataset::D2, if tiny { 0.02 } else { 1.0 })
                .seed(seed)
                .ranks(if tiny { 24 } else { 192 })
                .steps(if tiny { 6 } else { 20 })
                .rebalance_every(if tiny { 3 } else { 5 })
                .rebalance_threshold(0.0)
                .build(),
        };
        built.expect("workload config is valid")
    }

    /// Build the driver's world without stepping it: the part of a
    /// run that `setup_s` measures.
    pub fn setup_only(self, run: &RunConfig) {
        match self {
            Workload::Plume => drop(std::hint::black_box(RankEngine::new(run.sim.clone()))),
            Workload::GasboxT2 | Workload::Plume2RankLb => {
                drop(std::hint::black_box(EngineSession::new(run)))
            }
            Workload::Paper192 => drop(std::hint::black_box(ClusterSim::new(
                run,
                MachineProfile::tianhe2(),
            ))),
        }
    }

    /// One closed batch run: set up, step `run.steps` times, check
    /// the outputs.
    pub fn run_once(self, run: &RunConfig, traced: bool) -> Outcome {
        alloc::reset_peak();
        let mut out = match (self, traced) {
            (Workload::Plume, _) => serial(run, traced),
            (Workload::GasboxT2 | Workload::Plume2RankLb, false) => session(run),
            (Workload::GasboxT2 | Workload::Plume2RankLb, true) => threaded_replay(run),
            (Workload::Paper192, _) => modelled(run, traced),
        };
        out.peak_heap = alloc::peak();
        out
    }

    /// Seconds of each of at least [`MIN_SETUPS`] set-up-only
    /// constructions, repeated for about `seconds`.
    pub fn setup_samples(self, run: &RunConfig, seconds: f64) -> Vec<f64> {
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            self.setup_only(run);
            samples.push(t.elapsed().as_secs_f64());
        }
        samples
    }
}

/// Set-up-only constructions timed per batch at least.
const MIN_SETUPS: usize = 3;

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub wall_s: f64,
    pub steps: usize,
    pub population: usize,
    /// [`bench::fnv1a`] of the final H density per coarse cell
    /// followed by the final population.
    pub digest: u64,
    /// Digest of the modelled lii and step-time trajectory
    /// (`paper_192` only).
    pub trajectory: Option<u64>,
    pub peak_heap: usize,
    /// Set-up-only constructions timed in a fresh process after the
    /// run (untraced runs only).
    pub extra_setups: Vec<f64>,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// Per-layer values (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// One-line form a child process hands its parent.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("setup_s", Json::Num(self.setup_s)),
            ("wall_s", Json::Num(self.wall_s)),
            ("steps", Json::U64(self.steps as u64)),
            ("population", Json::U64(self.population as u64)),
            ("digest", Json::U64(self.digest)),
            ("trajectory", self.trajectory.map_or(Json::Null, Json::U64)),
            ("peak_heap", Json::U64(self.peak_heap as u64)),
            (
                "extra_setups",
                Json::Arr(self.extra_setups.iter().map(|&s| Json::Num(s)).collect()),
            ),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
            (
                "layers",
                obj(self
                    .layers
                    .iter()
                    .map(|&(n, v)| (n, Json::Num(v)))
                    .collect()),
            ),
        ])
    }

    /// Inverse of [`Outcome::to_json`]; layer names are resolved
    /// against `names`.
    pub fn from_json(j: &Json, names: &[&'static str]) -> Option<Outcome> {
        let num = |k| j.get(k)?.as_f64();
        let int = |k| j.get(k)?.as_u64();
        let mut layers = Vec::new();
        if let Some(Json::Obj(members)) = j.get("layers") {
            for (k, v) in members {
                layers.push((*names.iter().find(|n| *n == k)?, v.as_f64()?));
            }
        }
        Some(Outcome {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            steps: int("steps")? as usize,
            population: int("population")? as usize,
            digest: int("digest")?,
            trajectory: int("trajectory"),
            peak_heap: int("peak_heap")? as usize,
            extra_setups: j
                .get("extra_setups")?
                .as_array()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<_>>()?,
            problems: j
                .get("problems")?
                .as_array()?
                .iter()
                .map(|p| p.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            layers,
        })
    }
}

pub fn digest(density_h: &[f64], population: usize) -> u64 {
    let mut v = density_h.to_vec();
    v.push(population as f64);
    bench::fnv1a(&v)
}

fn density_of(eng: &RankEngine) -> Vec<f64> {
    let (neutral, _) = eng.counts_per_cell();
    let counts: Vec<f64> = neutral.iter().map(|&c| c as f64).collect();
    coupled::diag::number_density(
        &counts,
        &eng.nm.coarse.volumes,
        eng.species.get(eng.h_id).weight,
    )
}

fn check_share(trace: &StepTrace, step: usize, problems: &mut Vec<String>) {
    let sum: f64 = trace.share.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        problems.push(format!("step {step}: rank shares sum to {sum}, not 1"));
    }
}

/// Every CG solve of a step must converge before the cap the engine
/// builds its solver with: the solver reports the cap itself as the
/// iteration count of a solve that did not converge.
pub fn check_cg(iters: &[usize], step: usize, problems: &mut Vec<String>) {
    let cap = probes::ENGINE_CG.max_iters;
    if let Some(&it) = iters.iter().find(|&&it| it >= cap) {
        problems.push(format!("step {step}: CG took {it} iterations (cap {cap})"));
    }
}

/// Per-step record of the traced run, taken on rank 0.
#[derive(Debug, Default)]
struct StepLog {
    walls: Vec<f64>,
    rebalanced: Vec<bool>,
    lii: Vec<f64>,
    phases: Breakdown,
    transactions: u64,
    bytes: u64,
    /// Allocations over the steady steps (the second half): all of
    /// each step, and inside its particle exchanges only.
    steady_alloc: Tally,
    steady_exchange_alloc: Tally,
    steady_steps: usize,
}

impl StepLog {
    fn record(
        &mut self,
        steps: usize,
        wall: f64,
        alloc: [Tally; 2],
        out: (&StepTrace, &Breakdown),
    ) {
        let (trace, bd) = out;
        if self.walls.len() >= steps / 2 {
            self.steady_alloc += alloc[0];
            self.steady_exchange_alloc += alloc[1];
            self.steady_steps += 1;
        }
        self.walls.push(wall);
        self.rebalanced.push(trace.rebalanced);
        self.lii.push(trace.lii);
        self.phases += *bd;
        self.transactions += trace.transactions;
        self.bytes += trace.bytes;
    }
}

/// A [`Backend`] that forwards every call and counts the allocations
/// made inside the particle exchanges, to check DESIGN.md §9's claim
/// that the steady-state exchange allocates nothing. The counters
/// are process-wide, so on the threaded driver they include what
/// other ranks allocate meanwhile.
struct ExchangeTap<B> {
    inner: B,
    alloc: Tally,
}

impl<B> ExchangeTap<B> {
    fn new(inner: B) -> Self {
        ExchangeTap {
            inner,
            alloc: Tally::default(),
        }
    }

    fn take(&mut self) -> Tally {
        std::mem::take(&mut self.alloc)
    }
}

impl<B: Backend> Backend for ExchangeTap<B> {
    fn track(&self) -> bool {
        self.inner.track()
    }
    fn begin_step(&mut self, eng: &RankEngine) {
        self.inner.begin_step(eng)
    }
    fn lap(
        &mut self,
        p: Phase,
        sub: usize,
        eng: &RankEngine,
        rec: &StepRecord,
        bd: &mut Breakdown,
    ) {
        self.inner.lap(p, sub, eng, rec, bd)
    }
    fn exchange(&mut self, eng: &mut RankEngine, phase: Phase, sub: usize) {
        let before = alloc::tally();
        self.inner.exchange(eng, phase, sub);
        self.alloc += alloc::tally() - before;
    }
    fn take_exchange_info(&mut self) -> Option<ExchangeInfo> {
        self.inner.take_exchange_info()
    }
    fn step_comm(&mut self) -> StepComm {
        self.inner.step_comm()
    }
    fn reduce_charge(&mut self, eng: &RankEngine, node_charge: Vec<f64>) -> Vec<f64> {
        self.inner.reduce_charge(eng, node_charge)
    }
    fn reindex_base(&mut self, eng: &RankEngine) -> u64 {
        self.inner.reindex_base(eng)
    }
    fn rebalance(&mut self, eng: &mut RankEngine, bd: &Breakdown, rec: &StepRecord) -> StepOutcome {
        self.inner.rebalance(eng, bd, rec)
    }
    fn end_step(&mut self, eng: &RankEngine, bd: &mut Breakdown) {
        self.inner.end_step(eng, bd)
    }
    fn share(&self, eng: &RankEngine) -> Vec<f64> {
        self.inner.share(eng)
    }
    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    log: &'a StepLog,
    probes: &'a Probes,
    setup_s: f64,
    wall_s: f64,
    rebalances: usize,
    migrated: u64,
    /// Σ busy seconds over rank 0's pool lanes, and the lane count.
    pool_busy: (f64, usize),
    /// The modelled driver attributes phase time from its cost model,
    /// so closure is checked on the measured step calls instead.
    phases_modelled: bool,
}

fn layers(i: LayerInputs<'_>) -> Vec<(&'static str, f64)> {
    let log = i.log;
    let steps = log.walls.len().max(1) as f64;
    let per_step = |p: Phase| log.phases[p] / steps;
    let covered = if i.phases_modelled {
        log.walls.iter().sum::<f64>()
    } else {
        log.phases.total()
    };
    let stepping = (i.wall_s - i.setup_s).max(f64::MIN_POSITIVE);
    let reb: Vec<f64> = log
        .walls
        .iter()
        .zip(&log.rebalanced)
        .filter(|&(_, &r)| r)
        .map(|(&w, _)| w)
        .collect();
    let steady = log.steady_steps.max(1) as f64;
    let p = i.probes;
    vec![
        ("phase.inject_s", per_step(Phase::Inject)),
        ("phase.dsmc_move_s", per_step(Phase::DsmcMove)),
        ("phase.dsmc_exchange_s", per_step(Phase::DsmcExchange)),
        ("phase.colli_react_s", per_step(Phase::ColliReact)),
        ("phase.pic_move_s", per_step(Phase::PicMove)),
        ("phase.pic_exchange_s", per_step(Phase::PicExchange)),
        ("phase.poisson_solve_s", per_step(Phase::PoissonSolve)),
        ("phase.reindex_s", per_step(Phase::Reindex)),
        ("phase.rebalance_s", per_step(Phase::Rebalance)),
        (
            "coupled.unattributed_frac",
            (i.wall_s - i.setup_s - covered) / i.wall_s,
        ),
        ("dsmc.move_ns_per_particle_step", p.dsmc_move_ns),
        ("dsmc.collide_ns_per_particle_step", p.dsmc_collide_ns),
        ("dsmc.collision_accept_ratio", p.accept_ratio),
        ("pic.move_ns_per_particle_step", p.pic_move_ns),
        ("pic.deposit_s", p.deposit_s),
        ("sparse.cg_iters_per_solve", p.cg_iters),
        ("sparse.cg_solve_s", p.cg_solve_s),
        ("sparse.cg_s_per_iter", p.cg_solve_s / p.cg_iters.max(1.0)),
        (
            "kernels.pool_busy_frac",
            i.pool_busy.0 / (i.pool_busy.1.max(1) as f64 * stepping),
        ),
        (
            "vmpi.transactions_per_step",
            log.transactions as f64 / steps,
        ),
        ("vmpi.bytes_per_step", log.bytes as f64 / steps),
        (
            "vmpi.exchange_s",
            (log.phases[Phase::DsmcExchange] + log.phases[Phase::PicExchange]) / steps,
        ),
        ("balance.rebalances", i.rebalances as f64),
        ("balance.migrated_particles", i.migrated as f64),
        ("balance.lii_mean", log.lii.iter().sum::<f64>() / steps),
        ("partition.kway_s", p.kway_s),
        ("balance.remap_km_s", p.remap_km_s),
        ("partition.initial_kway_s", p.initial_kway_s),
        ("mesh.build_s", p.mesh_build_s),
        (
            "alloc.count_per_step",
            log.steady_alloc.count as f64 / steady,
        ),
        (
            "alloc.bytes_per_step",
            log.steady_alloc.bytes as f64 / steady,
        ),
        (
            "alloc.exchange_count_per_step",
            log.steady_exchange_alloc.count as f64 / steady,
        ),
        (
            "rebalance_step_s",
            reb.iter().fold(0.0, |a, b| a + b) / reb.len().max(1) as f64,
        ),
    ]
}

/// `plume`: the serial driver, stepped by the benchmark through
/// [`StepPipeline::run_step`].
fn serial(run: &RunConfig, traced: bool) -> Outcome {
    let t0 = Instant::now();
    let mut eng = RankEngine::new(run.sim.clone());
    let setup_s = t0.elapsed().as_secs_f64();
    let pipeline = StepPipeline {
        sort_every: run.sort_every,
    };
    let mut be = ExchangeTap::new(SerialBackend::new());
    let registry = Registry::new();
    let mut recorder = Recorder::new(Some(&registry), Box::new(MemorySink::new()));
    let mut null = NullObserver;
    let mut observer: &mut dyn Observer = if traced { &mut recorder } else { &mut null };
    let mut problems = Vec::new();
    let mut log = StepLog::default();
    for step in 0..run.steps {
        let (ts, a0) = (Instant::now(), alloc::tally());
        let (rec, trace, bd) = pipeline.run_step(&mut eng, &mut be, &mut observer, step);
        let allocs = [alloc::tally() - a0, be.take()];
        log.record(run.steps, ts.elapsed().as_secs_f64(), allocs, (&trace, &bd));
        check_cg(&rec.poisson_iters, step, &mut problems);
        check_share(&trace, step, &mut problems);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let population = eng.particles.len();
    let mut out = Outcome {
        setup_s,
        wall_s,
        steps: run.steps,
        population,
        digest: digest(&density_of(&eng), population),
        problems,
        ..Outcome::default()
    };
    if traced {
        let probes = probes::run(&eng, 1, None, &mut out.problems);
        let stats = be.stats();
        out.layers = layers(LayerInputs {
            log: &log,
            probes: &probes,
            setup_s,
            wall_s,
            rebalances: stats.rebalances,
            migrated: stats.rebalance_migrated,
            pool_busy: (eng.pool.busy_seconds().iter().sum(), eng.pool.workers()),
            phases_modelled: false,
        });
    }
    out
}

/// `gasbox_t2`, `plume_2rank_lb` untraced: the threaded driver as a
/// user calls it.
fn session(run: &RunConfig) -> Outcome {
    let t0 = Instant::now();
    let mut session = EngineSession::new(run);
    let setup_s = t0.elapsed().as_secs_f64();
    let result = session.attempt();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut out = Outcome {
        setup_s,
        wall_s,
        steps: run.steps,
        ..Outcome::default()
    };
    match result {
        Ok(report) => {
            out.population = report.population;
            out.digest = digest(&report.density_h, report.population);
            check_traffic_sums(&report, &mut out.problems);
            for (step, trace) in report.trace.iter().enumerate() {
                check_share(trace, step, &mut out.problems);
            }
            if report.trace.len() != run.steps {
                out.problems.push(format!(
                    "{} step traces for {} steps",
                    report.trace.len(),
                    run.steps
                ));
            }
        }
        Err(e) => out.problems.push(format!("run failed: {e}")),
    }
    out
}

/// The report's traffic totals must equal the sums of its per-step
/// trace values exactly. Both come from the same per-step deltas, so
/// this guards the report's plumbing; the traced replay checks the
/// deltas themselves against the world's message counters.
pub fn check_traffic_sums(report: &RunReport, problems: &mut Vec<String>) {
    let tx: u64 = report.trace.iter().map(|t| t.transactions).sum();
    let bytes: u64 = report.trace.iter().map(|t| t.bytes).sum();
    if tx != report.transactions || bytes != report.bytes {
        problems.push(format!(
            "traffic totals {}/{} B differ from per-step sums {tx}/{bytes} B",
            report.transactions, report.bytes
        ));
    }
}

/// What each rank of the traced threaded run hands back.
#[derive(Default)]
struct RankResult {
    density_h: Vec<f64>,
    population: usize,
    log: StepLog,
    probes: Probes,
    rebalances: usize,
    migrated: u64,
    pool_busy: (f64, usize),
    problems: Vec<String>,
    /// When the run's last collective returned (before the probes).
    done: Option<Instant>,
}

/// `gasbox_t2`, `plume_2rank_lb` traced: the same world
/// [`EngineSession`] builds, stepped by the benchmark on every rank
/// thread through [`ThreadedBackend`] and [`StepPipeline::run_step`]
/// so rank 0's steps can be timed and its final state probed. Its
/// digest must equal the untraced session's.
fn threaded_replay(run: &RunConfig) -> Outcome {
    let t0 = Instant::now();
    let spec = run.sim.nozzle;
    let nm = Arc::new(NestedMesh::from_coarse(spec.generate(), move |c, n| {
        spec.classify(c, n)
    }));
    let (species, h_id, hp_id) =
        SpeciesTable::hydrogen_plasma(run.sim.weight_h, run.sim.weight_hplus);
    let species = Arc::new(species);
    let (xadj, adjncy) = nm.coarse.cell_graph();
    let unit = Graph::new(xadj.clone(), adjncy.clone(), vec![1; nm.num_coarse()]);
    let owner0 = part_graph_kway(&unit, run.ranks, KwayOptions::default());
    let setup_s = t0.elapsed().as_secs_f64();
    let registry = Registry::new();

    let ranks = vmpi::run_world(run.ranks, |comm| {
        let me = comm.rank();
        let mut res = RankResult::default();
        let mut eng = RankEngine::for_rank(
            run.sim.clone(),
            nm.clone(),
            species.clone(),
            h_id,
            hp_id,
            &owner0,
            me,
            run.threads_per_rank,
        );
        let mut be = ExchangeTap::new(ThreadedBackend::new(&comm, run, &owner0, &xadj, &adjncy));
        let pipeline = StepPipeline {
            sort_every: run.sort_every,
        };
        let mut recorder = Recorder::new(Some(&registry), Box::new(MemorySink::new()));
        let mut null = NullObserver;
        let mut observer: &mut dyn Observer = if me == 0 { &mut recorder } else { &mut null };
        for step in 0..run.steps {
            let (ts, a0) = (Instant::now(), alloc::tally());
            let (_, trace, bd) = pipeline.run_step(&mut eng, &mut be, &mut observer, step);
            let allocs = [alloc::tally() - a0, be.take()];
            res.log
                .record(run.steps, ts.elapsed().as_secs_f64(), allocs, (&trace, &bd));
            if let Some(e) = be.inner.fault() {
                res.problems
                    .push(format!("rank {me} failed at step {step}: {e}"));
                return res;
            }
            check_share(&trace, step, &mut res.problems);
        }
        // the world's message counters against the per-step traffic
        // the backend reported; the barrier sends no messages, so
        // after it every rank's stepping traffic is counted
        if let Err(e) = comm.barrier() {
            res.problems.push(format!("rank {me} barrier failed: {e}"));
            return res;
        }
        let raw = (comm.stats().transactions(), comm.stats().bytes());
        if me == 0 && raw != (res.log.transactions, res.log.bytes) {
            res.problems.push(format!(
                "world counters {}/{} B differ from per-step traffic {}/{} B",
                raw.0, raw.1, res.log.transactions, res.log.bytes
            ));
        }
        // the session's end-of-run diagnostics: global H density and
        // population
        let (neutral, _) = eng.counts_per_cell();
        let counts: Vec<f64> = neutral.iter().map(|&c| c as f64).collect();
        let diag = allreduce_sum_f64(&comm, &counts)
            .and_then(|c| Ok((c, allgather_u64(&comm, eng.particles.len() as u64)?)));
        match diag {
            Ok((counts, pops)) => {
                res.density_h = coupled::diag::number_density(
                    &counts,
                    &nm.coarse.volumes,
                    species.get(h_id).weight,
                );
                res.population = pops.iter().sum::<u64>() as usize;
            }
            Err(e) => res
                .problems
                .push(format!("rank {me} diagnostics failed: {e}")),
        }
        let stats = be.stats();
        res.rebalances = stats.rebalances;
        res.migrated = stats.rebalance_migrated;
        res.pool_busy = (eng.pool.busy_seconds().iter().sum(), eng.pool.workers());
        res.done = Some(Instant::now());
        if me == 0 {
            res.probes = probes::run(&eng, run.ranks, None, &mut res.problems);
        }
        res
    });
    let problems: Vec<String> = ranks.iter().flat_map(|r| r.problems.clone()).collect();
    let rank0 = ranks.into_iter().next().expect("at least one rank");
    let wall_s = (rank0.done.unwrap_or_else(Instant::now) - t0).as_secs_f64();
    let mut out = Outcome {
        setup_s,
        wall_s,
        steps: run.steps,
        population: rank0.population,
        digest: digest(&rank0.density_h, rank0.population),
        problems,
        ..Outcome::default()
    };
    out.layers = layers(LayerInputs {
        log: &rank0.log,
        probes: &rank0.probes,
        setup_s,
        wall_s,
        rebalances: rank0.rebalances,
        migrated: rank0.migrated,
        pool_busy: rank0.pool_busy,
        phases_modelled: false,
    });
    out
}

/// `paper_192`: the modelled cluster driver. Untraced runs call
/// [`ClusterSim::step`]; traced runs attach a metrics registry and
/// trace sink and step through [`ClusterSim::run`] one step at a
/// time.
fn modelled(run: &RunConfig, traced: bool) -> Outcome {
    let mut run = run.clone();
    let registry = Registry::new();
    if traced {
        run.obs.metrics = Some(registry.clone());
        run.obs.trace = TraceSpec::Memory(MemorySink::new());
    }
    let t0 = Instant::now();
    let mut sim = ClusterSim::new(&run, MachineProfile::tianhe2());
    let setup_s = t0.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    let mut log = StepLog::default();
    let mut trajectory = Vec::new();
    let mut last = None;
    for step in 0..run.steps {
        let (ts, a0) = (Instant::now(), alloc::tally());
        let (trace, bd) = if traced {
            let report = sim.run(1);
            let out = (report.trace[0].clone(), report.breakdown);
            last = Some(report);
            out
        } else {
            sim.step()
        };
        // the modelled backend carries no real exchange to tap
        let allocs = [alloc::tally() - a0, Tally::default()];
        log.record(run.steps, ts.elapsed().as_secs_f64(), allocs, (&trace, &bd));
        check_share(&trace, step, &mut problems);
        trajectory.extend([trace.lii, trace.step_time]);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let population = sim.state.particles.len();
    let mut out = Outcome {
        setup_s,
        wall_s,
        steps: run.steps,
        population,
        digest: digest(&density_of(&sim.state), population),
        trajectory: Some(bench::fnv1a(&trajectory)),
        problems,
        ..Outcome::default()
    };
    if let Some(report) = last {
        // cumulative backend totals against the per-step traces
        if report.transactions != log.transactions || report.bytes != log.bytes {
            out.problems.push(format!(
                "modelled traffic totals {}/{} B differ from per-step sums {}/{} B",
                report.transactions, report.bytes, log.transactions, log.bytes
            ));
        }
        // the paper's rank count, where the mesh has cells enough
        let remap_ranks = if sim.state.nm.num_coarse() >= 4 * PAPER_RANKS {
            PAPER_RANKS
        } else {
            run.ranks
        };
        let probes = probes::run(&sim.state, run.ranks, Some(remap_ranks), &mut out.problems);
        out.layers = layers(LayerInputs {
            log: &log,
            probes: &probes,
            setup_s,
            wall_s,
            rebalances: report.rebalances,
            migrated: report.rebalance_migrated,
            pool_busy: (sim.state.pool.busy_seconds().iter().sum(), 1),
            phases_modelled: true,
        });
    }
    out
}
