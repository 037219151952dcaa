//! Direct calls into single layers on a run's final state, timed from
//! outside. Every call works on clones, so the state itself is left
//! as the run ended.

use balance::{remap_km, weighted_load_model, WlmParams};
use coupled::RankEngine;
use dsmc::move_particles_pooled;
use mesh::NestedMesh;
use partition::{part_graph_kway, Graph, KwayOptions};
use pic::{accelerate_charged_pooled, deposit_charge_pooled, PoissonSolver};
use sparse::KrylovOptions;
use std::time::Instant;

/// The options every [`RankEngine`] builds its field solver with.
pub const ENGINE_CG: KrylovOptions = KrylovOptions {
    rtol: 1e-6,
    max_iters: 1000,
};

#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub mesh_build_s: f64,
    pub initial_kway_s: f64,
    /// One neutral move pass, per neutral.
    pub dsmc_move_ns: f64,
    /// One NTC collide pass, per neutral.
    pub dsmc_collide_ns: f64,
    /// Accepted / candidate pairs of that pass.
    pub accept_ratio: f64,
    /// One charged kick + move pass, per charged particle.
    pub pic_move_ns: f64,
    pub deposit_s: f64,
    /// Cold-start CG solve of the final deposited charge.
    pub cg_solve_s: f64,
    pub cg_iters: f64,
    /// Weighted k-way partition of the final state at the remap rank
    /// count (modelled driver only: it alone holds the global state).
    pub kway_s: f64,
    /// KM remap of that partition against a unit-weight partition at
    /// the same rank count.
    pub remap_km_s: f64,
}

fn seconds<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed().as_secs_f64(), out)
}

fn median_seconds<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut v: Vec<f64> = (0..reps).map(|_| seconds(&mut f).0).collect();
    crate::median(&mut v)
}

/// Probe the layers under `eng` (rank 0's engine on the threaded
/// driver), which runs at `ranks` ranks. With `remap_ranks`, the
/// caller holds the whole domain's state, and the balancer's
/// re-partition and KM remap are timed at that rank count.
pub fn run(
    eng: &RankEngine,
    ranks: usize,
    remap_ranks: Option<usize>,
    problems: &mut Vec<String>,
) -> Probes {
    let cfg = &eng.config;
    let (nm, species, pool) = (&eng.nm, &eng.species, &eng.pool);
    let (h_id, hp_id) = (eng.h_id, eng.hp_id);
    let mut p = Probes::default();

    let spec = cfg.nozzle;
    p.mesh_build_s = median_seconds(3, || {
        NestedMesh::from_coarse(spec.generate(), move |c, n| spec.classify(c, n))
    });
    let (xadj, adjncy) = nm.coarse.cell_graph();
    let unit = Graph::new(xadj.clone(), adjncy.clone(), vec![1; nm.num_coarse()]);
    p.initial_kway_s = median_seconds(3, || part_graph_kway(&unit, ranks, KwayOptions::default()));

    let neutrals = eng.particles.species.iter().filter(|&&s| s == h_id).count();
    let charged = eng.particles.len() - neutrals;
    let dt = cfg.dt_dsmc / cfg.k_sub_dsmc as f64;
    let mut rng = eng.rng.clone();

    let mut buf = eng.particles.clone();
    let (t, _) = seconds(|| {
        move_particles_pooled(
            &nm.coarse,
            &mut buf,
            species,
            dt,
            cfg.t_wall,
            &mut rng,
            pool,
            |s| s == h_id,
            None,
            None,
        )
    });
    p.dsmc_move_ns = t * 1e9 / neutrals.max(1) as f64;

    let mut buf = eng.particles.clone();
    let mut collisions = eng.collisions.clone();
    let mut events = Vec::new();
    let (t, stats) = seconds(|| {
        collisions.collide_pooled(
            &nm.coarse,
            &mut buf,
            species,
            h_id,
            dt,
            &mut rng,
            &mut events,
            pool,
        )
    });
    p.dsmc_collide_ns = t * 1e9 / neutrals.max(1) as f64;
    p.accept_ratio = stats.collisions as f64 / stats.candidates.max(1) as f64;

    let mut buf = eng.particles.clone();
    let dt_pic = cfg.dt_pic();
    let (t, _) = seconds(|| {
        accelerate_charged_pooled(
            nm,
            &mut buf,
            species,
            &eng.efield,
            cfg.b_field,
            dt_pic,
            pool,
        );
        move_particles_pooled(
            &nm.coarse,
            &mut buf,
            species,
            dt_pic,
            cfg.t_wall,
            &mut rng,
            pool,
            |s| s == hp_id,
            None,
            None,
        )
    });
    p.pic_move_ns = t * 1e9 / charged.max(1) as f64;

    let mut charge = vec![0.0; nm.fine.num_nodes()];
    p.deposit_s = median_seconds(3, || {
        charge.fill(0.0);
        deposit_charge_pooled(nm, &eng.particles, species, &mut charge, pool)
    });
    let mut solver = PoissonSolver::new(&nm.fine, ENGINE_CG);
    let (t, stats) = seconds(|| solver.solve_with(&charge, pool, None).1);
    if !stats.converged {
        problems.push(format!(
            "direct CG solve did not converge in {} iterations",
            stats.iterations
        ));
    }
    p.cg_solve_s = t;
    p.cg_iters = stats.iterations as f64;

    if let Some(k) = remap_ranks {
        let owner = part_graph_kway(&unit, k, KwayOptions::default());
        let (neutral, charged) = eng.counts_per_cell();
        let weights = weighted_load_model(&neutral, &charged, WlmParams::default());
        let graph = Graph::new(xadj, adjncy, weights);
        let (t, part) = seconds(|| part_graph_kway(&graph, k, KwayOptions::default()));
        p.kway_s = t;
        let load: Vec<u64> = neutral.iter().zip(&charged).map(|(n, c)| n + c).collect();
        let (t, remapped) = seconds(|| remap_km(&owner, &part, &load, k));
        p.remap_km_s = t;
        if remapped.len() != owner.len() || remapped.iter().any(|&r| r as usize >= k) {
            problems.push("KM remap returned an invalid ownership".into());
        }
    }
    p
}
