//! Shared simulation state of the coupled DSMC/PIC solver.
//!
//! The per-rank state and the timestep itself live in
//! [`crate::engine`]: a whole-domain [`crate::engine::RankEngine`]
//! (one engine owning every cell, serial pool, full injector) is the
//! serial simulation, and its `dsmc_step` drives the one
//! [`crate::engine::StepPipeline`] with the serial backend — Inject →
//! DSMC_Move → Colli_React → `R ×` (PIC_Move → Poisson_Solve) →
//! Reindex (paper Fig. 1) — returning a [`StepRecord`] with every
//! work quantity the serial validator and the modelled cluster driver
//! need.

use dsmc::ReactStats;

/// Work quantities of one DSMC iteration, for timing attribution.
#[derive(Debug, Clone, Default)]
pub struct StepRecord {
    /// Coarse cell of every particle injected this step.
    pub injected_cells: Vec<u32>,
    /// `(old_cell, new_cell)` per neutral moved in DSMC_Move
    /// (`new_cell == dsmc::EXITED` when it left the domain).
    pub neutral_transitions: Vec<(u32, u32)>,
    /// Same, per PIC substep, for charged particles.
    pub charged_transitions: Vec<Vec<(u32, u32)>>,
    /// NTC candidates examined.
    pub collision_candidates: usize,
    /// Accepted collisions.
    pub collisions: usize,
    /// Reaction counts.
    pub reactions: ReactStats,
    /// CG iterations of each PIC substep's Poisson solve.
    pub poisson_iters: Vec<usize>,
    /// Particles removed at the boundaries this step.
    pub exited: usize,
    /// Particles absorbed by the partial pump this step (disjoint
    /// from `exited`; always 0 when `pump_prob` is unset).
    pub pumped: usize,
    /// Particle population after the step.
    pub population: usize,
}

#[cfg(test)]
mod tests {
    use crate::config::Dataset;
    use crate::engine::RankEngine;

    fn small_state() -> RankEngine {
        let mut cfg = Dataset::D1.config(0.02);
        cfg.seed = 7;
        RankEngine::new(cfg)
    }

    #[test]
    fn step_injects_and_grows_population() {
        let mut st = small_state();
        let rec = st.dsmc_step();
        assert!(!rec.injected_cells.is_empty(), "must inject particles");
        assert_eq!(rec.population, st.particles.len());
        assert!(!st.particles.is_empty());
        assert_eq!(rec.poisson_iters.len(), st.config.pic_per_dsmc);
        assert_eq!(rec.charged_transitions.len(), st.config.pic_per_dsmc);
    }

    #[test]
    fn population_reaches_quasi_steady_state() {
        let mut st = small_state();
        let mut pops = Vec::new();
        for _ in 0..60 {
            pops.push(st.dsmc_step().population);
        }
        // population grows at first then saturates (injection balanced
        // by outflow): the last-10 mean must be within 3x of the
        // mid-run mean and nonzero
        let mid: f64 = pops[25..35].iter().sum::<usize>() as f64 / 10.0;
        let end: f64 = pops[50..60].iter().sum::<usize>() as f64 / 10.0;
        assert!(end > 0.0);
        assert!(
            end < 3.0 * mid + 100.0,
            "population must not diverge: {pops:?}"
        );
    }

    #[test]
    fn particles_track_cells() {
        let mut st = small_state();
        for _ in 0..5 {
            st.dsmc_step();
        }
        for p in st.particles.iter() {
            assert!(
                st.nm.coarse.contains(p.cell as usize, p.pos, 1e-5),
                "particle/cell desync"
            );
        }
    }

    #[test]
    fn transitions_cover_all_moved_neutrals() {
        let mut st = small_state();
        st.dsmc_step();
        let rec = st.dsmc_step();
        // every neutral present at move time produces one record
        let exited_neutrals = rec
            .neutral_transitions
            .iter()
            .filter(|&&(_, n)| n == dsmc::EXITED)
            .count();
        let survived = rec.neutral_transitions.len() - exited_neutrals;
        let neutrals_now = st
            .particles
            .species
            .iter()
            .filter(|&&s| s == st.h_id)
            .count();
        // survivors can since have reacted, so allow slack of the
        // reaction counts
        let slack =
            rec.reactions.dissociations + rec.reactions.recombinations + rec.injected_cells.len();
        assert!(
            (neutrals_now as i64 - survived as i64).unsigned_abs() as usize <= slack,
            "{neutrals_now} vs {survived} (slack {slack})"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = small_state();
        let mut b = small_state();
        for _ in 0..3 {
            a.dsmc_step();
            b.dsmc_step();
        }
        assert_eq!(a.particles.len(), b.particles.len());
        for i in 0..a.particles.len() {
            assert_eq!(a.particles.pos(i), b.particles.pos(i));
        }
    }

    #[test]
    fn counts_per_cell_sum_to_population() {
        let mut st = small_state();
        for _ in 0..4 {
            st.dsmc_step();
        }
        let (n, c) = st.counts_per_cell();
        let total: u64 = n.iter().sum::<u64>() + c.iter().sum::<u64>();
        assert_eq!(total as usize, st.particles.len());
    }
}
