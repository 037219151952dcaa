//! The particle-migration strategies side by side (paper §IV-B plus
//! the sparse adaptive extension): run the same plume on thread-ranks
//! under every concrete protocol and Auto, and confirm the §IV-B.3
//! efficiency analysis with both measured traffic and the analytic
//! model.
//!
//! ```bash
//! cargo run --release --example comm_strategies
//! ```

use coupled::prelude::*;
use vmpi::{traffic, NodeMap};

fn main() {
    let ranks = 6usize;
    let steps = 25usize;
    let base = RunConfig::builder()
        .paper(Dataset::D1, 0.08)
        .ranks(ranks)
        .steps(steps)
        .rebalance(None);

    println!("measured on {ranks} rank-threads, {steps} DSMC steps:\n");
    println!("  strategy    | transactions |      bytes | population | uses CC/DC/Sparse/Hier");
    for strategy in Strategy::CONCRETE.into_iter().chain([Strategy::Auto]) {
        let run = base
            .clone()
            .strategy(strategy)
            .build()
            .expect("valid example config");
        let res = run_threaded(&run);
        let [cc, dc, sp, hier] = res.strategy_uses;
        println!(
            "  {:11} | {:>12} | {:>10} | {:>10} | {cc}/{dc}/{sp}/{hier}",
            format!("{strategy:?}"),
            res.transactions,
            res.bytes,
            res.population
        );
    }

    // The §IV-B.3 theory on synthetic migration matrices: M bytes of
    // particles moving uniformly between N ranks, and a quiet step
    // where only two pairs migrate.
    let n = 16usize;
    let dense: Vec<Vec<u64>> = (0..n)
        .map(|s| (0..n).map(|d| if s == d { 0 } else { 1024 }).collect())
        .collect();
    let mut quiet = vec![vec![0u64; n]; n];
    quiet[1][3] = 1024;
    quiet[14][2] = 512;
    for (label, m) in [
        ("uniform 1 KiB per pair", &dense),
        ("quiet, 2 pairs", &quiet),
    ] {
        println!("\nanalytic traffic, N = {n}, {label}:");
        println!("  strategy    | transactions | total bytes | busiest rank");
        for strategy in Strategy::CONCRETE {
            let t = traffic(strategy, &NodeMap::default_for(n), m);
            println!(
                "  {:11} | {:>12} | {:>11} | {:>12}",
                format!("{strategy:?}"),
                t.transactions,
                t.total_bytes,
                t.max_rank_bytes
            );
        }
    }
    println!(
        "\npaper §IV-B.3: centralized ≈ 2N transactions but ≈ 2M data (all through\n\
         the root); distributed ≈ N(N−1) transactions but each byte moves once.\n\
         Sparse pays 2 messages per nonzero pair, so a quiet step costs O(pairs).\n\
         Neither fixed choice wins universally — see bench/fig11_cc_vs_dc for the\n\
         crossover and Strategy::Auto for the per-step decision rule."
    );
}
