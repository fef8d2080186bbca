//! Quickstart: run every dispersion-process variant on a small graph and
//! print what the paper's Table 1 predicts for it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dispersion_bounds::constants::{kappa_cc_default, PI2_OVER_6};
use dispersion_core::process::{Process, ProcessConfig};
use dispersion_graphs::generators::complete;
use dispersion_sim::{Measure, Summary, Xoshiro256pp};

fn main() {
    let n = 256;
    let g = complete(n);
    let origin = 0;
    let cfg = ProcessConfig::simple();
    let mut rng = Xoshiro256pp::new(2024);

    println!("Dispersion processes on K_{n} from vertex {origin}\n");

    // --- one realization of each process ---
    let seq = Process::Sequential.run(&g, origin, &cfg, &mut rng).unwrap();
    println!(
        "Sequential-IDLA : dispersion {:5} steps, total {:6} steps",
        seq.dispersion_time, seq.total_steps
    );
    let par = Process::Parallel.run(&g, origin, &cfg, &mut rng).unwrap();
    println!(
        "Parallel-IDLA   : dispersion {:5} rounds, total {:6} steps",
        par.dispersion_time, par.total_steps
    );
    let unif = Process::Uniform.run(&g, origin, &cfg, &mut rng).unwrap();
    println!(
        "Uniform-IDLA    : settled after {:5} ticks ({} jumps)",
        unif.settle_tick, unif.total_steps
    );
    let ctu = Process::Ctu.run(&g, origin, &cfg, &mut rng).unwrap();
    println!("CTU-IDLA        : settled at real time {:8.1}", ctu.time);

    // --- Monte-Carlo estimates against the paper's Theorem 5.2 ---
    println!("\nMonte-Carlo means over 200 trials (Theorem 5.2 predictions):");
    let estimate = |p: Process, seed: u64| {
        let cols = Measure::Dispersion(p)
            .samples(&g, origin, &cfg, 200, 0, seed)
            .unwrap();
        Summary::from_samples(&cols[0])
    };
    let s = estimate(Process::Sequential, 7);
    println!(
        "  t_seq/n = {:.3}   (paper: κ_cc  = {:.3})",
        s.mean / n as f64,
        kappa_cc_default()
    );
    let p = estimate(Process::Parallel, 8);
    println!(
        "  t_par/n = {:.3}   (paper: π²/6 = {:.3})",
        p.mean / n as f64,
        PI2_OVER_6
    );
    println!("\nThe parallel scheduler is ≈31% slower on the clique — scheduling matters!");
}
