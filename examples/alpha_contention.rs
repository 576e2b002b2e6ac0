//! PFU contention in action: sweep 1–8 concurrent alpha-blending
//! processes across a 4-PFU ProteanARM and watch completion time and
//! management overhead react (the heart of the paper's Figure 2).
//!
//! Run with `cargo run --release --example alpha_contention`.

use porsche::policy::PolicyKind;
use proteus::scenario::Scenario;
use proteus_apps::AppKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("alpha blending, 4 PFUs, round-robin replacement, 1 ms quantum");
    println!(
        "{:>4} {:>14} {:>8} {:>8} {:>10} {:>12}",
        "n", "makespan", "faults", "loads", "evictions", "config bytes"
    );
    for n in 1..=8 {
        let result = Scenario::new(AppKind::Alpha)
            .instances(n)
            .size(512)
            .passes(40)
            .quantum(100_000) // 1 ms at 100 MHz
            .policy(PolicyKind::RoundRobin)
            .run()?;
        assert!(result.valid, "every instance must compute the right image");
        println!(
            "{:>4} {:>14} {:>8} {:>8} {:>10} {:>12}",
            n,
            result.makespan,
            result.stats.custom_faults,
            result.stats.config_loads,
            result.stats.evictions,
            result.stats.config_bytes_moved(),
        );
    }
    println!();
    println!("note the knee after n=4: the four PFUs are full, and every extra");
    println!("instance forces 54 KB reconfigurations on the critical path.");
    Ok(())
}
