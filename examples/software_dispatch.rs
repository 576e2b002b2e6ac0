//! Software dispatch (paper §4.3 / Figure 3): when the array is full,
//! the OS can map a custom instruction to its registered *software
//! alternative* instead of swapping circuits.
//!
//! Run with `cargo run --release --example software_dispatch`.

use porsche::cis::DispatchMode;
use porsche::policy::PolicyKind;
use proteus::scenario::Scenario;
use proteus_apps::AppKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("echo (two custom instructions per sample), 4 PFUs, 1 ms quantum");
    println!(
        "{:>4} {:>16} {:>16} {:>10} {:>12}",
        "n", "swap makespan", "soft makespan", "evictions", "sw installs"
    );
    for n in 1..=8 {
        let swap = Scenario::new(AppKind::Echo)
            .instances(n)
            .size(1024)
            .passes(30)
            .quantum(100_000)
            .policy(PolicyKind::RoundRobin)
            .run()?;
        let soft = Scenario::new(AppKind::Echo)
            .instances(n)
            .size(1024)
            .passes(30)
            .quantum(100_000)
            .policy(PolicyKind::RoundRobin)
            .mode(DispatchMode::SoftwareFallback)
            .run()?;
        assert!(swap.valid && soft.valid);
        println!(
            "{:>4} {:>16} {:>16} {:>10} {:>12}",
            n, swap.makespan, soft.makespan, swap.stats.evictions, soft.stats.software_installs,
        );
    }
    println!();
    println!("below three instances the columns agree (everything fits in");
    println!("hardware); beyond that, 'soft' trades slower instructions for");
    println!("zero reconfiguration traffic — worthwhile at short quanta.");
    Ok(())
}
