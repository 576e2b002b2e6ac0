//! Dynamic scheduling loads — the paper's §6 future work, implemented:
//! jobs from all three applications arrive over time, and we compare how
//! the three management strategies cope as the offered load rises.
//!
//! Run with `cargo run --release --example dynamic_workload`.

use porsche::cis::DispatchMode;
use proteus::dynamic::DynamicLoad;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("18 mixed jobs (alpha / twofish / echo), 4 PFUs, 1 ms quantum");
    println!("mean turnaround in cycles, lower is better\n");
    println!(
        "{:>22} {:>18} {:>18} {:>18}",
        "mean arrival gap", "circuit switching", "software dispatch", "circuit sharing"
    );
    for gap in [2_000_000u64, 500_000, 125_000, 30_000] {
        let mut row = format!("{gap:>22}");
        for (mode, sharing) in [
            (DispatchMode::HardwareOnly, false),
            (DispatchMode::SoftwareFallback, false),
            (DispatchMode::HardwareOnly, true),
        ] {
            let mut load = DynamicLoad {
                jobs: 18,
                mean_interarrival: gap,
                job_size: (512, 30),
                ..DynamicLoad::default()
            };
            load.machine.kernel.mode = mode;
            load.machine.kernel.share_circuits = sharing;
            let result = load.run()?;
            assert!(result.valid, "all jobs must compute correct results");
            row.push_str(&format!(" {:>18.0}", result.mean_turnaround));
        }
        println!("{row}");
    }
    println!();
    println!("as arrivals densify, the PFU population churns: sharing wins when");
    println!("jobs reuse configurations, software dispatch degrades gracefully,");
    println!("and plain circuit switching pays a 54 KB reconfiguration per swap.");
    Ok(())
}
