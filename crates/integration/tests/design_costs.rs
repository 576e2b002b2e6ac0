//! DESIGN.md §5 lists the cost model's defaults. This test reads that
//! table and checks each row that names a value the code defines, so
//! the document cannot drift from the fabric constants,
//! `CostModel::default()` and `RfuConfig::default()`.

use std::collections::HashMap;
use std::path::PathBuf;

use porsche::CostModel;
use proteus_fabric::{FabricDims, CONFIG_BYTES_PER_CLB};
use proteus_rfu::unit::RfuConfig;

/// `Parameter → Default` for every row of DESIGN.md §5's table.
fn section_5_rows() -> HashMap<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let text = std::fs::read_to_string(&path).expect("read DESIGN.md");
    let start = text.find("\n## 5. ").expect("DESIGN.md has a §5");
    let end = start + text[start..].find("\n## 6. ").expect("DESIGN.md has a §6");
    text[start..end]
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.strip_prefix('|')?.split('|').map(str::trim).collect();
            (cells.len() >= 2).then(|| (cells[0].to_owned(), cells[1].to_owned()))
        })
        .collect()
}

/// `n` with a comma between each group of three digits, as the table
/// writes it.
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, d) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(d);
    }
    out
}

#[test]
fn design_cost_table_matches_the_code() {
    let rows = section_5_rows();
    let row = |name: &str| rows.get(name).unwrap_or_else(|| panic!("§5 has no {name:?} row"));
    let costs = CostModel::default();
    let rfu = RfuConfig::default();
    let clbs = FabricDims::PFU.clbs();

    let bytes = CONFIG_BYTES_PER_CLB * clbs;
    let transfer = costs.full_load_cycles(bytes, 0) - costs.config_overhead;
    let full = format!(
        "{CONFIG_BYTES_PER_CLB} B × {clbs} CLBs = {} bytes → {} bus words → {} cycles + {}-cycle controller overhead",
        grouped(bytes as u64),
        grouped(bytes.div_ceil(4) as u64),
        grouped(transfer),
        costs.config_overhead,
    );
    assert_eq!(row("Full configuration"), &full);
    assert_eq!(row("PFUs"), &format!("{} × {clbs} CLBs", rfu.pfus));
    assert!(row("Dispatch TLB entries").starts_with(&format!("{} per TLB ", rfu.tlb_capacity)));
    assert_eq!(row("Context-switch kernel cost"), &format!("{} cycles", costs.context_switch));
    assert_eq!(row("Fault entry/exit cost"), &format!("{} cycles", costs.fault_entry));
    assert_eq!(row("TLB program cost"), &format!("{} cycles/entry", costs.tlb_program));
}
