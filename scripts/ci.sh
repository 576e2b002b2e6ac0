#!/usr/bin/env bash
# Tier-1 CI: build, test, and verify the parallel experiment runner is
# deterministic (a --jobs 2 run must produce byte-identical CSVs to a
# --jobs 1 run).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
cargo build --release --workspace

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc =="
# Every intra-doc link must resolve to a public item: deleting or hiding
# an item cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== test =="
cargo test -q --workspace

echo "== benchmark self-test (perfbench, smoke scale) =="
# Builds the benchmark package and runs every workload at smoke scale:
# guest checksums, the conservation laws, traced = untraced runs, seed
# determinism and the output schema.
python3 perfbench/selftest.py

echo "== repro determinism (fig2, --jobs 1 vs --jobs 2) =="
serial_dir=target/ci-repro/serial
parallel_dir=target/ci-repro/parallel
rm -rf "$serial_dir" "$parallel_dir"
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 1 --out "$serial_dir" fig2 >/dev/null
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 2 --out "$parallel_dir" fig2 >/dev/null
diff "$serial_dir/fig2.csv" "$parallel_dir/fig2.csv"
diff "$serial_dir/breakdown_fig2.csv" "$parallel_dir/breakdown_fig2.csv"
# A change that shifts every row alike passes the job-count diff, so the
# quick-scale figure and its cycle breakdown are also pinned by committed
# goldens.
diff scripts/golden/fig2_quick.csv "$serial_dir/fig2.csv"
diff scripts/golden/breakdown_fig2_quick.csv "$serial_dir/breakdown_fig2.csv"
for f in "$serial_dir/summary.json" "$parallel_dir/summary.json"; do
    test -s "$f" || { echo "missing $f" >&2; exit 1; }
done
echo "CSVs byte-identical across job counts and the fig2 and breakdown goldens; summary.json emitted"

echo "== fault-campaign smoke (quick scale, --jobs 1 vs --jobs 2, golden diff) =="
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 1 --out "$serial_dir" faults >/dev/null
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 2 --out "$parallel_dir" faults >/dev/null
diff "$serial_dir/fault_campaign.csv" "$parallel_dir/fault_campaign.csv"
diff "$serial_dir/breakdown_fault_campaign.csv" "$parallel_dir/breakdown_fault_campaign.csv"
# Fault injection is seeded: the quick-scale campaign must reproduce the
# committed golden matrix bit-for-bit on every host.
diff scripts/golden/fault_campaign_quick.csv "$serial_dir/fault_campaign.csv"
diff scripts/golden/breakdown_fault_campaign_quick.csv "$serial_dir/breakdown_fault_campaign.csv"
echo "fault campaign deterministic and matches the golden matrix and breakdown"

echo "== full-scale sharing and config-split ablations (committed results diff) =="
# At quick scale no Alpha run has more than four instances, so sharing
# never swaps state and the A4 write-back path never runs; the committed
# full-scale CSVs pin both.
full_dir=target/ci-repro/full
rm -rf "$full_dir"
cargo run --release -p proteus-bench --bin repro -- \
    --jobs 2 --out "$full_dir" sharing config-split >/dev/null
for f in ablation_sharing.csv ablation_config_split.csv \
         breakdown_ablation_sharing.csv breakdown_ablation_config_split.csv; do
    diff "results/$f" "$full_dir/$f"
done
echo "sharing and config-split ablations match the committed results"

echo "== profiling exports (folded determinism, golden diff, Chrome trace) =="
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 1 --out "$serial_dir" --flame fig3 >/dev/null
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 2 --out "$parallel_dir" --flame fig3 >/dev/null
diff "$serial_dir/flamegraph_fig3.folded" "$parallel_dir/flamegraph_fig3.folded"
# Attribution is deterministic, so the quick-scale folded profile must
# reproduce the committed golden bit-for-bit on every host.
diff scripts/golden/flamegraph_fig3_quick.folded "$serial_dir/flamegraph_fig3.folded"
cargo run --release -p proteus-bench --bin repro -- \
    --quick --out "$serial_dir" --chrome-trace alpha >/dev/null
test -s "$serial_dir/chrome_trace_alpha.json" \
    || { echo "missing chrome_trace_alpha.json" >&2; exit 1; }
grep -q '"traceEvents"' "$serial_dir/chrome_trace_alpha.json"
# The Chrome export is deterministic too: pin the whole quick-scale
# alpha document (tracks, slice names and args, residency windows).
diff scripts/golden/chrome_trace_alpha_quick.json "$serial_dir/chrome_trace_alpha.json"
echo "folded profile byte-identical across job counts and matches the golden; Chrome trace matches the golden"

echo "== ci.sh OK =="
