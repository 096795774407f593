//! Persistence round-trip through the library API: build a D(k)-index over
//! generated auction data, save graph + index as one DKSN snapshot (the
//! format `dkindex build` writes), reload it in a "fresh process", and
//! serve the workload from the reloaded index, checking every answer
//! against direct evaluation on the data graph — the workflow the `dkindex`
//! CLI wraps.
//!
//! Run with: `cargo run --release --example persist_and_reload`

use dkindex::core::{evaluate_on_data, read_snapshot, snapshot_bytes, DkIndex, IndexEvaluator};
use dkindex::datagen::{xmark_graph, XmarkConfig};
use dkindex::graph::LabeledGraph;
use dkindex::workload::{generate_test_paths, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // "Process 1": generate, mine, build, save.
    let data = xmark_graph(&XmarkConfig::scale(0.002));
    let workload = generate_test_paths(&data, &WorkloadConfig::default());
    let dk = DkIndex::build(&data, workload.mine_requirements());

    let snapshot = snapshot_bytes(&dk, &data);
    println!(
        "saved {} data nodes + {} index nodes in {} bytes ({:.1} bytes/node)",
        data.node_count(),
        dk.size(),
        snapshot.len(),
        snapshot.len() as f64 / data.node_count() as f64
    );

    // "Process 2": reload (the strict reader checks every section's CRC and
    // every index invariant against the loaded graph) and serve the
    // workload, checking each answer against the data graph itself.
    let (loaded, loaded_data) = read_snapshot(&snapshot)?;
    println!("reloaded: {}", dkindex::core::IndexStats::of(loaded.index(), &loaded_data));

    let mut evaluator = IndexEvaluator::new(loaded.index(), &loaded_data);
    let mut cost = 0u64;
    let mut validated = 0usize;
    for q in workload.queries() {
        let out = evaluator.evaluate(q);
        assert_eq!(
            out.matches,
            evaluate_on_data(&loaded_data, q).0,
            "reloaded index must answer {q} exactly"
        );
        cost += out.cost.total();
        validated += usize::from(out.validated);
    }
    println!(
        "workload: {} queries answered exactly, {cost} node visits, {validated} validated",
        workload.queries().len()
    );
    Ok(())
}
