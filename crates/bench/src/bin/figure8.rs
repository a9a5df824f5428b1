//! Figure 8: learning an instruction-count cost model from the state
//! transition database — validation relative error versus training epoch,
//! against the naive mean-prediction baseline.

use cg_bench::scaled;
use cg_rl::ggnn;

fn main() {
    let n_bench = scaled(10, 60);
    let episodes = scaled(2, 10);
    let steps = scaled(8, 40);
    let benchmarks: Vec<String> = (0..n_bench)
        .map(|i| format!("benchmark://csmith-v0/{}", 1000 + i))
        .collect();
    eprintln!("generating state transition database over {n_bench} benchmarks…");
    let dir = std::env::temp_dir().join(format!("cg-figure8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = cg_stdb::TransitionStore::open(&dir, cg_stdb::StoreConfig::default()).unwrap();
    let total = (n_bench * episodes) as u64;
    cg_stdb::generate(&store, &benchmarks, total, steps as u64, 1).unwrap();
    let stats = store.stats();
    eprintln!(
        "database: {} steps, {} unique states",
        stats.steps, stats.observations
    );

    // Build (graph encoding, instruction count) pairs per unique state:
    // parse the stored IR back into modules, build the ProGraML graphs, and
    // encode them with the GGNN — exactly the paper's (graph, count) pairs.
    let data: Vec<(Vec<f32>, f32)> = store
        .observations()
        .iter()
        .map(|obs| {
            let m = cg_ir::parser::parse_module(&obs.ir_text).expect("stored IR parses");
            let g = cg_llvm::observation::programl(&m);
            (ggnn::encode(&g), obs.ir_instruction_count as f32)
        })
        .collect();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let split = data.len() * 8 / 10;
    let (train, val) = data.split_at(split);
    let scale = train.iter().map(|(_, t)| *t).fold(1.0f32, f32::max);
    let mut model = ggnn::CostModel::new(scale);
    let naive = ggnn::naive_mean_relative_error(train, val);
    println!(
        "Figure 8: cost-model convergence ({} train / {} val states)",
        train.len(),
        val.len()
    );
    println!("{:>8} {:>16}", "epoch", "rel. error");
    println!(
        "{:>8} {:>16.3}  <- naive mean baseline (paper: 1.393)",
        "-", naive
    );
    for epoch in 0..scaled(200, 2000) {
        model.train_epoch(train, 0.005);
        if epoch % scaled(20, 200) == 0 {
            println!("{epoch:>8} {:>16.3}", model.relative_error(val));
        }
    }
    println!(
        "{:>8} {:>16.3}  <- final (paper: 0.025)",
        "end",
        model.relative_error(val)
    );
}
