//! Scaling study beyond the paper's 40K ceiling: full Lloyd k-means vs
//! mini-batch k-means (the production packed kernels) on car data as the
//! result set grows to 200K rows. The paper's own optimizations (sample-and-assign) stop at
//! fixed sample quality; mini-batch keeps touching all data at bounded
//! cost. Reports time and relative inertia (1.00 = full k-means).

use dbex_cluster::{
    kmeans_packed, mini_batch_kmeans_packed, KMeansConfig, MiniBatchConfig, PackedMatrix,
};
use dbex_data::UsedCarsGenerator;
use dbex_stats::discretize::{CodedColumn, CodedMatrix};
use dbex_stats::histogram::BinningStrategy;
use std::time::Instant;

fn main() {
    println!("Scaling: full k-means vs mini-batch (k = 15, car data, 5 attrs)\n");
    println!(
        "{:>9}  {:>10}  {:>10}  {:>10}  {:>14}",
        "rows", "full(ms)", "mb(ms)", "speedup", "rel. inertia"
    );

    let table = UsedCarsGenerator::new(0xBEEF).generate(200_000);
    let schema = table.schema();
    let attrs: Vec<usize> = ["Model", "Engine", "Price", "Drivetrain", "Year"]
        .iter()
        .map(|n| schema.index_of(n).expect("attribute exists"))
        .collect();

    for &rows in &[20_000usize, 50_000, 100_000, 200_000] {
        let view = table.full_view().sample(rows);
        let matrix = CodedMatrix::encode(&view, &attrs, 6, BinningStrategy::EquiDepth);
        let coded: Vec<&CodedColumn> = matrix.columns.iter().collect();
        let positions: Vec<usize> = (0..view.len()).collect();
        let points = PackedMatrix::from_columns(&coded, &positions).expect("bench data packs");

        let t0 = Instant::now();
        let full = kmeans_packed(
            &points,
            &KMeansConfig {
                k: 15,
                ..Default::default()
            },
        )
        .expect("k-means on bench data");
        let full_ms = t0.elapsed().as_secs_f64() * 1_000.0;

        let t1 = Instant::now();
        let mb = mini_batch_kmeans_packed(
            &points,
            &MiniBatchConfig {
                k: 15,
                batch_size: 512,
                batches: 120,
                seed: 7,
            },
        )
        .expect("mini-batch k-means on bench data");
        let mb_ms = t1.elapsed().as_secs_f64() * 1_000.0;

        println!(
            "{:>9}  {:>10.1}  {:>10.1}  {:>9.1}x  {:>14.3}",
            rows,
            full_ms,
            mb_ms,
            full_ms / mb_ms.max(1e-9),
            mb.inertia / full.inertia.max(1e-9)
        );
    }
    println!(
        "\nReading: mini-batch training cost is flat (fixed batches; only the final\n\
         assignment pass is linear), so its advantage grows with data size while\n\
         inertia stays at parity; against the packed Lloyd kernel it only wins\n\
         well past the paper's 40K rows."
    );
}
