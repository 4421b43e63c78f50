//! Ablation: **k-means++** vs **random seeding** (DESIGN.md ablation 2).
//!
//! Clusters real pivot partitions of the used-car data (the Ford SUV
//! partition packed over the Table-1 Compare Attributes) with the
//! production k-means kernel and compares final inertia and iterations
//! across seeds.

use dbex_bench::{base_cars_table, five_make_view};
use dbex_cluster::{kmeans_packed, KMeansConfig, PackedMatrix};
use dbex_stats::discretize::{CodedColumn, CodedMatrix};
use dbex_stats::histogram::BinningStrategy;

fn main() {
    let table = base_cars_table();
    let population = five_make_view(&table).sample(20_000);
    let schema = table.schema();
    let attrs: Vec<usize> = ["Model", "Engine", "Price", "Drivetrain", "Year"]
        .iter()
        .map(|n| schema.index_of(n).expect("attribute exists"))
        .collect();
    let matrix = CodedMatrix::encode(&population, &attrs, 6, BinningStrategy::EquiDepth);
    let coded: Vec<&CodedColumn> = matrix.columns.iter().collect();

    let make_col = schema.index_of("Make").expect("Make exists");
    let pivot_column = population.table().column(make_col);
    // Positions of the first Make's partition.
    let first_code = population
        .row_ids()
        .iter()
        .find_map(|&r| pivot_column.get_code(r as usize))
        .expect("non-empty");
    let members: Vec<usize> = population
        .row_ids()
        .iter()
        .enumerate()
        .filter(|(_, &r)| pivot_column.get_code(r as usize) == Some(first_code))
        .map(|(pos, _)| pos)
        .collect();
    let points = PackedMatrix::from_columns(&coded, &members).expect("bench data packs");
    println!(
        "Ablation: k-means seeding on a real pivot partition ({} tuples, dim {})\n",
        points.rows(),
        points.dim()
    );
    println!("{:>10}  {:>14}  {:>14}  {:>6}", "seed", "++inertia", "rand-inertia", "worse");

    let mut pp_total = 0.0;
    let mut rand_total = 0.0;
    for seed in 0..10u64 {
        let pp = kmeans_packed(
            &points,
            &KMeansConfig {
                k: 9,
                seed,
                plus_plus: true,
                ..Default::default()
            },
        )
        .expect("k-means on bench data");
        let rnd = kmeans_packed(
            &points,
            &KMeansConfig {
                k: 9,
                seed,
                plus_plus: false,
                ..Default::default()
            },
        )
        .expect("k-means on bench data");
        pp_total += pp.inertia;
        rand_total += rnd.inertia;
        println!(
            "{:>10}  {:>14.1}  {:>14.1}  {:>6}",
            seed,
            pp.inertia,
            rnd.inertia,
            if rnd.inertia > pp.inertia * 1.001 { "yes" } else { "~" }
        );
    }
    println!(
        "\nmean inertia: k-means++ {:.1} vs random {:.1} ({:+.1}%)",
        pp_total / 10.0,
        rand_total / 10.0,
        100.0 * (rand_total - pp_total) / pp_total.max(1e-9)
    );
}
