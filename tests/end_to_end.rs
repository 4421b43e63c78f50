//! Cross-crate integration tests: the full DBExplorer pipeline from data
//! generation through SQL to CAD View exploration.

use dbexplorer::core::{build_cad_view, CadRequest, Preference};
use dbexplorer::data::usedcars::UsedCarsGenerator;
use dbexplorer::query::{QueryOutput, Session};
use dbexplorer::table::Predicate;

fn cars() -> dbexplorer::table::Table {
    UsedCarsGenerator::new(42).generate(20_000)
}

#[test]
fn paper_example_1_pipeline() {
    // Mary's session: initial query, CAD View, highlight, reorder.
    let mut session = Session::new();
    session.register_table("UsedCars", cars());

    let out = session
        .execute(
            "SELECT * FROM UsedCars WHERE Mileage BETWEEN 10K AND 30K \
             AND Transmission = Automatic AND BodyType = SUV",
        )
        .unwrap();
    let QueryOutput::Rows { rows, .. } = out else {
        panic!("expected rows");
    };
    assert!(rows.len() > 1_000, "initial result too small: {}", rows.len());

    let out = session
        .execute(
            "CREATE CADVIEW CompareMakes AS SET pivot = Make SELECT Price \
             FROM UsedCars \
             WHERE Mileage BETWEEN 10K AND 30K AND Transmission = Automatic \
               AND BodyType = SUV AND \
               (Make = Jeep OR Make = Toyota OR Make = Honda OR Make = Ford \
                OR Make = Chevrolet) \
             LIMIT COLUMNS 5 IUNITS 3",
        )
        .unwrap();
    let QueryOutput::Cad { rendered, .. } = out else {
        panic!("expected CAD view");
    };
    assert!(rendered.contains("Chevrolet"));
    assert!(rendered.contains("IUnit 3"));

    let cad = session.cad_view("CompareMakes").unwrap();
    assert_eq!(cad.rows.len(), 5);
    assert_eq!(cad.compare_names[0], "Price"); // forced by SELECT
    assert!(cad.compare_names.len() <= 5);
    for row in &cad.rows {
        assert!(row.iunits.len() <= 3);
        assert!(!row.iunits.is_empty(), "row {} has no IUnits", row.pivot_label);
    }

    // Follow-up statements operate on the stored view.
    let out = session
        .execute(
            "HIGHLIGHT SIMILAR IUNITS IN CompareMakes WHERE SIMILARITY(Chevrolet, 1) > 2.0",
        )
        .unwrap();
    let QueryOutput::Highlights(hits) = out else {
        panic!("expected highlights");
    };
    for (_, id, sim) in &hits {
        assert!(*id >= 1 && *id <= 3);
        assert!(*sim >= 2.0 && *sim <= 5.0 + 1e-9);
    }

    let out = session
        .execute("REORDER ROWS IN CompareMakes ORDER BY SIMILARITY(Jeep) DESC")
        .unwrap();
    let QueryOutput::Reordered(order) = out else {
        panic!("expected reorder");
    };
    assert_eq!(order[0].0, "Jeep");
    assert_eq!(order.len(), 5);
    assert_eq!(
        session.cad_view("CompareMakes").unwrap().rows[0].pivot_label,
        "Jeep"
    );
}

#[test]
fn hidden_attribute_surfaces_in_cad_view() {
    // Limitation 2: Engine is non-queriable, yet the CAD View exposes it.
    let table = cars();
    let engine_idx = table.schema().index_of("Engine").unwrap();
    assert!(!table.schema().field(engine_idx).queriable);

    let result = table
        .filter(&Predicate::eq("BodyType", "SUV"))
        .unwrap();
    let cad = build_cad_view(&result, &CadRequest::new("Make")).unwrap();
    assert!(
        cad.compare_names.iter().any(|n| n == "Engine"),
        "Engine should be auto-selected: {:?}",
        cad.compare_names
    );
}

#[test]
fn table1_qualitative_structure() {
    // The regenerated Table 1 should show the paper's qualitative facts.
    let table = UsedCarsGenerator::new(42).generate(40_000);
    let result = table
        .filter(&Predicate::and(vec![
            Predicate::eq("BodyType", "SUV"),
            Predicate::between("Mileage", 10_000, 30_000),
            Predicate::eq("Transmission", "Automatic"),
        ]))
        .unwrap();
    let cad = build_cad_view(
        &result,
        &CadRequest::new("Make")
            .with_pivot_values(vec!["Chevrolet", "Ford", "Honda", "Toyota", "Jeep"])
            .with_compare(vec!["Price"])
            .with_max_compare_attrs(5)
            .with_iunits(3),
    )
    .unwrap();

    // Model is among the Compare Attributes (the paper highlights that
    // Model, not Mileage, is the best discriminator).
    assert!(cad.compare_names.iter().any(|n| n == "Model"));

    // Jeep's IUnits are overwhelmingly 4WD (paper: Jeep differs from
    // Chevrolet primarily in Price and Drivetrain).
    let drivetrain_pos = cad
        .compare_names
        .iter()
        .position(|n| n == "Drivetrain")
        .expect("Drivetrain selected");
    let jeep = cad.row("Jeep").unwrap();
    let has_4wd = jeep
        .iunits
        .iter()
        .filter(|u| u.labels[drivetrain_pos].contains(&"4WD".to_string()))
        .count();
    assert!(has_4wd >= 2, "Jeep IUnits should be mostly 4WD");

    // Chevrolet has a large-SUV V8 cluster (Suburban/Tahoe).
    let model_pos = cad.compare_names.iter().position(|n| n == "Model").unwrap();
    let chevy = cad.row("Chevrolet").unwrap();
    let big_suv = chevy.iunits.iter().any(|u| {
        u.labels[model_pos]
            .iter()
            .any(|m| m.contains("Suburban") || m.contains("Tahoe"))
    });
    assert!(big_suv, "Chevrolet should show the Suburban/Tahoe cluster");
}

#[test]
fn preference_function_reorders_iunits() {
    let table = cars();
    let result = table.filter(&Predicate::eq("BodyType", "SUV")).unwrap();
    let by_size = build_cad_view(
        &result,
        &CadRequest::new("Make")
            .with_pivot_values(vec!["Ford"])
            .with_iunits(3),
    )
    .unwrap();
    let by_price = build_cad_view(
        &result,
        &CadRequest::new("Make")
            .with_pivot_values(vec!["Ford"])
            .with_iunits(3)
            .with_preference(Preference::AttributeAsc("Price".into())),
    )
    .unwrap();
    // Price-ascending preference must produce monotone mean prices over
    // the selected IUnits.
    let price_col = table.schema().index_of("Price").unwrap();
    let mean_price = |unit: &dbexplorer::core::IUnit| {
        let sum: f64 = unit
            .members
            .iter()
            .map(|&pos| {
                table
                    .column(price_col)
                    .get_f64(result.row_ids()[pos] as usize)
                    .unwrap_or(0.0)
            })
            .sum();
        sum / unit.members.len().max(1) as f64
    };
    let prices: Vec<f64> = by_price.rows[0].iunits.iter().map(mean_price).collect();
    for w in prices.windows(2) {
        assert!(w[0] <= w[1] + 1e-9, "not price-ascending: {prices:?}");
    }
    // And it is genuinely a different ordering criterion than size.
    assert_eq!(by_size.rows[0].iunits.len(), by_price.rows[0].iunits.len());
}

#[test]
fn csv_round_trip_preserves_cad_structure() {
    let table = UsedCarsGenerator::new(7).generate(3_000);
    let csv = dbexplorer::table::csv::to_csv(&table);
    let parsed = dbexplorer::table::csv::parse_csv(&csv).unwrap();
    assert_eq!(parsed.num_rows(), table.num_rows());
    assert_eq!(parsed.num_columns(), table.num_columns());

    let request = CadRequest::new("Make").with_iunits(2).with_max_compare_attrs(4);
    let a = build_cad_view(&table.full_view(), &request).unwrap();
    let b = build_cad_view(&parsed.full_view(), &request).unwrap();
    assert_eq!(a.compare_names, b.compare_names);
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.pivot_label, rb.pivot_label);
        assert_eq!(ra.iunits.len(), rb.iunits.len());
    }
}

#[test]
fn facade_reexports_compile_and_link() {
    // Every facade module is reachable.
    let _ = dbexplorer::stats::special::chi2_sf(1.0, 1.0);
    let _ = dbexplorer::topk::ConflictGraph::new(3);
    let _ = dbexplorer::cluster::KMeansConfig::default();
    let _ = dbexplorer::study::StudyConfig::default();
    let _ = dbexplorer::facet::FacetState::default();
    let _ = dbexplorer::query::parse("SELECT * FROM t").unwrap();
}

// ---------------------------------------------------------------------------
// Budget-governed degradation (robustness layer).
// ---------------------------------------------------------------------------

#[test]
fn tiny_budget_yields_well_formed_degraded_view() {
    use dbexplorer::core::{DegradationKind, ExecBudget};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    // The manual clock makes the deadline deterministic: a zero time limit
    // is exhausted before the first pipeline stage runs, regardless of how
    // fast the machine is.
    let clock = Arc::new(AtomicU64::new(1_000));
    let mut session = Session::new();
    session.register_table("cars", UsedCarsGenerator::new(5).generate(4_000));
    session.set_budget(
        ExecBudget::unlimited()
            .with_time_limit(Duration::ZERO)
            .with_manual_clock(clock),
    );
    let out = session
        .execute("CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 3")
        .expect("exhausted budget must degrade, not fail");
    let QueryOutput::Cad { degradation, .. } = out else {
        panic!("expected CAD output");
    };
    assert!(!degradation.is_empty(), "degradation not reported in output");

    let cad = session.cad_view("v").unwrap();
    assert!(cad.is_degraded());
    assert!(
        cad.degradation
            .iter()
            .any(|d| d.kind == DegradationKind::SampledClustering),
        "time exhaustion should force the sampled rung: {:?}",
        cad.degradation
    );
    // Well-formed despite the shortcuts: every pivot value present, every
    // row populated, and the view still answers similarity queries.
    assert!(!cad.rows.is_empty());
    for row in &cad.rows {
        assert!(!row.iunits.is_empty(), "row {} has no IUnits", row.pivot_label);
        assert!(row.iunits.len() <= 3);
    }
    session
        .execute("REORDER ROWS IN v ORDER BY SIMILARITY(Ford) DESC")
        .expect("degraded view still supports REORDER");
}

#[test]
fn kmeans_iteration_cap_is_recorded() {
    use dbexplorer::core::{DegradationKind, ExecBudget};

    let mut session = Session::new();
    session.register_table("cars", UsedCarsGenerator::new(5).generate(2_000));
    session.set_budget(ExecBudget::unlimited().with_kmeans_iters(1));
    session
        .execute("CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 3")
        .expect("iteration cap must degrade, not fail");
    let cad = session.cad_view("v").unwrap();
    assert!(
        cad.degradation
            .iter()
            .any(|d| d.kind == DegradationKind::ClampedKMeansIters),
        "clamped iterations should be recorded: {:?}",
        cad.degradation
    );
}

#[test]
fn explain_cadview_surfaces_degradation() {
    use dbexplorer::core::ExecBudget;
    use std::time::Duration;

    let mut session = Session::new();
    session.register_table("cars", UsedCarsGenerator::new(5).generate(2_000));

    // Unlimited budget: EXPLAIN reports a clean build.
    let out = session
        .execute("EXPLAIN CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2")
        .unwrap();
    let QueryOutput::Text(text) = out else {
        panic!("expected text output");
    };
    assert!(text.contains("degradation: none"), "{text}");

    // Exhausted budget: EXPLAIN lists every shortcut taken.
    session.set_budget(ExecBudget::unlimited().with_time_limit(Duration::ZERO));
    let out = session
        .execute("EXPLAIN CREATE CADVIEW v AS SET pivot = Make FROM cars IUNITS 2")
        .unwrap();
    let QueryOutput::Text(text) = out else {
        panic!("expected text output");
    };
    assert!(text.contains("degradation:"), "{text}");
    assert!(text.contains("sampled"), "{text}");
}
