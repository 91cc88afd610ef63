//! Every committed `BENCH_*.json` summary must parse and open with a
//! complete `meta` block: the bench name, the exact regenerate command, and
//! the source revision it was generated from. The `bench-check` gate (and
//! any human reading the file a year later) depends on those three fields.

use chunks::experiments::bench_check::GATED_FILES;
use chunks::experiments::benchjson::{parse, Value};

const BENCH_FILES: [&str; 4] = [
    "BENCH_lineage.json",
    "BENCH_soak.json",
    "BENCH_overlap.json",
    "BENCH_scale.json",
];

fn load(file: &str) -> Value {
    let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), file);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    parse(&src).unwrap_or_else(|e| panic!("{file}: {e}"))
}

#[test]
fn bench_inventory_matches_the_tree_and_covers_the_gate() {
    // A retired or new snapshot must not sit at the repo root outside the
    // schema checks, and `bench-check` must not gate a file they skip.
    let mut on_disk: Vec<String> = std::fs::read_dir(env!("CARGO_MANIFEST_DIR"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    on_disk.sort();
    let mut listed = BENCH_FILES.to_vec();
    listed.sort();
    assert_eq!(
        on_disk, listed,
        "BENCH_*.json at the repo root vs BENCH_FILES"
    );
    for file in GATED_FILES {
        assert!(
            BENCH_FILES.contains(&file),
            "bench-check gates {file}, which BENCH_FILES does not list"
        );
    }
}

#[test]
fn every_bench_file_has_a_complete_meta_block() {
    for file in BENCH_FILES {
        let v = load(file);
        let meta = v
            .get("meta")
            .unwrap_or_else(|| panic!("{file}: no `meta` object"));
        for key in ["bench", "regenerate", "describe"] {
            let s = meta
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{file}: meta.{key} missing or not a string"));
            assert!(!s.is_empty(), "{file}: meta.{key} is empty");
        }
        // The regenerate command must be runnable as written: it names
        // either a cargo invocation or a just recipe.
        let regen = meta.get("regenerate").and_then(Value::as_str).unwrap();
        assert!(
            regen.contains("cargo ") || regen.contains("just "),
            "{file}: meta.regenerate does not name a command: {regen}"
        );
    }
}

#[test]
fn every_bench_file_carries_nonempty_results() {
    for file in BENCH_FILES {
        let v = load(file);
        let results = v
            .get("results")
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{file}: no `results` array"));
        assert!(!results.is_empty(), "{file}: empty `results`");
        for row in results {
            assert!(
                row.as_obj().is_some(),
                "{file}: results rows must be objects"
            );
        }
    }
}

#[test]
fn overlap_rows_pin_the_full_cell_coordinates_and_the_two_proofs() {
    // Every row of the adversarial sweep must say exactly which cell it is
    // (policy × attack × budget) and carry the two per-cell proofs: the
    // serial/parallel equivalence bit and the corrupted-delivery count
    // (which the committed file must show as zero — WSC-2 is the integrity
    // authority under every overlap policy).
    let v = load("BENCH_overlap.json");
    let results = v.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), 18, "3 policies × 3 attacks × 2 budgets");
    for row in results {
        let coord = |key: &str, allowed: &[&str]| {
            let s = row
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("overlap row: no `{key}` string"));
            assert!(allowed.contains(&s), "overlap row: unknown {key} {s:?}");
        };
        coord("policy", &["reject", "first-wins", "last-wins"]);
        coord(
            "attack",
            &[
                "shifted-duplicate",
                "conflicting-rewrite",
                "tiny-fragment-flood",
            ],
        );
        coord("budget", &["unlimited", "capped"]);
        assert_eq!(
            row.get("parallel_identical"),
            Some(&Value::Bool(true)),
            "committed overlap row must be serial/parallel byte-identical"
        );
        assert_eq!(
            row.get("corrupted_deliveries").and_then(Value::as_f64),
            Some(0.0),
            "committed overlap row must never deliver corrupted bytes"
        );
    }
}

#[test]
fn scale_rows_pin_all_six_cells_and_the_accounting_columns() {
    // The scale snapshot must carry every cell of the sweep, and every row
    // must say how many connections it held, what it delivered, and how the
    // table accounted for admissions, pool reuse, evictions and memory —
    // the accounting columns are what the file exists to witness. Rates are
    // host wall-clock, so only shapes are pinned; the million-connection
    // and zero-allocation bars are enforced by the experiment's own
    // passes() when the file is regenerated.
    let v = load("BENCH_scale.json");
    for key in ["seed", "target_conns"] {
        v.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("scale: no numeric `{key}`"));
    }
    assert_eq!(
        v.get("deterministic"),
        Some(&Value::Bool(true)),
        "committed scale snapshot must replay byte-identically"
    );
    let results = v.get("results").and_then(Value::as_arr).unwrap();
    let mut cells: Vec<&str> = Vec::new();
    for row in results {
        let cell = row
            .get("cell")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("scale row without a `cell` string"));
        cells.push(cell);
        for key in [
            "conns",
            "packets",
            "chunks",
            "wire_bytes",
            "conns_per_s",
            "mib_s",
            "delivered_bytes",
            "admissions",
            "pooled",
            "evictions",
            "refusals",
            "peak_live",
            "max_probe",
            "mem_per_conn",
            "steady_allocs",
            "p99_verify_ns",
        ] {
            row.get(key)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{cell}: no numeric `{key}`"));
        }
        for key in ["digests_match", "deterministic", "ok"] {
            assert_eq!(
                row.get(key),
                Some(&Value::Bool(true)),
                "{cell}: committed scale row must have {key} = true"
            );
        }
    }
    for want in [
        "capacity-lru",
        "churn-equiv",
        "budget-bound",
        "zipf-faults",
        "million-serial",
        "million-parallel",
    ] {
        assert!(cells.contains(&want), "missing scale cell {want:?}");
    }
}

#[test]
fn lineage_rows_expose_budget_and_quantiles_for_every_delay_metric() {
    let v = load("BENCH_lineage.json");
    let results = v.get("results").and_then(Value::as_arr).unwrap();
    for row in results {
        let profile = row.get("profile").and_then(Value::as_str).unwrap();
        for section in ["budget", "quantiles"] {
            let obj = row
                .get(section)
                .and_then(Value::as_obj)
                .unwrap_or_else(|| panic!("{profile}: no `{section}` object"));
            let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                chunks::experiments::lineage::DELAY_METRICS.to_vec(),
                "{profile}: {section} must cover every delay metric in lifecycle order"
            );
        }
        assert_eq!(
            row.get("deterministic"),
            Some(&Value::Bool(true)),
            "{profile}: committed lineage row must be deterministic"
        );
    }
}
