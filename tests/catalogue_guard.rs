//! Catalogue drift guard: every metric name the workspace emits (or reads)
//! must be declared in the obs crate's [`CATALOGUE`], and every
//! `as_metrics` adapter must map its stats onto catalogued names. A new
//! instrumentation site with a typo'd or undeclared name fails here, not in
//! a dashboard a month later. The same workspace scan keeps the program
//! sources free of environment reads.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use chunks_obs::CATALOGUE;
use chunks_transport::{DispatchStats, ReliabilityStats, TableStats};

fn catalogued(name: &str) -> bool {
    CATALOGUE.iter().any(|spec| spec.name == name)
}

/// Every `.rs` file under the workspace's source and test roots.
fn workspace_sources() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    let mut stack = vec![root.join("src"), root.join("tests"), root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable source dir") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                // Build artifacts carry generated .rs files; skip them.
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Extracts every string literal passed as the first argument of a
/// `counter(…)` or `observe(…)` call in `text`, tolerating a rustfmt line
/// break between the paren and the literal. Dumb and strict on purpose:
/// any quoted first argument at such a site is taken as a metric name.
fn metric_literals(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    // The needles are split literals so this file's own scan of itself
    // does not mistake the needle array for an instrumentation site.
    for needle in [concat!("count", "er("), concat!("obs", "erve(")] {
        let mut i = 0;
        while let Some(k) = text[i..].find(needle) {
            let after = i + k + needle.len();
            let rest = &text[after..];
            let skipped = rest.len() - rest.trim_start().len();
            let at = after + skipped;
            i = after;
            if !text[at..].starts_with('"') {
                continue;
            }
            if let Some(end) = text[at + 1..].find('"') {
                out.push(text[at + 1..at + 1 + end].to_string());
                i = at + 1 + end + 1;
            }
        }
    }
    out
}

#[test]
fn every_emitted_metric_name_is_catalogued() {
    let files = workspace_sources();
    assert!(files.len() > 40, "workspace scan found too few sources");
    let mut seen = BTreeSet::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        for name in metric_literals(&text) {
            assert!(
                catalogued(&name),
                "{}: metric `{name}` is not in the CATALOGUE",
                file.display()
            );
            seen.insert(name);
        }
    }
    // The scan saw a meaningful slice of the catalogue, so the extractor
    // itself has not silently broken.
    assert!(
        seen.len() >= 40,
        "metric scan extracted suspiciously few names ({})",
        seen.len()
    );
}

#[test]
fn no_program_source_reads_the_environment() {
    // Behaviour comes from arguments and from the CPU, never from a knob
    // the process inherits: a kernel, a mode or a size picked by an
    // environment variable is a path the tests only cover under the right
    // flags. Test harnesses (`tests/`, `benches/`) may still scale
    // themselves from the environment.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let program: Vec<_> = workspace_sources()
        .into_iter()
        .filter(|file| {
            let rel = file.strip_prefix(root).expect("scanned under the root");
            rel.starts_with("src")
                || (rel.starts_with("crates") && rel.iter().nth(2) == Some("src".as_ref()))
        })
        .collect();
    assert!(program.len() > 40, "program scan found too few sources");
    for file in &program {
        let text = std::fs::read_to_string(file).expect("readable source");
        for needle in ["env::var", "var_os"] {
            assert!(
                !text.contains(needle),
                "{}: reads the environment (`{needle}`)",
                file.display()
            );
        }
    }
}

#[test]
fn as_metrics_adapters_stay_on_catalogued_names() {
    for (name, _) in ReliabilityStats::default().as_metrics() {
        assert!(catalogued(name), "ReliabilityStats maps to `{name}`");
    }
    for (name, _) in DispatchStats::default().as_metrics() {
        assert!(catalogued(name), "DispatchStats maps to `{name}`");
    }
    for (name, _) in TableStats::default().as_metrics() {
        assert!(catalogued(name), "TableStats maps to `{name}`");
    }
}

#[test]
fn catalogue_is_sorted_and_unique() {
    // Lookup is a binary search; a misordered or duplicated entry would
    // silently shadow a neighbour.
    for pair in CATALOGUE.windows(2) {
        assert!(
            pair[0].name < pair[1].name,
            "CATALOGUE out of order at `{}` >= `{}`",
            pair[0].name,
            pair[1].name
        );
    }
}
