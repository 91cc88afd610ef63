//! The bench regression gate: committed `BENCH_*.json` summaries must
//! match what the code regenerates.
//!
//! Every committed snapshot ([`GATED_FILES`]) rides the virtual clock, so
//! the check regenerates it with the committed `meta.describe` and diffs
//! byte for byte. Tolerance is zero: any drift means either the code's
//! behaviour changed (commit the regenerated file deliberately) or
//! determinism broke (fix it). `BENCH_scale.json`'s allocation figures
//! need the `experiments` binary's counting allocator, so the gate runs
//! there.
//!
//! `just bench-check` runs this inside `just lint`, so a PR that changes
//! observable behaviour without regenerating the summaries fails CI.

use std::fmt;

use super::benchjson::{parse, Value};
use super::{lineage, overlap, scale, soak, SEED, SEED2};

/// The committed summaries [`run`] regenerates and diffs: every
/// `BENCH_*.json` at the repo root.
pub const GATED_FILES: [&str; 4] = [
    "BENCH_lineage.json",
    "BENCH_soak.json",
    "BENCH_overlap.json",
    "BENCH_scale.json",
];

/// How one file fared.
#[derive(Clone, PartialEq, Debug)]
pub enum Status {
    /// The file matched its regeneration byte for byte.
    Ok,
    /// The file is missing or unreadable.
    Unreadable(String),
    /// The file did not parse as JSON.
    Malformed(String),
    /// The `meta` block is missing or incomplete.
    BadMeta(String),
    /// The file drifted from its regeneration.
    Drift {
        /// First differing line (1-based).
        line: usize,
        /// That line as committed.
        committed: String,
        /// That line as regenerated.
        regenerated: String,
    },
}

/// One file's verdict.
#[derive(Clone, PartialEq, Debug)]
pub struct FileCheck {
    /// The file checked.
    pub file: &'static str,
    /// The verdict.
    pub status: Status,
}

/// The whole gate's result.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchCheckResult {
    /// One verdict per committed summary.
    pub checks: Vec<FileCheck>,
}

impl BenchCheckResult {
    /// True when every file passed.
    pub fn passes(&self) -> bool {
        self.checks.iter().all(|c| c.status == Status::Ok)
    }
}

impl fmt::Display for BenchCheckResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== bench-check — committed summaries vs regeneration ==="
        )?;
        for c in &self.checks {
            match &c.status {
                Status::Ok => writeln!(f, "  {:<22} ok", c.file)?,
                Status::Unreadable(e) => writeln!(f, "  {:<22} UNREADABLE: {e}", c.file)?,
                Status::Malformed(e) => writeln!(f, "  {:<22} MALFORMED: {e}", c.file)?,
                Status::BadMeta(e) => writeln!(f, "  {:<22} BAD META: {e}", c.file)?,
                Status::Drift {
                    line,
                    committed,
                    regenerated,
                } => {
                    writeln!(f, "  {:<22} DRIFT at line {line}:", c.file)?;
                    writeln!(f, "    committed:   {committed}")?;
                    writeln!(f, "    regenerated: {regenerated}")?;
                    writeln!(
                        f,
                        "    (intentional change? re-run the regenerate command in the file's meta block and commit the result)"
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Validates the `meta` block and returns its `describe` string.
fn check_meta(v: &Value) -> Result<String, String> {
    let meta = v.get("meta").ok_or("no `meta` object")?;
    let field = |key: &str| -> Result<String, String> {
        let s = meta
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("meta.{key} missing or not a string"))?;
        if s.is_empty() {
            return Err(format!("meta.{key} is empty"));
        }
        Ok(s.to_owned())
    };
    field("bench")?;
    field("regenerate")?;
    field("describe")
}

/// First line where the two strings differ, as
/// `(1-based line, committed line, regenerated line)`.
fn first_diff(committed: &str, regenerated: &str) -> Option<(usize, String, String)> {
    let (mut a, mut b) = (committed.lines(), regenerated.lines());
    let mut n = 0;
    loop {
        n += 1;
        match (a.next(), b.next()) {
            (None, None) => {
                return if committed == regenerated {
                    None
                } else {
                    Some((n, "<end of file>".into(), "<end of file>".into()))
                }
            }
            (la, lb) if la == lb => continue,
            (la, lb) => {
                return Some((
                    n,
                    la.unwrap_or("<end of file>").to_owned(),
                    lb.unwrap_or("<end of file>").to_owned(),
                ))
            }
        }
    }
}

fn check_file(file: &'static str, regen: impl FnOnce(&str) -> String) -> FileCheck {
    let status = (|| {
        let committed =
            std::fs::read_to_string(file).map_err(|e| Status::Unreadable(e.to_string()))?;
        let parsed = parse(&committed).map_err(Status::Malformed)?;
        let describe = check_meta(&parsed).map_err(Status::BadMeta)?;
        let regenerated = regen(&describe);
        if let Some((line, c, r)) = first_diff(&committed, &regenerated) {
            return Err(Status::Drift {
                line,
                committed: c,
                regenerated: r,
            });
        }
        Ok(())
    })();
    FileCheck {
        file,
        status: match status {
            Ok(()) => Status::Ok,
            Err(s) => s,
        },
    }
}

/// Runs the gate against the committed [`GATED_FILES`] in the current
/// directory. Each is regenerated with its committed `meta.describe`, so a
/// clean tree round-trips byte for byte.
pub fn run() -> BenchCheckResult {
    let [lineage_file, soak_file, overlap_file, scale_file] = GATED_FILES;
    BenchCheckResult {
        checks: vec![
            check_file(lineage_file, |describe| {
                lineage::bench_json(&lineage::run(SEED), describe)
            }),
            check_file(soak_file, |describe| {
                let (r1, r2) = (soak::run(SEED), soak::run(SEED2));
                soak::bench_json(&[&r1, &r2], describe)
            }),
            check_file(overlap_file, |describe| {
                overlap::bench_json(&overlap::run(SEED), describe)
            }),
            check_file(scale_file, |describe| {
                scale::bench_json(&scale::run(SEED), describe)
            }),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_diff_reports_the_first_differing_line() {
        assert_eq!(first_diff("a\nb\n", "a\nb\n"), None);
        let (line, c, r) = first_diff("a\nb\n", "a\nc\n").unwrap();
        assert_eq!((line, c.as_str(), r.as_str()), (2, "b", "c"));
        let (line, _, r) = first_diff("a\n", "a\nb\n").unwrap();
        assert_eq!((line, r.as_str()), (2, "b"));
    }

    #[test]
    fn meta_validation_requires_all_three_fields() {
        let ok =
            parse("{\"meta\": {\"bench\": \"x\", \"regenerate\": \"cmd\", \"describe\": \"v1\"}}")
                .unwrap();
        assert_eq!(check_meta(&ok).unwrap(), "v1");
        let missing = parse("{\"meta\": {\"bench\": \"x\", \"describe\": \"v1\"}}").unwrap();
        assert!(check_meta(&missing).is_err());
        let empty =
            parse("{\"meta\": {\"bench\": \"\", \"regenerate\": \"cmd\", \"describe\": \"v1\"}}")
                .unwrap();
        assert!(check_meta(&empty).is_err());
    }
}
