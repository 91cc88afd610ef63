//! The bench regression gate: committed `BENCH_*.json` summaries must
//! match what the code regenerates.
//!
//! Two classes of file, two checks:
//!
//! * **Exact** (`BENCH_lineage.json`, `BENCH_soak.json`,
//!   `BENCH_overlap.json`) — every value rides the virtual clock, so the
//!   check regenerates the file with the
//!   committed `meta.describe` and diffs byte for byte. Tolerance is zero:
//!   any drift means either the code's behaviour changed (commit the
//!   regenerated file deliberately) or determinism broke (fix it).
//! * **Structural** (`BENCH_parallel.json`, `BENCH_scale.json`,
//!   `BENCH_wsc.json`) — the numbers are host wall-clock, so the gate only
//!   validates shape: the file parses, opens with a complete `meta` block,
//!   and carries a non-empty `results` array.
//!
//! `just bench-check` runs this inside `just lint`, so a PR that changes
//! observable behaviour without regenerating the summaries fails CI.

use std::fmt;

use super::benchjson::{parse, Value};
use super::{lineage, overlap, soak, SEED, SEED2};

/// How one file fared.
#[derive(Clone, PartialEq, Debug)]
pub enum Status {
    /// The file matched (exactly, or structurally for wall-clock files).
    Ok,
    /// The file is missing or unreadable.
    Unreadable(String),
    /// The file did not parse as JSON.
    Malformed(String),
    /// The `meta` block is missing or incomplete.
    BadMeta(String),
    /// An exact file drifted from its regeneration.
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
    /// Exact regeneration diff, or structural validation only.
    pub exact: bool,
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
            let mode = if c.exact { "exact" } else { "structural" };
            match &c.status {
                Status::Ok => writeln!(f, "  {:<22} {:<10} ok", c.file, mode)?,
                Status::Unreadable(e) => {
                    writeln!(f, "  {:<22} {:<10} UNREADABLE: {e}", c.file, mode)?
                }
                Status::Malformed(e) => {
                    writeln!(f, "  {:<22} {:<10} MALFORMED: {e}", c.file, mode)?
                }
                Status::BadMeta(e) => writeln!(f, "  {:<22} {:<10} BAD META: {e}", c.file, mode)?,
                Status::Drift {
                    line,
                    committed,
                    regenerated,
                } => {
                    writeln!(f, "  {:<22} {:<10} DRIFT at line {line}:", c.file, mode)?;
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

fn check_file(file: &'static str, exact: bool, regen: impl FnOnce(&str) -> String) -> FileCheck {
    let status = (|| {
        let committed =
            std::fs::read_to_string(file).map_err(|e| Status::Unreadable(e.to_string()))?;
        let parsed = parse(&committed).map_err(Status::Malformed)?;
        let describe = check_meta(&parsed).map_err(Status::BadMeta)?;
        if exact {
            let regenerated = regen(&describe);
            if let Some((line, c, r)) = first_diff(&committed, &regenerated) {
                return Err(Status::Drift {
                    line,
                    committed: c,
                    regenerated: r,
                });
            }
        } else if parsed
            .get("results")
            .and_then(Value::as_arr)
            .map(<[Value]>::is_empty)
            .unwrap_or(true)
        {
            return Err(Status::BadMeta("`results` missing or empty".into()));
        }
        Ok(())
    })();
    FileCheck {
        file,
        exact,
        status: match status {
            Ok(()) => Status::Ok,
            Err(s) => s,
        },
    }
}

/// Runs the gate against the committed `BENCH_*.json` files in the current
/// directory. Exact files are regenerated with the committed
/// `meta.describe`, so a clean tree round-trips byte for byte.
pub fn run() -> BenchCheckResult {
    BenchCheckResult {
        checks: vec![
            check_file("BENCH_lineage.json", true, |describe| {
                lineage::bench_json(&lineage::run(SEED), describe)
            }),
            check_file("BENCH_soak.json", true, |describe| {
                let (r1, r2) = (soak::run(SEED), soak::run(SEED2));
                soak::bench_json(&[&r1, &r2], describe)
            }),
            check_file("BENCH_overlap.json", true, |describe| {
                overlap::bench_json(&overlap::run(SEED), describe)
            }),
            check_file("BENCH_parallel.json", false, |_| String::new()),
            check_file("BENCH_scale.json", false, |_| String::new()),
            check_file("BENCH_wsc.json", false, |_| String::new()),
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
