//! `ledger compare A.json B.json`: the A/A and A/B tool.
//!
//! Reads the bounds and directions from `BENCHMARK.json` and two `run
//! --out` reports, and prints one row per (end-to-end metric, workload):
//!
//! * `regressed` — B's value is worse than A's by more than the bound;
//! * `improved` — better by more than the bound;
//! * `unchanged` — within the bound either way;
//! * `unresolved` — the two runs cannot be told apart at the bound: a run's
//!   own spread (the larger of the two sides; each report states it beside
//!   the value: the gap from the best sample to the one a tenth of the way
//!   down the ranking) exceeds the bound *and* the two runs' own intervals
//!   overlap. When the intervals do not overlap the verdict stands even on
//!   a noisy metric.
//!
//! plus one failed-share row per workload. Any `regressed` row makes the
//! exit code non-zero.

use std::fmt::Write as _;

use crate::error::LedgerError;
use crate::json::{parse, Value};
use crate::stats::spread;

/// A verdict on one (metric, workload) pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Within the bound.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Noise wider than the bound and the runs overlap.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric, as its report states it.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    /// The reported value.
    pub value: f64,
    /// Lower end of the run's own interval.
    pub lo: f64,
    /// Upper end of the run's own interval.
    pub hi: f64,
}

impl Side {
    /// The interval's width as a share of the value.
    fn spread(&self) -> f64 {
        spread(self.value, self.lo, self.hi)
    }
}

/// Judges B against A. `higher_is_better` and `bound` come from
/// `BENCHMARK.json`.
pub fn judge(a: Side, b: Side, higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    // Positive = B is worse, as a share of A's value.
    let worse = if a.value == 0.0 {
        0.0
    } else if higher_is_better {
        (a.value - b.value) / a.value.abs()
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let noisy = a.spread().max(b.spread()) > bound;
    let overlap = a.lo <= b.hi && b.lo <= a.hi;
    let verdict = if noisy && overlap {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse)
}

fn load(path: &str) -> Result<Value, LedgerError> {
    let file = |cause: String| LedgerError::File {
        path: path.to_owned(),
        cause,
    };
    let text = std::fs::read_to_string(path).map_err(|e| file(e.to_string()))?;
    parse(&text).map_err(file)
}

fn side(workload: &Value, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let num = |key: &str, default: f64| m.get(key).and_then(Value::as_f64).unwrap_or(default);
    Some(Side {
        value,
        lo: num("lo", value),
        hi: num("hi", value),
    })
}

fn workload<'v>(report: &'v Value, name: &str) -> Option<&'v Value> {
    report
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn failed_share(workload: &Value) -> Option<(f64, f64)> {
    let exact = workload.get("exact")?;
    let attempted = exact.get("tpdus_attempted")?.as_f64()?;
    let delivered = exact.get("tpdus_delivered")?.as_f64()?;
    Some((attempted - delivered, attempted))
}

/// Compares two reports; returns the table and the number of regressions.
pub fn compare(
    benchmark: &str,
    a_path: &str,
    b_path: &str,
) -> Result<(String, usize), LedgerError> {
    let bench = load(benchmark)?;
    let a = load(a_path)?;
    let b = load(b_path)?;
    let malformed = |what: &str| LedgerError::File {
        path: benchmark.to_owned(),
        cause: format!("no `{what}`"),
    };
    let workloads = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| malformed("workloads"))?;
    let metrics = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| malformed("end_to_end"))?;
    let mut out = String::new();
    let mut regressions = 0usize;
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound%", "spread%"
    );
    for w in workloads {
        let wname = w.get("name").and_then(Value::as_str).unwrap_or("?");
        let (Some(wa), Some(wb)) = (workload(&a, wname), workload(&b, wname)) else {
            let _ = writeln!(out, "{wname:<18} (missing from one report)");
            continue;
        };
        for m in metrics {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("?");
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (Some(ra), Some(rb)) = (side(wa, name), side(wb, name)) else {
                let _ = writeln!(out, "{wname:<18} {name:<18} (missing from one report)");
                continue;
            };
            let (verdict, worse) = judge(ra, rb, higher, bound);
            regressions += (verdict == Verdict::Regressed) as usize;
            let _ = writeln!(
                out,
                "{wname:<18} {name:<18} {:>14.6} {:>14.6} {:>+9.3} {:>7.2} {:>9.3}  {}",
                ra.value,
                rb.value,
                worse * 100.0,
                bound * 100.0,
                ra.spread().max(rb.spread()) * 100.0,
                verdict.as_str()
            );
        }
        if let (Some((fa, na)), Some((fb, nb))) = (failed_share(wa), failed_share(wb)) {
            let (sa, sb) = (fa / na.max(1.0), fb / nb.max(1.0));
            let verdict = if sb > sa {
                regressions += 1;
                Verdict::Regressed
            } else if sb < sa {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            };
            let _ = writeln!(
                out,
                "{wname:<18} {:<18} {sa:>14.6} {sb:>14.6} {:>9} {:>7} {:>9}  {}",
                "failed_share",
                "",
                "0.00",
                "",
                verdict.as_str()
            );
        }
    }
    Ok((out, regressions))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, lo: f64, hi: f64) -> Side {
        Side { value, lo, hi }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_noise() {
        use Verdict::*;
        // Tight runs: the bound decides.
        let a = side(100.0, 99.5, 100.5);
        assert_eq!(judge(a, side(99.0, 98.5, 99.5), true, 0.05).0, Unchanged);
        assert_eq!(judge(a, side(90.0, 89.5, 90.5), true, 0.05).0, Regressed);
        assert_eq!(judge(a, side(110.0, 109.5, 110.5), true, 0.05).0, Improved);
        // Lower-is-better flips the sign.
        assert_eq!(
            judge(a, side(110.0, 109.5, 110.5), false, 0.05).0,
            Regressed
        );
        // Noise wider than the bound with overlapping intervals: unresolved.
        let noisy = side(100.0, 70.0, 130.0);
        assert_eq!(
            judge(noisy, side(92.0, 65.0, 120.0), true, 0.05).0,
            Unresolved
        );
        // The same noise but disjoint intervals: the verdict stands.
        assert_eq!(
            judge(noisy, side(40.0, 30.0, 50.0), true, 0.05).0,
            Regressed
        );
        // Exact metrics (no interval) compare on the bound alone.
        assert_eq!(
            judge(side(0.9, 0.9, 0.9), side(0.89, 0.89, 0.89), true, 0.005).0,
            Regressed
        );
    }
}
