//! `ledger` — the layered throughput ledger for the chunk transport.
//!
//! One binary, measured from outside through the workspace's public API:
//!
//! * `ledger run [--seed N] [--out FILE] [--trace-out FILE] [--seconds S]
//!   [--workload NAME]... [--smoke]` runs the workloads — an untraced run
//!   for the end-to-end numbers, then a traced run for the per-layer
//!   numbers — prints every metric by name and unit, byte-checks every
//!   delivered buffer and exits non-zero on any mismatch.
//! * `ledger bench --workload NAME --seed N --seconds S --trace 0|1` is the
//!   form `BENCHMARK.json` names: one workload, one of the two runs, the
//!   result as one JSON object on the last line of standard output.
//! * `ledger compare A.json B.json [--benchmark BENCHMARK.json]` judges two
//!   `run --out` reports against the bounds in `BENCHMARK.json`.
//!
//! See `crates/ledger/README.md` for the method and the metric glossary.

mod alloc;
mod compare;
mod error;
mod json;
mod legs;
mod pipeline;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use error::LedgerError;
use report::{Provenance, WorkloadReport};
use run::Budget;
use workload::{Spec, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds `run` measures for when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`, so both entry points do the same work.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage:
  ledger run     [--seed N] [--out FILE] [--trace-out FILE] [--seconds S] [--workload NAME]... [--smoke]
  ledger bench   --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE] [--smoke]
  ledger compare A.json B.json [--benchmark BENCHMARK.json]";

/// Parsed flags shared by `run` and `bench`.
struct Options {
    seed: u64,
    seconds: f64,
    smoke: bool,
    workloads: Vec<String>,
    out: Option<String>,
    trace_out: Option<String>,
    trace: bool,
    corrupt_expected: bool,
    benchmark: String,
    positional: Vec<String>,
}

fn usage(message: impl Into<String>) -> LedgerError {
    LedgerError::Usage(format!("{}\n{USAGE}", message.into()))
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_options(args: &[String]) -> Result<Options, LedgerError> {
    let mut o = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        workloads: Vec::new(),
        out: None,
        trace_out: None,
        trace: false,
        corrupt_expected: false,
        benchmark: "BENCHMARK.json".into(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| usage(format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value()?;
                o.seed = parse_u64(&v).ok_or_else(|| usage(format!("bad --seed {v}")))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| usage(format!("bad --seconds {v}")))?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(usage(format!("bad --trace {v}"))),
                };
            }
            "--workload" => o.workloads.push(value()?),
            "--out" => o.out = Some(value()?),
            "--trace-out" => o.trace_out = Some(value()?),
            "--benchmark" => o.benchmark = value()?,
            "--smoke" => o.smoke = true,
            // Test-only: makes the byte check compare against a corrupted
            // expected buffer, so the run must fail.
            "--corrupt-expected" => o.corrupt_expected = true,
            flag if flag.starts_with("--") => return Err(usage(format!("unknown flag {flag}"))),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

fn selected(o: &Options) -> Result<Vec<Spec>, LedgerError> {
    let all = workload::specs(o.smoke);
    if o.workloads.is_empty() {
        return Ok(all.to_vec());
    }
    o.workloads
        .iter()
        .map(|name| {
            all.iter()
                .find(|s| s.name == name)
                .copied()
                .ok_or_else(|| usage(format!("unknown workload {name}")))
        })
        .collect()
}

fn budget(o: &Options) -> Budget {
    if o.smoke {
        Budget::smoke()
    } else {
        Budget::full(o.seconds)
    }
}

fn file_error(path: &str) -> impl Fn(std::io::Error) -> LedgerError + '_ {
    move |e| LedgerError::File {
        path: path.to_owned(),
        cause: e.to_string(),
    }
}

fn create(path: &str) -> Result<BufWriter<File>, LedgerError> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(file_error(path))
}

fn write_spans(path: &str, reports: &[WorkloadReport]) -> Result<(), LedgerError> {
    let mut file = create(path)?;
    let io = file_error(path);
    for r in reports {
        if let Some(p) = &r.per_layer {
            writeln!(file, "{{\"workload\":\"{}\"}}", r.spec.name).map_err(&io)?;
            p.spans.write_json_lines(&mut file).map_err(&io)?;
        }
    }
    file.flush().map_err(io)
}

fn measure(
    spec: Spec,
    o: &Options,
    untraced: bool,
    traced: bool,
) -> Result<WorkloadReport, LedgerError> {
    let b = budget(o);
    Ok(WorkloadReport {
        spec,
        end_to_end: untraced
            .then(|| run::run_untraced(&spec, o.seed, b, o.corrupt_expected))
            .transpose()?,
        per_layer: traced
            .then(|| run::run_traced(&spec, o.seed, b))
            .transpose()?,
    })
}

fn undelivered(reports: &[WorkloadReport]) -> Result<(), LedgerError> {
    for r in reports {
        if let Some(e) = &r.end_to_end {
            if e.exact.tpdus_failed() > 0 {
                return Err(LedgerError::Undelivered {
                    workload: r.spec.name,
                    failed: e.exact.tpdus_failed(),
                    attempted: e.exact.tpdus_attempted,
                });
            }
        }
    }
    Ok(())
}

/// Writes the `--out` report and the `--trace-out` spans, when asked for.
fn write_outputs(
    o: &Options,
    provenance: &Provenance,
    reports: &[WorkloadReport],
) -> Result<(), LedgerError> {
    if let Some(path) = &o.out {
        let mut file = create(path)?;
        file.write_all(report::report_json(provenance, reports).pretty().as_bytes())
            .and_then(|()| file.flush())
            .map_err(file_error(path))?;
    }
    if let Some(path) = &o.trace_out {
        write_spans(path, reports)?;
    }
    Ok(())
}

fn cmd_run(o: &Options) -> Result<(), LedgerError> {
    let provenance = Provenance::gather(o.seed, o.smoke);
    let mut reports = Vec::new();
    for spec in selected(o)? {
        eprintln!("ledger: {} ...", spec.name);
        reports.push(measure(spec, o, true, true)?);
    }
    print!("{}", report::report_text(&provenance, &reports));
    write_outputs(o, &provenance, &reports)?;
    undelivered(&reports)
}

fn cmd_bench(o: &Options) -> Result<(), LedgerError> {
    let [spec] = selected(o)?[..] else {
        return Err(usage("bench takes exactly one --workload"));
    };
    let report = measure(spec, o, !o.trace, o.trace)?;
    if o.out.is_some() || o.trace_out.is_some() {
        let provenance = Provenance::gather(o.seed, o.smoke);
        write_outputs(o, &provenance, std::slice::from_ref(&report))?;
    }
    eprintln!("ledger: {}", report::LINK_NOTE);
    println!("{}", report::result_line(&report));
    Ok(())
}

fn cmd_compare(o: &Options) -> Result<(), LedgerError> {
    let [a, b] = &o.positional[..] else {
        return Err(usage("compare takes two report files"));
    };
    let (table, regressions) = compare::compare(&o.benchmark, a, b)?;
    print!("{table}");
    if regressions > 0 {
        return Err(LedgerError::Regressed(regressions));
    }
    Ok(())
}

fn main() -> ExitCode {
    alloc::keep_heap_mapped();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) => parse_options(rest).and_then(|o| match command.as_str() {
            "run" => cmd_run(&o),
            "bench" => cmd_bench(&o),
            "compare" => cmd_compare(&o),
            other => Err(usage(format!("unknown command {other}"))),
        }),
        None => Err(usage("no command")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(if matches!(e, LedgerError::Usage(_)) {
                2
            } else {
                1
            })
        }
    }
}
