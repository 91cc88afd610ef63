//! Metric names and units, and the renderings of a run: the text table, the
//! `--out` JSON report, and the benchmark contract's one-line result.

use std::fmt::Write as _;
use std::process::Command;

use crate::json::Value;
use crate::legs::Values;
use crate::pipeline::Exact;
use crate::run::{EndToEnd, PerLayer};
use crate::stats::{median, Reading};
use crate::workload::{self, Spec};

/// End-to-end metrics, measured in the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("goodput_mib_s", "MiB/s"),
    ("rx_goodput_mib_s", "MiB/s"),
    ("wire_efficiency", "ratio"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, measured in the traced run: `(name, unit)`. The layer
/// is the name up to the last dot-separated measure, e.g. `transport.mux`.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("gf.fold.mib_s", "MiB/s"),
    ("wsc.absorb.mib_s", "MiB/s"),
    ("wsc.absorb.ns_per_chunk", "ns"),
    ("wsc.absorb.runs_per_tpdu", "count"),
    ("wsc.verify.failed", "count"),
    ("core.validate_spans.ns_per_chunk", "ns"),
    ("core.validate_spans.mib_s", "MiB/s"),
    ("core.decode.ns_per_chunk", "ns"),
    ("core.pack.mib_s", "MiB/s"),
    ("core.header_share", "ratio"),
    ("core.bad_packets", "count"),
    ("vreasm.track.ns_per_offer", "ns"),
    ("vreasm.track.ns_per_chunk", "ns"),
    ("vreasm.track.dup_share", "ratio"),
    ("vreasm.track.fragments_max", "count"),
    ("netsim.path.mib_s", "MiB/s"),
    ("netsim.path.ns_per_frame", "ns"),
    ("netsim.frames_in", "count"),
    ("netsim.frames_out", "count"),
    ("netsim.loss_share", "ratio"),
    ("netsim.refrag_ratio", "ratio"),
    ("transport.sender.mib_s", "MiB/s"),
    ("transport.sender.ns_per_chunk", "ns"),
    ("transport.sender.retransmit_share", "ratio"),
    ("transport.sender.repair_rounds", "count"),
    ("transport.receiver.mib_s", "MiB/s"),
    ("transport.receiver.ns_per_chunk", "ns"),
    ("transport.receiver.batch_p50_us", "us"),
    ("transport.receiver.batch_p99_us", "us"),
    ("transport.receiver.allocs_per_chunk", "count"),
    ("transport.receiver.glue_ns_per_chunk", "ns"),
    ("transport.receiver.dup_share", "ratio"),
    ("transport.receiver.touches_per_byte", "ratio"),
    ("transport.receiver.tpdus_failed", "count"),
    ("transport.table.lookup_ns", "ns"),
    ("transport.table.admit_ns_per_conn", "ns"),
    ("transport.table.bytes_per_conn", "B"),
    ("transport.mux.mib_s", "MiB/s"),
    ("transport.mux.ns_per_chunk", "ns"),
    ("transport.mux.demux_ns_per_chunk", "ns"),
    ("transport.parallel.mib_s", "MiB/s"),
    ("transport.parallel.dispatch_ns_per_chunk", "ns"),
    ("transport.parallel.drain_wait_ms", "ms"),
    ("transport.parallel.worker_busy_max_ms", "ms"),
    ("transport.parallel.merge_ms", "ms"),
    ("transport.parallel.speedup_vs_mux", "ratio"),
    ("transport.parallel.workers", "count"),
    ("obs.always_on_overhead_pct", "%"),
    ("harness.self_share", "ratio"),
    ("trace_overhead_pct", "%"),
];

/// The sentence every output carries: what kind of link the traffic saw.
pub const LINK_NOTE: &str = "traffic crossed the in-process simulator (chunks-netsim), not a real link or the loopback interface; one process, no sockets";

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// One workload's results: either or both runs.
pub struct WorkloadReport {
    /// The workload.
    pub spec: Spec,
    /// The untraced run.
    pub end_to_end: Option<EndToEnd>,
    /// The traced run.
    pub per_layer: Option<PerLayer>,
}

impl WorkloadReport {
    fn exact(&self) -> Option<&Exact> {
        self.end_to_end
            .as_ref()
            .map(|e| &e.exact)
            .or(self.per_layer.as_ref().map(|p| &p.exact))
    }
}

/// Where and on what the numbers were taken.
pub struct Provenance {
    /// `--seed`.
    pub seed: u64,
    /// Hardware threads available.
    pub nproc: usize,
    /// Worker threads of the parallel front-end.
    pub workers: usize,
    /// GF(2^32) backend in use (results across backends do not compare).
    pub gf_backend: &'static str,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git describe --always --dirty`, or `unknown` outside a repository.
    pub git: String,
    /// Whether the tree had uncommitted changes.
    pub dirty: bool,
    /// Whether sizes were shrunk by `--smoke`.
    pub smoke: bool,
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines()
        .next()
        .map(|l| l.trim().to_owned())
        .filter(|l| !l.is_empty())
}

impl Provenance {
    /// Gathers provenance; external tools that are missing read `unknown`.
    pub fn gather(seed: u64, smoke: bool) -> Provenance {
        let git = first_line_of("git", &["describe", "--always", "--dirty"])
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            seed,
            nproc: workload::nproc(),
            workers: workload::workers(),
            gf_backend: chunks_gf::Backend::active().name(),
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            dirty: git.ends_with("-dirty"),
            git,
            smoke,
        }
    }

    fn json(&self) -> Value {
        Value::obj([
            ("seed", Value::Num(self.seed as f64)),
            ("nproc", Value::Num(self.nproc as f64)),
            ("workers", Value::Num(self.workers as f64)),
            ("gf_backend", Value::Str(self.gf_backend.into())),
            ("rustc", Value::Str(self.rustc.clone())),
            ("git_describe", Value::Str(self.git.clone())),
            ("dirty", Value::Bool(self.dirty)),
            ("smoke", Value::Bool(self.smoke)),
            ("link", Value::Str(LINK_NOTE.into())),
        ])
    }
}

fn exact_json(x: &Exact) -> Value {
    let n = |v: u64| Value::Num(v as f64);
    Value::obj([
        ("tpdus_attempted", n(x.tpdus_attempted)),
        ("tpdus_delivered", n(x.tpdus_delivered)),
        ("verified_bytes", n(x.verified_bytes)),
        ("packets_sent", n(x.packets_sent)),
        ("wire_bytes_sent", n(x.wire_bytes_sent)),
        ("wire_bytes_retransmitted", n(x.wire_bytes_retransmitted)),
        ("repair_rounds", n(x.repair_rounds as u64)),
        ("frames_in", n(x.frames_in)),
        ("frames_out", n(x.frames_out)),
        ("frames_lost", n(x.frames_lost)),
        ("wire_bytes_arrived", n(x.wire_bytes_arrived)),
        ("chunks_arrived", n(x.chunks_arrived)),
        ("rx_data_touches", n(x.rx.data_touches)),
        ("rx_duplicate_chunks", n(x.rx.duplicate_chunks)),
        ("rx_chunks_accepted", n(x.rx.chunks_accepted)),
        ("rx_tpdus_failed", n(x.rx.tpdus_failed)),
        ("rx_bad_packets", n(x.rx.bad_packets)),
        // 64 bits do not survive a JSON number; hex keeps every one.
        ("fingerprint", Value::Str(format!("{:016x}", x.fingerprint))),
    ])
}

fn metric_json(name: &str, value: f64) -> Value {
    Value::obj([
        ("value", Value::Num(value)),
        ("unit", Value::Str(unit_of(name).into())),
    ])
}

fn reading_json(name: &str, r: &Reading) -> Value {
    let Value::Obj(mut pairs) = metric_json(name, r.value) else {
        unreachable!("metric_json builds an object");
    };
    let mut push = |key: &str, v: Value| pairs.push((key.to_owned(), v));
    push("statistic", Value::Str(r.statistic().into()));
    push("lo", Value::Num(r.lo));
    push("hi", Value::Num(r.hi));
    push("spread", Value::Num(r.spread()));
    if !r.samples.is_empty() {
        push("median", Value::Num(median(&r.samples)));
        push("n", Value::Num(r.samples.len() as f64));
        push(
            "samples",
            Value::Arr(r.samples.iter().map(|&x| Value::Num(x)).collect()),
        );
    }
    Value::Obj(pairs)
}

/// The `--out` report.
pub fn report_json(provenance: &Provenance, workloads: &[WorkloadReport]) -> Value {
    let rows = workloads
        .iter()
        .map(|w| {
            let mut pairs = vec![
                ("name".to_owned(), Value::Str(w.spec.name.into())),
                ("why".to_owned(), Value::Str(w.spec.why.into())),
                (
                    "shape".to_owned(),
                    Value::obj([
                        ("connections", Value::Num(w.spec.conns as f64)),
                        (
                            "bytes_per_connection",
                            Value::Num(w.spec.bytes_per_conn as f64),
                        ),
                        ("tpdu_elements", Value::Num(w.spec.tpdu_elements as f64)),
                        ("mtu", Value::Num(w.spec.mtu as f64)),
                        ("profile", Value::Str(w.spec.profile.name().into())),
                    ]),
                ),
            ];
            if let Some(e) = &w.end_to_end {
                pairs.push((
                    "end_to_end".into(),
                    Value::Obj(
                        e.values
                            .iter()
                            .map(|(name, r)| ((*name).to_owned(), reading_json(name, r)))
                            .collect(),
                    ),
                ));
                pairs.push(("passes".into(), Value::Num(e.passes as f64)));
                pairs.push(("timed_s".into(), Value::Num(e.timed_s)));
                pairs.push((
                    "undelivered_share".into(),
                    Value::Num(e.exact.undelivered_share()),
                ));
            }
            if let Some(p) = &w.per_layer {
                pairs.push(("per_layer".into(), Value::Obj(named(&p.values))));
                pairs.push(("traced_passes".into(), Value::Num(p.passes as f64)));
            }
            if let Some(x) = w.exact() {
                pairs.push(("exact".into(), exact_json(x)));
            }
            Value::Obj(pairs)
        })
        .collect();
    Value::obj([
        ("ledger", Value::Num(1.0)),
        ("provenance", provenance.json()),
        ("workloads", Value::Arr(rows)),
    ])
}

/// The text table `run` prints: every metric by name, with its unit.
pub fn report_text(provenance: &Provenance, workloads: &[WorkloadReport]) -> String {
    let mut out = String::new();
    let p = provenance;
    let _ = writeln!(out, "=== chunks layered throughput ledger ===");
    let _ = writeln!(
        out,
        "seed {:#x} | nproc {} | workers {} | gf backend {} | {} | git {}{}{}",
        p.seed,
        p.nproc,
        p.workers,
        p.gf_backend,
        p.rustc,
        p.git,
        if p.dirty { " (dirty tree)" } else { "" },
        if p.smoke {
            " | SMOKE SIZES: numbers mean nothing"
        } else {
            ""
        },
    );
    let _ = writeln!(out, "{LINK_NOTE}");
    for w in workloads {
        let s = &w.spec;
        let _ = writeln!(
            out,
            "\n--- {} --- {} conn x {} B, {} B TPDUs, mtu {}, profile {}",
            s.name,
            s.conns,
            s.bytes_per_conn,
            s.tpdu_elements,
            s.mtu,
            s.profile.name()
        );
        let _ = writeln!(out, "    why: {}", s.why);
        if let Some(e) = &w.end_to_end {
            let _ = writeln!(
                out,
                "  end to end (untraced; {} timed passes, {:.2} s inside pass windows)",
                e.passes, e.timed_s
            );
            for (name, r) in &e.values {
                let detail = if r.samples.is_empty() {
                    format!("  [{}]", r.statistic())
                } else {
                    format!(
                        "  [{} of {}; median {:.6}; own interval {:.6}..{:.6}, spread {:.2}%]",
                        r.statistic(),
                        r.samples.len(),
                        median(&r.samples),
                        r.lo,
                        r.hi,
                        r.spread() * 100.0
                    )
                };
                let _ = writeln!(
                    out,
                    "    {name:<44} {:>16.6} {}{detail}",
                    r.value,
                    unit_of(name)
                );
            }
            let x = &e.exact;
            let _ = writeln!(
                out,
                "    {:<44} {:>16.6} ratio  [tpdus_attempted {} tpdus_failed {}]",
                "undelivered_share",
                x.undelivered_share(),
                x.tpdus_attempted,
                x.tpdus_failed()
            );
        }
        if let Some(p) = &w.per_layer {
            let _ = writeln!(
                out,
                "  per layer (traced; {} traced pipeline passes, then isolated legs)",
                p.passes
            );
            for &(name, value) in &p.values {
                let _ = writeln!(out, "    {name:<44} {value:>16.6} {}", unit_of(name));
            }
        }
    }
    out
}

/// The benchmark contract's result object for one workload and one mode.
pub fn result_line(w: &WorkloadReport) -> String {
    let (metrics, passes) = match (&w.end_to_end, &w.per_layer) {
        (Some(e), _) => (
            e.values
                .iter()
                .map(|(name, r)| ((*name).to_owned(), metric_json(name, r.value)))
                .collect(),
            e.passes,
        ),
        (None, Some(p)) => (named(&p.values), p.passes),
        (None, None) => unreachable!("one of the two runs was made"),
    };
    let exact = w.exact().expect("a run that was made has counts");
    Value::obj([
        ("correct", Value::Bool(true)),
        (
            "attempted",
            Value::Num((exact.tpdus_attempted * passes as u64).max(1) as f64),
        ),
        (
            "failed",
            Value::Num((exact.tpdus_failed() * passes as u64) as f64),
        ),
        ("metrics", Value::Obj(metrics)),
    ])
    .compact()
}

fn named(values: &Values) -> Vec<(String, Value)> {
    values
        .iter()
        .map(|&(name, v)| (name.to_owned(), metric_json(name, v)))
        .collect()
}
