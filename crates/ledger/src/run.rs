//! The two kinds of run over one workload: the untraced run that yields
//! the end-to-end numbers, and the traced run that yields the per-layer
//! numbers (traced pipeline passes, then the isolated legs).

use std::time::{Duration, Instant};

use crate::alloc;
use crate::error::LedgerError;
use crate::legs::{self, LegBudget, Values};
use crate::pipeline::{run_pass, Exact, Host, PassOut};
use crate::stats::{fastest, median, Reading, MIB};
use crate::trace::{Off, Spans};
use crate::workload::{self, Inputs, Spec};

/// How much a run measures.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Times set-up is run (the fastest is `setup_s`): once before the first
    /// pass, the rest between timed passes.
    pub setups: usize,
    /// Untimed passes before measuring.
    pub warm_ups: usize,
    /// Fewest timed passes.
    pub min_passes: usize,
    /// Seconds the timed passes run for (pass windows plus the untimed
    /// reset and byte check between them).
    pub seconds: f64,
    /// Traced pipeline passes, each paired with an untraced one.
    pub traced_passes: usize,
    /// Isolated-leg budget.
    pub leg: LegBudget,
}

impl Budget {
    /// The full method: 15 set-ups, 3 warm-up passes, at least 15 timed
    /// passes over `seconds`; 5 traced pass pairs; a twentieth of `seconds`
    /// (one second at the default) per isolated leg.
    pub fn full(seconds: f64) -> Budget {
        Budget {
            setups: 15,
            warm_ups: 3,
            min_passes: 15,
            seconds,
            traced_passes: 5,
            leg: LegBudget {
                seconds: seconds / 20.0,
                warm_up: true,
            },
        }
    }

    /// One of everything, for the smoke test.
    pub fn smoke() -> Budget {
        Budget {
            setups: 1,
            warm_ups: 0,
            min_passes: 1,
            seconds: 0.0,
            traced_passes: 1,
            leg: LegBudget {
                seconds: 0.0,
                warm_up: false,
            },
        }
    }
}

/// The untraced run's result.
#[derive(Debug)]
pub struct EndToEnd {
    /// Every end-to-end metric, by name, in `report::END_TO_END` order.
    /// `setup_s` is the fastest of its repetitions, the two goodputs the
    /// best timed pass, the rest exact for a seed.
    pub values: Vec<(&'static str, Reading)>,
    /// Timed passes.
    pub passes: usize,
    /// Seconds inside timed pass windows.
    pub timed_s: f64,
    /// The counts every pass agreed on.
    pub exact: Exact,
}

/// Set-up: message generation plus one-time front-end construction and
/// `reserve`. Returns the seconds it took.
fn set_up(spec: &Spec, seed: u64, workers: usize) -> (Inputs, Host, f64) {
    let t = Instant::now();
    let inputs = Inputs::generate(spec, seed);
    let host = Host::build(spec, &inputs.ids, workers);
    let secs = t.elapsed().as_secs_f64();
    (inputs, host, secs)
}

/// Runs one pass and holds it to the run's invariants: the counts equal the
/// first pass's, and (parallel front-end, first pass) the merged outcome
/// equals the serial demux's replay of the same trace.
struct Checked<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    seed: u64,
    first: Option<Exact>,
}

impl Checked<'_> {
    fn pass<T: crate::trace::Tracer>(
        &mut self,
        host: &mut Host,
        tr: &mut T,
        chunks_sent: Option<&mut u64>,
    ) -> Result<PassOut, LedgerError> {
        host.quiesce(&self.inputs.ids);
        let out = run_pass(self.spec, self.inputs, self.seed, host, tr, chunks_sent)?;
        match &self.first {
            None => {
                if let Some(outcome) = &out.outcome {
                    legs::check_parallel_equivalence(
                        self.spec,
                        self.inputs,
                        &out.arrivals,
                        outcome,
                    )?;
                }
                self.first = Some(out.exact.clone());
            }
            Some(first) if *first != out.exact => {
                return Err(LedgerError::ExactDiverged {
                    workload: self.spec.name,
                    detail: format!("{first:?} vs {:?}", out.exact),
                });
            }
            Some(_) => {}
        }
        Ok(out)
    }
}

fn goodput(out: &PassOut) -> (f64, f64) {
    let mib = out.exact.verified_bytes as f64 / MIB;
    (
        mib / (out.wall.pass_ns as f64 / 1e9),
        mib / (out.wall.rx_ns as f64 / 1e9),
    )
}

/// The untraced run: set-ups, warm-up passes, then timed passes until both
/// the pass floor and the seconds are met.
pub fn run_untraced(
    spec: &Spec,
    seed: u64,
    budget: Budget,
    corrupt_expected: bool,
) -> Result<EndToEnd, LedgerError> {
    let workers = workload::workers();
    // Whatever the process already holds (earlier workloads' reports) is
    // not this workload's heap.
    let held_before = alloc::live_bytes();
    let (mut inputs, mut host, first_setup) = set_up(spec, seed, workers);
    let mut setup_samples = vec![first_setup];
    inputs.corrupt_expected = corrupt_expected;
    let mut checked = Checked {
        spec,
        inputs: &inputs,
        seed,
        first: None,
    };
    for _ in 0..budget.warm_ups {
        drop(checked.pass(&mut host, &mut Off, None)?);
    }
    let limit = Duration::from_secs_f64(budget.seconds);
    // Set-up is repeated between passes, evenly over the run, so that it
    // samples the same stretch of machine weather the passes do.
    let setup_every = limit.div_f64(budget.setups as f64);
    let begin = Instant::now();
    let mut pipeline = Vec::new();
    let mut receive = Vec::new();
    let mut timed_ns = 0u64;
    let mut peak = 0u64;
    while pipeline.len() < budget.min_passes || begin.elapsed() < limit {
        alloc::reset_peak();
        let out = checked.pass(&mut host, &mut Off, None)?;
        peak = peak.max(alloc::peak_bytes());
        let (all, rx) = goodput(&out);
        pipeline.push(all);
        receive.push(rx);
        timed_ns += out.wall.pass_ns;
        drop(out);
        if setup_samples.len() < budget.setups
            && begin.elapsed() >= setup_every.mul_f64(setup_samples.len() as f64)
        {
            let (again, rebuilt, secs) = set_up(spec, seed, workers);
            setup_samples.push(secs);
            drop((again, rebuilt));
        }
    }
    let peak = peak.saturating_sub(inputs.buffer_bytes() + held_before);
    let exact = checked.first.expect("at least one pass ran");
    Ok(EndToEnd {
        passes: pipeline.len(),
        values: vec![
            ("setup_s", Reading::best_of(setup_samples, false)),
            ("goodput_mib_s", Reading::best_of(pipeline, true)),
            ("rx_goodput_mib_s", Reading::best_of(receive, true)),
            (
                "wire_efficiency",
                Reading::exact(exact.verified_bytes as f64 / exact.wire_bytes_sent.max(1) as f64),
            ),
            // Minus the harness's message buffers and whatever the process
            // already held (earlier workloads' reports).
            ("peak_heap_mib", Reading::exact(peak as f64 / MIB)),
        ],
        timed_s: timed_ns as f64 / 1e9,
        exact,
    })
}

/// The traced run's result.
pub struct PerLayer {
    /// Every per-layer metric, by name.
    pub values: Values,
    /// The recorded spans (written to `--trace-out` by the caller).
    pub spans: Spans,
    /// Traced passes.
    pub passes: usize,
    /// The counts every pass agreed on.
    pub exact: Exact,
}

/// The traced run: one recording pass, then pairs of untraced and traced
/// pipeline passes, then the isolated legs over the recorded trace.
pub fn run_traced(spec: &Spec, seed: u64, budget: Budget) -> Result<PerLayer, LedgerError> {
    let workers = workload::workers();
    let (inputs, mut host, _) = set_up(spec, seed, workers);
    let mut checked = Checked {
        spec,
        inputs: &inputs,
        seed,
        first: None,
    };

    // The recording pass doubles as a warm-up; its arrival trace feeds the
    // legs and its chunk count the sender's per-chunk figure.
    let mut chunks_sent = 0u64;
    let recorded = checked.pass(&mut host, &mut Off, Some(&mut chunks_sent))?;
    for _ in 1..budget.warm_ups {
        drop(checked.pass(&mut host, &mut Off, None)?);
    }

    // A span per layer call: the densest front-end opens one per packet.
    let per_pass = 16 + 3 * inputs.ids.len() + recorded.exact.packets_sent as usize * 2;
    let mut tracer = Spans::with_capacity(per_pass * budget.traced_passes);
    let mut overhead = Vec::new();
    let mut sender_ns = Vec::new();
    let mut netsim_ns = Vec::new();
    for pass in 0..budget.traced_passes {
        let plain = checked.pass(&mut host, &mut Off, None)?;
        let (plain_goodput, _) = goodput(&plain);
        drop(plain);
        tracer.pass = pass as u32;
        let traced = checked.pass(&mut host, &mut tracer, None)?;
        let (traced_goodput, _) = goodput(&traced);
        overhead.push((plain_goodput / traced_goodput - 1.0) * 100.0);
        sender_ns.push(traced.wall.sender_ns as f64);
        netsim_ns.push(traced.wall.netsim_ns as f64);
    }
    drop(host);

    let exact = checked.first.clone().expect("the recording pass ran");
    let app_mib = exact.verified_bytes as f64 / MIB;
    let (self_ns, root_ns) = tracer.self_times();
    let harness_ns = self_ns.get("pass").copied().unwrap_or(0);
    let sender = fastest(&sender_ns);
    let netsim = fastest(&netsim_ns);
    let mut values: Values = vec![
        (
            "harness.self_share",
            harness_ns as f64 / root_ns.max(1) as f64,
        ),
        ("trace_overhead_pct", median(&overhead)),
        ("netsim.path.mib_s", app_mib / (netsim / 1e9)),
        (
            "netsim.path.ns_per_frame",
            netsim / exact.frames_in.max(1) as f64,
        ),
        ("netsim.frames_in", exact.frames_in as f64),
        ("netsim.frames_out", exact.frames_out as f64),
        (
            "netsim.loss_share",
            exact.frames_lost as f64 / exact.frames_in.max(1) as f64,
        ),
        (
            "netsim.refrag_ratio",
            exact.frames_out as f64 / exact.frames_in.max(1) as f64,
        ),
        ("transport.sender.mib_s", app_mib / (sender / 1e9)),
        (
            "transport.sender.ns_per_chunk",
            sender / chunks_sent.max(1) as f64,
        ),
        (
            "transport.sender.retransmit_share",
            exact.wire_bytes_retransmitted as f64 / exact.wire_bytes_sent.max(1) as f64,
        ),
        ("transport.sender.repair_rounds", exact.repair_rounds as f64),
    ];
    values.extend(legs::run_legs(
        spec,
        &inputs,
        &recorded.arrivals,
        workers,
        budget.leg,
    )?);
    Ok(PerLayer {
        values,
        spans: tracer,
        passes: budget.traced_passes,
        exact,
    })
}
