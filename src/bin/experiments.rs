//! Experiment harness: regenerates every figure, the table, and the
//! quantified claims of the paper.
//!
//! ```text
//! experiments [--describe REV] [fig1|...|fig7|table1|b1|...|b8|soak|overlap|lineage|scale|health|trace [SCENARIO] [--json]|bench-check|all]
//! ```
//!
//! With no argument (or `all`) every experiment runs. Output is the content
//! EXPERIMENTS.md records. `--describe` stamps regenerated `BENCH_*.json`
//! files with a source revision (the justfile passes `git describe`); the
//! experiments themselves never shell out. `b4`, `b6` and `scale` read the
//! wall clock for the rates they print; everything else rides the virtual
//! clock.
//! `trace` takes an optional soak-scenario name (`--help` lists the valid
//! ones; an unknown name does too) and `--json` switches the output to the
//! machine-readable JSON-lines export — the same shape the flight recorder
//! dumps. `bench-check` is the regression gate: it diffs regenerated
//! summaries against the committed `BENCH_*.json` files.

use chunks::experiments::{
    alloc_count, appendix_b, b1_receiver_modes, b2_frag_systems, b3_lockup, b4_codes, b5_compress,
    b6_demux, b7_turner, b8_gap_budget, bench_check, figures, health, lineage, overlap, scale,
    soak, table1, trace, SEED, SEED2,
};

// `scale` reports steady-state allocations on the receive path; the
// counting allocator forwards to `System` and costs one thread-local bump
// per allocation, negligible for every other experiment.
#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// One parsed invocation: an experiment name plus its trailing arguments
/// (only `trace` takes any: an optional scenario and/or `--json`/`--help`).
struct Job {
    name: String,
    args: Vec<String>,
}

fn run_one(job: &Job, describe: &str) -> bool {
    match job.name.as_str() {
        "fig1" => print_fig(figures::figure1()),
        "fig2" => print_fig(figures::figure2()),
        "fig3" => print_fig(figures::figure3()),
        "fig4" => print_fig(figures::figure4()),
        "fig5" => print_fig(figures::figure5()),
        "fig6" => print_fig(figures::figure6()),
        "fig7" => print_fig(figures::figure7()),
        "appendixb" => {
            let r = appendix_b::run();
            println!("{r}");
            r.chunks_dominate
        }
        "table1" => {
            let t = table1::run();
            println!("{t}");
            t.matches_paper()
        }
        "b1" => {
            let r = b1_receiver_modes::run(256 * 1024, SEED);
            println!("{r}");
            r.rows.iter().all(|row| row.complete)
        }
        "b2" => {
            let r = b2_frag_systems::run(64 * 1024);
            println!("{r}");
            r.rows.iter().all(|row| row.intact)
        }
        "b3" => {
            let r = b3_lockup::run(64, 4096, 0.05, SEED);
            println!("{r}");
            r.rows.iter().all(|row| row.chunk_drops == 0)
        }
        "b4" => {
            let r = b4_codes::run(4 << 20, SEED);
            println!("{r}");
            r.wsc_detects_swap && !r.checksum_detects_swap
        }
        "b5" => {
            let r = b5_compress::run();
            println!("{r}");
            r.rows.iter().all(|row| row.invertible)
        }
        "b6" => {
            let r = b6_demux::run(2_000, SEED);
            println!("{r}");
            true
        }
        "b7" => {
            let r = b7_turner::run(64);
            println!("{r}");
            // Turner must waste (strictly) fewer downstream bytes while
            // completing at least as many TPDUs.
            r.rows[1].wasted_bytes < r.rows[0].wasted_bytes
                && r.rows[1].complete_tpdus >= r.rows[0].complete_tpdus
        }
        "b8" => {
            let r = b8_gap_budget::run(SEED);
            println!("{r}");
            // More registers never refuse more, and 8 registers suffice for
            // an 8-way stripe.
            r.rows
                .iter()
                .filter(|row| row.budget == 8)
                .all(|row| row.refusals == 0)
        }
        "soak" => {
            let (r1, r2) = (soak::run(SEED), soak::run(SEED2));
            println!("{r1}");
            println!("{r2}");
            // Same seed, same rows — the whole matrix is reproducible.
            let deterministic = soak::run(SEED) == r1;
            if let Err(e) =
                std::fs::write("BENCH_soak.json", soak::bench_json(&[&r1, &r2], describe))
            {
                eprintln!("could not write BENCH_soak.json: {e}");
            }
            deterministic && r1.passes() && r2.passes()
        }
        "overlap" => {
            let r = overlap::run(SEED);
            println!("{r}");
            // Same seed, same rows — every cell is reproducible.
            let deterministic = overlap::run(SEED) == r;
            if let Err(e) = std::fs::write("BENCH_overlap.json", overlap::bench_json(&r, describe))
            {
                eprintln!("could not write BENCH_overlap.json: {e}");
            }
            deterministic && r.passes()
        }
        "scale" => {
            let r = scale::run(SEED);
            println!("{r}");
            if let Err(e) = std::fs::write("BENCH_scale.json", scale::bench_json(&r, describe)) {
                eprintln!("could not write BENCH_scale.json: {e}");
            }
            r.passes()
        }
        "lineage" => {
            let r = lineage::run(SEED);
            println!("{r}");
            if let Err(e) = std::fs::write("BENCH_lineage.json", lineage::bench_json(&r, describe))
            {
                eprintln!("could not write BENCH_lineage.json: {e}");
            }
            r.passes()
        }
        "health" => {
            let r = health::run(SEED);
            println!("{r}");
            r.passes()
        }
        "trace" => {
            let mut scenario: Option<&str> = None;
            let mut json = false;
            let mut help = false;
            for a in &job.args {
                match a.as_str() {
                    "--json" => json = true,
                    "--help" => help = true,
                    other => scenario = Some(other),
                }
            }
            if help {
                println!("usage: experiments trace [SCENARIO] [--json]");
                println!(
                    "available scenarios: {}",
                    trace::scenario_names().join(", ")
                );
                println!("default scenario: {}", trace::DEFAULT_SCENARIO);
                true
            } else {
                let scenario = scenario.unwrap_or(trace::DEFAULT_SCENARIO);
                match trace::run(SEED, scenario) {
                    Ok(r) => {
                        if json {
                            print!("{}", r.json_lines);
                        } else {
                            println!("{r}");
                        }
                        r.passes()
                    }
                    Err(names) => {
                        eprintln!("unknown trace scenario: {scenario}");
                        eprintln!("available scenarios: {}", names.join(", "));
                        false
                    }
                }
            }
        }
        "bench-check" => {
            let r = bench_check::run();
            println!("{r}");
            r.passes()
        }
        other => {
            eprintln!("unknown experiment: {other}");
            false
        }
    }
}

fn print_fig(f: figures::FigureResult) -> bool {
    let ok = f.ok();
    println!("{f}");
    ok
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "table1",
        "appendixb",
        "b1",
        "b2",
        "b3",
        "b4",
        "b5",
        "b6",
        "b7",
        "b8",
        "soak",
        "overlap",
        "lineage",
        "scale",
        "health",
        "trace",
    ];
    // Pull out `--describe REV`, then pair `trace` with its optional
    // trailing arguments (a scenario name and/or `--json`/`--help` — any
    // following tokens that are not themselves experiment names).
    let mut describe = String::from("unknown");
    let mut jobs: Vec<Job> = Vec::new();
    let mut run_all = raw.is_empty();
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--describe" => {
                if let Some(v) = raw.get(i + 1) {
                    describe = v.clone();
                    i += 2;
                } else {
                    eprintln!("--describe needs a value");
                    std::process::exit(2);
                }
            }
            "all" => {
                run_all = true;
                i += 1;
            }
            name => {
                let takes_args = name == "trace";
                let mut args = Vec::new();
                if takes_args {
                    while let Some(a) = raw
                        .get(i + 1 + args.len())
                        .filter(|a| !all.contains(&a.as_str()) && *a != "--describe")
                    {
                        args.push(a.clone());
                    }
                }
                i += 1 + args.len();
                jobs.push(Job {
                    name: name.to_owned(),
                    args,
                });
            }
        }
    }
    if run_all {
        jobs = all
            .iter()
            .map(|&name| Job {
                name: name.to_owned(),
                args: Vec::new(),
            })
            .collect();
    }
    let mut failures = 0;
    for job in &jobs {
        if !run_one(job, &describe) {
            eprintln!("experiment {}: CHECK FAILED", job.name);
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
