//! Observability guarantees, checked end to end:
//!
//! 1. **Determinism** — the same seeded soak scenario exports the
//!    byte-identical JSON-lines trace (and the identical metric snapshot)
//!    on every run. Traces are evidence, not samples.
//! 2. **Differential transparency** — attaching a recording sink changes
//!    *nothing observable*: delivered bytes, digests, outcomes and verdicts
//!    are bit-identical to the `NullSink` run, on both the session path and
//!    the parallel pipeline.
//! 3. **Span transparency** — the lifecycle-span layer obeys the same two
//!    rules: a NullSink run is bit-identical to a recording run, and the
//!    per-chunk lineage export is byte-identical across replays of every
//!    seeded netsim profile.
//! 4. **Doc sync** — `docs/OBSERVABILITY.md` names every catalogued metric
//!    and every event variant, so the documented surface cannot drift from
//!    the exported one.

use chunks::experiments::{lineage, soak};
use chunks_netsim::Profile;
use chunks_obs::{Recorder, CATALOGUE, DEFAULT_TRACE_CAPACITY};
use chunks_transport::{
    shard_of, ConnSpec, ConnectionParams, DeliveryMode, Engine, ParallelReceiver, Schedule, Sender,
    SenderConfig,
};
use chunks_wsc::InvariantLayout;

const SEED: u64 = 0xC0451;

/// Scenarios covering all three outcomes (delivered / aborted / shed) plus
/// Byzantine label mutation — enough surface to exercise every event kind
/// the soak path can emit, without replaying the whole matrix twice.
const SCENARIOS: [&str; 4] = [
    "label-flips",
    "ack-loss-35",
    "ack-blackout-abort",
    "ack-blackout-shed",
];

/// A verbose-tier recorder with the default ring.
fn verbose() -> std::sync::Arc<Recorder> {
    Recorder::verbose_tier(DEFAULT_TRACE_CAPACITY)
}

fn scenario(name: &str) -> soak::SoakScenario {
    soak::fault_matrix()
        .into_iter()
        .find(|sc| sc.name == name)
        .expect("scenario exists")
}

#[test]
fn seeded_soak_traces_export_byte_identical_json_lines() {
    for name in SCENARIOS {
        let sc = scenario(name);
        let (s1, s2) = (
            Recorder::verbose_tier(1 << 16),
            Recorder::verbose_tier(1 << 16),
        );
        let r1 = soak::run_scenario_observed(&sc, SEED, s1.clone());
        let r2 = soak::run_scenario_observed(&sc, SEED, s2.clone());
        assert_eq!(r1, r2, "{name}: rows diverged across identical runs");
        assert_eq!(s1.trace_dropped(), 0, "{name}: ring too small for test");
        assert_eq!(
            s1.trace_json_lines(),
            s2.trace_json_lines(),
            "{name}: JSON-lines exports not byte-identical"
        );
        assert_eq!(
            s1.snapshot(),
            s2.snapshot(),
            "{name}: metric snapshots diverged"
        );
        assert!(
            !s1.events().is_empty(),
            "{name}: an observed faulty run must produce events"
        );
    }
}

#[test]
fn recording_sink_is_differentially_transparent_on_the_session_path() {
    for name in SCENARIOS {
        let sc = scenario(name);
        // `run_scenario` is the NullSink baseline by construction.
        let baseline = soak::run_scenario(&sc, SEED);
        let observed = soak::run_scenario_observed(&sc, SEED, verbose());
        assert_eq!(
            baseline, observed,
            "{name}: observing the run changed its outcome"
        );
    }
}

// --- lifecycle spans: transparency and lineage determinism ------------------

#[test]
fn soak_span_exports_are_byte_identical_across_replays() {
    for name in SCENARIOS {
        let sc = scenario(name);
        let (s1, s2) = (verbose(), verbose());
        soak::run_scenario_observed(&sc, SEED, s1.clone());
        soak::run_scenario_observed(&sc, SEED, s2.clone());
        assert!(
            !s1.span_records().is_empty(),
            "{name}: an observed run must record lifecycle spans"
        );
        assert_eq!(
            s1.span_json_lines(),
            s2.span_json_lines(),
            "{name}: span exports not byte-identical"
        );
        assert_eq!(
            s1.lineage().to_json(),
            s2.lineage().to_json(),
            "{name}: lineage exports not byte-identical"
        );
        assert_eq!(s1.span_orphan_closes(), 0, "{name}: orphan span closes");
    }
}

#[test]
fn null_sink_profile_transfers_match_recording_runs() {
    // The span layer must be invisible: driving the same seeded profile
    // transfer with the NullSink and with a recording sink produces the
    // bit-identical outcome (labels are parsed outside the fault RNG).
    for profile in Profile::ALL {
        let baseline = lineage::drive(profile, SEED, chunks_obs::null());
        let observed = lineage::drive(profile, SEED, verbose());
        assert_eq!(
            baseline,
            observed,
            "{}: observing the transfer changed its outcome",
            profile.name()
        );
    }
}

#[test]
fn lineage_exports_are_byte_identical_per_profile() {
    for profile in Profile::ALL {
        let (s1, s2) = (verbose(), verbose());
        lineage::drive(profile, SEED, s1.clone());
        lineage::drive(profile, SEED, s2.clone());
        assert!(
            !s1.span_records().is_empty(),
            "{}: a profile transfer must record spans",
            profile.name()
        );
        assert_eq!(
            s1.lineage().to_json(),
            s2.lineage().to_json(),
            "{}: lineage exports not byte-identical",
            profile.name()
        );
        assert_eq!(
            s1.span_json_lines(),
            s2.span_json_lines(),
            "{}: span exports not byte-identical",
            profile.name()
        );
        assert_eq!(
            s1.snapshot(),
            s2.snapshot(),
            "{}: metric snapshots diverged",
            profile.name()
        );
    }
}

// --- parallel pipeline differential ----------------------------------------

fn params(conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: 16,
    }
}

fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(1024)
}

fn spec(conn_id: u32) -> ConnSpec {
    ConnSpec::new(params(conn_id), layout(), DeliveryMode::Immediate, 512)
}

#[test]
fn recording_sink_is_differentially_transparent_on_the_parallel_path() {
    let conns = [1u32, 2, 3, 4, 5, 6, 7];
    let mut packets = Vec::new();
    for &id in &conns {
        let mut tx = Sender::new(SenderConfig {
            params: params(id),
            layout: layout(),
            mtu: 200,
            min_tpdu_elements: 2,
            max_tpdu_elements: 64,
        });
        let msg: Vec<u8> = (0..96)
            .map(|i| (id as u8).wrapping_mul(31).wrapping_add(i))
            .collect();
        tx.submit_simple(&msg, id, false);
        packets.extend(tx.packets_for_pending().unwrap());
    }

    let sink = verbose();
    let mut plain = ParallelReceiver::new(
        4,
        Engine::Virtual(Schedule::Seeded(SEED)),
        conns.iter().map(|&id| spec(id)).collect(),
    );
    let mut observed = ParallelReceiver::new_with_obs(
        4,
        Engine::Virtual(Schedule::Seeded(SEED)),
        conns.iter().map(|&id| spec(id)).collect(),
        sink.clone(),
    );
    for (i, p) in packets.iter().enumerate() {
        plain.ingest(p, i as u64);
        observed.ingest(p, i as u64);
    }
    let (a, b) = (plain.finish(), observed.finish());

    assert_eq!(a.transcript_digest, b.transcript_digest);
    assert_eq!(a.dispatch, b.dispatch);
    assert_eq!(a.worker_chunks, b.worker_chunks);
    assert_eq!(a.control, b.control);
    for &id in &conns {
        let (ra, rb) = (&a.conns[&id], &b.conns[&id]);
        assert_eq!(ra.receiver.app_data(), rb.receiver.app_data(), "conn {id}");
        assert_eq!(
            ra.receiver.delivered_digests(),
            rb.receiver.delivered_digests(),
            "conn {id}"
        );
        assert_eq!(ra.events, rb.events, "conn {id}");
        assert_eq!(ra.ack, rb.ack, "conn {id}");
    }

    // The observed pipeline did record: dispatch metrics and shard events.
    let snap = sink.snapshot();
    assert_eq!(
        snap.counter("transport.parallel.packets"),
        a.dispatch.packets
    );
    assert_eq!(
        snap.counter("transport.parallel.chunks_dispatched"),
        a.dispatch.chunks_dispatched
    );
    assert!(sink
        .events()
        .iter()
        .any(|e| e.event.name() == "ShardDispatched"));
    assert!(sink
        .events()
        .iter()
        .any(|e| e.event.name() == "MergeFolded"));
    // Every dispatch went to the worker `shard_of` names.
    for te in sink.events() {
        if let chunks_obs::Event::ShardDispatched { labels, worker } = te.event {
            assert_eq!(worker as usize, shard_of(labels.conn_id, 4));
        }
    }
}

// --- docs stay in sync with the exported surface ---------------------------

/// Every event variant name (kept in sync by the match in the test body —
/// adding a variant without extending this list fails the doc-sync test
/// only if the docs also miss it, but `Event::name` is exercised above).
const EVENT_NAMES: [&str; 15] = [
    "ChunkDecoded",
    "ChunkRejected",
    "ChunkMutated",
    "GroupDelivered",
    "GroupEvicted",
    "OverlapConflict",
    "PathChosen",
    "RetransmitFired",
    "BackoffApplied",
    "ShardDispatched",
    "MergeFolded",
    "VerdictReached",
    "ConnAdmitted",
    "ConnEvicted",
    "Degraded",
];

/// Every watchdog verdict name — the health surface the docs must cover.
const HEALTH_EVENT_NAMES: [&str; 3] = ["LivelockSuspected", "EvictionStorm", "PressureStuck"];

/// Extracts `](target)` markdown link targets. Deliberately dumb: code
/// spans can false-positive, so callers filter to plausible relative paths.
fn md_link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(k) = text[i..].find("](") {
        let start = i + k + 2;
        match text[start..].find(')') {
            Some(end) => {
                out.push(text[start..start + end].to_string());
                i = start + end + 1;
            }
            None => break,
        }
    }
    out
}

#[test]
fn doc_relative_links_all_resolve() {
    // Every relative link in README.md and docs/*.md must point at a file
    // that exists — the docs overhaul cross-links heavily, and a renamed
    // target must fail the suite, not a reader.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let p = entry.expect("readable docs entry").path();
        if p.extension().is_some_and(|e| e == "md") {
            docs.push(p);
        }
    }
    assert!(docs.len() > 5, "docs directory unexpectedly sparse");
    let mut checked = 0;
    for doc in &docs {
        let text = std::fs::read_to_string(doc).expect("doc readable");
        for target in md_link_targets(&text) {
            // External links, pure anchors, and code-span false positives
            // (anything with whitespace) are out of scope.
            if target.is_empty()
                || target.contains("://")
                || target.starts_with('#')
                || target.starts_with("mailto:")
                || target.contains(char::is_whitespace)
            {
                continue;
            }
            let path = target.split('#').next().unwrap_or(&target);
            let resolved = doc.parent().expect("doc has a parent").join(path);
            assert!(
                resolved.exists(),
                "{}: broken relative link `{target}` (resolved to {})",
                doc.display(),
                resolved.display()
            );
            checked += 1;
        }
    }
    assert!(checked > 20, "link checker found suspiciously few links");
}

#[test]
fn observability_doc_names_every_metric_and_event() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/OBSERVABILITY.md"
    ))
    .expect("docs/OBSERVABILITY.md exists");
    for spec in CATALOGUE {
        assert!(
            doc.contains(spec.name),
            "docs/OBSERVABILITY.md does not document metric `{}`",
            spec.name
        );
    }
    for name in EVENT_NAMES {
        assert!(
            doc.contains(name),
            "docs/OBSERVABILITY.md does not document event `{name}`"
        );
    }
    for name in HEALTH_EVENT_NAMES {
        assert!(
            doc.contains(name),
            "docs/OBSERVABILITY.md does not document health event `{name}`"
        );
    }
    // The docs index advertises both counts; keep them honest.
    let index = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/README.md"))
        .expect("docs/README.md exists");
    for phrase in [
        format!("all {} names", CATALOGUE.len()),
        format!("the {}-variant event schema", EVENT_NAMES.len()),
    ] {
        assert!(
            index.contains(&phrase),
            "docs/README.md does not say `{phrase}`"
        );
    }
}

// --- flight recorder: dump-on-degradation is deterministic evidence ---------

#[test]
fn flight_recorder_dumps_are_byte_identical_across_replays() {
    // A seeded Byzantine ack blackout under `DegradePolicy::Abort` must end
    // in the typed `PeerUnreachable` verdict, and the always-on sink's
    // flight recorder must capture a postmortem on the `peer-unreachable`
    // trigger. Replaying the same seed must reproduce the dump byte for
    // byte — the postmortem is evidence, not a sample.
    let sc = scenario("ack-blackout-abort");
    let (s1, s2) = (Recorder::shared(), Recorder::shared());
    let r1 = soak::run_scenario_observed(&sc, SEED, s1.clone());
    let r2 = soak::run_scenario_observed(&sc, SEED, s2.clone());
    assert_eq!(r1, r2, "blackout rows diverged across identical runs");
    assert_eq!(r1.outcome, soak::Outcome::Aborted);

    let d1 = s1.dump_json_lines().expect("abort must arm a flight dump");
    let d2 = s2.dump_json_lines().expect("abort must arm a flight dump");
    assert_eq!(d1, d2, "flight dumps not byte-identical");

    let header = d1.lines().next().expect("dump has a header line");
    assert!(
        header.contains("\"trigger\": \"peer-unreachable\""),
        "dump header must name the trigger: {header}"
    );
    assert!(
        d1.lines().count() > 1,
        "dump must carry the recent-event window, not just the header"
    );
    // The always-on sink recorded the degradation in its registry too.
    assert_eq!(s1.snapshot().counter("obs.flight.dumps"), 1);
    assert!(s1.snapshot().counter("obs.flight.triggers") >= 1);
    assert_eq!(s1.snapshot(), s2.snapshot(), "metric snapshots diverged");
}

#[test]
fn always_on_sink_is_differentially_transparent_on_the_session_path() {
    // The production configuration (sharded counters, flight recorder
    // armed, verbose tracing off) must not change outcomes either.
    for name in SCENARIOS {
        let sc = scenario(name);
        let baseline = soak::run_scenario(&sc, SEED);
        let (always_on, debug) = (Recorder::shared(), verbose());
        let observed = soak::run_scenario_observed(&sc, SEED, always_on.clone());
        assert_eq!(
            baseline, observed,
            "{name}: the always-on sink changed the run's outcome"
        );
        // One recorder, two tiers: the verbose tier only adds to what the
        // always-on tier counts (verbose ⊇ always-on).
        soak::run_scenario_observed(&sc, SEED, debug.clone());
        let debug = debug.snapshot();
        for (counter, value) in always_on.snapshot().nonzero_counters() {
            assert_eq!(
                debug.counter(&counter),
                value,
                "{name}: `{counter}` differs between the always-on and verbose tiers"
            );
        }
    }
}
