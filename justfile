# Lint and verification recipes. Everything runs offline — the external
# dependencies are vendored (see vendor/ and [patch.crates-io]).
# Each recipe is a plain cargo command, so `just` itself is optional.

# Full lint gate: formatting, clippy, rustdoc — all warnings denied —
# plus the release-mode test suite, the whole-workspace test suite (the
# root package's tier-1 run covers no member crate, e.g. chunks-ledger's
# smoke test), the same suite on the portable GF(2^32) backend, the
# parallel-equivalence gate, the receiver equivalence gate, the
# zero-allocation hot-path gate, the
# connection-table scale gate, the network-element gate in the debug
# profile, the BENCH regression gate, the reliability soak, the
# adversarial overlap sweep, the lineage sweep, the
# deterministic-trace replay, the health surface, and the seven examples. Telemetry overhead is not a recipe here: it is the ledger's
# `obs.always_on_overhead_pct` (`cargo run --release -p chunks-ledger -- run`);
# nor is a speed claim: that is `just ab REF`, on alternating pairs.
lint: check test-release test-workspace test-tables test-parallel test-receiver test-hotpath test-scale test-netsim bench-check soak soak-overlap lineage trace health examples

# Static gate only: formatting, clippy, rustdoc.
check: fmt clippy doc

# Formatting only, no changes written.
fmt:
    cargo fmt --all --check

# Clippy across the workspace, warnings as errors.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied (deny(missing_docs) holds on every crate).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Tier-1: what the repo must always pass (see ROADMAP.md).
test:
    cargo build --release
    cargo test -q

# Release-mode test suite (the soak assertions also run here, in seconds).
test-release:
    cargo test -q --release

# Every workspace member's tests, not only the root package's.
test-workspace:
    cargo test -q --workspace

# The workspace suite with the table-driven GF(2^32) backend forced: the
# only path on a CPU without PCLMULQDQ/PMULL, which auto-detection never
# selects on hardware that has them.
test-tables:
    CHUNKS_GF_BACKEND=tables cargo test -q --workspace

# Reliability soak: the full fault matrix under two seeds, deterministic,
# release mode, well under 60 s. Rewrites BENCH_soak.json at the repo root.
soak:
    cargo run --release --bin experiments soak --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Adversarial overlap sweep: overlap policy × reassembly attack × memory
# budget, proving serial/parallel equivalence, WSC-2 integrity authority,
# and bounded memory under flood. Rewrites BENCH_overlap.json at the root.
soak-overlap:
    cargo run --release --bin experiments overlap --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Parallel-equivalence gate: the full 200-scenario differential sweep plus
# the deterministic-schedule and closure-algebra suites, release mode.
test-parallel:
    PARALLEL_SCENARIOS=200 cargo test -q --release --test parallel_differential --test parallel_schedules --test chunk_closure_props

# Receiver equivalence gate: the borrowed packet walk against the owned
# per-chunk entry (`ingest_batch` against `handle_chunk_into` over
# `unpack`, and `ConnectionDemux::ingest` against per-connection
# receivers, on hostile traces in every mode, policy and budget), the two
# demux front-ends against each other over scripts that admit and retire
# connections mid-stream (`ParallelReceiver` at 1, 2 and 4 workers on both
# engines), the open-group slot table against a `HashMap` model, the
# receiver unit tests (among them a reset Reorder group freeing its staging
# and its resend placed behind the cursor), one receiver across window
# sizes (never released against released after every chunk, with the
# watermark against the sort-and-sweep oracle, delivered bytes checked in
# every mode), the X check against a `HashMap` of first `C.SN − X.SN`
# deltas per TPDU (one, two and many `X.ID`s, every mode), hostile labels
# around a released base, and the long-stream gate (1000 windows through a
# 1024-element ring, heap flat once warm).
# Debug first, so overflow checks are live, then release (the walk
# properties at ten times the cases).
test-receiver:
    cargo test -q --test transport_props -- borrowed_walk_equals demux_ingest_equals lifecycle_scripts stream_and_block stream_receiver_window x_check
    cargo test -q -p chunks-transport --lib -- receiver::
    cargo test -q --test adversarial_input -- hostile_tsn
    cargo test -q --test long_stream_gate
    cargo test -q --release --test transport_props -- borrowed_walk_equals demux_ingest_equals lifecycle_scripts stream_and_block stream_receiver_window x_check
    cargo test -q --release -p chunks-transport --lib -- receiver::
    cargo test -q --release --test adversarial_input -- hostile_tsn
    cargo test -q --release --test long_stream_gate

# Zero-allocation hot-path gate: a counting global allocator with
# per-thread counters proves the steady-state receive windows (serial and
# parallel) allocate exactly nothing per chunk, and that `reserve` sizes
# the reorder queue in Reorder mode alone (Immediate and Reassemble request
# at least its entries' bytes fewer), release mode.
test-hotpath:
    cargo test -q --release --test hotpath_allocs

# Connection-table scale gate: the shrunken scale soak (16 Ki connections,
# churn, Zipf faults, both demux paths) replayed twice for determinism,
# plus the table-vs-HashMap oracle property suite, release mode.
test-scale:
    cargo test -q --release --test scale_determinism
    cargo test -q --release -p chunks-transport --test table_props

# Network-element gate, debug profile on purpose: the router's label
# arithmetic (`SN` advance, `SIZE * LEN`, MTU remainders) runs with overflow
# checks on. The netsim crate's own tests (router-vs-reference oracle,
# hop-by-hop-vs-event-heap equivalence) plus the root tests that drive a
# `Path`.
test-netsim:
    cargo test -q -p chunks-netsim
    cargo test -q --test adversarial_input --test e2e_lossy_network --test session_over_network

# Regenerate the BENCH_scale.json million-connection soak at the repo
# root: admit ≥ 1 Mi concurrent connections on the open-addressed table,
# soak them with templated traffic, churn, Zipf skew and a Byzantine
# fault matrix on the serial and parallel paths, and gate on delivery,
# eviction accounting, bounded memory and replay determinism.
scale:
    cargo run --release --bin experiments scale --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Label-keyed lifecycle spans: drive one transfer through every netsim
# profile, prove the span trees byte-identical across replays, and rewrite
# BENCH_lineage.json at the repo root.
lineage:
    cargo run --release --bin experiments lineage --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# BENCH regression gate: regenerate the virtual-clock BENCH_*.json
# summaries in-process and fail on any byte of drift. (BENCH_scale.json is
# wall-clock; tests/bench_schema.rs pins its shape.)
bench-check:
    cargo run --release --bin experiments bench-check

# Replay a soak cell twice with a verbose-tier recorder, prove the two traces
# byte-identical, and print the metrics + event timeline.
trace:
    cargo run --release --bin experiments trace

# Health surface gate: drive degradation scenarios through the watchdog,
# assert each expected verdict (LivelockSuspected, EvictionStorm,
# PressureStuck) fires, and prove the flight recorder dumps exactly once
# per connection on first degradation with byte-stable output.
health:
    cargo run --release --bin experiments health

# A/B the working tree against REF on the wall clock: REF is checked out
# into a git worktree under target/ and both ledgers are built, then
# WORKLOAD (`bulk-clean` unless named: `just ab HEAD~1 parallel-reorder`)
# is run three times on each, alternating which side goes first, and
# `ledger compare` judges each pair against BENCHMARK.json's bounds. A
# claim of gain is made on alternating pairs, never a single run (the
# box's A/A spread is 3-14 %). ~2.5 min a pair. A gain claim must also
# show the other workloads did not move: `just ab REF all` runs the four
# on each side (~10 min a pair) and `ledger compare` prints every
# workload's rows.
ab REF WORKLOAD='bulk-clean':
    git worktree remove --force target/ab-ref 2>/dev/null || true
    git worktree add --detach target/ab-ref {{REF}}
    cargo build --release -p chunks-ledger
    cargo build --release -p chunks-ledger --manifest-path target/ab-ref/Cargo.toml
    if [ {{WORKLOAD}} = all ]; then which=""; else which="--workload {{WORKLOAD}}"; fi; \
    for i in 1 2 3; do \
        if [ $((i % 2)) -eq 1 ]; then order="ref change"; else order="change ref"; fi; \
        for side in $order; do \
            if [ $side = ref ]; then bin=target/ab-ref/target/release/ledger; else bin=target/release/ledger; fi; \
            $bin run $which --out target/ab-$side.$i.json > /dev/null || exit 1; \
        done; \
        target/release/ledger compare target/ab-ref.$i.json target/ab-change.$i.json || exit 1; \
    done

# Every example, release mode. Each asserts its own result, so a non-zero
# exit is a failure; `long_stream` carries 1 MiB through one `Receiver`
# whose 4 KiB ring the application reads and releases.
examples:
    for e in quickstart bulk_transfer long_stream video_stream internetwork header_compression ilp_pipeline; do cargo run --release --quiet --example "$e" || exit 1; done
