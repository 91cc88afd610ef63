# Lint and verification recipes. Everything runs offline — the external
# dependencies are vendored (see vendor/ and [patch.crates-io]).
# Each recipe is a plain cargo command, so `just` itself is optional.

# Full lint gate: formatting, clippy, rustdoc — all warnings denied —
# plus the release-mode test suite, the whole-workspace test suite (the
# root package's tier-1 run covers no member crate, e.g. chunks-ledger's
# smoke test), the parallel-equivalence gate, the receiver equivalence gate, the
# zero-allocation hot-path gate, the
# connection-table scale gate, the network-element gate in the debug
# profile, the BENCH regression gate, the reliability soak, the
# adversarial overlap sweep, the lineage sweep, the deterministic-trace
# replay of every soak cell and the health surface (each compared across
# two processes), and the seven examples. Telemetry overhead is not a recipe here: it is the ledger's
# `obs.always_on_overhead_pct` (`cargo run --release -p chunks-ledger -- run`);
# nor is a speed claim: that is `just ab REF`, on alternating pairs.
lint: check test-release test-workspace test-parallel test-receiver test-sender test-hotpath test-scale test-netsim bench-check soak soak-overlap lineage trace health examples

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

# Release-mode test suite (the soak assertions also run here, in seconds),
# plus the GF(2^32) and WSC-2 crates' own suites: the byte kernels' `unsafe`
# SIMD arms are compiled differently in release than in debug.
test-release:
    cargo test -q --release
    cargo test -q --release -p chunks-gf -p chunks-wsc

# Every workspace member's tests, not only the root package's.
test-workspace:
    cargo test -q --workspace

# Reliability soak: the full fault matrix under two seeds, release mode,
# well under 60 s. Rewrites BENCH_soak.json at the repo root; `bench-check`
# and `tests/soak_reliability.rs` hold it deterministic.
soak:
    cargo run --release --bin experiments soak --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Adversarial overlap sweep: overlap policy × reassembly attack × memory
# budget, proving serial/parallel equivalence, WSC-2 integrity authority,
# and bounded memory under flood. Rewrites BENCH_overlap.json at the root.
soak-overlap:
    cargo run --release --bin experiments overlap --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Parallel-equivalence gate: the full 200-scenario differential sweep (with
# its duplicates-and-partial-overlaps trace, where workers discard or cut
# chunks the dispatcher already folded) plus the deterministic-schedule and
# closure-algebra suites, and the WSC-2 property that a payload folded
# ahead of placement (`absorb_folded`, what the dispatcher hands a worker)
# absorbs exactly as the chunk itself, release mode.
test-parallel:
    PARALLEL_SCENARIOS=200 cargo test -q --release --test parallel_differential --test parallel_schedules --test chunk_closure_props
    cargo test -q --release -p chunks-wsc --test invariance absorb_folded_equals_absorb_chunk

# Receiver equivalence gate: the borrowed packet walk against the owned
# per-chunk entry (`ingest_batch` against `handle_chunk_into` over
# `unpack`, and `ConnectionDemux::ingest` against per-connection
# receivers, on hostile traces in every mode, policy and budget), the two
# demux front-ends against each other over scripts that admit and retire
# connections mid-stream (`ParallelReceiver` at 1, 2 and 4 workers on both
# engines), the open-group slot table against a `HashMap` model (random,
# descending and middle-out starts), its warm-table property
# (`a_warm_slot_table_cycles_without_allocating`: filled to its open
# high-water once, it opens and removes as many groups again without its
# slots or its start-ordered list moving or growing; nothing reserves it
# ahead) and the delivered records against one
# (random, descending and interleaved reset/release orders; all three run under
# the `receiver::` filter), the receiver unit tests (among them a reset Reorder group freeing its staging
# and its resend placed behind the cursor), one receiver across window
# sizes (never released against released after every chunk, with the
# watermark against the sort-and-sweep oracle, delivered bytes checked in
# every mode), the ownership oracle (`receiver::ownership`: a per-element
# claims map beside the receiver over hostile traces — corrupted `C.SN`,
# reorder, duplicates, `LastWins` patches, evicting budgets, resets,
# releases across a `C.SN` wrap — in every mode and policy; same
# collisions, `OverlapConflict` owners and ranges, and budgeted run
# count; under the `receiver::` filter), the X check against a `HashMap` of first `C.SN − X.SN`
# deltas per TPDU (one, two and many `X.ID`s, every mode), hostile labels
# around a released base, the long-stream gate (1000 windows through a
# 1024-element ring, heap flat once warm; its session leg streams 1000
# windows each way between two `Session`s), a session streaming four
# times its ring through `release`, and the virtual-reassembly
# crate's own suite (the interval set's, tracker's and overlap policy's
# unit tests, the interval properties against per-position models, the
# doctests).
# Debug first, so overflow checks are live, then release (the walk
# properties at ten times the cases).
test-receiver:
    cargo test -q --test transport_props -- borrowed_walk_equals demux_ingest_equals lifecycle_scripts stream_and_block stream_receiver_window x_check
    cargo test -q -p chunks-transport --lib -- receiver:: session::tests::a_stream
    cargo test -q --test adversarial_input -- hostile_tsn
    cargo test -q --test long_stream_gate
    cargo test -q -p chunks-vreasm
    cargo test -q --release --test transport_props -- borrowed_walk_equals demux_ingest_equals lifecycle_scripts stream_and_block stream_receiver_window x_check
    cargo test -q --release -p chunks-transport --lib -- receiver:: session::tests::a_stream
    cargo test -q --release --test adversarial_input -- hostile_tsn
    cargo test -q --release --test long_stream_gate
    cargo test -q --release -p chunks-vreasm

# Sender gate: the oracle property (the sender's packets equal `pack` over
# the framer's uncut chunks after every step of a random submit/ack/
# abandon/retransmit/repair script), the retention property (after every
# step it holds exactly the first-transmission packets a pending TPDU has
# a chunk in), the session's placement property (a pump's first
# transmission, timer pass and ack-driven repair equal `pack` over the
# uncut chunks plus the ack), the sender, session and retransmission-timer
# unit tests (among them the timer property: after every step of a random
# send/pump/ack/hostile-ack/clock script the timer arms exactly the pending
# TPDUs that went out, and an ack is applied once; and
# `a_tpdu_the_repair_pass_packed_is_not_packed_again_by_its_due_timer`: a
# pump whose ack-driven repair and due timers name the same TPDUs packs
# each once), the backoff property,
# the two ack-trim regression tests and the transmit and session legs of
# the allocation gate (a submit's six allocations with at most 8 B of
# bookkeeping a packet, the store keeping a 4-byte end per packet and no
# handle; `a_repair_transmits_its_packets_from_one_buffer_whatever_their_count`:
# a `retransmit_for_ack` of 110 packets and one of 220 make the same six
# allocations), and the placement engine's unit tests in chunks-core, where
# the sender's placement lives (among them `pack_equals_the_owned_split_loop`:
# chunks cut at random points and each placed as one run equal `pack` over
# the uncut chunks, measured and written). Debug first, so the packet-range
# arithmetic runs with overflow checks, then release.
test-sender:
    cargo test -q --test transport_props -- sender_packets_equal sender_retains session_packets_equal backoff_is_monotone
    cargo test -q -p chunks-transport --lib -- sender:: session:: rto:: ack::tests::an_ack_past
    cargo test -q -p chunks-core --lib -- packet::
    cargo test -q --test hotpath_allocs -- transmit session
    cargo test -q --release --test transport_props -- sender_packets_equal sender_retains session_packets_equal backoff_is_monotone
    cargo test -q --release -p chunks-transport --lib -- sender:: session:: rto:: ack::tests::an_ack_past
    cargo test -q --release -p chunks-core --lib -- packet::
    cargo test -q --release --test hotpath_allocs -- transmit session

# Zero-allocation hot-path gate: a counting global allocator with
# per-thread counters proves the steady-state receive windows (serial and
# parallel) allocate exactly nothing per chunk — among them every delivery
# mode on out-of-order arrivals, Immediate's leg loading virtual
# reassembly alone — that `reserve` sizes
# the reorder queue in Reorder mode alone (Immediate and Reassemble request
# at least its entries' bytes fewer), that a reserved connection requests
# its ring and at most 400 B more (the delivered records and the
# observability handle: `reserve` sets no group slot aside;
# `a_reserved_connection_requests_its_ring_and_at_most_400_bytes_more`),
# that the worst disorder — every TPDU open at once — allocates for its
# open high-water once, within a bound, and not at all when replayed warm
# (`the_worst_disorder_allocates_its_open_high_water_once_and_never_when_warm`),
# that a warm session pumps 256 KiB
# in at most 8 allocations and its peer ingests it in at most 6, that a
# submit keeps at most 8 B of bookkeeping a packet and a repair writes one
# buffer whatever its packet count (six allocations), and the network
# legs of `test-netsim` (a refragmenting path's exact 79 allocations:
# two per 64 KiB window), release mode.
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
# hop-by-hop-vs-event-heap equivalence, the handle-aliasing tests) plus the
# root tests that drive a `Path`; then the crate's tests again as they
# ship, in release, and the network's allocation and copy gates (frames are
# handles: a routerless path allocates nothing per frame, a refragmenting
# router twice per 64 KiB window of emissions, 79 allocations in all for
# 2048 frames in, its frames back to back in one buffer a window) with the
# router's batch property (`a_batch_equals_its_frames_one_at_a_time`: a
# batch of n frames makes what n batches of one make, frames, times,
# counters and records) among the crate's tests, and the high-water gate
# `network_runs_keep_no_scratch_copy_of_an_ordered_list` (a run's heap
# peaks at most one list of handles above where it ends, two on a path that
# disorders: an ordered list is never copied to be sorted).
test-netsim:
    cargo test -q -p chunks-netsim
    cargo test -q --test adversarial_input --test e2e_lossy_network --test session_over_network
    cargo test -q --release -p chunks-netsim
    cargo test -q --release --test hotpath_allocs -- network

# Regenerate the BENCH_scale.json million-connection soak at the repo
# root: admit ≥ 1 Mi concurrent connections on the open-addressed table,
# soak them with templated traffic, churn, Zipf skew and a Byzantine
# fault matrix on the serial and parallel paths, and gate on delivery,
# eviction accounting and an allocation-free churn phase. Every cell runs
# once on the virtual clock; `bench-check` diffs the file byte for byte.
scale:
    cargo run --release --bin experiments scale --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Label-keyed lifecycle spans: drive one transfer through every netsim
# profile and rewrite BENCH_lineage.json at the repo root (`bench-check`
# and `tests/obs_determinism.rs` hold the span trees byte-identical).
lineage:
    cargo run --release --bin experiments lineage --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# BENCH regression gate: regenerate all four BENCH_*.json summaries
# (lineage, soak, overlap, scale; all on the virtual clock) in-process and
# fail on any byte of drift.
bench-check:
    cargo run --release --bin experiments bench-check

# Deterministic-trace replay across processes: every soak cell that
# `experiments trace --help` lists is exported (`--json`, a verbose-tier
# recorder) by two separate processes and the exports must match byte for
# byte; then the default cell's metrics and event timeline are printed.
trace:
    mkdir -p target
    for s in $(cargo run --release --quiet --bin experiments trace --help | sed -n 's/^available scenarios: //p' | tr -d ','); do \
        cargo run --release --quiet --bin experiments trace "$s" --json > target/trace-1.jsonl || exit 1; \
        cargo run --release --quiet --bin experiments trace "$s" --json > target/trace-2.jsonl || exit 1; \
        cmp target/trace-1.jsonl target/trace-2.jsonl || exit 1; \
    done
    cargo run --release --quiet --bin experiments trace

# Health surface gate: drive degradation scenarios through the watchdog,
# assert each expected verdict (LivelockSuspected, EvictionStorm,
# PressureStuck) fires and the flight recorder dumps on first degradation,
# and prove the whole surface byte-stable: two processes' output must match.
health:
    mkdir -p target
    cargo run --release --quiet --bin experiments health > target/health-1.txt
    cargo run --release --quiet --bin experiments health > target/health-2.txt
    cmp target/health-1.txt target/health-2.txt
    cat target/health-1.txt

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

# Peak heap and wire efficiency against REF: both are exact for a seed, so
# one `ledger run --seconds 1` per side settles them, where a wall-clock
# figure needs `just ab`'s alternating pairs. The 1-second runs' timing
# rows mean nothing, so `ledger compare` judges against a copy of
# BENCHMARK.json cut to those two metrics (plus the failed-share row it
# always prints) and exits non-zero only when one of them regressed. REF is
# checked out into a git worktree under target/ and both ledgers are
# built; SEED replaces the ledger's default seed (a gain must hold at a
# second one). The reading is exact to within the run's own sample lists:
# the ledger keeps each pass's `pipeline`/`receive` timing samples in
# `Vec<f64>`s that stay live inside the peak window, and those grow with
# the pass count (15 passes hold capacity 16, 20 passes capacity 32), so
# two runs that made a different number of passes differ by 2 × 128 B —
# the 0.000244 MiB seen on `bulk-clean` (docs/PERFORMANCE.md, "What a pass
# allocates").
heap REF SEED='':
    git worktree remove --force target/heap-ref 2>/dev/null || true
    git worktree add --detach target/heap-ref {{REF}}
    cargo build --release -p chunks-ledger
    cargo build --release -p chunks-ledger --manifest-path target/heap-ref/Cargo.toml
    jq '.end_to_end |= map(select(.name == "peak_heap_mib" or .name == "wire_efficiency"))' BENCHMARK.json > target/heap-benchmark.json
    if [ -n "{{SEED}}" ]; then seed="--seed {{SEED}}"; else seed=""; fi; \
    target/heap-ref/target/release/ledger run --seconds 1 $seed --out target/heap-ref.json > /dev/null || exit 1; \
    target/release/ledger run --seconds 1 $seed --out target/heap-change.json > /dev/null || exit 1; \
    target/release/ledger compare --benchmark target/heap-benchmark.json target/heap-ref.json target/heap-change.json

# Every example, release mode. Each asserts its own result, so a non-zero
# exit is a failure; `long_stream` carries 1 MiB through one `Receiver`
# whose 4 KiB ring the application reads and releases.
examples:
    for e in quickstart bulk_transfer long_stream video_stream internetwork header_compression ilp_pipeline; do cargo run --release --quiet --example "$e" || exit 1; done
