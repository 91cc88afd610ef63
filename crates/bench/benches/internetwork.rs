#![allow(missing_docs)] // criterion_main! generates an undocumented fn main

//! F4 bench: the three Figure 4 methods for moving chunks from small
//! packets into large packets, end to end.

use bytes::Bytes;
use chunks_bench::chunk_of;
use chunks_core::packet::pack;
use chunks_core::wire::WIRE_HEADER_LEN;
use chunks_netsim::{ChunkRouter, PacketTransform, RefragPolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_methods(c: &mut Criterion) {
    // 4 KiB TPDU arriving as 64-byte-payload packets.
    let small = WIRE_HEADER_LEN + 64;
    let big = 8 * small;
    let frames: Vec<Bytes> = pack(
        chunks_core::frag::split_to_fit(chunk_of(4096), small).unwrap(),
        small,
    )
    .unwrap()
    .into_iter()
    .map(|p| p.bytes)
    .collect();

    let mut g = c.benchmark_group("figure4");
    g.throughput(Throughput::Bytes(4096));
    for (name, policy) in [
        ("method1_one_per_packet", RefragPolicy::OnePerPacket),
        ("method2_repack", RefragPolicy::Repack),
        (
            "method3_reassemble",
            RefragPolicy::Reassemble { window: 16 },
        ),
    ] {
        g.bench_with_input(
            BenchmarkId::new(name, frames.len()),
            &frames,
            |b, frames| {
                b.iter(|| {
                    let mut r = ChunkRouter::new(big, policy);
                    let mut out = Vec::new();
                    for f in frames {
                        r.ingest(0, f.clone(), &mut out);
                    }
                    r.flush(0, &mut out);
                    out.len()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
