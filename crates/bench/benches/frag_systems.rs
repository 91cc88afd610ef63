#![allow(missing_docs)] // criterion_main! generates an undocumented fn main

//! B2 bench: per-packet conversion cost at a router — chunk refragmentation
//! (three-level labels) versus IP fragmentation (one level).

use bytes::Bytes;
use chunks_baseline::ip::{IpPacket, IpRouter};
use chunks_bench::chunk_of;
use chunks_core::packet::pack;
use chunks_core::wire::WIRE_HEADER_LEN;
use chunks_netsim::{ChunkRouter, PacketTransform, RefragPolicy};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_routers(c: &mut Criterion) {
    let mut g = c.benchmark_group("router");
    // One 4 KiB PDU entering a 576-byte network.
    let chunk_frame = pack(vec![chunk_of(4096)], 9000).unwrap()[0].bytes.clone();
    let ip_frame = Bytes::from(IpPacket::datagram(9, Bytes::from(vec![0u8; 4096])).encode());
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("chunk_refragment_576", |b| {
        b.iter(|| {
            let mut r = ChunkRouter::new(WIRE_HEADER_LEN + 544, RefragPolicy::Repack);
            let mut out = Vec::new();
            r.ingest(0, chunk_frame.clone(), &mut out);
            r.flush(0, &mut out);
            out.len()
        })
    });
    g.bench_function("ip_fragment_576", |b| {
        b.iter(|| {
            let mut r = IpRouter::new(576);
            let mut out = Vec::new();
            r.ingest(0, ip_frame.clone(), &mut out);
            out.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_routers);
criterion_main!(benches);
