//! An unbounded stream through a small receive window — §2's "SNs of
//! connections are reused over time", live.
//!
//! One megabyte flows through a 4 KiB receive window over a lossy,
//! reordering multipath; the connection sequence number wraps the 32-bit
//! space mid-run (we start near the top). The receiver's application space
//! is a ring: the application reads what verified in place and releases
//! it, and the window slides on.
//!
//! ```sh
//! cargo run --release --example long_stream
//! ```

use chunks::core::packet::Packet;
use chunks::netsim::{LinkConfig, PathBuilder};
use chunks::transport::{ConnectionParams, DeliveryMode, Framer, Receiver};
use chunks::wsc::InvariantLayout;

fn main() {
    let params = ConnectionParams {
        conn_id: 0x10,
        elem_size: 1,
        initial_csn: u32::MAX - 5000, // wrap the sequence space mid-stream
        tpdu_elements: 1024,
    };
    let layout = InvariantLayout::default();
    let window = 4096u64;
    let mut framer = Framer::new(params, layout);
    let mut rx = Receiver::new(DeliveryMode::Immediate, params, layout, window);

    let total = 1 << 20; // 1 MiB
    let mut sent_hash = 0u64;
    let mut recv_hash = 0u64;
    let mut sent = 0usize;
    let mut read = 0u64;
    let mut releases = 0u64;
    let mut seed = 1u64;

    while sent < total {
        // Produce one window's worth of TPDUs (stay inside flow control).
        let burst = (window as usize).min(total - sent);
        let block: Vec<u8> = (0..burst).map(|i| ((sent + i) % 251) as u8).collect();
        for &b in &block {
            sent_hash = sent_hash.wrapping_mul(1099511628211).wrapping_add(b as u64);
        }
        sent += burst;
        let tpdus = framer.frame_simple(&block, 0xF, false);
        let chunks: Vec<_> = tpdus.iter().flat_map(|t| t.all_chunks()).collect();
        let packets = chunks::core::packet::pack(chunks, 1500).unwrap();

        // A jittery 4-way multipath with 1% loss; lost TPDUs are
        // retransmitted with identical labels until the burst is read.
        let expected = read + burst as u64;
        let mut rounds = 0;
        while read < expected {
            rounds += 1;
            assert!(rounds < 20, "burst did not converge");
            seed = seed.wrapping_add(1);
            let mut path = PathBuilder::new(seed)
                .multipath(
                    4,
                    LinkConfig::clean(1500, 50_000, 622_000_000).with_loss(0.01),
                    40_000,
                )
                .build();
            let inputs = packets
                .iter()
                .enumerate()
                .map(|(i, p)| (i as u64 * 700, p.bytes.to_vec()))
                .collect();
            for d in path.run(inputs) {
                rx.handle_packet(
                    &Packet {
                        bytes: d.frame.into(),
                    },
                    d.time,
                );
            }
            // The application reads the verified bytes where they lie in
            // the ring, then hands the space back.
            let (head, tail) = rx.readable();
            for &b in head.iter().chain(tail) {
                recv_hash = recv_hash.wrapping_mul(1099511628211).wrapping_add(b as u64);
            }
            let n = (head.len() + tail.len()) as u64;
            if n > 0 {
                rx.release(n);
                read += n;
                releases += 1;
            }
            // Resend the whole burst: chunks of TPDUs already released are
            // stale, the rest are trimmed as duplicates; a real sender would
            // use the gap nacks.
            for s in rx.failed_starts() {
                rx.reset_group(s);
            }
        }
    }

    assert_eq!(read, total as u64);
    assert_eq!(rx.verified_prefix(), total as u64);
    assert_eq!(recv_hash, sent_hash, "stream content verified");
    println!(
        "streamed {} KiB through a {} KiB window: {} TPDUs verified, \
         {} releases, {} stale and {} duplicate chunks rejected, C.SN wrapped",
        total / 1024,
        window / 1024,
        rx.stats.tpdus_delivered,
        releases,
        rx.stats.stale_chunks,
        rx.stats.duplicate_chunks,
    );
}
