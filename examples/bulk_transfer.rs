//! Bulk data transfer — the paper's supercomputer scenario (§3): large
//! 64 KiB transport blocks crossing a lossy, reordering multipath network,
//! recovered by retransmission with identical labels.
//!
//! "Regardless of the order in which data arrive, they can be correctly
//! placed in the application address space" — spatial, not temporal,
//! reordering.
//!
//! ```sh
//! cargo run --example bulk_transfer
//! ```

use chunks::netsim::{LinkConfig, PathBuilder};
use chunks::transport::{ConnectionParams, DeliveryMode, Receiver, Sender, SenderConfig};
use chunks::wsc::InvariantLayout;

fn main() {
    let total_bytes = 256 * 1024;
    let message: Vec<u8> = (0..total_bytes).map(|i| (i % 251) as u8).collect();

    let params = ConnectionParams {
        conn_id: 7,
        elem_size: 1,
        initial_csn: 123_456,
        tpdu_elements: 65_536 / 4, // 16 Ki-element TPDUs (64 KiB / SIZE=1 -> capped by layout)
    };
    let layout = InvariantLayout::default(); // 16 Ki data symbols per TPDU
    let mtu = 1500;

    let mut tx = Sender::new(SenderConfig {
        params,
        layout,
        mtu,
        min_tpdu_elements: 1024,
        max_tpdu_elements: 16_384,
    });
    let mut rx = Receiver::new(DeliveryMode::Immediate, params, layout, total_bytes as u64);
    tx.submit_simple(&message, 0xB1, false);
    println!(
        "submitting {} KiB as {} TPDUs of {} elements",
        total_bytes / 1024,
        tx.pending_tpdus(),
        tx.tpdu_elements()
    );

    // Eight parallel 155 Mbps SONET-ish paths with skew (the paper's §1
    // gigabit-over-OC-3 configuration), plus 2% loss.
    let base = LinkConfig::clean(mtu, 250_000, 155_000_000).with_loss(0.02);
    let mut round = 0;
    let mut clock = 0u64;
    let mut events = Vec::new();
    loop {
        round += 1;
        let packets = if round == 1 {
            tx.packets_for_pending().unwrap()
        } else {
            let missing = tx.unacked_starts();
            if missing.is_empty() {
                break;
            }
            println!(
                "round {round}: retransmitting {} TPDUs (identical labels)",
                missing.len()
            );
            tx.retransmit(&missing).unwrap()
        };
        let mut path = PathBuilder::new(0xB0B + round)
            .multipath(8, base, 30_000)
            .build();
        let inputs = packets
            .into_iter()
            .enumerate()
            .map(|(i, p)| (clock + i as u64 * 800, p.bytes))
            .collect();
        let deliveries = path.run(inputs);
        let stats = path.hops()[0].link.stats();
        println!(
            "round {round}: offered {} frames, delivered {}, lost {}",
            stats.offered, stats.delivered, stats.lost
        );
        for d in &deliveries {
            let packet = d.frame.clone();
            rx.handle_packet_into(&packet, d.time, &mut events);
        }
        // The ack below reports what verified; the events are not needed.
        events.clear();
        clock = deliveries.last().map(|d| d.time).unwrap_or(clock) + 1_000_000;
        tx.handle_ack(&rx.make_ack());
        if tx.pending_tpdus() == 0 {
            break;
        }
        tx.on_loss(); // adapt the TPDU size to the observed error rate
        if round > 24 {
            panic!("transfer did not converge");
        }
    }

    assert_eq!(rx.verified_prefix(), total_bytes as u64);
    assert_eq!(&rx.app_data()[..total_bytes], &message[..]);
    println!(
        "complete in {round} rounds: {} KiB verified, {:.2} touches/byte, \
         peak staging buffer {} bytes, {} duplicate chunks rejected",
        total_bytes / 1024,
        rx.stats.data_touches as f64 / total_bytes as f64,
        rx.stats.peak_buffered_bytes,
        rx.stats.duplicate_chunks,
    );
}
