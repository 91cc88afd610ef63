//! Quickstart: send a message through the chunk transport and receive it
//! with immediate (arrival-order) processing.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use chunks::transport::{ConnectionParams, DeliveryMode, Receiver, RxEvent, Sender, SenderConfig};
use chunks::wsc::InvariantLayout;

fn main() {
    // Connection parameters would normally travel in an Establish signal.
    let params = ConnectionParams {
        conn_id: 1,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: 32,
    };
    let layout = InvariantLayout::default();

    let mut tx = Sender::new(SenderConfig {
        params,
        layout,
        mtu: 128, // tiny MTU so the message fragments visibly
        min_tpdu_elements: 8,
        max_tpdu_elements: 1024,
    });
    let mut rx = Receiver::new(DeliveryMode::Immediate, params, layout, 4096);

    let message = b"chunks are completely self-describing pieces of PDUs";
    tx.submit_simple(message, 0xA1F, false);

    let packets = tx.packets_for_pending().expect("packable");
    println!(
        "sent {} bytes as {} packets ({} TPDUs)",
        message.len(),
        packets.len(),
        tx.pending_tpdus()
    );

    // Deliver the packets in reverse order: chunks do not care.
    let mut events = Vec::new();
    for (i, p) in packets.iter().enumerate().rev() {
        rx.handle_packet_into(p, i as u64, &mut events);
        for event in events.drain(..) {
            match event {
                RxEvent::TpduDelivered { start, elements } => {
                    println!("  TPDU @ element {start}: {elements} elements verified")
                }
                RxEvent::TpduFailed { start, reason } => {
                    println!("  TPDU @ element {start}: rejected ({reason:?})")
                }
                other => println!("  {other:?}"),
            }
        }
    }

    let received = &rx.app_data()[..message.len()];
    assert_eq!(received, message);
    println!(
        "received (despite reversed packet order): {:?}",
        String::from_utf8_lossy(received)
    );
    println!(
        "data touches per byte: {:.2} (immediate mode never buffers)",
        rx.stats.data_touches as f64 / message.len() as f64
    );

    // Acknowledge and clear the sender window.
    tx.handle_ack(&rx.make_ack());
    assert_eq!(tx.pending_tpdus(), 0);
    println!("all TPDUs acknowledged");
}
