//! Selective sub-TPDU retransmission: the receiver's nack list names
//! element ranges, and the sender answers with extracted sub-chunks
//! (Appendix C), which cost far fewer bytes than whole-TPDU retransmission.

use chunks::core::packet::{unpack, Packet};
use chunks::transport::{ConnectionParams, DeliveryMode, Receiver, RxEvent, Sender, SenderConfig};
use chunks::wsc::InvariantLayout;

fn params() -> ConnectionParams {
    ConnectionParams {
        conn_id: 0x5E,
        elem_size: 1,
        initial_csn: 10,
        tpdu_elements: 64,
    }
}

fn setup(message: &[u8]) -> (Sender, Receiver) {
    let layout = InvariantLayout::with_data_symbols(4096);
    let mut tx = Sender::new(SenderConfig {
        params: params(),
        layout,
        mtu: 96, // small packets so TPDUs fragment
        min_tpdu_elements: 8,
        max_tpdu_elements: 256,
    });
    let rx = Receiver::new(DeliveryMode::Immediate, params(), layout, 4096);
    tx.submit_simple(message, 0xF, false);
    (tx, rx)
}

#[test]
fn gap_ack_names_exact_missing_ranges() {
    let message: Vec<u8> = (0..128).map(|i| i as u8).collect();
    let (tx, mut rx) = setup(&message);
    let packets = tx.packets_for_pending().unwrap();
    // Drop packet 1 (a middle fragment).
    for (i, p) in packets.iter().enumerate() {
        if i != 1 {
            rx.handle_packet_into(p, 0, &mut Vec::new());
        }
    }
    let ack = rx.make_ack();
    assert!(!ack.gaps.is_empty(), "missing ranges reported");
    let dropped = unpack(&packets[1]).unwrap();
    let first_missing = dropped
        .iter()
        .filter(|c| c.header.ty == chunks::core::label::ChunkType::Data)
        .map(|c| (c.header.conn.sn - 10) as u64)
        .min()
        .unwrap();
    assert!(
        ack.gaps.iter().any(|&(lo, _)| lo == first_missing),
        "gap list {:?} should start at the dropped chunk ({first_missing})",
        ack.gaps
    );
}

#[test]
fn selective_retransmission_completes_and_saves_bytes() {
    let message: Vec<u8> = (0..256).map(|i| (i * 3) as u8).collect();
    let (mut tx, mut rx) = setup(&message);
    let packets = tx.packets_for_pending().unwrap();
    let full_bytes: usize = packets.iter().map(|p| p.len()).sum();
    // Drop two packets.
    for (i, p) in packets.iter().enumerate() {
        if i != 1 && i != 4 {
            rx.handle_packet_into(p, 0, &mut Vec::new());
        }
    }
    let ack = rx.make_ack();
    let repair = tx.retransmit_for_ack(&ack).unwrap();
    let repair_bytes: usize = repair.iter().map(|p| p.len()).sum();
    assert!(
        repair_bytes < full_bytes / 2,
        "repair {repair_bytes} B should be far below full {full_bytes} B"
    );
    let mut delivered = 0;
    let mut events = Vec::new();
    for p in &repair {
        rx.handle_packet_into(p, 1, &mut events);
        for e in events.drain(..) {
            if matches!(e, RxEvent::TpduDelivered { .. }) {
                delivered += 1;
            }
        }
    }
    assert!(delivered > 0);
    assert_eq!(rx.verified_prefix(), message.len() as u64);
    assert_eq!(&rx.app_data()[..message.len()], &message[..]);
    // The whole window can now be acknowledged.
    tx.handle_ack(&rx.make_ack());
    assert_eq!(tx.pending_tpdus(), 0);
}

#[test]
fn gap_retransmission_tolerates_repeated_loss() {
    let message: Vec<u8> = (0..512).map(|i| (i * 7) as u8).collect();
    let (mut tx, mut rx) = setup(&message);
    let packets = tx.packets_for_pending().unwrap();
    // Deliver only every third packet initially.
    for (i, p) in packets.iter().enumerate() {
        if i % 3 == 0 {
            rx.handle_packet_into(p, 0, &mut Vec::new());
        }
    }
    // Iterate gap repair, losing the first repair packet each round.
    for round in 0..8 {
        let ack = rx.make_ack();
        if ack.cumulative == message.len() as u64 {
            break;
        }
        let repair = tx.retransmit_for_ack(&ack).unwrap();
        assert!(!repair.is_empty(), "round {round}: gaps but no repair?");
        for (i, p) in repair.iter().enumerate() {
            if round < 2 && i == 0 {
                continue; // lose it again
            }
            rx.handle_packet_into(p, round + 1, &mut Vec::new());
        }
    }
    assert_eq!(rx.verified_prefix(), message.len() as u64);
    assert_eq!(&rx.app_data()[..message.len()], &message[..]);
}

#[test]
fn failed_tpdu_is_renacked_in_full() {
    let message: Vec<u8> = (0..64).map(|i| i as u8).collect();
    let (mut tx, mut rx) = setup(&message);
    let packets = tx.packets_for_pending().unwrap();
    // Corrupt the first packet's payload byte (past the header).
    let mut raw = packets[0].bytes.to_vec();
    let len = raw.len();
    raw[len - 3] ^= 0x80;
    rx.handle_packet_into(&Packet { bytes: raw.into() }, 0, &mut Vec::new());
    for p in &packets[1..] {
        rx.handle_packet_into(p, 0, &mut Vec::new());
    }
    let ack = rx.make_ack();
    assert!(
        ack.gaps.iter().any(|&(lo, hi)| lo == 0 && hi >= 64),
        "ED-failed TPDU must be nacked whole: {:?}",
        ack.gaps
    );
    // Reset and repair.
    for s in rx.failed_starts() {
        rx.reset_group(s);
    }
    for p in tx.retransmit_for_ack(&ack).unwrap() {
        rx.handle_packet_into(&p, 1, &mut Vec::new());
    }
    assert_eq!(rx.verified_prefix(), 64);
}
