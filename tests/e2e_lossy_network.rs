//! End-to-end integration: the chunk transport over the simulated network —
//! loss, duplication, corruption, multipath reordering, and in-network
//! refragmentation, all at once.

use chunks::core::wire::WIRE_HEADER_LEN;
use chunks::netsim::{ChunkRouter, LinkConfig, PathBuilder, RefragPolicy};
use chunks::transport::{ConnectionParams, DeliveryMode, Receiver, Sender, SenderConfig};
use chunks::wsc::InvariantLayout;

fn params(tpdu_elements: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id: 0xE2E,
        elem_size: 1,
        initial_csn: 42,
        tpdu_elements,
    }
}

/// Runs a reliable transfer over `build_path`, retrying until complete or
/// `max_rounds`. Returns (rounds, receiver).
fn transfer(
    message: &[u8],
    mode: DeliveryMode,
    tpdu_elements: u32,
    mtu: usize,
    seed: u64,
    mut build_path: impl FnMut(u64) -> chunks::netsim::Path,
    max_rounds: u32,
) -> (u32, Receiver) {
    let p = params(tpdu_elements);
    let layout = InvariantLayout::default();
    let mut tx = Sender::new(SenderConfig {
        params: p,
        layout,
        mtu,
        min_tpdu_elements: 64,
        max_tpdu_elements: 1 << 14,
    });
    let mut rx = Receiver::new(mode, p, layout, message.len() as u64 + 64);
    tx.submit_simple(message, 0xAB, false);
    let mut rounds = 0;
    let mut clock = 0u64;
    while rounds < max_rounds {
        rounds += 1;
        let packets = if rounds == 1 {
            tx.packets_for_pending().unwrap()
        } else {
            for s in rx.failed_starts() {
                rx.reset_group(s);
            }
            let missing = tx.unacked_starts();
            if missing.is_empty() {
                break;
            }
            tx.retransmit(&missing).unwrap()
        };
        let mut path = build_path(seed.wrapping_add(rounds as u64));
        let inputs = packets
            .into_iter()
            .enumerate()
            .map(|(i, pk)| (clock + i as u64 * 500, pk.bytes))
            .collect();
        let deliveries = path.run(inputs);
        for d in &deliveries {
            let packet = d.frame.clone();
            rx.handle_packet_into(&packet, d.time, &mut Vec::new());
        }
        clock = deliveries.last().map(|d| d.time).unwrap_or(clock) + 1_000_000;
        tx.handle_ack(&rx.make_ack());
        if tx.pending_tpdus() == 0 {
            break;
        }
    }
    (rounds, rx)
}

#[test]
fn clean_multipath_transfer() {
    let message: Vec<u8> = (0..32_768).map(|i| (i % 253) as u8).collect();
    let (rounds, rx) = transfer(
        &message,
        DeliveryMode::Immediate,
        2048,
        1500,
        1,
        |s| {
            PathBuilder::new(s)
                .multipath(8, LinkConfig::clean(1500, 100_000, 622_000_000), 25_000)
                .build()
        },
        4,
    );
    assert_eq!(rounds, 1, "no loss, one round");
    assert_eq!(&rx.app_data()[..message.len()], &message[..]);
    assert_eq!(rx.stats.data_touches, message.len() as u64);
}

#[test]
fn lossy_duplicating_network_recovers() {
    let message: Vec<u8> = (0..20_000).map(|i| (i % 241) as u8).collect();
    let cfg = LinkConfig::clean(1500, 50_000, 155_000_000)
        .with_loss(0.08)
        .with_duplicate(0.05)
        .with_jitter(200_000);
    let (rounds, rx) = transfer(
        &message,
        DeliveryMode::Immediate,
        1024,
        1500,
        7,
        |s| PathBuilder::new(s).link(cfg).link(cfg).build(),
        24,
    );
    assert!(rounds < 24, "converged");
    assert_eq!(rx.verified_prefix(), message.len() as u64);
    assert_eq!(&rx.app_data()[..message.len()], &message[..]);
    assert!(rx.stats.duplicate_chunks > 0, "duplication exercised");
}

#[test]
fn corrupting_network_detected_and_recovered() {
    let message: Vec<u8> = (0..24_576).map(|i| (i % 239) as u8).collect();
    let cfg = LinkConfig::clean(1500, 10_000, 0).with_corrupt(0.4);
    let (rounds, rx) = transfer(
        &message,
        DeliveryMode::Immediate,
        512,
        1500,
        11,
        |s| PathBuilder::new(s).link(cfg).build(),
        48,
    );
    assert!(rounds < 48, "converged despite corruption");
    assert_eq!(rx.verified_prefix(), message.len() as u64);
    assert_eq!(&rx.app_data()[..message.len()], &message[..]);
    assert!(
        rx.stats.tpdus_failed > 0 || rx.stats.bad_packets > 0,
        "corruption must have been caught at least once \
         (failed={}, bad={})",
        rx.stats.tpdus_failed,
        rx.stats.bad_packets
    );
}

#[test]
fn midpath_refragmentation_is_transparent() {
    let message: Vec<u8> = (0..10_000).map(|i| (i % 233) as u8).collect();
    let narrow = WIRE_HEADER_LEN + 256;
    let (rounds, rx) = transfer(
        &message,
        DeliveryMode::Immediate,
        1024,
        1500,
        13,
        |s| {
            PathBuilder::new(s)
                .link(LinkConfig::clean(1500, 20_000, 0))
                .routed_link(
                    Box::new(ChunkRouter::new(narrow, RefragPolicy::Repack)),
                    LinkConfig::clean(narrow, 20_000, 0),
                )
                .routed_link(
                    Box::new(ChunkRouter::new(
                        1500,
                        RefragPolicy::Reassemble { window: 8 },
                    )),
                    LinkConfig::clean(1500, 20_000, 0),
                )
                .build()
        },
        4,
    );
    assert_eq!(rounds, 1);
    assert_eq!(&rx.app_data()[..message.len()], &message[..]);
}

#[test]
fn all_modes_deliver_identical_data_under_stress() {
    let message: Vec<u8> = (0..16_384).map(|i| (i % 227) as u8).collect();
    let cfg = LinkConfig::clean(1500, 30_000, 622_000_000)
        .with_loss(0.04)
        .with_jitter(150_000);
    for mode in [
        DeliveryMode::Immediate,
        DeliveryMode::Reorder,
        DeliveryMode::Reassemble,
    ] {
        let (rounds, rx) = transfer(
            &message,
            mode,
            1024,
            1500,
            17,
            |s| PathBuilder::new(s).multipath(4, cfg, 60_000).build(),
            24,
        );
        assert!(rounds < 24, "{mode:?} converged");
        assert_eq!(
            &rx.app_data()[..message.len()],
            &message[..],
            "{mode:?} delivered identical data"
        );
    }
}

#[test]
fn connection_close_travels_end_to_end() {
    let p = params(512);
    let layout = InvariantLayout::default();
    let mut tx = Sender::new(SenderConfig {
        params: p,
        layout,
        mtu: 1500,
        min_tpdu_elements: 64,
        max_tpdu_elements: 4096,
    });
    let mut rx = Receiver::new(DeliveryMode::Immediate, p, layout, 4096);
    tx.submit_simple(&[9u8; 1000], 1, true); // close = C.ST on last element
    for pk in tx.packets_for_pending().unwrap() {
        rx.handle_packet_into(&pk, 0, &mut Vec::new());
    }
    assert!(rx.is_closed());
    assert_eq!(rx.verified_prefix(), 1000);
}
