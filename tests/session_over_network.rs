//! Full-duplex sessions across the simulated network, including a mid-run
//! route change — all three §1 disordering sources against the complete
//! protocol stack.

use chunks::netsim::{LinkConfig, Path, PathBuilder};
use chunks::transport::{ConnectionParams, DeliveryMode, SenderConfig, Session};
use chunks::wsc::InvariantLayout;

fn endpoint(local: u32, remote: u32, mtu: usize) -> Session {
    let params = |conn_id| ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: 256,
    };
    Session::new(
        SenderConfig {
            params: params(local),
            layout: InvariantLayout::default(),
            mtu,
            min_tpdu_elements: 32,
            max_tpdu_elements: 2048,
        },
        params(remote),
        InvariantLayout::default(),
        DeliveryMode::Immediate,
        1 << 16,
    )
}

/// Ships one pump of `from` at time zero through a fresh path and feeds
/// the peer. The clock never reaches an RTO, so only acks drive repair.
fn ship(path: &mut Path, from: &mut Session, peer: &mut Session) {
    let mut batch = Vec::new();
    from.pump_into(0, &mut batch).unwrap();
    let inputs = batch
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64 * 600, p.bytes))
        .collect();
    let mut events = Vec::new();
    for d in path.run(inputs) {
        let packet = d.frame;
        peer.handle_packet_into(&packet, d.time, &mut events);
    }
}

/// The inbound stream as the application reads it.
fn read(s: &Session) -> Vec<u8> {
    let (head, tail) = s.readable();
    [head, tail].concat()
}

#[test]
fn duplex_over_lossy_multipath() {
    let mtu = 1500;
    let mut a = endpoint(1, 2, mtu);
    let mut b = endpoint(2, 1, mtu);
    let msg_a: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
    let msg_b: Vec<u8> = (0..25_000).map(|i| (i % 239) as u8).collect();
    a.send(&msg_a, 0xA, false);
    b.send(&msg_b, 0xB, false);

    let cfg = LinkConfig::clean(mtu, 80_000, 622_000_000)
        .with_loss(0.03)
        .with_jitter(100_000);
    let mut rounds = 0;
    while !(a.outbound_done() && b.outbound_done()) {
        rounds += 1;
        assert!(rounds < 30, "did not converge");
        let mut ab = PathBuilder::new(100 + rounds)
            .multipath(4, cfg, 50_000)
            .build();
        ship(&mut ab, &mut a, &mut b);
        let mut ba = PathBuilder::new(200 + rounds)
            .multipath(4, cfg, 50_000)
            .build();
        ship(&mut ba, &mut b, &mut a);
    }
    assert_eq!(read(&b), msg_a);
    assert_eq!(read(&a), msg_b);
    // Immediate mode on both sides: one touch per delivered payload byte.
    assert_eq!(b.rx_stats().data_touches, msg_a.len() as u64);
}

#[test]
fn transfer_survives_route_change() {
    // A route change mid-transfer: the new route is 10x faster, so packets
    // sent after the switch overtake those still in flight on the old one.
    let mtu = 1500;
    let mut a = endpoint(3, 4, mtu);
    let mut b = endpoint(4, 3, mtu);
    let msg: Vec<u8> = (0..30_000).map(|i| (i % 233) as u8).collect();
    a.send(&msg, 0xC, false);

    let old = LinkConfig::clean(mtu, 2_000_000, 0); // 2 ms
    let new = LinkConfig::clean(mtu, 200_000, 0); // 0.2 ms
    let mut rounds = 0;
    while !a.outbound_done() {
        rounds += 1;
        assert!(rounds < 10, "did not converge");
        // The switch happens while the batch is still being injected.
        let mut ab = PathBuilder::new(rounds)
            .route_change(old, new, 4_000)
            .build();
        ship(&mut ab, &mut a, &mut b);
        let mut ba = PathBuilder::new(50 + rounds)
            .link(LinkConfig::clean(mtu, 100_000, 0))
            .build();
        ship(&mut ba, &mut b, &mut a);
    }
    assert_eq!(read(&b), msg);
    assert_eq!(rounds, 1, "pure reordering needs no retransmission at all");
    assert_eq!(b.rx_stats().tpdus_failed, 0);
}
