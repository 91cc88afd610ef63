//! B1: the paper's headline performance claim (§1, §3.3) — processing data
//! as it arrives beats reordering and physical reassembly on both data
//! movement (bus crossings) and holding latency, and the gap grows with
//! network disorder and loss.
//!
//! A bulk transfer runs over a skewed four-way multipath (the paper's
//! parallel-ATM reordering source) with varying loss; the same transfer is
//! received in the three §3.3 modes. We report data touches per payload
//! byte, the staging-buffer high-water mark, and total holding delay.

use std::fmt;

use chunks_netsim::{LinkConfig, PathBuilder};
use chunks_transport::{ConnectionParams, DeliveryMode, Receiver, Sender, SenderConfig};
use chunks_wsc::InvariantLayout;

/// One measured cell of the B1 matrix.
#[derive(Clone, Copy, Debug)]
pub struct B1Row {
    /// Receiver strategy.
    pub mode: DeliveryMode,
    /// Link loss probability.
    pub loss: f64,
    /// Data touches per delivered payload byte.
    pub touches_per_byte: f64,
    /// Staging-buffer high-water mark in bytes.
    pub peak_buffer: u64,
    /// Total nanoseconds data spent waiting in staging buffers.
    pub holding_delay_ns: u64,
    /// Retransmission rounds needed to complete the transfer.
    pub rounds: u32,
    /// Whether the full stream was verified and delivered.
    pub complete: bool,
}

/// Full experiment result.
pub struct B1Result {
    /// Bytes transferred per cell.
    pub message_bytes: usize,
    /// All rows.
    pub rows: Vec<B1Row>,
}

impl fmt::Display for B1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== B1 — receiver strategies under disorder and loss ({} KiB transfer) ===",
            self.message_bytes / 1024
        )?;
        writeln!(
            f,
            "  {:<11} {:>6} {:>14} {:>12} {:>16} {:>7}",
            "mode", "loss", "touches/byte", "peak buffer", "holding delay", "rounds"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<11} {:>5.0}% {:>14.3} {:>10} B {:>13} us {:>7}{}",
                format!("{:?}", r.mode),
                r.loss * 100.0,
                r.touches_per_byte,
                r.peak_buffer,
                r.holding_delay_ns / 1000,
                r.rounds,
                if r.complete { "" } else { "  INCOMPLETE" }
            )?;
        }
        Ok(())
    }
}

/// Runs one cell: a full reliable transfer in the given mode over the given
/// loss rate.
fn run_cell(mode: DeliveryMode, loss: f64, message: &[u8], seed: u64) -> B1Row {
    let params = ConnectionParams {
        conn_id: 1,
        elem_size: 1,
        initial_csn: 7_000,
        tpdu_elements: 2048,
    };
    let layout = InvariantLayout::default();
    let mtu = 1500;
    let mut tx = Sender::new(SenderConfig {
        params,
        layout,
        mtu,
        min_tpdu_elements: 256,
        max_tpdu_elements: 8192,
    });
    let mut rx = Receiver::new(mode, params, layout, message.len() as u64 + 16);
    tx.submit_simple(message, 0xF, false);

    // Four parallel 155 Mbps-ish paths with 40 us skew: heavy reordering.
    let base = LinkConfig::clean(mtu, 100_000, 155_000_000).with_loss(loss);
    let mut rounds = 0;
    let mut clock = 0u64;
    while rounds < 32 {
        rounds += 1;
        let packets = if rounds == 1 {
            tx.packets_for_pending().expect("packable")
        } else {
            let missing = tx.unacked_starts();
            if missing.is_empty() {
                break;
            }
            // Clear any verification-failed groups before the retry.
            for s in rx.failed_starts() {
                rx.reset_group(s);
            }
            tx.retransmit(&missing).expect("packable")
        };
        let mut path = PathBuilder::new(seed.wrapping_add(rounds as u64))
            .multipath(4, base, 40_000)
            .build();
        let inputs = packets
            .into_iter()
            .enumerate()
            .map(|(i, p)| (clock + i as u64 * 1_000, p.bytes))
            .collect();
        let deliveries = path.run(inputs);
        for d in &deliveries {
            let packet = d.frame.clone();
            rx.handle_packet_into(&packet, d.time, &mut Vec::new());
        }
        clock = deliveries.last().map(|d| d.time).unwrap_or(clock) + 1_000_000;
        let ack = rx.make_ack();
        tx.handle_ack(&ack);
        if tx.pending_tpdus() == 0 {
            break;
        }
        tx.on_loss();
    }

    let delivered = rx.verified_prefix();
    B1Row {
        mode,
        loss,
        touches_per_byte: rx.stats.data_touches as f64 / message.len() as f64,
        peak_buffer: rx.stats.peak_buffered_bytes,
        holding_delay_ns: rx.stats.holding_delay,
        rounds,
        complete: delivered == message.len() as u64,
    }
}

/// Runs the full B1 matrix.
pub fn run(message_bytes: usize, seed: u64) -> B1Result {
    let message: Vec<u8> = (0..message_bytes).map(|i| (i * 31 + 7) as u8).collect();
    let mut rows = Vec::new();
    for mode in [
        DeliveryMode::Immediate,
        DeliveryMode::Reorder,
        DeliveryMode::Reassemble,
    ] {
        for loss in [0.0, 0.01, 0.05] {
            rows.push(run_cell(mode, loss, &message, seed));
        }
    }
    B1Result {
        message_bytes,
        rows,
    }
}
