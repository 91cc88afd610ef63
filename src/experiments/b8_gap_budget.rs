//! B8: how much gap-list hardware does virtual reassembly need? (§3.3's
//! VLSI pointer, ablated.)
//!
//! TPDUs are fragmented and striped over a skewed multipath, so fragments
//! arrive interleaved; a [`chunks_vreasm::BoundedTracker`]
//! with `b` registers refuses any fragment that would open run `b + 1`.
//! We sweep the register budget against the multipath width and count
//! refusals (each refusal is a forced retransmission in hardware).

use std::fmt;

use chunks_core::frag::split_to_fit;
use chunks_core::packet::{pack, unpack};
use chunks_core::wire::WIRE_HEADER_LEN;
use chunks_netsim::{LinkConfig, PathBuilder};
use chunks_transport::{ConnectionParams, Framer};
use chunks_vreasm::{BoundedEvent, BoundedTracker};
use chunks_wsc::InvariantLayout;

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct B8Row {
    /// Parallel paths in the bundle.
    pub paths: usize,
    /// Gap-list registers per TPDU.
    pub budget: usize,
    /// Fragments refused (forced retransmissions).
    pub refusals: u64,
    /// Fragments offered.
    pub offered: u64,
}

/// Full B8 result.
pub struct B8Result {
    /// Rows over (paths, budget).
    pub rows: Vec<B8Row>,
}

impl fmt::Display for B8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== B8 — virtual-reassembly gap-list budget vs multipath disorder ==="
        )?;
        writeln!(
            f,
            "  {:>6} {:>8} {:>10} {:>10} {:>9}",
            "paths", "budget", "refused", "offered", "rate"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>6} {:>8} {:>10} {:>10} {:>8.1}%",
                r.paths,
                r.budget,
                r.refusals,
                r.offered,
                r.refusals as f64 * 100.0 / r.offered.max(1) as f64
            )?;
        }
        Ok(())
    }
}

fn run_cell(paths: usize, budget: usize, seed: u64) -> B8Row {
    let params = ConnectionParams {
        conn_id: 1,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: 256,
    };
    let mut framer = Framer::new(params, InvariantLayout::default());
    let tpdus = framer.frame_simple(&vec![0x11u8; 16 * 256], 0xF, false);
    // Fragment every TPDU's chunk to 32-element pieces, one per packet.
    let frames: Vec<Vec<u8>> = tpdus
        .iter()
        .flat_map(|t| t.chunks.iter())
        .flat_map(|c| split_to_fit(c.clone(), WIRE_HEADER_LEN + 32).unwrap())
        .map(|c| pack(vec![c], 1 << 12).unwrap()[0].bytes.to_vec())
        .collect();

    // Stripe over a skewed multipath.
    let mut path = PathBuilder::new(seed)
        .multipath(
            paths,
            LinkConfig::clean(1 << 12, 100_000, 155_000_000),
            60_000,
        )
        .build();
    let inputs = frames
        .into_iter()
        .enumerate()
        .map(|(i, f)| (i as u64 * 2_000, f))
        .collect();
    let deliveries = path.run(inputs);

    let mut trackers: std::collections::HashMap<u64, BoundedTracker> =
        std::collections::HashMap::new();
    let mut refusals = 0;
    let mut offered = 0;
    for d in &deliveries {
        for c in unpack(&d.frame.clone()).unwrap() {
            if c.header.ty.is_control() {
                continue;
            }
            offered += 1;
            let key = c.header.conn.sn.wrapping_sub(c.header.tpdu.sn) as u64;
            let t = trackers
                .entry(key)
                .or_insert_with(|| BoundedTracker::new(budget));
            if t.offer(
                c.header.tpdu.sn as u64,
                c.header.len as u64,
                c.header.tpdu.st,
            ) == BoundedEvent::Refused
            {
                refusals += 1;
            }
        }
    }
    B8Row {
        paths,
        budget,
        refusals,
        offered,
    }
}

/// Runs the sweep.
pub fn run(seed: u64) -> B8Result {
    let mut rows = Vec::new();
    for paths in [2usize, 4, 8] {
        for budget in [1usize, 2, 4, 8] {
            rows.push(run_cell(paths, budget, seed));
        }
    }
    B8Result { rows }
}
