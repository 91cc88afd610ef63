//! Video over chunks — the paper's second motivating application (§1):
//! "Although the video frames themselves must be presented in the correct
//! order, data of an individual frame can be placed in the frame buffer as
//! they arrive without reordering."
//!
//! Each video frame is an external (ALF) PDU; the X-level stop bits tell
//! the receiver when a frame buffer is complete and presentable, no matter
//! how its cells arrived.
//!
//! ```sh
//! cargo run --example video_stream
//! ```

use chunks::netsim::{LinkConfig, PathBuilder};
use chunks::transport::{
    AlfFrame, ConnectionParams, DeliveryMode, Receiver, RxEvent, Sender, SenderConfig,
};
use chunks::wsc::InvariantLayout;

const FRAME_W: usize = 64;
const FRAME_H: usize = 48;
const FRAME_BYTES: usize = FRAME_W * FRAME_H; // one byte per pixel
const FRAMES: usize = 12;

fn main() {
    let params = ConnectionParams {
        conn_id: 3,
        elem_size: 16, // a 16-byte pixel block is the atomic unit
        initial_csn: 0,
        tpdu_elements: 512,
    };
    let layout = InvariantLayout::default();
    let mtu = 1500;
    let mut tx = Sender::new(SenderConfig {
        params,
        layout,
        mtu,
        min_tpdu_elements: 64,
        max_tpdu_elements: 4096,
    });
    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        params,
        layout,
        (FRAMES * FRAME_BYTES / 16) as u64,
    );

    // The video source: FRAMES frames, each an external PDU.
    let mut stream = Vec::with_capacity(FRAMES * FRAME_BYTES);
    for f in 0..FRAMES {
        for p in 0..FRAME_BYTES {
            stream.push(((f * 7 + p) % 256) as u8);
        }
    }
    let alf: Vec<AlfFrame> = (0..FRAMES as u32)
        .map(|f| AlfFrame {
            id: 0x700 + f,
            len_elements: (FRAME_BYTES / 16) as u32,
        })
        .collect();
    tx.submit(&stream, &alf, false);

    // A jittery path that reorders aggressively.
    let mut path = PathBuilder::new(0x71DE0)
        .multipath(4, LinkConfig::clean(mtu, 80_000, 622_000_000), 55_000)
        .build();
    let packets = tx.packets_for_pending().unwrap();
    println!(
        "{} video frames ({} B each) in {} packets",
        FRAMES,
        FRAME_BYTES,
        packets.len()
    );
    let inputs = packets
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64 * 500, p.bytes))
        .collect();

    // Frame completion is tracked with the X-level labels: a frame is
    // presentable when all its elements are placed. We watch TPDU
    // verification events and per-frame element counts.
    let mut frame_fill = [0usize; FRAMES];
    let mut presented = Vec::new();
    let mut events = Vec::new();
    for d in path.run(inputs) {
        let packet = d.frame.clone();
        // Peek at the chunks to observe per-frame placement (the receiver
        // itself places them into the connection address space).
        for c in chunks::core::packet::unpack(&packet).unwrap() {
            if c.header.ty == chunks::core::label::ChunkType::Data {
                let frame = (c.header.ext.id - 0x700) as usize;
                frame_fill[frame] += c.payload.len();
                if frame_fill[frame] == FRAME_BYTES {
                    presented.push(frame);
                }
            }
        }
        rx.handle_packet_into(&packet, d.time, &mut events);
        for e in events.drain(..) {
            if let RxEvent::TpduFailed { start, reason } = e {
                println!("  TPDU @ {start} failed: {reason:?}");
            }
        }
    }

    println!("frame-buffer completion order (arrival-driven): {presented:?}");
    assert_eq!(presented.len(), FRAMES, "every frame buffer filled");

    // Presentation order is decided by the application, not the network:
    // the frame buffers are correct regardless of completion order.
    for f in 0..FRAMES {
        let at = f * FRAME_BYTES;
        assert_eq!(
            &rx.app_data()[at..at + FRAME_BYTES],
            &stream[at..at + FRAME_BYTES],
            "frame {f} pixel-exact"
        );
    }
    println!(
        "all {FRAMES} frames pixel-exact; zero reordering buffer \
         (peak staging = {} bytes)",
        rx.stats.peak_buffered_bytes
    );
}
