//! Hop-by-hop simulation of a multi-hop path.
//!
//! A [`Path`] is a linear chain of hops; each hop is a link (possibly a
//! multipath bundle) optionally preceded by a [`PacketTransform`] router.
//! Frames are injected at the head with timestamps and collected at the tail
//! with their arrival times — possibly out of order, which is the point.
//!
//! # Why there is no event heap
//!
//! A hop's state — its router's window, its link's serialization clock and
//! fault RNG — depends only on the *order* of its own arrivals, and that
//! order is (arrival time, then the order in which the hop before emitted
//! them). A discrete-event heap keyed `(time, push sequence)` computes
//! exactly that order. On a linear chain — every arrival at hop `k + 1` is a
//! departure of hop `k`, and no link delivers before it was offered — so
//! does a *stable* sort by time of hop `k`'s departure list, ties included.
//! So one routine (`propagate`, under [`Path::run`], [`Path::transmit`] and
//! [`Path::flush`]) carries a whole list of frames through one hop at a
//! time: sort (a linear scan on FIFO links, whose departures are already in
//! order), feed the hop, and hand its departures to the next. The test
//! module keeps the heap as the oracle this is compared against.
//!
//! # Frames are handles
//!
//! A frame is a [`Bytes`] handle from the moment it is injected to its
//! [`Delivery`]: links move it, a router hands what it emits straight to its
//! link ([`PacketTransform::ingest_batch`]), and no hop copies a payload
//! byte except the ones whose job is to write new frames (a refragmenting
//! router, one buffer per window) or to damage one (a corrupting link,
//! copy-on-write). A routerless path therefore allocates nothing per frame:
//! a run asks for its hop lists and its output, plus the sort's scratch only
//! on a hop that disorders. [`Path::run`] and [`Path::transmit`] take
//! anything that converts into `Bytes` — a packet's handle as it is, or an
//! owned `Vec<u8>`, whose buffer becomes the handle's without a copy.
//!
//! With a recording sink attached the *record* order follows the processing
//! order. A single injected frame ([`Path::transmit`]) or a flush on a path
//! of up to two hops — every [`Profile`](crate::Profile) — records exactly
//! as the heap did, since the first hop has one event and the far end
//! records nothing. Deeper observed paths, and [`Path::run`] over several
//! inputs, record hop-major: all of hop `k` before any of hop `k + 1`, each
//! record still stamped with its own virtual time.

use std::sync::Arc;

use bytes::Bytes;
use chunks_core::packet::Packet;
use chunks_obs::ObsSink;

use crate::link::{Link, LinkConfig, LinkStats, MultipathLink, RouteChangeLink};
use crate::router::PacketTransform;

/// A link that is either a single wire or a skewed multipath bundle.
#[derive(Debug)]
pub enum AnyLink {
    /// One point-to-point link.
    Single(Box<Link>),
    /// A round-robin striped bundle.
    Multi(Box<MultipathLink>),
    /// A link whose route (and latency) changes mid-run.
    RouteChange(Box<RouteChangeLink>),
}

/// Frames in flight between two hops: `(time, frame)`.
type Frames = Vec<(u64, Bytes)>;

/// Orders a list by `time`, equal times keeping their order. A list already
/// in order costs one scan: only a disordered one gets the sort's scratch.
fn sort_by_time<T>(list: &mut [T], time: impl Fn(&T) -> u64) {
    if !list.is_sorted_by_key(&time) {
        list.sort_by_key(time);
    }
}

impl AnyLink {
    fn transmit_into(&mut self, now: u64, frame: Bytes, out: &mut Frames) {
        match self {
            AnyLink::Single(l) => l.transmit_into(now, frame, out),
            AnyLink::Multi(m) => m.transmit_into(now, frame, out),
            AnyLink::RouteChange(r) => r.transmit_into(now, frame, out),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> LinkStats {
        match self {
            AnyLink::Single(l) => l.stats,
            AnyLink::Multi(m) => m.stats(),
            AnyLink::RouteChange(r) => r.stats(),
        }
    }

    /// Attaches an observability sink to whichever link this is.
    pub fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        match self {
            AnyLink::Single(l) => l.set_obs(sink),
            AnyLink::Multi(m) => m.set_obs(sink),
            AnyLink::RouteChange(r) => r.set_obs(sink),
        }
    }
}

/// One hop of a path: an optional router followed by a link.
pub struct Hop {
    /// Router applied to frames entering this hop (fragmentation point).
    pub router: Option<Box<dyn PacketTransform>>,
    /// The link the hop transmits on.
    pub link: AnyLink,
}

impl std::fmt::Debug for Hop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hop")
            .field("router", &self.router.as_ref().map(|_| "<transform>"))
            .field("link", &self.link)
            .finish()
    }
}

/// A linear chain of hops.
#[derive(Debug, Default)]
pub struct Path {
    hops: Vec<Hop>,
}

/// Builder for [`Path`].
#[derive(Debug, Default)]
pub struct PathBuilder {
    hops: Vec<Hop>,
    seed: u64,
}

impl PathBuilder {
    /// Starts a path whose links draw faults from `seed`.
    pub fn new(seed: u64) -> Self {
        PathBuilder {
            hops: Vec::new(),
            seed,
        }
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.seed
    }

    /// Appends a plain link.
    pub fn link(mut self, cfg: LinkConfig) -> Self {
        let seed = self.next_seed();
        self.hops.push(Hop {
            router: None,
            link: AnyLink::Single(Box::new(Link::new(cfg, seed))),
        });
        self
    }

    /// Appends a router followed by a link.
    pub fn routed_link(mut self, router: Box<dyn PacketTransform>, cfg: LinkConfig) -> Self {
        let seed = self.next_seed();
        self.hops.push(Hop {
            router: Some(router),
            link: AnyLink::Single(Box::new(Link::new(cfg, seed))),
        });
        self
    }

    /// Appends a link whose route changes (old → new) at `switch_at_ns`.
    pub fn route_change(mut self, old: LinkConfig, new: LinkConfig, switch_at_ns: u64) -> Self {
        let seed = self.next_seed();
        self.hops.push(Hop {
            router: None,
            link: AnyLink::RouteChange(Box::new(RouteChangeLink::new(
                old,
                new,
                switch_at_ns,
                seed,
            ))),
        });
        self
    }

    /// Appends a multipath bundle of `n` sub-links skewed by `skew_ns`.
    pub fn multipath(mut self, n: usize, base: LinkConfig, skew_ns: u64) -> Self {
        let seed = self.next_seed();
        self.hops.push(Hop {
            router: None,
            link: AnyLink::Multi(Box::new(MultipathLink::skewed(n, base, skew_ns, seed))),
        });
        self
    }

    /// Finishes the path.
    pub fn build(self) -> Path {
        Path { hops: self.hops }
    }
}

/// Result of a path run.
#[derive(Debug)]
pub struct Delivery {
    /// Arrival time at the far end, in nanoseconds.
    pub time: u64,
    /// The delivered frame, as the packet the far end receives: the handle
    /// the last hop delivered, not a copy.
    pub frame: Packet,
}

impl Path {
    /// Access to the hops (for statistics).
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Attaches an observability sink to every hop of the path — links
    /// record `hop` transit spans, routers record fragmentation span links.
    /// With the default [`chunks_obs::NullSink`] this is a no-op.
    pub fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        for hop in &mut self.hops {
            if let Some(r) = &mut hop.router {
                r.set_obs(Arc::clone(&sink));
            }
            hop.link.set_obs(Arc::clone(&sink));
        }
    }

    /// Carries `arrivals` — frames reaching hop `first_hop`, in emission
    /// order — through that hop and every later one, a hop at a time, and
    /// returns the far-end deliveries in arrival-time order (equal times in
    /// the last hop's emission order).
    fn propagate(&mut self, first_hop: usize, mut arrivals: Frames) -> Vec<Delivery> {
        for Hop { router, link } in &mut self.hops[first_hop..] {
            sort_by_time(&mut arrivals, |f| f.0);
            let mut departures = Vec::with_capacity(arrivals.len());
            let mut depart = |now, f| link.transmit_into(now, f, &mut departures);
            match router {
                Some(r) => r.ingest_batch(&mut arrivals.into_iter(), &mut depart),
                None => arrivals.into_iter().for_each(|(now, f)| depart(now, f)),
            }
            arrivals = departures;
        }
        sort_by_time(&mut arrivals, |f| f.0);
        // Same layout, so the list is converted where it lies.
        arrivals
            .into_iter()
            .map(|(time, bytes)| Delivery {
                time,
                frame: Packet { bytes },
            })
            .collect()
    }

    /// Transmits one frame injected at `now` through every hop, returning
    /// the far-end deliveries. Unlike [`run`](Self::run) this is
    /// incremental: callers interleave injections with their own clock (a
    /// closed-loop transfer with acks and retransmissions). Frames a router
    /// holds back for batching stay queued until [`flush`](Self::flush).
    pub fn transmit(&mut self, now: u64, frame: impl Into<Bytes>) -> Vec<Delivery> {
        self.propagate(0, vec![(now, frame.into())])
    }

    /// Drains router batching windows hop by hop at virtual time `now`;
    /// flushed frames traverse the remaining hops. Returns any resulting
    /// far-end deliveries sorted by arrival time.
    pub fn flush(&mut self, now: u64) -> Vec<Delivery> {
        let (mut out, mut emitted) = (Vec::new(), Vec::new());
        for i in 0..self.hops.len() {
            let hop = &mut self.hops[i];
            if let Some(r) = &mut hop.router {
                r.flush(now, &mut emitted);
            }
            if emitted.is_empty() {
                continue;
            }
            let mut departures = Vec::with_capacity(emitted.len());
            for f in emitted.drain(..) {
                hop.link.transmit_into(now, f, &mut departures);
            }
            out.extend(self.propagate(i + 1, departures));
        }
        sort_by_time(&mut out, |d| d.time);
        out
    }

    /// Runs frames through the path; `inputs` are `(inject_time, frame)`
    /// pairs. Returns deliveries at the far end sorted by arrival time.
    pub fn run<F: Into<Bytes>>(&mut self, inputs: Vec<(u64, F)>) -> Vec<Delivery> {
        // Same layout either way, so the list is converted where it lies.
        let inputs = inputs.into_iter().map(|(t, f)| (t, f.into())).collect();
        let mut out = self.propagate(0, inputs);
        // Drain router windows hop by hop at the last delivery's time; no link
        // delivers before a frame is offered, so the merge is one scan.
        let flush_time = out.last().map(|d| d.time).unwrap_or(0);
        let flushed = self.flush(flush_time);
        if !flushed.is_empty() {
            out.extend(flushed);
            sort_by_time(&mut out, |d| d.time);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{ChunkRouter, RefragPolicy};
    use chunks_core::chunk::byte_chunk;
    use chunks_core::frag::ReassemblyPool;
    use chunks_core::label::FramingTuple;
    use chunks_core::packet::{pack, unpack};
    use chunks_core::wire::WIRE_HEADER_LEN;

    #[test]
    fn two_hop_latency_accumulates() {
        let mut p = PathBuilder::new(1)
            .link(LinkConfig::clean(1500, 1000, 0))
            .link(LinkConfig::clean(1500, 2000, 0))
            .build();
        let out = p.run(vec![(0, vec![1, 2, 3])]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time, 3000);
        assert_eq!(out[0].frame.bytes, vec![1, 2, 3]);
    }

    #[test]
    fn multipath_reorders_across_path() {
        let base = LinkConfig::clean(1500, 1000, 0);
        let mut p = PathBuilder::new(1).multipath(2, base, 50_000).build();
        let inputs: Vec<(u64, Vec<u8>)> = (0..4u8).map(|i| (i as u64, vec![i])).collect();
        let out = p.run(inputs);
        let ids: Vec<u8> = out.iter().map(|d| d.frame.bytes[0]).collect();
        assert_eq!(ids, vec![0, 2, 1, 3]);
    }

    #[test]
    fn router_fragments_mid_path_and_receiver_reassembles() {
        // Big MTU, then a narrow hop: the router splits chunks; the
        // receiver's single-step reassembly recovers the original.
        let payload: Vec<u8> = (0..120).map(|i| i as u8).collect();
        let chunk = byte_chunk(
            FramingTuple::new(1, 0, false),
            FramingTuple::new(2, 0, true),
            FramingTuple::new(3, 0, false),
            &payload,
        );
        let packets = pack(vec![chunk.clone()], 9000).unwrap();
        let narrow = WIRE_HEADER_LEN + 50;
        let mut p = PathBuilder::new(2)
            .link(LinkConfig::clean(9000, 1000, 0))
            .routed_link(
                Box::new(ChunkRouter::new(narrow, RefragPolicy::Repack)),
                LinkConfig::clean(narrow, 1000, 0),
            )
            .build();
        let inputs = packets.into_iter().map(|p| (0u64, p.bytes)).collect();
        let out = p.run(inputs);
        assert!(out.len() >= 2, "fragmented into several frames");
        let mut pool = ReassemblyPool::new();
        for d in out {
            for c in unpack(&d.frame).unwrap() {
                pool.insert(c);
            }
        }
        assert_eq!(pool.take_complete().unwrap(), chunk);
    }

    #[test]
    fn lossy_path_drops_frames() {
        let mut p = PathBuilder::new(3)
            .link(LinkConfig::clean(1500, 0, 0).with_loss(0.5))
            .build();
        let inputs: Vec<(u64, Vec<u8>)> = (0..1000).map(|i| (i, vec![0u8; 10])).collect();
        let out = p.run(inputs);
        assert!(
            out.len() > 300 && out.len() < 700,
            "delivered {}",
            out.len()
        );
        assert_eq!(p.hops()[0].link.stats().lost, 1000 - out.len() as u64);
    }

    #[test]
    fn deliveries_sorted_by_time() {
        let base = LinkConfig::clean(1500, 100, 0).with_jitter(10_000);
        let mut p = PathBuilder::new(9).link(base).build();
        let inputs: Vec<(u64, Vec<u8>)> = (0..50).map(|i| (i * 10, vec![i as u8])).collect();
        let out = p.run(inputs);
        for w in out.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    use crate::profiles::Profile;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The parent commit's `Path`, kept as the oracle: one discrete-event
    /// heap of `(arrival time, FIFO tiebreak, next hop index, frame)` that
    /// interleaves every hop by time.
    type EventHeap = BinaryHeap<Reverse<(u64, u64, usize, Bytes)>>;

    fn pump(path: &mut Path, heap: &mut EventHeap, seq: &mut u64, out: &mut Vec<Delivery>) {
        while let Some(Reverse((now, _, hop_idx, frame))) = heap.pop() {
            if hop_idx == path.hops.len() {
                out.push(Delivery {
                    time: now,
                    frame: Packet { bytes: frame },
                });
                continue;
            }
            let hop = &mut path.hops[hop_idx];
            let mut frames = Vec::new();
            match &mut hop.router {
                Some(r) => r.ingest_batch(&mut std::iter::once((now, frame)), &mut |_, f| {
                    frames.push(f)
                }),
                None => frames.push(frame),
            }
            for f in frames {
                let mut deliveries = Vec::new();
                hop.link.transmit_into(now, f, &mut deliveries);
                for (arrival, delivered) in deliveries {
                    heap.push(Reverse((arrival, *seq, hop_idx + 1, delivered)));
                    *seq += 1;
                }
            }
        }
    }

    fn heap_transmit(path: &mut Path, now: u64, frame: Bytes) -> Vec<Delivery> {
        let mut heap: EventHeap = BinaryHeap::new();
        let mut seq = 1u64;
        heap.push(Reverse((now, 0, 0, frame)));
        let mut out = Vec::new();
        pump(path, &mut heap, &mut seq, &mut out);
        out
    }

    fn heap_flush(path: &mut Path, now: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        let mut seq = 0u64;
        for i in 0..path.hops.len() {
            let mut flushed = Vec::new();
            if let Some(r) = &mut path.hops[i].router {
                r.flush(now, &mut flushed);
            }
            let mut heap: EventHeap = BinaryHeap::new();
            for f in flushed {
                let mut deliveries = Vec::new();
                path.hops[i].link.transmit_into(now, f, &mut deliveries);
                for (arrival, delivered) in deliveries {
                    heap.push(Reverse((arrival, seq, i + 1, delivered)));
                    seq += 1;
                }
            }
            pump(path, &mut heap, &mut seq, &mut out);
        }
        out.sort_by_key(|d| d.time);
        out
    }

    fn heap_run(path: &mut Path, inputs: Vec<(u64, Bytes)>) -> Vec<Delivery> {
        let mut heap: EventHeap = BinaryHeap::new();
        let mut seq = 0u64;
        for (t, f) in inputs {
            heap.push(Reverse((t, seq, 0, f)));
            seq += 1;
        }
        let mut out = Vec::new();
        pump(path, &mut heap, &mut seq, &mut out);
        let flush_time = out.last().map(|d| d.time).unwrap_or(0);
        out.extend(heap_flush(path, flush_time));
        out.sort_by_key(|d| d.time);
        out
    }

    /// `(time, frame)` of every delivery, in order.
    fn timeline(deliveries: Vec<Delivery>) -> Vec<(u64, Bytes)> {
        deliveries
            .into_iter()
            .map(|d| (d.time, d.frame.bytes))
            .collect()
    }

    fn link_stats(path: &Path) -> Vec<LinkStats> {
        path.hops().iter().map(|h| h.link.stats()).collect()
    }

    /// A seeded transfer's frames: `count` data chunks of up to `mtu` wire
    /// bytes, two in every ten cut short so the frame sizes vary.
    fn seeded_frames(seed: u64, count: usize, mtu: usize) -> Vec<Bytes> {
        let mut rng = proptest::TestRng::deterministic(&format!("frames-{seed}"));
        (0..count)
            .map(|i| {
                let full = mtu - WIRE_HEADER_LEN;
                let len = match rng.below(10) {
                    0 | 1 => 1 + rng.below(full as u64) as usize,
                    _ => full,
                };
                let payload: Vec<u8> = (0..len).map(|k| (seed as usize + i + k) as u8).collect();
                let sn = (i * full) as u32;
                let chunk = byte_chunk(
                    FramingTuple::new(1, sn, false),
                    FramingTuple::new(i as u32, 0, true),
                    FramingTuple::new(3, sn, false),
                    &payload,
                );
                pack(vec![chunk], mtu).unwrap()[0].bytes.clone()
            })
            .collect()
    }

    /// Inject times all equal (`0`), out of order (`1`), far apart (`2`) or
    /// out of order with ties (`3`), where only a stable sort will do.
    fn inject_times(spacing: u8, seed: u64, count: usize) -> Vec<u64> {
        let mut rng = proptest::TestRng::deterministic(&format!("times-{seed}"));
        (0..count as u64)
            .map(|i| match spacing {
                0 => seed % 1000,
                1 => (seed ^ rng.next_u64()) % 2_000_000,
                2 => i * 10_000_000 + seed % 1000,
                _ => rng.below(5) * 40_000,
            })
            .collect()
    }

    /// Three routed hops, so `flush` has to carry one router's window
    /// through the routers after it; the links duplicate and jitter, so
    /// frames tie and overtake.
    fn three_router_path(seed: u64, window: usize) -> Path {
        let h = WIRE_HEADER_LEN;
        let faulty = |mtu| {
            LinkConfig::clean(mtu, 20_000, 622_000_000)
                .with_duplicate(0.1)
                .with_jitter(60_000)
                .with_loss(0.05)
        };
        PathBuilder::new(seed)
            .routed_link(
                Box::new(ChunkRouter::new(h + 120, RefragPolicy::Repack)),
                faulty(h + 120),
            )
            .routed_link(
                Box::new(ChunkRouter::new(
                    h + 400,
                    RefragPolicy::Reassemble { window },
                )),
                faulty(h + 400),
            )
            .routed_link(
                Box::new(ChunkRouter::new(h + 70, RefragPolicy::Repack)),
                LinkConfig::clean(h + 70, 20_000, 0),
            )
            .build()
    }

    /// A Repack router between links with no latency and no serialization
    /// time: a frame narrower than the router's egress waits for the flush,
    /// which `run` makes at the last delivery's time, and lands at that very
    /// time — a tie the merge must settle with the run's deliveries first.
    fn zero_latency_routed_path(seed: u64) -> Path {
        let narrow = WIRE_HEADER_LEN + 120;
        PathBuilder::new(seed)
            .link(LinkConfig::clean(576, 0, 0))
            .routed_link(
                Box::new(ChunkRouter::new(narrow, RefragPolicy::Repack)),
                LinkConfig::clean(narrow, 0, 0),
            )
            .build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `run` hop by hop delivers what the event heap delivered, at the
        /// same times, with the same per-hop counters: every profile, with
        /// tied, disordered and widely spaced injections.
        #[test]
        fn run_equals_the_event_heap_on_every_profile(
            seed in any::<u64>(),
            spacing in 0u8..4,
            count in 1usize..80,
        ) {
            for profile in Profile::ALL {
                let inputs: Vec<(u64, Bytes)> = inject_times(spacing, seed, count)
                    .into_iter()
                    .zip(seeded_frames(seed, count, 576))
                    .collect();
                let mut by_hop = profile.build(576, seed);
                let mut by_heap = profile.build(576, seed);
                prop_assert_eq!(
                    timeline(by_hop.run(inputs.clone())),
                    timeline(heap_run(&mut by_heap, inputs)),
                    "{}",
                    profile.name()
                );
                prop_assert_eq!(link_stats(&by_hop), link_stats(&by_heap));
            }
        }

        /// The same on a path deep enough for hops to interleave in the
        /// heap: three routers, duplicating and jittering links between.
        #[test]
        fn run_equals_the_event_heap_across_three_routers(
            seed in any::<u64>(),
            spacing in 0u8..4,
            count in 1usize..60,
            window in 1usize..12,
        ) {
            let inputs: Vec<(u64, Bytes)> = inject_times(spacing, seed, count)
                .into_iter()
                .zip(seeded_frames(seed, count, 576))
                .collect();
            let mut by_hop = three_router_path(seed, window);
            let mut by_heap = three_router_path(seed, window);
            prop_assert_eq!(
                timeline(by_hop.run(inputs.clone())),
                timeline(heap_run(&mut by_heap, inputs))
            );
            prop_assert_eq!(link_stats(&by_hop), link_stats(&by_heap));
        }

        /// The same where the flushed tail ties with the last delivery: the
        /// inputs end with a short frame, injected last, that the router
        /// holds.
        #[test]
        fn run_equals_the_event_heap_when_the_flush_ties(
            seed in any::<u64>(),
            spacing in 0u8..4,
            count in 1usize..60,
        ) {
            let mut times = inject_times(spacing, seed, count);
            times.push(times.iter().copied().max().unwrap_or(0));
            let mut frames = seeded_frames(seed, count, 576);
            frames.extend(seeded_frames(seed, 1, WIRE_HEADER_LEN + 16));
            let inputs: Vec<(u64, Bytes)> = times.into_iter().zip(frames).collect();
            let mut by_hop = zero_latency_routed_path(seed);
            let mut by_heap = zero_latency_routed_path(seed);
            prop_assert_eq!(
                timeline(by_hop.run(inputs.clone())),
                timeline(heap_run(&mut by_heap, inputs))
            );
            prop_assert_eq!(link_stats(&by_hop), link_stats(&by_heap));
        }

        /// `transmit` + `flush` driven tick by tick, the way the closed-loop
        /// lineage driver does — and on these paths of at most two hops a
        /// recording sink sees the same records in the same order.
        #[test]
        fn ticked_transmit_and_flush_equal_the_event_heap(
            seed in any::<u64>(),
            per_tick in 1usize..6,
        ) {
            for profile in Profile::ALL {
                let rec_hop = chunks_obs::Recorder::verbose_tier(1 << 16);
                let rec_heap = chunks_obs::Recorder::verbose_tier(1 << 16);
                let mut by_hop = profile.build_observed(576, seed, rec_hop.clone());
                let mut by_heap = profile.build_observed(576, seed, rec_heap.clone());
                let frames = seeded_frames(seed, 24, 576);
                for (tick, burst) in frames.chunks(per_tick).enumerate() {
                    let now = tick as u64 * 1_000_000;
                    for f in burst {
                        prop_assert_eq!(
                            timeline(by_hop.transmit(now, f.clone())),
                            timeline(heap_transmit(&mut by_heap, now, f.clone()))
                        );
                    }
                    prop_assert_eq!(
                        timeline(by_hop.flush(now)),
                        timeline(heap_flush(&mut by_heap, now))
                    );
                }
                prop_assert_eq!(link_stats(&by_hop), link_stats(&by_heap));
                prop_assert_eq!(rec_hop.span_json_lines(), rec_heap.span_json_lines());
                prop_assert_eq!(rec_hop.trace_json_lines(), rec_heap.trace_json_lines());
            }
        }

        /// Tick by tick across the three routers: each `flush` crosses the
        /// routers after the one it drains.
        #[test]
        fn ticked_flush_across_three_routers_equals_the_event_heap(
            seed in any::<u64>(),
            per_tick in 1usize..6,
            window in 1usize..12,
        ) {
            let mut by_hop = three_router_path(seed, window);
            let mut by_heap = three_router_path(seed, window);
            let frames = seeded_frames(seed, 24, 576);
            for (tick, burst) in frames.chunks(per_tick).enumerate() {
                let now = tick as u64 * 300_000;
                for f in burst {
                    prop_assert_eq!(
                        timeline(by_hop.transmit(now, f.clone())),
                        timeline(heap_transmit(&mut by_heap, now, f.clone()))
                    );
                }
                prop_assert_eq!(
                    timeline(by_hop.flush(now)),
                    timeline(heap_flush(&mut by_heap, now))
                );
            }
            prop_assert_eq!(link_stats(&by_hop), link_stats(&by_heap));
        }
    }
}
