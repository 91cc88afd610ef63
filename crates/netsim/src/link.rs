//! Point-to-point links with faults, and multipath bundles that reorder.
//!
//! A link *moves* frames: a frame is a [`Bytes`] handle, `transmit_into`
//! appends `(arrival, frame)` to a list its caller owns, and the handle
//! offered is the handle delivered. A duplicate is a second handle on the
//! same bytes. The only copy a link ever makes is a corrupted one: the bit
//! is flipped in a frame of its own (copy-on-write; no copy at all when the
//! link holds the only handle), so the twin of a corrupted copy, a sibling
//! sharing its buffer and the sender's retained packet all keep the bytes
//! that were offered. Every fault is drawn from the link's own seeded RNG in
//! a fixed order (loss; duplicate; then per copy: corrupt, its position and
//! bit, jitter), so a seed names one run. A link that cannot fault (no loss,
//! duplication, corruption or jitter) draws nothing: no outcome is read.

use std::sync::Arc;

use bytes::Bytes;

use chunks_obs::{Event, ObsSink, SpanId, Stage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::obs::frame_labels;

/// Smallest egress packet a transform will repack into (headroom for a
/// header plus one element when the ingress frame was tiny).
pub const MIN_REPACK_MTU: usize = 64;

/// Static configuration of one link.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Maximum frame size in bytes; larger frames are dropped (routers must
    /// fragment to below this).
    pub mtu: usize,
    /// One-way propagation latency in nanoseconds.
    pub latency_ns: u64,
    /// Uniform random extra delay in `[0, jitter_ns]`.
    pub jitter_ns: u64,
    /// Serialization bandwidth in bits per second; `0` means infinite.
    pub bandwidth_bps: u64,
    /// Probability a frame is silently lost.
    pub loss: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability one byte of the frame is corrupted in flight.
    pub corrupt: f64,
}

impl LinkConfig {
    /// A clean link: no loss, no jitter, no corruption.
    pub fn clean(mtu: usize, latency_ns: u64, bandwidth_bps: u64) -> Self {
        LinkConfig {
            mtu,
            latency_ns,
            jitter_ns: 0,
            bandwidth_bps,
            loss: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
        }
    }

    /// Adds loss to a configuration.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Adds jitter to a configuration.
    pub fn with_jitter(mut self, jitter_ns: u64) -> Self {
        self.jitter_ns = jitter_ns;
        self
    }

    /// Adds corruption to a configuration.
    pub fn with_corrupt(mut self, corrupt: f64) -> Self {
        self.corrupt = corrupt;
        self
    }

    /// Adds duplication to a configuration.
    pub fn with_duplicate(mut self, duplicate: f64) -> Self {
        self.duplicate = duplicate;
        self
    }

    /// Nanoseconds to serialize `bytes` onto this link.
    pub fn serialize_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * 8)
            .saturating_mul(1_000_000_000)
            .checked_div(self.bandwidth_bps)
            .unwrap_or(0)
    }
}

/// Counters accumulated by a link.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkStats {
    /// Frames offered to the link.
    pub offered: u64,
    /// Frames delivered (duplicates counted).
    pub delivered: u64,
    /// Frames lost to random loss.
    pub lost: u64,
    /// Frames dropped because they exceeded the MTU.
    pub oversize: u64,
    /// Frames delivered with a corrupted byte.
    pub corrupted: u64,
    /// Extra copies delivered by duplication.
    pub duplicated: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
}

/// A single simulated link with its own fault RNG and serialization state.
#[derive(Debug)]
pub struct Link {
    /// The link's configuration.
    pub cfg: LinkConfig,
    rng: StdRng,
    /// Time the transmitter becomes free (serialization queueing).
    next_free_ns: u64,
    /// Accumulated counters.
    pub stats: LinkStats,
    obs: Arc<dyn ObsSink>,
    obs_on: bool,
}

impl Link {
    /// Creates a link with a deterministic fault stream.
    pub fn new(cfg: LinkConfig, seed: u64) -> Self {
        Link {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            next_free_ns: 0,
            stats: LinkStats::default(),
            obs: chunks_obs::null(),
            obs_on: false,
        }
    }

    /// Attaches an observability sink. When the sink records, every data
    /// chunk carried by this link gets a `hop` span: opened when the frame
    /// is offered, closed at arrival — and left open (a visible drop) when
    /// the link loses the frame. Fault decisions never consult the sink.
    pub fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        self.obs_on = sink.enabled();
        self.obs = sink;
    }

    /// Offers a frame at time `now` and appends its `(arrival, frame)`
    /// deliveries at the far end to `out`. The handle is *moved* into its
    /// delivery; a duplicate is a clone of the handle, and a corrupted copy
    /// the only one whose bytes are copied.
    pub fn transmit_into(&mut self, now: u64, frame: Bytes, out: &mut Vec<(u64, Bytes)>) {
        self.stats.offered += 1;
        let labels = if self.obs_on {
            frame_labels(&frame)
        } else {
            Vec::new()
        };
        if frame.len() > self.cfg.mtu {
            self.stats.oversize += 1;
            for l in &labels {
                self.obs.span_open(now, SpanId::new(*l, Stage::Hop));
            }
            return;
        }
        // Serialization: the transmitter is busy until the frame is on the
        // wire; queued frames wait.
        let start = now.max(self.next_free_ns);
        let ser = self.cfg.serialize_ns(frame.len());
        self.next_free_ns = start + ser;

        let c = &self.cfg;
        let draws = c.loss > 0.0 || c.duplicate > 0.0 || c.corrupt > 0.0 || c.jitter_ns > 0;
        if draws && self.rng.random::<f64>() < self.cfg.loss {
            self.stats.lost += 1;
            for l in &labels {
                self.obs.span_open(now, SpanId::new(*l, Stage::Hop));
            }
            return;
        }

        let extra = if draws && self.rng.random::<f64>() < self.cfg.duplicate {
            self.stats.duplicated += 1;
            Some(frame.clone())
        } else {
            None
        };
        for mut f in extra.into_iter().chain(std::iter::once(frame)) {
            if draws && self.rng.random::<f64>() < self.cfg.corrupt && !f.is_empty() {
                let at = self.rng.random_range(0..f.len());
                // Flip one nonzero bit so corruption is always a change.
                let bit = 1u8 << self.rng.random_range(0..8);
                let mut own = Vec::from(f);
                own[at] ^= bit;
                f = own.into();
                self.stats.corrupted += 1;
            }
            let jitter = if self.cfg.jitter_ns == 0 {
                0
            } else {
                self.rng.random_range(0..=self.cfg.jitter_ns)
            };
            let arrival = start + ser + self.cfg.latency_ns + jitter;
            self.stats.delivered += 1;
            self.stats.bytes += f.len() as u64;
            for l in &labels {
                let id = SpanId::new(*l, Stage::Hop);
                self.obs.span_open(now, id);
                self.obs.span_close(arrival, id);
            }
            out.push((arrival, f));
        }
    }
}

/// A bundle of parallel sub-links striped round-robin — the paper's eight
/// parallel 155 Mbps ATM connections (§1). Skew between the sub-links'
/// latencies reorders packets.
#[derive(Debug)]
pub struct MultipathLink {
    paths: Vec<Link>,
    next: usize,
    /// Per-path stall windows `(from_ns, until_ns)`: frames striped onto a
    /// stalled path inside the window queue until the stall clears.
    stalls: Vec<Option<(u64, u64)>>,
    obs: Arc<dyn ObsSink>,
    obs_on: bool,
}

impl MultipathLink {
    /// Creates a bundle from sub-link configurations.
    pub fn new(configs: Vec<LinkConfig>, seed: u64) -> Self {
        let paths: Vec<Link> = configs
            .into_iter()
            .enumerate()
            .map(|(i, c)| Link::new(c, seed.wrapping_add(i as u64 * 0x9E37_79B9)))
            .collect();
        let stalls = vec![None; paths.len()];
        MultipathLink {
            paths,
            next: 0,
            stalls,
            obs: chunks_obs::null(),
            obs_on: false,
        }
    }

    /// Attaches an observability sink to the bundle and every sub-link.
    /// The bundle itself records which path each frame was striped onto
    /// (`PathChosen` events, `path_choice` marker spans); the sub-links
    /// record their own `hop` spans.
    pub fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        for p in &mut self.paths {
            p.set_obs(Arc::clone(&sink));
        }
        self.obs_on = sink.enabled();
        self.obs = sink;
    }

    /// Stalls one path of the bundle for `[from_ns, until_ns)`: frames the
    /// round-robin striper hands to it during the window are held and only
    /// enter the link when the stall clears — a head-of-line blockage on a
    /// single stripe that mass-reorders the bundle (and starves acks long
    /// enough to make retransmission timers fire).
    pub fn stall_path(&mut self, idx: usize, from_ns: u64, until_ns: u64) {
        self.stalls[idx] = Some((from_ns, until_ns));
    }

    /// The classic configuration: `n` identical paths whose latencies are
    /// skewed by `skew_ns` per path index.
    pub fn skewed(n: usize, base: LinkConfig, skew_ns: u64, seed: u64) -> Self {
        let configs = (0..n)
            .map(|i| LinkConfig {
                latency_ns: base.latency_ns + i as u64 * skew_ns,
                ..base
            })
            .collect();
        Self::new(configs, seed)
    }

    /// The smallest MTU across the bundle.
    pub fn mtu(&self) -> usize {
        self.paths.iter().map(|p| p.cfg.mtu).min().unwrap_or(0)
    }

    /// Stripes a frame onto the next sub-link, appending its deliveries to
    /// `out`.
    pub fn transmit_into(&mut self, now: u64, frame: Bytes, out: &mut Vec<(u64, Bytes)>) {
        let i = self.next;
        self.next = (self.next + 1) % self.paths.len();
        let offered = match self.stalls[i] {
            Some((from, until)) if now >= from && now < until => until,
            _ => now,
        };
        if self.obs_on {
            self.obs.counter("netsim.multipath.path_choices", 1);
            for l in frame_labels(&frame) {
                self.obs.event(
                    now,
                    Event::PathChosen {
                        labels: l,
                        path: i as u32,
                    },
                );
                let id = SpanId::new(l, Stage::PathChoice);
                self.obs.span_open(now, id);
                self.obs.span_close(now, id);
            }
        }
        self.paths[i].transmit_into(offered, frame, out)
    }

    /// Aggregated statistics over the sub-links.
    pub fn stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for p in &self.paths {
            total.offered += p.stats.offered;
            total.delivered += p.stats.delivered;
            total.lost += p.stats.lost;
            total.oversize += p.stats.oversize;
            total.corrupted += p.stats.corrupted;
            total.duplicated += p.stats.duplicated;
            total.bytes += p.stats.bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> Bytes {
        (0..n).map(|i| i as u8).collect()
    }

    #[test]
    fn clean_link_delivers_in_order_with_latency() {
        let mut l = Link::new(LinkConfig::clean(1500, 1000, 0), 1);
        let mut d = Vec::new();
        l.transmit_into(0, frame(100), &mut d);
        l.transmit_into(10, frame(100), &mut d);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, 1000);
        assert_eq!(d[1].0, 1010);
        assert_eq!(d[0].1, frame(100));
    }

    #[test]
    fn serialization_delay_queues_frames() {
        // 8 Mbps: 1000-byte frame takes 1 ms to serialize.
        let mut l = Link::new(LinkConfig::clean(1500, 0, 8_000_000), 1);
        let mut d = Vec::new();
        l.transmit_into(0, frame(1000), &mut d);
        l.transmit_into(0, frame(1000), &mut d);
        assert_eq!(d[0].0, 1_000_000);
        assert_eq!(d[1].0, 2_000_000, "second frame waits for the first");
    }

    #[test]
    fn oversize_frames_dropped() {
        let mut l = Link::new(LinkConfig::clean(100, 0, 0), 1);
        let mut d = Vec::new();
        l.transmit_into(0, frame(101), &mut d);
        assert!(d.is_empty());
        assert_eq!(l.stats.oversize, 1);
        l.transmit_into(0, frame(100), &mut d);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let mut l = Link::new(LinkConfig::clean(1500, 0, 0).with_loss(0.3), 42);
        let mut d = Vec::new();
        for _ in 0..10_000 {
            l.transmit_into(0, frame(10), &mut d);
        }
        let lost = 10_000 - d.len() as u64;
        assert!((2600..3400).contains(&lost), "lost = {lost}");
        assert_eq!(l.stats.lost, lost);
    }

    #[test]
    fn corruption_changes_exactly_one_bit() {
        let mut l = Link::new(LinkConfig::clean(1500, 0, 0).with_corrupt(1.0), 7);
        let original = frame(64);
        let mut d = Vec::new();
        l.transmit_into(0, original.clone(), &mut d);
        let delivered = &d[0].1;
        let diff: u32 = original
            .iter()
            .zip(delivered)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn the_twin_of_a_corrupted_copy_is_the_frame_offered() {
        // Every copy duplicated and corrupted: the bit is flipped in a copy
        // of its own, so the twin, and the handle the sender kept, still
        // read what was offered — whichever of the two was corrupted first.
        let mut l = Link::new(
            LinkConfig::clean(1500, 0, 0)
                .with_duplicate(1.0)
                .with_corrupt(1.0),
            11,
        );
        for n in 0..32 {
            let offered = frame(64 + n);
            let kept = offered.clone();
            let mut d = Vec::new();
            l.transmit_into(0, offered, &mut d);
            assert_eq!(d.len(), 2);
            for (_, f) in &d {
                let diff: u32 = kept.iter().zip(f).map(|(a, b)| (a ^ b).count_ones()).sum();
                assert_eq!(diff, 1, "each copy carries its own flipped bit");
                assert_ne!(f.as_ptr(), kept.as_ptr(), "a corrupted copy owns its bytes");
            }
            assert_eq!(kept, frame(64 + n), "the offered bytes are untouched");
        }
        // Half the copies corrupted: where one twin was hit, the other is
        // byte for byte the frame offered.
        let mut l = Link::new(
            LinkConfig::clean(1500, 0, 0)
                .with_duplicate(1.0)
                .with_corrupt(0.5),
            12,
        );
        let mut one_hit = 0;
        for _ in 0..64 {
            let offered = frame(100);
            let mut d = Vec::new();
            l.transmit_into(0, offered.clone(), &mut d);
            let clean: Vec<bool> = d.iter().map(|(_, f)| *f == offered).collect();
            if clean == [true, false] || clean == [false, true] {
                one_hit += 1;
            }
        }
        assert!(one_hit > 16, "{one_hit} pairs with one twin corrupted");
        // Duplicated only: the twin is a second handle on the same bytes.
        let mut l = Link::new(LinkConfig::clean(1500, 0, 0).with_duplicate(1.0), 11);
        let offered = frame(64);
        let mut d = Vec::new();
        l.transmit_into(0, offered.clone(), &mut d);
        assert!(d.iter().all(|(_, f)| f.as_ptr() == offered.as_ptr()));
    }

    #[test]
    fn duplication_delivers_two_copies() {
        let mut l = Link::new(LinkConfig::clean(1500, 0, 0).with_duplicate(1.0), 9);
        let mut d = Vec::new();
        l.transmit_into(0, frame(10), &mut d);
        assert_eq!(d.len(), 2);
        assert_eq!(l.stats.duplicated, 1);
        assert_eq!(l.stats.delivered, 2);
    }

    #[test]
    fn determinism_under_same_seed() {
        let cfg = LinkConfig::clean(1500, 100, 0)
            .with_loss(0.2)
            .with_jitter(500)
            .with_corrupt(0.1);
        let run = |seed| {
            let mut l = Link::new(cfg, seed);
            let mut d = Vec::new();
            for t in 0..200 {
                l.transmit_into(t * 10, frame(32), &mut d);
            }
            d
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn multipath_skew_reorders() {
        // Two paths, second 10 us slower: striping 0,1,0,1 makes frame 1
        // arrive after frame 2.
        let base = LinkConfig::clean(1500, 1_000, 0);
        let mut mp = MultipathLink::skewed(2, base, 10_000, 3);
        let mut arrivals = Vec::new();
        for i in 0..4u8 {
            mp.transmit_into(i as u64, vec![i].into(), &mut arrivals);
        }
        arrivals.sort();
        let order: Vec<u8> = arrivals.iter().map(|(_, f)| f[0]).collect();
        assert_eq!(order, vec![0, 2, 1, 3], "skew must interleave the stripes");
    }

    #[test]
    fn stalled_path_releases_at_window_end() {
        let base = LinkConfig::clean(1500, 1_000, 0);
        let mut mp = MultipathLink::skewed(2, base, 0, 3);
        mp.stall_path(1, 0, 50_000);
        // Frame 0 takes path 0 (clear), frame 1 takes stalled path 1.
        let mut d = Vec::new();
        mp.transmit_into(10, vec![0].into(), &mut d);
        mp.transmit_into(20, vec![1].into(), &mut d);
        assert_eq!(d[0].0, 1_010);
        assert_eq!(d[1].0, 51_000, "held until the stall clears");
        // After the window the path behaves normally again.
        mp.transmit_into(60_000, vec![2].into(), &mut d);
        mp.transmit_into(60_000, vec![3].into(), &mut d);
        assert_eq!(d[3].0, 61_000);
    }

    #[test]
    fn multipath_stats_aggregate() {
        let base = LinkConfig::clean(100, 0, 0);
        let mut mp = MultipathLink::skewed(4, base, 0, 1);
        let mut d = Vec::new();
        for i in 0..8 {
            mp.transmit_into(i, frame(50), &mut d);
        }
        let s = mp.stats();
        assert_eq!(s.offered, 8);
        assert_eq!(s.delivered, 8);
        assert_eq!(mp.mtu(), 100);
    }
}

/// A link whose route changes at a configured time — the paper's third
/// disordering source (§1): "route changes that occur during communication
/// also can cause packet disordering, because the first packet sent along
/// the new route may arrive before the last packet sent along the old
/// route."
#[derive(Debug)]
pub struct RouteChangeLink {
    old: Link,
    new: Link,
    /// Time (ns) at which traffic switches to the new route.
    pub switch_at_ns: u64,
}

impl RouteChangeLink {
    /// Creates a link that uses `old` before `switch_at_ns` and `new`
    /// afterwards. Disordering occurs when the new route is faster.
    pub fn new(old: LinkConfig, new: LinkConfig, switch_at_ns: u64, seed: u64) -> Self {
        RouteChangeLink {
            old: Link::new(old, seed),
            new: Link::new(new, seed.wrapping_add(0x5EED)),
            switch_at_ns,
        }
    }

    /// Attaches an observability sink to both routes.
    pub fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        self.old.set_obs(Arc::clone(&sink));
        self.new.set_obs(sink);
    }

    /// Offers a frame on the route in force at `now`, appending its
    /// deliveries to `out`.
    pub fn transmit_into(&mut self, now: u64, frame: Bytes, out: &mut Vec<(u64, Bytes)>) {
        if now < self.switch_at_ns {
            self.old.transmit_into(now, frame, out)
        } else {
            self.new.transmit_into(now, frame, out)
        }
    }

    /// Combined statistics over both routes.
    pub fn stats(&self) -> LinkStats {
        let (a, b) = (self.old.stats, self.new.stats);
        LinkStats {
            offered: a.offered + b.offered,
            delivered: a.delivered + b.delivered,
            lost: a.lost + b.lost,
            oversize: a.oversize + b.oversize,
            corrupted: a.corrupted + b.corrupted,
            duplicated: a.duplicated + b.duplicated,
            bytes: a.bytes + b.bytes,
        }
    }
}

#[cfg(test)]
mod route_change_tests {
    use super::*;

    #[test]
    fn faster_new_route_reorders_across_the_switch() {
        // Old route: 100 us. New route: 10 us. Switch at t=1000.
        let mut l = RouteChangeLink::new(
            LinkConfig::clean(1500, 100_000, 0),
            LinkConfig::clean(1500, 10_000, 0),
            1_000,
            1,
        );
        let mut arrivals = Vec::new();
        for (t, id) in [(0u64, 0u8), (500, 1), (1_200, 2), (1_500, 3)] {
            l.transmit_into(t, vec![id].into(), &mut arrivals);
        }
        arrivals.sort();
        let order: Vec<u8> = arrivals.iter().map(|(_, f)| f[0]).collect();
        // Packets 2 and 3 took the fast new route and overtook 0 and 1.
        assert_eq!(order, vec![2, 3, 0, 1]);
        assert_eq!(l.stats().delivered, 4);
    }

    #[test]
    fn slower_new_route_preserves_order() {
        let mut l = RouteChangeLink::new(
            LinkConfig::clean(1500, 10_000, 0),
            LinkConfig::clean(1500, 100_000, 0),
            1_000,
            1,
        );
        let mut arrivals = Vec::new();
        for (t, id) in [(0u64, 0u8), (1_500, 1)] {
            l.transmit_into(t, vec![id].into(), &mut arrivals);
        }
        arrivals.sort();
        assert_eq!(arrivals[0].1, [0]);
        assert_eq!(arrivals[1].1, [1]);
    }
}
