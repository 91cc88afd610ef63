//! Named, seeded network profiles.
//!
//! The differential harness (`tests/parallel_differential.rs`), the
//! deterministic-schedule tests, the `experiments lineage` sweep and the
//! throughput ledger all need the *same* reproducible network behaviours:
//! a profile name plus a seed fully determines the path. Keeping the constructors here means a
//! BENCH row labelled `reorder` and a failing differential scenario labelled
//! `reorder` are talking about exactly the same simulated network.
//!
//! Every profile models a disordering source the paper names: multipath skew
//! (§1, the AURORA eight-way OC-3 stripe), loss-driven retransmission,
//! in-network duplication, mid-path refragmentation at a narrower MTU
//! (Figure 4), and on-the-wire corruption.

use chunks_core::wire::WIRE_HEADER_LEN;

use crate::link::{LinkConfig, MIN_REPACK_MTU};
use crate::path::{Path, PathBuilder};
use crate::router::{ChunkRouter, RefragPolicy};

/// A named network behaviour, reproducible from a seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Profile {
    /// A single clean link — the no-disorder baseline.
    Clean,
    /// An 8-way skewed multipath bundle: heavy reordering, no loss. The
    /// profile the paper's gigabit-striping argument turns on.
    Reorder,
    /// 5% loss with jitter: drives the retransmission machinery.
    Loss,
    /// 5% duplication with jitter: exercises the duplicate-rejection path
    /// in front of the incremental checksum.
    Duplication,
    /// A wide hop followed by a narrow router that refragments chunks
    /// mid-path (Figure 4, repack policy).
    Fragmenting,
    /// A 4-way skewed bundle whose sub-links also lose 3% — reordering and
    /// loss at once.
    MultipathLossy,
    /// 15% of frames take a byte flip: every Table 1 detection channel gets
    /// exercised.
    Corrupt,
}

impl Profile {
    /// Every profile, in sweep order.
    pub const ALL: [Profile; 7] = [
        Profile::Clean,
        Profile::Reorder,
        Profile::Loss,
        Profile::Duplication,
        Profile::Fragmenting,
        Profile::MultipathLossy,
        Profile::Corrupt,
    ];

    /// Stable name used in BENCH rows and scenario labels.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Clean => "clean",
            Profile::Reorder => "reorder",
            Profile::Loss => "loss",
            Profile::Duplication => "duplication",
            Profile::Fragmenting => "fragmenting",
            Profile::MultipathLossy => "multipath-lossy",
            Profile::Corrupt => "corrupt",
        }
    }

    /// True when the profile can drop frames (callers must drive
    /// retransmission rounds to converge).
    pub fn lossy(self) -> bool {
        matches!(
            self,
            Profile::Loss | Profile::MultipathLossy | Profile::Corrupt
        )
    }

    /// Builds the path for frames of at most `mtu` bytes, faults drawn
    /// from `seed`.
    pub fn build(self, mtu: usize, seed: u64) -> Path {
        let base = LinkConfig::clean(mtu, 50_000, 622_000_000);
        match self {
            Profile::Clean => PathBuilder::new(seed).link(base).build(),
            Profile::Reorder => PathBuilder::new(seed).multipath(8, base, 120_000).build(),
            Profile::Loss => PathBuilder::new(seed)
                .link(base.with_loss(0.05).with_jitter(100_000))
                .build(),
            Profile::Duplication => PathBuilder::new(seed)
                .link(base.with_duplicate(0.05).with_jitter(150_000))
                .build(),
            Profile::Fragmenting => {
                let narrow = (WIRE_HEADER_LEN + mtu / 4).max(MIN_REPACK_MTU);
                PathBuilder::new(seed)
                    .link(base)
                    .routed_link(
                        Box::new(ChunkRouter::new(narrow, RefragPolicy::Repack)),
                        LinkConfig::clean(narrow, 50_000, 622_000_000),
                    )
                    .build()
            }
            Profile::MultipathLossy => PathBuilder::new(seed)
                .multipath(4, base.with_loss(0.03), 200_000)
                .build(),
            Profile::Corrupt => PathBuilder::new(seed).link(base.with_corrupt(0.15)).build(),
        }
    }

    /// [`build`](Self::build) with an observability sink attached to every
    /// hop, so the path records `hop` transit spans, path-choice events and
    /// fragmentation span links as it runs. Attaching a sink never changes
    /// the fault stream: the path delivers byte-identical frames either way.
    pub fn build_observed(
        self,
        mtu: usize,
        seed: u64,
        sink: std::sync::Arc<dyn chunks_obs::ObsSink>,
    ) -> Path {
        let mut path = self.build(mtu, seed);
        path.set_obs(sink);
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let names: Vec<&str> = Profile::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(Profile::Reorder.name(), "reorder");
    }

    #[test]
    fn same_seed_same_deliveries() {
        for profile in Profile::ALL {
            let inputs: Vec<(u64, Vec<u8>)> =
                (0..40u8).map(|i| (i as u64 * 1000, vec![i; 60])).collect();
            let a = profile.build(1500, 0xBEE5).run(inputs.clone());
            let b = profile.build(1500, 0xBEE5).run(inputs);
            let sig = |d: &[crate::path::Delivery]| {
                d.iter()
                    .map(|x| (x.time, x.frame.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(sig(&a), sig(&b), "{} not reproducible", profile.name());
        }
    }

    #[test]
    fn reorder_profile_disorders_without_loss() {
        let inputs: Vec<(u64, Vec<u8>)> = (0..64u8).map(|i| (i as u64 * 500, vec![i])).collect();
        let out = Profile::Reorder.build(1500, 7).run(inputs);
        assert_eq!(out.len(), 64, "reorder never drops");
        let ids: Vec<u8> = out.iter().map(|d| d.frame[0]).collect();
        assert!(
            ids.windows(2).any(|w| w[0] > w[1]),
            "skewed stripe must disorder"
        );
    }
}
