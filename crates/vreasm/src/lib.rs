//! Virtual reassembly (§3.3 of the paper).
//!
//! "Regardless of whether we perform physical PDU reassembly, packet
//! reordering, or immediate packet processing, we must perform *virtual
//! reassembly* … keeping track of the received fragments to determine when
//! all of the fragments of a PDU have been received."
//!
//! The crate supplies:
//!
//! * [`ArenaIntervalSet`] — a compact set of received `[start, end)`
//!   ranges with overlap (duplicate) detection over a recycling node slab:
//!   the one interval set production code uses, allocation-free on the
//!   receive hot path;
//! * [`IntervalSet`] — the same semantics over a sorted `Vec`, kept as the
//!   reference the arena is property-tested against. It is the oracle only:
//!   no non-test code in the workspace names it;
//! * [`PduTracker`] — virtual reassembly of one PDU: completion detection
//!   from the stop bit, duplicate rejection (needed so the incremental
//!   checksum is not corrupted, §3.3), and inconsistency flags;
//! * [`bounded::BoundedTracker`] — a VLSI-shaped tracker with a fixed gap
//!   budget, modelling the hardware units of STER 92 / MCAU 93b;
//! * [`reassembly::Reassembly`] — tagged intervals with an explicit
//!   [`reassembly::OverlapPolicy`], the hardened layer the transport uses
//!   to make attacker-controlled overlapping fragments well-defined.
//!
//! Completion falls out of coverage plus the stop bit — fragments may
//! arrive in any order:
//!
//! ```
//! use chunks_vreasm::PduTracker;
//!
//! let mut t = PduTracker::new();
//! t.offer(64, 32, true); // the tail arrives first (ST set: PDU ends at 96)
//! assert!(!t.is_complete());
//! t.offer(0, 64, false); // the head closes the single gap
//! assert!(t.is_complete());
//! assert_eq!(t.covered(), 96);
//! ```

#![deny(missing_docs)]

pub mod arena;
pub mod bounded;
pub mod interval;
pub mod reassembly;
pub mod tracker;

pub use arena::ArenaIntervalSet;
pub use bounded::{BoundedEvent, BoundedTracker};
pub use interval::IntervalSet;
pub use reassembly::{Claim, Conflict, OverlapPolicy, Reassembly, Resolution};
pub use tracker::{PduTracker, TrackEvent};
