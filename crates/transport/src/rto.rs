//! Timer-driven retransmission: RTO estimation, exponential backoff, and
//! the dead-peer verdict.
//!
//! The ack-driven repair loop of [`crate::sender`] answers the paper's §3.3
//! selective-retransmission story, but it only ever *reacts* to feedback: a
//! lost or corrupted ack stalls the conversation forever. This module adds
//! the missing half — a deterministic, virtual-clock retransmission timer
//! in the style of SCTP's validated machinery (Weinrank et al.):
//!
//! * **SRTT/RTTVAR estimation** (Jacobson): every ack of a never-
//!   retransmitted TPDU contributes an RTT sample (Karn's rule — samples
//!   from retransmitted TPDUs are ambiguous and discarded);
//! * **exponential backoff with a cap**: each timer fire doubles that
//!   TPDU's RTO up to [`RtoConfig::max_rto_ns`]; a fresh RTT sample resets
//!   the backoff;
//! * **bounded retry budget**: after [`RtoConfig::max_retries`] timer-driven
//!   retransmissions a TPDU is *exhausted* — the caller either sheds it
//!   (graceful degradation: drop the TPDU, keep the window moving) or
//!   surfaces [`TransportError::PeerUnreachable`] instead of hanging.
//!
//! The armed TPDUs are one start-ordered list, the same order as the
//! sender's pending list: TPDUs are armed as they go out, which is start
//! order, and a cumulative ack disarms from the front. A TPDU's retry count
//! is also its backoff exponent. Everything is driven by the caller's clock
//! (`now` in nanoseconds of virtual time), so every schedule is exactly
//! reproducible — the property the soak harness (`experiments soak`) leans
//! on.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use chunks_core::error::CoreError;

/// Errors surfaced by the reliability layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TransportError {
    /// A chunk-level encode/decode error bubbled up from the core.
    Core(CoreError),
    /// The retry budget of a TPDU emptied without any acknowledgment: the
    /// peer is declared unreachable. This is the typed verdict that replaces
    /// an ack-loss deadlock.
    PeerUnreachable {
        /// The connection that gave up.
        conn_id: u32,
        /// Connection-space start of the TPDU that exhausted its budget.
        tpdu_start: u64,
        /// Timer-driven retransmissions attempted for that TPDU.
        retries: u32,
        /// Virtual nanoseconds since the TPDU was first sent.
        elapsed_ns: u64,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Core(e) => write!(f, "core error: {e}"),
            TransportError::PeerUnreachable {
                conn_id,
                tpdu_start,
                retries,
                elapsed_ns,
            } => write!(
                f,
                "peer unreachable on connection {conn_id}: TPDU at {tpdu_start} \
                 unacked after {retries} retransmissions over {elapsed_ns} ns"
            ),
        }
    }
}

impl Error for TransportError {}

impl From<CoreError> for TransportError {
    fn from(e: CoreError) -> Self {
        TransportError::Core(e)
    }
}

/// What to do when a TPDU's retry budget empties.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DegradePolicy {
    /// Surface [`TransportError::PeerUnreachable`] — the transfer must be
    /// complete or cleanly dead, never silently partial.
    Abort,
    /// Shed the TPDU: drop it from the window, count it, and keep the rest
    /// of the stream moving (the BPP-style qualitative degradation).
    Shed,
}

/// Static configuration of the retransmission timer.
#[derive(Clone, Copy, Debug)]
pub struct RtoConfig {
    /// RTO before the first RTT sample arrives.
    pub initial_rto_ns: u64,
    /// Lower clamp on the computed RTO.
    pub min_rto_ns: u64,
    /// Upper clamp on the computed RTO (backoff saturates here).
    pub max_rto_ns: u64,
    /// Timer-driven retransmissions allowed per TPDU before the budget
    /// empties.
    pub max_retries: u32,
    /// Budget-exhaustion behaviour.
    pub policy: DegradePolicy,
}

impl Default for RtoConfig {
    fn default() -> Self {
        RtoConfig {
            initial_rto_ns: 3_000_000, // 3 ms of virtual time
            min_rto_ns: 1_000_000,
            max_rto_ns: 60_000_000,
            max_retries: 8,
            policy: DegradePolicy::Abort,
        }
    }
}

impl RtoConfig {
    /// `base` shifted by a backoff exponent, capped and clamped.
    fn backed_off(&self, base: u64, exponent: u32) -> u64 {
        base.saturating_shl(exponent.min(16))
            .min(self.max_rto_ns)
            .max(self.min_rto_ns)
    }
}

/// One armed TPDU's timer.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Connection-space start of the TPDU.
    start: u64,
    /// When the TPDU (or its latest retransmission) went out.
    sent_at: u64,
    /// When the timer fires.
    expires_at: u64,
    /// When the TPDU was *first* sent (for the verdict's elapsed time).
    first_sent_at: u64,
    /// Timer-driven retransmissions so far, which is also the backoff
    /// exponent (doublings applied on top of the base RTO).
    retries: u32,
    /// True once the TPDU has been retransmitted (Karn: no RTT sample).
    retransmitted: bool,
}

/// A TPDU the timer says is due for action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerVerdict {
    /// Retransmit the TPDU at this start (identical labels, §3.3) and back
    /// its timer off.
    Retransmit(u64),
    /// The TPDU's retry budget is empty; apply the degrade policy.
    Exhausted {
        /// Connection-space start of the TPDU.
        start: u64,
        /// Retransmissions that were attempted.
        retries: u32,
        /// Virtual nanoseconds since first transmission.
        elapsed_ns: u64,
    },
}

/// Deterministic virtual-clock retransmission timer for one sender.
#[derive(Clone, Debug)]
pub struct RetransmitTimer {
    cfg: RtoConfig,
    /// Smoothed RTT, `None` until the first sample.
    srtt_ns: Option<u64>,
    /// RTT variance estimate.
    rttvar_ns: u64,
    /// Armed TPDUs in start order (module docs).
    entries: VecDeque<Entry>,
    /// RTT samples absorbed.
    pub samples: u64,
}

impl RetransmitTimer {
    /// Creates a timer.
    pub fn new(cfg: RtoConfig) -> Self {
        RetransmitTimer {
            cfg,
            srtt_ns: None,
            rttvar_ns: 0,
            entries: VecDeque::new(),
            samples: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> RtoConfig {
        self.cfg
    }

    /// The current base RTO (before per-TPDU backoff), Jacobson's
    /// `SRTT + 4·RTTVAR` clamped to the configured bounds.
    pub fn base_rto_ns(&self) -> u64 {
        match self.srtt_ns {
            None => self.cfg.initial_rto_ns,
            Some(srtt) => {
                (srtt + 4 * self.rttvar_ns).clamp(self.cfg.min_rto_ns, self.cfg.max_rto_ns)
            }
        }
    }

    /// Where the TPDU at `start` is armed, or where it would go.
    fn find(&self, start: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&start, |e| e.start)
    }

    /// The RTO a given TPDU is currently running under (base shifted by its
    /// backoff exponent, capped).
    pub fn rto_for(&self, start: u64) -> Option<u64> {
        let e = &self.entries[self.find(start).ok()?];
        Some(self.cfg.backed_off(self.base_rto_ns(), e.retries))
    }

    /// Arms (or re-arms) the timer for a TPDU that just went on the wire.
    /// `retransmission` marks timer- or ack-driven re-sends: their acks are
    /// ambiguous and contribute no RTT sample (Karn's rule).
    pub fn on_send(&mut self, start: u64, now: u64, retransmission: bool) {
        let base = self.base_rto_ns();
        match self.find(start) {
            Ok(at) => {
                let e = &mut self.entries[at];
                e.sent_at = now;
                e.expires_at = now + self.cfg.backed_off(base, e.retries);
                e.retransmitted |= retransmission;
            }
            // TPDUs go out in start order: this is the back but for a TPDU
            // first sent by a repair pass after a later one.
            Err(at) => self.entries.insert(
                at,
                Entry {
                    start,
                    sent_at: now,
                    expires_at: now + self.cfg.backed_off(base, 0),
                    first_sent_at: now,
                    retries: 0,
                    retransmitted: retransmission,
                },
            ),
        }
    }

    /// Disarms a TPDU's timer on acknowledgment; a never-retransmitted TPDU
    /// yields an RTT sample that updates SRTT/RTTVAR and (by recomputing the
    /// base RTO) implicitly resets the backoff for future sends.
    pub fn on_ack(&mut self, start: u64, now: u64) {
        let acked = self.find(start).ok().and_then(|at| self.entries.remove(at));
        if let Some(e) = acked.filter(|e| !e.retransmitted) {
            self.absorb_sample(now.saturating_sub(e.sent_at));
        }
    }

    fn absorb_sample(&mut self, rtt_ns: u64) {
        self.samples += 1;
        match self.srtt_ns {
            None => {
                // First sample: SRTT = R, RTTVAR = R/2 (RFC 6298 §2.2).
                self.srtt_ns = Some(rtt_ns);
                self.rttvar_ns = rtt_ns / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|; SRTT = 7/8·SRTT + 1/8·R.
                let err = srtt.abs_diff(rtt_ns);
                self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
                self.srtt_ns = Some((7 * srtt + rtt_ns) / 8);
            }
        }
    }

    /// Timer-driven retransmissions a given armed TPDU has absorbed so far.
    pub fn retries_for(&self, start: u64) -> Option<u32> {
        Some(self.entries[self.find(start).ok()?].retries)
    }

    /// TPDU starts currently armed, in order.
    pub fn armed(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.start).collect()
    }

    /// The earliest timer expiry, if any TPDU is armed.
    pub fn next_expiry(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.expires_at).min()
    }

    /// Pushes every due timer forward by one current RTO *without*
    /// consuming a retry, applying backoff, or marking the entry
    /// retransmitted — the back-pressure deferral. While the peer reports
    /// budget pressure, retransmitting would only feed bytes to the
    /// shedder; deferring keeps the retry budget intact for when the
    /// pressure clears. Returns the deferred starts.
    pub fn defer_due(&mut self, now: u64) -> Vec<u64> {
        let base = self.base_rto_ns();
        let mut due = Vec::new();
        for e in self.entries.iter_mut().filter(|e| e.expires_at <= now) {
            e.expires_at = now + self.cfg.backed_off(base, e.retries);
            due.push(e.start);
        }
        due
    }

    /// Advances the virtual clock and collects every due verdict, in start
    /// order.
    ///
    /// A [`TimerVerdict::Retransmit`] applies the backoff and re-arms the
    /// timer, so a caller that drops the verdict on the floor will simply
    /// see it again one (longer) RTO later. An exhausted TPDU is disarmed —
    /// the caller decides between shedding and the dead-peer error.
    pub fn poll(&mut self, now: u64) -> Vec<TimerVerdict> {
        let (cfg, base) = (self.cfg, self.base_rto_ns());
        let mut verdicts = Vec::new();
        self.entries.retain_mut(|e| {
            if e.expires_at > now {
                return true;
            }
            if e.retries >= cfg.max_retries {
                verdicts.push(TimerVerdict::Exhausted {
                    start: e.start,
                    retries: e.retries,
                    elapsed_ns: now.saturating_sub(e.first_sent_at),
                });
                return false;
            }
            e.retries += 1;
            e.retransmitted = true;
            e.sent_at = now;
            e.expires_at = now + cfg.backed_off(base, e.retries);
            verdicts.push(TimerVerdict::Retransmit(e.start));
            true
        });
        verdicts
    }
}

/// `u64::checked_shl` that saturates instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> Self {
        self.checked_shl(rhs).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer() -> RetransmitTimer {
        RetransmitTimer::new(RtoConfig {
            initial_rto_ns: 1000,
            min_rto_ns: 100,
            max_rto_ns: 16_000,
            max_retries: 3,
            policy: DegradePolicy::Abort,
        })
    }

    #[test]
    fn initial_rto_until_first_sample() {
        let t = timer();
        assert_eq!(t.base_rto_ns(), 1000);
    }

    #[test]
    fn jacobson_estimator_tracks_samples() {
        let mut t = timer();
        t.on_send(0, 0, false);
        t.on_ack(0, 400); // first sample: SRTT=400, RTTVAR=200
        assert_eq!(t.base_rto_ns(), 400 + 4 * 200);
        t.on_send(8, 1000, false);
        t.on_ack(8, 1400); // identical sample: variance decays
        assert!(t.base_rto_ns() < 1200);
        assert_eq!(t.samples, 2);
    }

    #[test]
    fn karn_rule_discards_retransmitted_samples() {
        let mut t = timer();
        t.on_send(0, 0, false);
        t.poll(1000); // fires, marks retransmitted
        t.on_ack(0, 30_000); // wild RTT must NOT poison the estimator
        assert_eq!(t.samples, 0);
        assert_eq!(t.base_rto_ns(), 1000, "still the initial RTO");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut t = timer();
        t.on_send(0, 0, false);
        assert_eq!(t.rto_for(0), Some(1000));
        assert_eq!(t.poll(1000), vec![TimerVerdict::Retransmit(0)]);
        assert_eq!(t.rto_for(0), Some(2000));
        t.poll(3000);
        assert_eq!(t.rto_for(0), Some(4000));
        t.poll(7000);
        assert_eq!(t.rto_for(0), Some(8000));
        // Budget (3) empties on the next fire.
        let v = t.poll(15_000);
        assert!(matches!(
            v[0],
            TimerVerdict::Exhausted {
                start: 0,
                retries: 3,
                ..
            }
        ));
        assert!(t.armed().is_empty(), "exhausted TPDU is disarmed");
    }

    #[test]
    fn timer_not_due_stays_silent() {
        let mut t = timer();
        t.on_send(0, 0, false);
        assert!(t.poll(999).is_empty());
        assert_eq!(t.next_expiry(), Some(1000));
    }

    #[test]
    fn the_list_stays_in_start_order_whatever_the_arm_and_ack_order() {
        let mut t = timer();
        t.on_send(16, 0, false);
        t.on_send(0, 0, false);
        t.on_send(8, 0, false);
        assert_eq!(t.armed(), [0, 8, 16]);
        t.on_ack(8, 500);
        assert_eq!(t.armed(), [0, 16]);
        assert_eq!(
            t.poll(1000),
            [TimerVerdict::Retransmit(0), TimerVerdict::Retransmit(16)]
        );
        t.on_ack(0, 1500);
        t.on_ack(16, 1500);
        assert!(t.armed().is_empty());
        assert!(t.poll(10_000).is_empty());
        assert_eq!(t.samples, 1, "only the never-retransmitted TPDU samples");
    }

    #[test]
    fn error_display_is_informative() {
        let e = TransportError::PeerUnreachable {
            conn_id: 7,
            tpdu_start: 64,
            retries: 8,
            elapsed_ns: 123,
        };
        assert!(e.to_string().contains("peer unreachable"));
        assert!(e.to_string().contains("8 retransmissions"));
        let c: TransportError = CoreError::Truncated.into();
        assert!(c.to_string().contains("truncated"));
    }

    #[test]
    fn defer_due_postpones_without_consuming_retries() {
        let mut t = timer();
        t.on_send(0, 0, false);
        // Fire once for real: one retry consumed, backoff applied.
        assert_eq!(t.poll(1000), vec![TimerVerdict::Retransmit(0)]);
        assert_eq!(t.retries_for(0), Some(1));
        assert_eq!(t.rto_for(0), Some(2000));
        // Deferral at the next expiry: pushed forward by the *current* RTO,
        // retries and backoff untouched.
        assert_eq!(t.defer_due(3000), vec![0]);
        assert_eq!(t.retries_for(0), Some(1));
        assert_eq!(t.rto_for(0), Some(2000), "no extra backoff");
        assert!(t.poll(3001).is_empty(), "entry re-armed into the future");
        assert_eq!(t.next_expiry(), Some(5000));
        // Not-yet-due entries are left alone.
        assert!(t.defer_due(4000).is_empty());
    }
}
