//! Every way a ledger run can fail, each with a stable name printed as
//! `error[<name>]` so a script can tell a wrong byte from a bad flag.

use std::fmt;

use chunks_core::error::CoreError;

/// A failed run. Any of these exits the process with a non-zero code.
#[derive(Debug)]
pub enum LedgerError {
    /// A receiver's verified prefix differs from the submitted message.
    AppDataMismatch {
        /// Workload.
        workload: &'static str,
        /// Connection.
        conn_id: u32,
        /// First differing byte.
        at: usize,
    },
    /// A receiver claims more verified bytes than were submitted.
    PrefixOverrun {
        /// Workload.
        workload: &'static str,
        /// Connection.
        conn_id: u32,
        /// Claimed prefix.
        prefix: usize,
        /// Bytes submitted.
        submitted: usize,
    },
    /// TPDUs were still undelivered after the repair-round cap.
    Undelivered {
        /// Workload.
        workload: &'static str,
        /// TPDUs undelivered.
        failed: u64,
        /// TPDUs submitted.
        attempted: u64,
    },
    /// Two passes of one run (same seed, same inputs) disagreed on a count.
    ExactDiverged {
        /// Workload.
        workload: &'static str,
        /// Debug rendering of both records.
        detail: String,
    },
    /// The parallel receiver's digests differ from the serial demux's on
    /// the same trace.
    ParallelDiverged {
        /// Workload.
        workload: &'static str,
        /// What differed.
        detail: String,
    },
    /// An isolated leg saw a WSC-2 verification failure or a malformed
    /// packet on a trace the pipeline delivered in full.
    LegFailed {
        /// Workload.
        workload: &'static str,
        /// Which leg, and what it saw.
        detail: String,
    },
    /// The sender could not pack for the MTU.
    Pack(CoreError),
    /// Bad command line.
    Usage(String),
    /// A file could not be read, written or parsed.
    File {
        /// Path.
        path: String,
        /// Cause.
        cause: String,
    },
    /// `compare` found a regression.
    Regressed(usize),
}

impl LedgerError {
    /// Stable error name.
    pub fn name(&self) -> &'static str {
        match self {
            LedgerError::AppDataMismatch { .. } => "app-data-mismatch",
            LedgerError::PrefixOverrun { .. } => "prefix-overrun",
            LedgerError::Undelivered { .. } => "undelivered",
            LedgerError::ExactDiverged { .. } => "exact-metrics-diverged",
            LedgerError::ParallelDiverged { .. } => "parallel-diverged",
            LedgerError::LegFailed { .. } => "leg-failed",
            LedgerError::Pack(_) => "pack",
            LedgerError::Usage(_) => "usage",
            LedgerError::File { .. } => "file",
            LedgerError::Regressed(_) => "regressed",
        }
    }
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: ", self.name())?;
        match self {
            LedgerError::AppDataMismatch {
                workload,
                conn_id,
                at,
            } => write!(
                f,
                "{workload}: connection {conn_id} delivered a byte at offset {at} that was not submitted"
            ),
            LedgerError::PrefixOverrun {
                workload,
                conn_id,
                prefix,
                submitted,
            } => write!(
                f,
                "{workload}: connection {conn_id} verified {prefix} bytes of {submitted} submitted"
            ),
            LedgerError::Undelivered {
                workload,
                failed,
                attempted,
            } => write!(
                f,
                "{workload}: {failed} of {attempted} TPDUs undelivered after the repair-round cap"
            ),
            LedgerError::ExactDiverged { workload, detail } => {
                write!(f, "{workload}: passes of one run disagree: {detail}")
            }
            LedgerError::ParallelDiverged { workload, detail } => {
                write!(f, "{workload}: parallel and serial receivers disagree: {detail}")
            }
            LedgerError::LegFailed { workload, detail } => write!(f, "{workload}: {detail}"),
            LedgerError::Pack(e) => write!(f, "sender could not pack: {e}"),
            LedgerError::Usage(msg) => write!(f, "{msg}"),
            LedgerError::File { path, cause } => write!(f, "{path}: {cause}"),
            LedgerError::Regressed(n) => write!(f, "{n} metric(s) regressed"),
        }
    }
}

impl std::error::Error for LedgerError {}
