//! Spans recorded from the ledger's own files, around calls into each layer.
//!
//! The pipeline is generic over [`Tracer`]: the untraced run instantiates it
//! with [`Off`], whose methods compile to nothing, so the end-to-end numbers
//! carry no span cost; the traced run uses [`Spans`], which appends to a
//! pre-sized in-memory `Vec` and is written out as JSON lines only after the
//! last pass.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a span with no parent.
pub const ROOT: u32 = u32::MAX;

/// Span recording hooks the pipeline calls at layer boundaries.
pub trait Tracer {
    /// Opens a span named `name` under the innermost open span.
    fn open(&mut self, name: &'static str) -> u32;
    /// Closes the span `open` returned.
    fn close(&mut self, id: u32);
}

/// The untraced run's tracer: records nothing, costs nothing.
#[derive(Debug)]
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn open(&mut self, _name: &'static str) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _id: u32) {}
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.path.run`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Pass the span belongs to (spans of one pass share it).
    pub pass: u32,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Pass number stamped on spans opened from now on.
    pub pass: u32,
}

impl Spans {
    /// A recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            pass: 0,
        }
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed by name. Returns `(name → self ns, total ns
    /// of root spans)`.
    pub fn self_times(&self) -> (BTreeMap<&'static str, u64>, u64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut root_ns = 0u64;
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            *by_name.entry(s.name).or_default() += dur.saturating_sub(*covered);
            if s.parent == ROOT {
                root_ns += dur;
            }
        }
        (by_name, root_ns)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_json_lines(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.pass
            )?;
        }
        out.flush()
    }
}

impl Tracer for Spans {
    #[inline]
    fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.stack.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            pass: self.pass,
        });
        id
    }

    #[inline]
    fn close(&mut self, id: u32) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Spans::with_capacity(4);
        let pass = t.open("pass");
        let a = t.open("layer.a");
        t.close(a);
        let b = t.open("layer.b");
        t.close(b);
        t.close(pass);
        let (by_name, root) = t.self_times();
        let sum: u64 = by_name.values().sum();
        assert_eq!(sum, root, "self times partition the root span");
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, ROOT);
        let mut out = Vec::new();
        t.write_json_lines(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
