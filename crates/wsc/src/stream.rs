//! Streaming WSC-2 encoder for disordered runs of symbols.
//!
//! [`Wsc2`]'s one-shot entry points pay one `alpha^start` exponentiation per
//! call. That is the right shape for whole messages, but the TPDU invariant
//! feeds the code *element by element* — thousands of tiny runs whose
//! positions are usually consecutive. [`Wsc2Stream`] keeps a **cursor** (the
//! position one past the last symbol absorbed) and a **cached weight**
//! `alpha^cursor`, so a run that starts exactly at the cursor — the common
//! case for in-order chunk payloads — costs one batched fold on the active
//! GF(2^32) backend straight over the payload bytes
//! ([`chunks_gf::fold_elements`]: forward carry-less multiply lanes where
//! the CPU has them, a serial shift-and-fold sweep otherwise) plus a single
//! full multiply, with *no* exponentiation at all.
//! Disordered arrivals just reseat the cursor with one table-driven
//! [`Gf32::alpha_pow`] and continue.
//!
//! Because the parities are sums, independently accumulated streams over
//! disjoint position sets can be [`fold`](Wsc2Stream::fold)ed into one; the
//! result is identical to a single in-order pass.

use chunks_gf::Gf32;

use crate::code::{Wsc2, MAX_SYMBOLS};

/// Incremental WSC-2 encoder over `(position, symbols)` runs arriving in any
/// order.
///
/// Produces bit-identical parities to [`Wsc2`]; the difference is purely
/// cost: contiguous runs reuse the cached cursor weight instead of
/// recomputing `alpha^start` from scratch.
///
/// ```
/// use chunks_wsc::{Wsc2, Wsc2Stream};
///
/// // One-shot reference over the whole message.
/// let mut one_shot = Wsc2::new();
/// one_shot.add_bytes(0, b"abcdefgh");
///
/// // The same message as disordered fragments through the stream.
/// let mut stream = Wsc2Stream::new();
/// stream.add_bytes(1, b"efgh"); // symbols 1..3 arrive first
/// stream.add_bytes(0, b"abcd");
/// assert_eq!(stream.digest(), one_shot.digest());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Wsc2Stream {
    acc: Wsc2,
    /// The position one past the last absorbed symbol.
    cursor: u64,
    /// Cached `alpha^cursor`.
    weight: Gf32,
    /// Non-empty runs absorbed so far (observability; not part of the code).
    runs: u64,
    /// Streams or raw codes folded in so far (observability).
    folds: u64,
}

/// Symbol positions a payload of `len` bytes in `size`-byte elements
/// occupies.
fn symbols_spanned(size: usize, len: usize) -> u64 {
    let spe = Wsc2::symbols_for_bytes(size);
    (len / size) as u64 * spe + Wsc2::symbols_for_bytes(len % size)
}

impl Default for Wsc2Stream {
    fn default() -> Self {
        Self::new()
    }
}

impl Wsc2Stream {
    /// Short cursor moves step the cached weight with per-symbol
    /// `mul_alpha` shifts; anything longer pays one table exponentiation.
    const STEP_LIMIT: u64 = 16;

    /// A fresh stream positioned at symbol 0.
    pub fn new() -> Self {
        Wsc2Stream {
            acc: Wsc2::new(),
            cursor: 0,
            weight: Gf32::ONE,
            runs: 0,
            folds: 0,
        }
    }

    /// Moves the cursor to `pos` and returns `alpha^pos`.
    ///
    /// Contiguous input (`pos == cursor`) is free; a short forward hop is a
    /// few shifts; everything else is one table `alpha_pow`.
    #[inline]
    fn seek(&mut self, pos: u64) -> Gf32 {
        if pos != self.cursor {
            if pos > self.cursor && pos - self.cursor <= Self::STEP_LIMIT {
                for _ in 0..pos - self.cursor {
                    self.weight = self.weight.mul_alpha();
                }
            } else {
                self.weight = Gf32::alpha_pow(pos);
            }
            self.cursor = pos;
        }
        self.weight
    }

    /// Advances the cursor past `n` just-absorbed symbols, keeping the
    /// cached weight in sync.
    #[inline]
    fn advance(&mut self, n: u64) {
        self.cursor += n;
        if n <= Self::STEP_LIMIT {
            for _ in 0..n {
                self.weight = self.weight.mul_alpha();
            }
        } else {
            self.weight = Gf32::alpha_pow(self.cursor);
        }
    }

    /// Absorbs (or removes — characteristic 2) one symbol at position `i`.
    ///
    /// # Panics
    /// Panics in debug builds when `i` exceeds [`MAX_SYMBOLS`].
    #[inline]
    pub fn add_symbol(&mut self, i: u64, d: u32) {
        debug_assert!(i < MAX_SYMBOLS, "symbol position {i} outside code space");
        self.runs += 1;
        let w = self.seek(i);
        let d = Gf32::new(d);
        self.acc.p0 += d;
        self.acc.p1 += w * d;
        self.advance(1);
    }

    /// Seeks to `start`, adds the folded run `(p0, horner)` of `n` symbols,
    /// and advances the cursor. The value-update core shared by every
    /// absorption entry point.
    #[inline]
    fn absorb_fold(&mut self, start: u64, p0: Gf32, horner: Gf32, n: u64) {
        let w = self.seek(start);
        self.acc.p0 += p0;
        self.acc.p1 += w * horner;
        self.advance(n);
    }

    /// Absorbs a run of symbols at consecutive positions starting at
    /// `start`. Batched Horner fold on the active GF(2^32) backend
    /// ([`chunks_gf::fold_symbols`]), then one multiply by the cursor
    /// weight.
    pub fn add_symbols(&mut self, start: u64, data: &[u32]) {
        if data.is_empty() {
            return;
        }
        self.runs += 1;
        debug_assert!(start + data.len() as u64 <= MAX_SYMBOLS);
        let (p0, horner) = chunks_gf::fold_symbols(data);
        self.absorb_fold(start, p0, horner, data.len() as u64);
    }

    /// Absorbs raw bytes as big-endian 32-bit symbols at consecutive
    /// positions starting at `start`; a trailing partial symbol is
    /// zero-padded on the right, exactly like [`Wsc2::add_bytes`].
    pub fn add_bytes(&mut self, start: u64, bytes: &[u8]) {
        self.add_elements(start, 4, bytes);
    }

    /// Absorbs a payload of `size`-byte elements as one run starting at
    /// `start`: each element is left-aligned in `⌈size/4⌉` symbols,
    /// zero-padded on the right (the TPDU invariant's data layout). The
    /// backend folds the payload bytes in place
    /// ([`chunks_gf::fold_elements`]).
    ///
    /// # Panics
    /// Panics when `size` is zero.
    pub fn add_elements(&mut self, start: u64, size: usize, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.runs += 1;
        let n = symbols_spanned(size, bytes.len());
        debug_assert!(start + n <= MAX_SYMBOLS);
        let (p0, horner) = chunks_gf::fold_elements(size, bytes);
        self.absorb_fold(start, p0, horner, n);
    }

    /// Folds in a stream accumulated over a *disjoint* set of positions
    /// (parities are sums). This stream's cursor is kept, so contiguous
    /// input can continue where it left off.
    ///
    /// ```
    /// use chunks_wsc::{Wsc2, Wsc2Stream};
    /// let mut whole = Wsc2::new();
    /// whole.add_bytes(0, b"spliced from two halves");
    ///
    /// let mut left = Wsc2Stream::new();
    /// left.add_bytes(0, b"spliced from");
    /// let mut right = Wsc2Stream::new();
    /// right.add_bytes(3, b" two halves"); // 12 bytes = 3 symbols in `left`
    /// left.fold(&right);
    /// assert_eq!(left.digest(), whole.digest());
    /// ```
    pub fn fold(&mut self, other: &Wsc2Stream) {
        self.acc.combine(&other.acc);
        self.runs += other.runs;
        self.folds += 1 + other.folds;
    }

    /// Folds in a raw code value accumulated elsewhere over a disjoint set
    /// of positions — the same sum as [`fold`](Self::fold) when only the
    /// final [`Wsc2`] of the other accumulator is at hand (e.g. a verified
    /// TPDU's code being folded into a per-worker delivery transcript).
    pub fn fold_code(&mut self, code: &Wsc2) {
        self.acc.combine(code);
        self.folds += 1;
    }

    /// The position one past the last absorbed symbol — where contiguous
    /// input would continue for free.
    pub fn position(&self) -> u64 {
        self.cursor
    }

    /// Non-empty runs absorbed so far, including runs carried in by
    /// [`fold`](Self::fold) — an observability tally of how disordered the
    /// input was, with no effect on the code value.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Streams or raw codes folded in so far (transitively), the merge-work
    /// tally a parallel receiver reports as `transport.parallel.merge_folds`.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// The accumulated code value.
    pub fn code(&self) -> Wsc2 {
        self.acc
    }

    /// Consumes the stream, returning the accumulated code value.
    pub fn finish(self) -> Wsc2 {
        self.acc
    }

    /// Wire digest of the accumulated value (`P0 || P1`, big-endian).
    pub fn digest(&self) -> [u8; 8] {
        self.acc.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_one_shot_in_order() {
        let bytes: Vec<u8> = (0u16..257).map(|x| (x * 7) as u8).collect();
        let mut reference = Wsc2::new();
        reference.add_bytes(0, &bytes);
        let mut stream = Wsc2Stream::new();
        for piece in bytes.chunks(4) {
            let pos = stream.position();
            stream.add_bytes(pos, piece);
        }
        assert_eq!(stream.code(), reference);
    }

    #[test]
    fn matches_one_shot_disordered() {
        let bytes: Vec<u8> = (0u8..96).collect();
        let mut reference = Wsc2::new();
        reference.add_bytes(5, &bytes);
        // Feed 8-byte (2-symbol) runs back to front.
        let mut stream = Wsc2Stream::new();
        for (k, piece) in bytes.chunks(8).enumerate().rev() {
            stream.add_bytes(5 + 2 * k as u64, piece);
        }
        assert_eq!(stream.code(), reference);
    }

    #[test]
    fn symbol_paths_agree() {
        let data = [0xDEAD_BEEFu32, 0x0123_4567, 0x89AB_CDEF];
        let mut a = Wsc2Stream::new();
        a.add_symbols(1000, &data);
        let mut b = Wsc2Stream::new();
        for (k, &d) in data.iter().enumerate() {
            b.add_symbol(1000 + k as u64, d);
        }
        let mut c = Wsc2::new();
        c.add_symbols(1000, &data);
        assert_eq!(a.code(), c);
        assert_eq!(b.code(), c);
    }

    #[test]
    fn long_jump_reseats_cursor() {
        let mut stream = Wsc2Stream::new();
        stream.add_symbol(0, 7);
        stream.add_symbol(1_000_000, 9); // far beyond STEP_LIMIT
        stream.add_symbol(3, 11); // backwards
        let mut reference = Wsc2::new();
        reference.add_symbol(0, 7);
        reference.add_symbol(1_000_000, 9);
        reference.add_symbol(3, 11);
        assert_eq!(stream.code(), reference);
    }

    #[test]
    fn fold_of_disjoint_partials() {
        let bytes: Vec<u8> = (0u8..64).collect();
        let mut whole = Wsc2::new();
        whole.add_bytes(0, &bytes);

        let mut parts: Vec<Wsc2Stream> = Vec::new();
        for (k, piece) in bytes.chunks(16).enumerate() {
            let mut s = Wsc2Stream::new();
            s.add_bytes(4 * k as u64, piece);
            parts.push(s);
        }
        // Fold in an arbitrary order.
        parts.swap(0, 3);
        let mut acc = Wsc2Stream::new();
        for p in &parts {
            acc.fold(p);
        }
        assert_eq!(acc.finish(), whole);
    }

    #[test]
    fn empty_runs_are_noops() {
        let mut stream = Wsc2Stream::new();
        stream.add_bytes(10, &[]);
        stream.add_symbols(10, &[]);
        assert!(stream.code().is_zero());
        assert_eq!(stream.position(), 0);
        assert_eq!(stream.runs(), 0);
    }

    #[test]
    fn run_and_fold_tallies_count_work_not_value() {
        let mut a = Wsc2Stream::new();
        a.add_bytes(0, b"abcd");
        a.add_symbol(9, 7);
        assert_eq!(a.runs(), 2);
        assert_eq!(a.folds(), 0);

        let mut b = Wsc2Stream::new();
        b.add_bytes(20, b"efgh");
        a.fold(&b);
        a.fold_code(&Wsc2::new());
        assert_eq!(a.runs(), 3, "fold carries the other stream's runs");
        assert_eq!(a.folds(), 2);
    }
}
