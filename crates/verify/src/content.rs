//! Content-aware analysis support (DESIGN.md §14): value hulls that flow
//! *through memory*.
//!
//! The affine footprint machinery reasons about *index expressions*; this
//! module lets it reason about *values loaded from memory*:
//!
//! * [`DataHull`] — chunked min/max summaries of the initial data image,
//!   so a vector load over a statically bounded address window folds to a
//!   bounded value hull without rescanning the image on every fixpoint
//!   sweep ([`crate::footprint`]'s `try_vfold`);
//! * [`Overlay`] — the store-value side of the same idea: the hull of
//!   every value a program's stores may write into a range, built by
//!   `races` from the converged per-thread runs and consulted when a
//!   fold's span is not store-free.
//!
//! Together they make "a store of a known-range value bounds a later
//! indexed load" a static fact. What a concrete run certifies about
//! access *sets* (the partition and permutation lemmas the race analysis
//! prunes with) comes from the DLP walk, [`crate::dlp::site_bounds`].

use vlt_isa::DATA_BASE;

/// Words per summary chunk (64 dwords = 512 bytes).
const CHUNK: usize = 64;

/// Chunked min/max summaries of the initial data image, interpreted as
/// little-endian dwords. `None` chunks contain a word outside `i64` range
/// (the fold machinery never claims a bound for those).
pub(crate) struct DataHull {
    chunks: Vec<Option<(i64, i64)>>,
    words: usize,
}

impl DataHull {
    pub(crate) fn new(data: &[u8]) -> DataHull {
        let words = data.len() / 8;
        let mut chunks = Vec::with_capacity(words.div_ceil(CHUNK));
        for c in 0..words.div_ceil(CHUNK) {
            let mut hull: Option<(i64, i64)> = Some((i64::MAX, i64::MIN));
            for w in (c * CHUNK)..((c + 1) * CHUNK).min(words) {
                let bytes: [u8; 8] = data[w * 8..w * 8 + 8].try_into().unwrap();
                match (i64::try_from(u64::from_le_bytes(bytes)).ok(), &mut hull) {
                    (Some(v), Some((lo, hi))) => {
                        *lo = (*lo).min(v);
                        *hi = (*hi).max(v);
                    }
                    _ => hull = None,
                }
            }
            chunks.push(hull);
        }
        DataHull { chunks, words }
    }

    /// Value hull of every 8-aligned dword whose start address lies in the
    /// inclusive `[lo, hi]` window (absolute addresses). `None` when the
    /// window is empty, touches uninitialized/out-of-image bytes, or
    /// contains a word outside `i64` range. Ignores any stride structure
    /// of the enumerating form — a superset of addresses gives a superset
    /// hull, which is sound.
    pub(crate) fn hull(&self, lo: i64, hi: i64) -> Option<(i64, i64)> {
        let base = DATA_BASE as i64;
        if lo > hi || lo % 8 != 0 || lo < base {
            return None;
        }
        let (w0, w1) = (((lo - base) / 8) as usize, ((hi - base) / 8) as usize);
        if w1 >= self.words {
            return None;
        }
        let (mut vmin, mut vmax) = (i64::MAX, i64::MIN);
        for c in (w0 / CHUNK)..=(w1 / CHUNK) {
            let (lo_c, hi_c) = self.chunks[c]?;
            // Partial chunks at the window edges still use the whole-chunk
            // summary: a wider hull is sound and keeps queries O(chunks).
            vmin = vmin.min(lo_c);
            vmax = vmax.max(hi_c);
        }
        Some((vmin, vmax))
    }
}

/// A value range with optional (absent = unbounded) sides.
pub(crate) type ValRng = (Option<i64>, Option<i64>);

/// The store side of the content lattice: address ranges the program's
/// stores may touch, each with the hull of values the store may write.
/// Built by `races` from converged per-thread runs; consulted by the fold
/// machinery so loads from stored-to ranges yield `join(initial image,
/// intersecting store hulls)` instead of ⊤.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Overlay {
    /// A store with an unboundable address exists: every byte of memory
    /// may hold an untracked value.
    pub poisoned: bool,
    /// `(addr_lo, addr_hi_exclusive, value hull)` per bounded store.
    pub ranges: Vec<(i64, i64, ValRng)>,
}

impl Overlay {
    /// What the stores may have written into the byte window
    /// `[lo, hi_ex)`:
    ///
    /// * `Ok(None)` — no store can touch the window (the initial image is
    ///   the whole story);
    /// * `Ok(Some(hull))` — the join of every intersecting store's value
    ///   hull;
    /// * `Err(())` — an intersecting store's value is unbounded (or a
    ///   store's address is), so no claim can be made.
    pub(crate) fn query(&self, lo: i64, hi_ex: i64) -> Result<Option<(i64, i64)>, ()> {
        if self.poisoned {
            return Err(());
        }
        let mut acc: Option<(i64, i64)> = None;
        for &(slo, shi, (vlo, vhi)) in &self.ranges {
            if slo < hi_ex && lo < shi {
                let (Some(vlo), Some(vhi)) = (vlo, vhi) else { return Err(()) };
                acc = Some(match acc {
                    None => (vlo, vhi),
                    Some((a, b)) => (a.min(vlo), b.max(vhi)),
                });
            }
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_hull_summaries() {
        let mut data = Vec::new();
        for v in [5i64, 3, 1000, 7] {
            data.extend_from_slice(&(v as u64).to_le_bytes());
        }
        let h = DataHull::new(&data);
        let b = DATA_BASE as i64;
        assert_eq!(h.hull(b, b + 24), Some((3, 1000)));
        assert_eq!(h.hull(b, b + 32), None, "off the end");
        assert_eq!(h.hull(b + 4, b + 8), None, "misaligned window");
    }

    #[test]
    fn data_hull_rejects_non_i64_words() {
        let data = u64::MAX.to_le_bytes().to_vec();
        let h = DataHull::new(&data);
        assert_eq!(h.hull(DATA_BASE as i64, DATA_BASE as i64), None);
    }

    #[test]
    fn overlay_queries() {
        let ov = Overlay {
            poisoned: false,
            ranges: vec![(100, 108, (Some(1), Some(5))), (200, 216, (Some(-2), Some(0)))],
        };
        assert_eq!(ov.query(0, 100), Ok(None));
        assert_eq!(ov.query(104, 112), Ok(Some((1, 5))));
        assert_eq!(ov.query(0, 1000), Ok(Some((-2, 5))));
        let unb = Overlay { poisoned: false, ranges: vec![(0, 8, (None, Some(3)))] };
        assert_eq!(unb.query(0, 8), Err(()));
        assert_eq!(unb.query(8, 16), Ok(None));
        assert_eq!(Overlay { poisoned: true, ..Default::default() }.query(0, 0), Err(()));
    }
}
