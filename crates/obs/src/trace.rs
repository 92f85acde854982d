//! Always-on per-thread HTM section marks, the feed of leaf-conflict
//! heat attribution.
//!
//! The leaf-conflict [`crate::HeatSketch`] needs *every* op's HTM
//! abort/fallback outcome attributed to the leaf it held.
//! [`section_mark`] / [`SectionMark::since`] expose monotonic per-thread
//! counters that the htm domain bumps on its (rare) abort and fallback
//! paths ([`bump_section_aborts`], [`bump_section_fallbacks`]); the tree
//! layer reads the delta around its critical section and records it
//! against the leaf. Cost on the common no-abort path: zero — the
//! counters are only written when an abort actually happens.
//!
//! Per-op costs are not traced here: persists, HTM attempts, aborts by
//! cause and cache hits are whole-run counters of the layers that own
//! them, read per op as a delta over a run divided by its ops.

use std::cell::Cell;

thread_local! {
    /// Monotonic per-thread HTM abort / fallback counters.
    static SECTION_ABORTS: Cell<u64> = const { Cell::new(0) };
    static SECTION_FALLBACKS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one HTM abort (any cause) on the calling thread, for
/// [`section_mark`] readers.
#[inline]
pub fn bump_section_aborts() {
    #[cfg(feature = "record")]
    SECTION_ABORTS.with(|c| c.set(c.get() + 1));
}

/// Counts one fallback acquisition on the calling thread,
/// for [`section_mark`] readers.
#[inline]
pub fn bump_section_fallbacks() {
    #[cfg(feature = "record")]
    SECTION_FALLBACKS.with(|c| c.set(c.get() + 1));
}

/// A snapshot of the calling thread's monotonic abort/fallback
/// counters; see [`section_mark`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SectionMark {
    aborts: u64,
    fallbacks: u64,
}

/// The delta observed across a section by [`SectionMark::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionDelta {
    /// HTM aborts (any cause) suffered inside the section.
    pub aborts: u64,
    /// Fallback acquisitions inside the section.
    pub fallbacks: u64,
}

/// Marks the calling thread's section counters before an HTM section;
/// always available (zeros when compiled out) and free of atomics.
#[inline]
pub fn section_mark() -> SectionMark {
    SectionMark {
        aborts: SECTION_ABORTS.with(|c| c.get()),
        fallbacks: SECTION_FALLBACKS.with(|c| c.get()),
    }
}

impl SectionMark {
    /// The aborts/fallbacks this thread suffered since the mark.
    #[inline]
    pub fn since(&self) -> SectionDelta {
        SectionDelta {
            aborts: SECTION_ABORTS.with(|c| c.get()) - self.aborts,
            fallbacks: SECTION_FALLBACKS.with(|c| c.get()) - self.fallbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_marks_are_zero_without_aborts() {
        let m = section_mark();
        assert_eq!(m.since(), SectionDelta::default());
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn section_marks_count_aborts_and_fallbacks() {
        let m = section_mark();
        bump_section_aborts();
        bump_section_aborts();
        bump_section_fallbacks();
        assert_eq!(m.since(), SectionDelta { aborts: 2, fallbacks: 1 });
        // A later mark sees only what follows it.
        assert_eq!(section_mark().since(), SectionDelta::default());
    }

    #[test]
    #[cfg(not(feature = "record"))] // the compiled-out contract
    fn compiled_out_section_marks_stay_zero() {
        let m = section_mark();
        bump_section_aborts();
        bump_section_fallbacks();
        assert_eq!(m.since(), SectionDelta::default());
    }
}
