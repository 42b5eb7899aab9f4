use crate::Addr;

/// Size in bytes of one trie word (a `u32` value or child-range entry).
pub const WORD_BYTES: u64 = 4;

/// The simulated physical placement of one flat array.
///
/// A span is handed out by [`AddressSpace::alloc`] and later used by the
/// cycle-level simulator to turn an array index into the byte address that
/// the memory hierarchy sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ArraySpan {
    /// First byte of the array.
    pub base: Addr,
    /// Length in bytes.
    pub bytes: u64,
}

impl ArraySpan {
    /// Byte address of the `index`-th 4-byte word in this array.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the word lies outside the span.
    pub fn word(&self, index: usize) -> Addr {
        let off = index as u64 * WORD_BYTES;
        debug_assert!(
            off < self.bytes || self.bytes == 0,
            "word index out of span"
        );
        self.base + off
    }
}

/// A bump allocator for simulated physical memory.
///
/// Index structures are laid out contiguously, mirroring how the CTJ loader
/// materializes tries into a flat region of main memory. Alignment defaults
/// to a cache line so that distinct arrays never share a line.
///
/// # Example
///
/// ```
/// use triejax_relation::AddressSpace;
///
/// let mut asp = AddressSpace::new();
/// let a = asp.alloc(100);
/// let b = asp.alloc(8);
/// assert!(b.base >= a.base + 100);
/// assert_eq!(b.base % 64, 0);
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    next: Addr,
    align: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Cache-line aligned allocator starting at a non-zero base (address 0 is
    /// reserved so that a zero span is recognizably "unassigned").
    pub fn new() -> Self {
        AddressSpace {
            next: 0x1000,
            align: 64,
        }
    }

    /// Reserves `bytes` of simulated memory and returns its span.
    pub fn alloc(&mut self, bytes: u64) -> ArraySpan {
        let base = self.next.next_multiple_of(self.align);
        self.next = base + bytes;
        ArraySpan { base, bytes }
    }

    /// Total bytes reserved so far (address high-water mark).
    pub fn used(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AddressSpace {
        /// Allocator with a custom alignment (must be a power of two).
        ///
        /// # Panics
        ///
        /// Panics if `align` is zero or not a power of two.
        fn with_alignment(align: u64) -> Self {
            assert!(align.is_power_of_two(), "alignment must be a power of two");
            AddressSpace {
                next: 0x1000,
                align,
            }
        }
    }

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut asp = AddressSpace::new();
        let spans: Vec<_> = (0..10).map(|i| asp.alloc(i * 7 + 1)).collect();
        for w in spans.windows(2) {
            assert!(w[0].base + w[0].bytes <= w[1].base);
            assert_eq!(w[1].base % 64, 0);
        }
    }

    #[test]
    fn word_addressing() {
        let mut asp = AddressSpace::new();
        let s = asp.alloc(40);
        assert_eq!(s.word(0), s.base);
        assert_eq!(s.word(9), s.base + 36);
    }

    #[test]
    fn custom_alignment() {
        let mut asp = AddressSpace::with_alignment(8);
        asp.alloc(3);
        let s = asp.alloc(1);
        assert_eq!(s.base % 8, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        let _ = AddressSpace::with_alignment(48);
    }

    #[test]
    fn used_tracks_high_water_mark() {
        let mut asp = AddressSpace::new();
        let before = asp.used();
        asp.alloc(1000);
        assert!(asp.used() >= before + 1000);
    }
}
