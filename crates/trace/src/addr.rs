//! Basic address and processor-identifier newtypes.

use std::fmt;

/// A byte address in the simulated physical address space.
///
/// Addresses are plain 64-bit byte addresses; cache-geometry-dependent
/// decompositions (set index, tag, word-in-line) live in `charlie-cache`.
/// The block-granular view needed for sharing analysis is [`LineAddr`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address of the cache line containing `self`, for a given
    /// block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn line(self, block_bytes: u64) -> LineAddr {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        LineAddr(self.0 >> block_bytes.trailing_zeros())
    }

    /// Returns the index of the 4-byte word within a line of `block_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn word_in_line(self, block_bytes: u64) -> u32 {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        ((self.0 & (block_bytes - 1)) / 4) as u32
    }

    /// Returns the address offset by `bytes`.
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A byte address packed into 48 bits, as trace events store it.
///
/// Three little-endian `u16` words with alignment 2, so an address and a
/// one-byte field fit beside an enum tag in 8 bytes: a resident trace is
/// half the size it would be with a 64-bit [`Addr`]. 48 bits cover any
/// address the workloads generate (all lie below the `0xF000_0000` sync
/// region) with room to spare. The only ways in are checked:
/// [`PackedAddr::new`] and [`PackedAddr::pack`].
///
/// `Debug` prints exactly as the unpacked [`Addr`] does.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct PackedAddr([u16; 3]);

impl PackedAddr {
    /// The largest address that packs: 2^48 − 1.
    pub const MAX: u64 = (1 << 48) - 1;

    /// Packs `addr`, or returns `None` if it exceeds [`PackedAddr::MAX`].
    pub const fn new(addr: Addr) -> Option<Self> {
        let raw = addr.0;
        if raw > Self::MAX {
            return None;
        }
        Some(PackedAddr([raw as u16, (raw >> 16) as u16, (raw >> 32) as u16]))
    }

    /// Packs `addr`.
    ///
    /// # Panics
    ///
    /// Panics, naming the address, if it exceeds [`PackedAddr::MAX`].
    #[track_caller]
    pub fn pack(addr: Addr) -> Self {
        match Self::new(addr) {
            Some(packed) => packed,
            None => panic!("address {addr} exceeds the 48-bit trace address limit"),
        }
    }

    /// The address.
    #[inline]
    pub const fn unpack(self) -> Addr {
        let [lo, mid, hi] = self.0;
        Addr(lo as u64 | (mid as u64) << 16 | (hi as u64) << 32)
    }
}

impl fmt::Debug for PackedAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.unpack(), f)
    }
}

/// A block-granular (cache-line-granular) address: the byte address shifted
/// right by the block size.
///
/// A `LineAddr` is only meaningful relative to the block size it was derived
/// with; mixing line addresses computed with different block sizes is a logic
/// error (the types cannot catch it, so the simulator derives all line
/// addresses through one cache geometry).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from the raw shifted value.
    pub const fn from_raw(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw shifted value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of this line, for a given
    /// block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn base(self, block_bytes: u64) -> Addr {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        Addr(self.0 << block_bytes.trailing_zeros())
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifier of a simulated processor (0-based, dense).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct ProcId(pub u8);

impl ProcId {
    /// Returns the processor index as a `usize`, for indexing per-processor
    /// tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A set of processors, used by the sharing analysis (up to 64 processors).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct ProcMask(u64);

impl ProcMask {
    /// The empty set.
    pub const EMPTY: ProcMask = ProcMask(0);

    /// Adds a processor to the set.
    ///
    /// # Panics
    ///
    /// Panics if `proc.0 >= 64`.
    pub fn insert(&mut self, proc: ProcId) {
        assert!(proc.0 < 64, "ProcMask supports at most 64 processors");
        self.0 |= 1 << proc.0;
    }

    /// Returns `true` if the set contains `proc`.
    pub fn contains(self, proc: ProcId) -> bool {
        proc.0 < 64 && self.0 & (1 << proc.0) != 0
    }

    /// Returns the number of processors in the set.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for ProcMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProcMask({:#b})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_strips_offset() {
        let a = Addr::new(0x1234);
        assert_eq!(a.line(32), Addr::new(0x1220).line(32));
        assert_ne!(a.line(32), Addr::new(0x1240).line(32));
    }

    #[test]
    fn line_base_round_trips() {
        let a = Addr::new(0x1fe7);
        let line = a.line(32);
        assert_eq!(line.base(32).raw(), 0x1fe0);
        assert_eq!(line.base(32).line(32), line);
    }

    #[test]
    fn word_in_line_is_word_granular() {
        assert_eq!(Addr::new(0x100).word_in_line(32), 0);
        assert_eq!(Addr::new(0x104).word_in_line(32), 1);
        assert_eq!(Addr::new(0x107).word_in_line(32), 1);
        assert_eq!(Addr::new(0x11c).word_in_line(32), 7);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_block_panics() {
        let _ = Addr::new(0).line(48);
    }

    #[test]
    fn proc_mask_insert_contains_count() {
        let mut m = ProcMask::EMPTY;
        assert!(m.is_empty());
        m.insert(ProcId(0));
        m.insert(ProcId(5));
        m.insert(ProcId(5));
        assert!(m.contains(ProcId(0)));
        assert!(m.contains(ProcId(5)));
        assert!(!m.contains(ProcId(1)));
        assert_eq!(m.count(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr::new(0xff).to_string(), "0xff");
        assert_eq!(format!("{:?}", Addr::new(0xff)), "Addr(0xff)");
    }

    #[test]
    fn packed_addr_holds_exactly_48_bits() {
        for raw in [0, 0xF000_0000, PackedAddr::MAX] {
            let packed = PackedAddr::new(Addr::new(raw));
            assert_eq!(packed.map(PackedAddr::unpack), Some(Addr::new(raw)));
        }
        assert_eq!(PackedAddr::new(Addr::new(PackedAddr::MAX + 1)), None);
        assert_eq!(PackedAddr::new(Addr::new(u64::MAX)), None);
        assert_eq!(std::mem::align_of::<PackedAddr>(), 2);
    }

    #[test]
    fn addr_offset_adds() {
        assert_eq!(Addr::new(0x10).offset(0x8), Addr::new(0x18));
    }
}
