//! Paged sparse tables: the million-connection storage layout.
//!
//! The simulator's per-connection tables — kernel fd tables, endpoint
//! slots, `/dev/poll` interest tables, watcher (backmap) bitsets, the
//! load generator's connection map — were all one dense
//! `Vec<Option<T>>` per world, sized by the highest handle ever seen.
//! That layout is fine at the paper's 6,000 inactive connections and
//! hostile at 10^6: a sparse world with a few high handles pays for the
//! whole dense range, and growth reallocates (and copies) the entire
//! table. [`PagedSlots`] replaces it with fixed-size pages allocated on
//! demand: indexing is two shifts, untouched ranges cost one pointer
//! per page span, and growth never moves existing entries. [`PagedBits`]
//! is the same idea for bitsets.
//!
//! Pages are never freed while the world lives — end-of-run footprint
//! therefore equals the high-water footprint, which is exactly what the
//! `mem.*` probes want to report.

/// Entries per page. 4096 slots keeps a page of `Option<u32>` at one
/// small-object allocation (32 KB) while making the page vector
/// negligible even at 2^32 handles (1M pointers).
pub const PAGE_SLOTS: usize = 4096;

/// A sparse, paged `index -> T` table: fixed-size pages allocated on
/// first touch, `Option<T>` per slot, per-page occupancy counts so
/// scans skip empty pages in O(1).
#[derive(Debug, Clone)]
pub struct PagedSlots<T> {
    pages: Vec<Option<Box<[Option<T>]>>>,
    /// Occupied slots per allocated page (index-parallel with `pages`).
    page_occ: Vec<u32>,
    /// Total occupied slots.
    len: usize,
}

impl<T> Default for PagedSlots<T> {
    fn default() -> PagedSlots<T> {
        PagedSlots::new()
    }
}

impl<T> PagedSlots<T> {
    /// An empty table (no pages allocated).
    pub fn new() -> PagedSlots<T> {
        PagedSlots {
            pages: Vec::new(),
            page_occ: Vec::new(),
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages currently allocated.
    pub fn pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Heap bytes held by the table: allocated pages plus the page
    /// vectors. This is the modeled resident footprint the `mem.*`
    /// probes report; since pages are never freed it is also the
    /// high-water footprint.
    pub fn heap_bytes(&self) -> usize {
        self.pages() * PAGE_SLOTS * std::mem::size_of::<Option<T>>()
            + self.pages.capacity() * std::mem::size_of::<Option<Box<[Option<T>]>>>()
            + self.page_occ.capacity() * std::mem::size_of::<u32>()
    }

    /// One past the highest index any allocated page can hold.
    pub fn capacity(&self) -> usize {
        self.pages.len() * PAGE_SLOTS
    }

    /// Shared access to the slot at `ix`.
    #[inline]
    pub fn get(&self, ix: usize) -> Option<&T> {
        self.pages
            .get(ix / PAGE_SLOTS)?
            .as_ref()?
            .get(ix % PAGE_SLOTS)?
            .as_ref()
    }

    /// Mutable access to the slot at `ix`.
    #[inline]
    pub fn get_mut(&mut self, ix: usize) -> Option<&mut T> {
        self.pages
            .get_mut(ix / PAGE_SLOTS)?
            .as_mut()?
            .get_mut(ix % PAGE_SLOTS)?
            .as_mut()
    }

    /// Whether the slot at `ix` is occupied.
    #[inline]
    pub fn contains(&self, ix: usize) -> bool {
        self.get(ix).is_some()
    }

    fn page_mut(&mut self, page: usize) -> &mut [Option<T>] {
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
            self.page_occ.resize(page + 1, 0);
        }
        self.pages[page].get_or_insert_with(|| {
            let mut v = Vec::with_capacity(PAGE_SLOTS);
            v.resize_with(PAGE_SLOTS, || None);
            v.into_boxed_slice()
        })
    }

    /// Stores `value` at `ix`, returning the previous occupant.
    pub fn insert(&mut self, ix: usize, value: T) -> Option<T> {
        let (p, o) = (ix / PAGE_SLOTS, ix % PAGE_SLOTS);
        let prev = self.page_mut(p)[o].replace(value);
        if prev.is_none() {
            self.page_occ[p] += 1;
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the occupant of `ix`, if any. The page stays
    /// allocated (see the module docs on high-water footprint).
    pub fn take(&mut self, ix: usize) -> Option<T> {
        let page = self.pages.get_mut(ix / PAGE_SLOTS)?.as_mut()?;
        let prev = page[ix % PAGE_SLOTS].take();
        if prev.is_some() {
            self.page_occ[ix / PAGE_SLOTS] -= 1;
            self.len -= 1;
        }
        prev
    }

    /// The first unoccupied index at or after `from` — lowest-free fd
    /// semantics without an O(table) scan: fully-occupied pages are
    /// skipped via their occupancy counts.
    pub fn first_free_from(&self, from: usize) -> usize {
        let mut ix = from;
        loop {
            let page = ix / PAGE_SLOTS;
            if page >= self.pages.len() {
                return ix;
            }
            match &self.pages[page] {
                None => return ix,
                Some(slots) => {
                    if self.page_occ[page] as usize == PAGE_SLOTS {
                        // Full page: skip to the next one.
                        ix = (page + 1) * PAGE_SLOTS;
                        continue;
                    }
                    for (o, slot) in slots.iter().enumerate().skip(ix % PAGE_SLOTS) {
                        if slot.is_none() {
                            return page * PAGE_SLOTS + o;
                        }
                    }
                    ix = (page + 1) * PAGE_SLOTS;
                }
            }
        }
    }

    /// Iterates occupied slots in ascending index order, skipping
    /// unallocated and empty pages wholesale.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.pages
            .iter()
            .enumerate()
            .filter(|(p, page)| page.is_some() && self.page_occ[*p] > 0)
            .flat_map(|(p, page)| {
                page.as_deref()
                    .expect("invariant: filtered to allocated pages")
                    .iter()
                    .enumerate()
                    .filter_map(move |(o, slot)| slot.as_ref().map(|v| (p * PAGE_SLOTS + o, v)))
            })
    }

    /// Mutable sibling of [`PagedSlots::iter`].
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> {
        let occ = &self.page_occ;
        self.pages
            .iter_mut()
            .enumerate()
            .filter(move |(p, page)| page.is_some() && occ[*p] > 0)
            .flat_map(|(p, page)| {
                page.as_deref_mut()
                    .expect("invariant: filtered to allocated pages")
                    .iter_mut()
                    .enumerate()
                    .filter_map(move |(o, slot)| slot.as_mut().map(|v| (p * PAGE_SLOTS + o, v)))
            })
    }
}

/// Bits per page of a [`PagedBits`] (matches [`PAGE_SLOTS`] so an fd
/// table page and its watcher-bit page cover the same handle range).
pub const PAGE_BITS: usize = PAGE_SLOTS;
const WORDS_PER_PAGE: usize = PAGE_BITS / 64;

/// A sparse, paged bitset: the backmap/watcher-set layout. Pages of
/// 4096 bits allocate on first set; cleared bits keep their page.
#[derive(Debug, Clone, Default)]
pub struct PagedBits {
    pages: Vec<Option<Box<[u64; WORDS_PER_PAGE]>>>,
    ones: usize,
}

impl PagedBits {
    /// An empty bitset (no pages allocated).
    pub fn new() -> PagedBits {
        PagedBits::default()
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Number of pages currently allocated.
    pub fn pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Heap bytes held by the bitset (pages plus the page vector).
    pub fn heap_bytes(&self) -> usize {
        self.pages() * WORDS_PER_PAGE * 8
            + self.pages.capacity() * std::mem::size_of::<Option<Box<[u64; WORDS_PER_PAGE]>>>()
    }

    /// Whether bit `ix` is set.
    #[inline]
    pub fn contains(&self, ix: usize) -> bool {
        match self.pages.get(ix / PAGE_BITS) {
            Some(Some(words)) => {
                let bit = ix % PAGE_BITS;
                words[bit / 64] & (1u64 << (bit % 64)) != 0
            }
            _ => false,
        }
    }

    /// Whether bit `ix` lies on an allocated page, so that setting it
    /// allocates nothing.
    #[inline]
    pub fn covers(&self, ix: usize) -> bool {
        matches!(self.pages.get(ix / PAGE_BITS), Some(Some(_)))
    }

    /// Sets bit `ix`; returns whether it was newly set.
    pub fn insert(&mut self, ix: usize) -> bool {
        let page = ix / PAGE_BITS;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let words = self.pages[page].get_or_insert_with(|| Box::new([0u64; WORDS_PER_PAGE]));
        let bit = ix % PAGE_BITS;
        let mask = 1u64 << (bit % 64);
        let fresh = words[bit / 64] & mask == 0;
        words[bit / 64] |= mask;
        if fresh {
            self.ones += 1;
        }
        fresh
    }

    /// Clears bit `ix`; returns whether it was set.
    pub fn remove(&mut self, ix: usize) -> bool {
        if let Some(Some(words)) = self.pages.get_mut(ix / PAGE_BITS) {
            let bit = ix % PAGE_BITS;
            let mask = 1u64 << (bit % 64);
            if words[bit / 64] & mask != 0 {
                words[bit / 64] &= !mask;
                self.ones -= 1;
                return true;
            }
        }
        false
    }

    /// Clears every bit (pages stay allocated).
    pub fn clear(&mut self) {
        for page in self.pages.iter_mut().flatten() {
            **page = [0u64; WORDS_PER_PAGE];
        }
        self.ones = 0;
    }

    /// Calls `f(word_index, word)` for every nonzero 64-bit word, in
    /// ascending order — the shape state fingerprints fold.
    pub fn for_each_nonzero_word(&self, mut f: impl FnMut(usize, u64)) {
        for (p, page) in self.pages.iter().enumerate() {
            let Some(words) = page else { continue };
            for (w, &word) in words.iter().enumerate() {
                if word != 0 {
                    f(p * WORDS_PER_PAGE + w, word);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_grow_on_demand_and_index_sparsely() {
        let mut t: PagedSlots<u64> = PagedSlots::new();
        assert_eq!(t.len(), 0);
        assert_eq!(t.pages(), 0);
        assert_eq!(t.get(12_345_678), None);

        // A single far-out index allocates exactly one page.
        assert_eq!(t.insert(12_345_678, 7), None);
        assert_eq!(t.pages(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(12_345_678), Some(&7));
        assert!(!t.contains(12_345_677));

        // A second index in the same page allocates nothing new.
        let same_page = (12_345_678 / PAGE_SLOTS) * PAGE_SLOTS;
        t.insert(same_page, 8);
        assert_eq!(t.pages(), 1);

        // Dense low range allocates its own pages independently.
        for i in 0..(PAGE_SLOTS + 1) {
            t.insert(i, i as u64);
        }
        assert_eq!(t.pages(), 3);
        assert_eq!(t.len(), PAGE_SLOTS + 3);
        assert!(t.heap_bytes() >= 3 * PAGE_SLOTS * std::mem::size_of::<Option<u64>>());
    }

    #[test]
    fn slots_insert_take_and_reuse() {
        let mut t: PagedSlots<String> = PagedSlots::new();
        assert_eq!(t.insert(5, "a".into()), None);
        assert_eq!(t.insert(5, "b".into()), Some("a".into()));
        assert_eq!(t.len(), 1);
        assert_eq!(t.take(5), Some("b".into()));
        assert_eq!(t.take(5), None);
        assert_eq!(t.len(), 0);
        // The page stays allocated: high-water footprint.
        assert_eq!(t.pages(), 1);
    }

    #[test]
    fn first_free_skips_full_pages_and_honours_holes() {
        let mut t: PagedSlots<u32> = PagedSlots::new();
        assert_eq!(t.first_free_from(0), 0);
        for i in 0..PAGE_SLOTS {
            t.insert(i, 1);
        }
        // Page 0 full: the scan jumps straight past it.
        assert_eq!(t.first_free_from(0), PAGE_SLOTS);
        t.take(17);
        assert_eq!(t.first_free_from(0), 17);
        assert_eq!(t.first_free_from(18), PAGE_SLOTS);
        t.insert(PAGE_SLOTS, 1);
        assert_eq!(t.first_free_from(PAGE_SLOTS), PAGE_SLOTS + 1);
    }

    #[test]
    fn slots_iterate_in_index_order_across_page_gaps() {
        let mut t: PagedSlots<u32> = PagedSlots::new();
        let far = 10 * PAGE_SLOTS + 3;
        t.insert(far, 30);
        t.insert(2, 20);
        t.insert(0, 10);
        let got: Vec<(usize, u32)> = t.iter().map(|(i, &v)| (i, v)).collect();
        assert_eq!(got, vec![(0, 10), (2, 20), (far, 30)]);
        for (_, v) in t.iter_mut() {
            *v += 1;
        }
        assert_eq!(t.get(far), Some(&31));
    }

    #[test]
    fn bits_set_clear_count_and_fold() {
        let mut b = PagedBits::new();
        assert!(!b.contains(9999));
        assert!(b.insert(9999));
        assert!(!b.insert(9999));
        assert!(b.insert(0));
        assert_eq!(b.count(), 2);
        assert_eq!(b.pages(), 2);
        assert!(b.remove(9999));
        assert!(!b.remove(9999));
        assert_eq!(b.count(), 1);

        let mut words = Vec::new();
        b.insert(64);
        b.for_each_nonzero_word(|ix, w| words.push((ix, w)));
        assert_eq!(words, vec![(0, 1), (1, 1)]);

        assert!(b.covers(PAGE_BITS - 1) && !b.covers(PAGE_BITS));
        b.clear();
        assert_eq!(b.count(), 0);
        assert!(!b.contains(0));
        // Pages survive a clear (heap bytes unchanged).
        assert_eq!(b.pages(), 2);
        assert!(b.heap_bytes() >= 2 * (PAGE_BITS / 8));
    }
}
