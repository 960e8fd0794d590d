//! Per-group delay bookkeeping for subtree roots.

use core::fmt;

use crate::GroupId;

/// The interval of root-to-sink delays for one group within a subtree.
///
/// A subtree satisfying a group's skew bound has `hi - lo <= bound`; once
/// two sinks share a subtree their delay difference is frozen (any upstream
/// wire delays both equally), which is why bounds are enforced at merge
/// time and never re-checked above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayRange {
    /// Fastest sink of the group in this subtree (seconds from the root).
    pub lo: f64,
    /// Slowest sink of the group in this subtree.
    pub hi: f64,
}

impl DelayRange {
    /// A degenerate range (single delay).
    #[inline]
    pub fn point(t: f64) -> Self {
        Self { lo: t, hi: t }
    }

    /// `hi - lo`: the group's delay spread in this subtree.
    #[inline]
    pub fn spread(&self) -> f64 {
        self.hi - self.lo
    }

    /// Both ends shifted by a common wire delay `d`.
    #[inline]
    pub fn shift(&self, d: f64) -> Self {
        Self {
            lo: self.lo + d,
            hi: self.hi + d,
        }
    }

    /// Smallest range covering both inputs (merging two subtrees' sinks of
    /// the same group).
    #[inline]
    pub fn hull(&self, other: &Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl fmt::Display for DelayRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.3e}, {:.3e}]", self.lo, self.hi)
    }
}

/// One `(group, range)` entry of a [`DelayMap`].
type Entry = (GroupId, DelayRange);

/// Inline capacity of a [`DelayMap`]: maps at or below this many groups
/// live entirely on the stack. The paper's tables route k = 4–10 groups
/// and the large workloads 5–10, so on those a subtree spills to the heap
/// once it reaches a fifth group — routinely near the root, where a
/// subtree spans most groups. The merge path builds maps only for
/// candidates that survive pruning, which keeps the spills to the kept
/// candidates.
const INLINE_GROUPS: usize = 4;

/// Small-map storage: inline array for the common case, heap spill beyond
/// [`INLINE_GROUPS`]. Keeping candidates' delay maps off the heap removes
/// one allocation per candidate from the merge hot path.
#[derive(Clone)]
enum Store {
    Inline(u8, [Entry; INLINE_GROUPS]),
    Heap(Vec<Entry>),
}

impl Store {
    const EMPTY_ENTRY: Entry = (GroupId(0), DelayRange { lo: 0.0, hi: 0.0 });

    fn as_slice(&self) -> &[Entry] {
        match self {
            Store::Inline(n, buf) => &buf[..*n as usize],
            Store::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Entry] {
        match self {
            Store::Inline(n, buf) => &mut buf[..*n as usize],
            Store::Heap(v) => v,
        }
    }

    /// Appends an entry, spilling to the heap at capacity. Callers keep
    /// ascending group order themselves.
    fn push(&mut self, e: Entry) {
        match self {
            Store::Inline(n, buf) => {
                if (*n as usize) < INLINE_GROUPS {
                    buf[*n as usize] = e;
                    *n += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_GROUPS * 2);
                    v.extend_from_slice(buf);
                    v.push(e);
                    *self = Store::Heap(v);
                }
            }
            Store::Heap(v) => v.push(e),
        }
    }

    fn from_vec(v: Vec<Entry>) -> Self {
        if v.len() <= INLINE_GROUPS {
            let mut buf = [Self::EMPTY_ENTRY; INLINE_GROUPS];
            buf[..v.len()].copy_from_slice(&v);
            Store::Inline(v.len() as u8, buf)
        } else {
            Store::Heap(v)
        }
    }
}

impl Default for Store {
    fn default() -> Self {
        Store::Inline(0, [Self::EMPTY_ENTRY; INLINE_GROUPS])
    }
}

/// Sorted map from [`GroupId`] to [`DelayRange`]: for every group with at
/// least one sink in the subtree, the exact interval of root-to-sink
/// delays.
///
/// This is the state that makes associative-skew merging compositional:
/// the four merge cases of the paper's Fig. 6 reduce to which groups two
/// maps share.
///
/// Maps of up to `INLINE_GROUPS` groups are stored inline (no heap
/// allocation); larger maps spill to a `Vec` transparently. Every merge
/// candidate carries a map, so building one is allocation-free up to that
/// many groups and one allocation beyond.
///
/// ```
/// use astdme_engine::{DelayMap, DelayRange, GroupId};
///
/// let a = DelayMap::leaf(GroupId(0));
/// let b = DelayMap::leaf(GroupId(1));
/// let m = a.shifted(1e-12).merge(&b.shifted(2e-12));
/// assert_eq!(m.groups().count(), 2);
/// assert_eq!(m.range(GroupId(0)).unwrap().lo, 1e-12);
/// assert_eq!(m.range(GroupId(1)).unwrap().hi, 2e-12);
/// ```
#[derive(Clone, Default)]
pub struct DelayMap {
    // Sorted by GroupId; at most one entry per instance group (a handful
    // to ten), so a flat store beats any tree or hash map.
    entries: Store,
}

impl DelayMap {
    /// The map of a leaf subtree: one group at delay zero.
    pub fn leaf(g: GroupId) -> Self {
        let mut entries = Store::default();
        entries.push((g, DelayRange::point(0.0)));
        Self { entries }
    }

    /// Builds from entries, sorting by group.
    ///
    /// # Panics
    ///
    /// Panics if a group appears twice.
    pub fn from_entries(mut entries: Vec<Entry>) -> Self {
        entries.sort_by_key(|(g, _)| *g);
        for w in entries.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate group {} in delay map", w[0].0);
        }
        Self {
            entries: Store::from_vec(entries),
        }
    }

    /// The entries as a sorted slice.
    #[inline]
    fn as_slice(&self) -> &[Entry] {
        self.entries.as_slice()
    }

    /// The delay range for group `g`, if present.
    pub fn range(&self, g: GroupId) -> Option<DelayRange> {
        let s = self.as_slice();
        s.binary_search_by_key(&g, |(gg, _)| *gg)
            .ok()
            .map(|i| s[i].1)
    }

    /// Iterates `(group, range)` pairs in ascending group order.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, DelayRange)> + '_ {
        self.as_slice().iter().copied()
    }

    /// Iterates the groups present.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.as_slice().iter().map(|(g, _)| *g)
    }

    /// Number of groups present.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.as_slice().len()
    }

    /// All ranges shifted by a common wire delay `d` (the effect of the
    /// wire from a new merge point down to this subtree's root).
    pub fn shifted(&self, d: f64) -> Self {
        let mut out = self.clone();
        for (_, r) in out.entries.as_mut_slice() {
            *r = r.shift(d);
        }
        out
    }

    /// Groups present in both maps, ascending — the "shared groups" that
    /// constrain a merge (empty ⇒ the paper's different-groups case).
    pub fn shared_groups(&self, other: &Self) -> Vec<GroupId> {
        self.shared_ranges(other).map(|(g, _, _)| g).collect()
    }

    /// Iterates `(group, range in self, range in other)` over the groups
    /// present in both maps, ascending — the allocation-free form of
    /// [`DelayMap::shared_groups`] the constraint-assembly hot path uses.
    pub fn shared_ranges<'a>(
        &'a self,
        other: &'a Self,
    ) -> impl Iterator<Item = (GroupId, DelayRange, DelayRange)> + 'a {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        std::iter::from_fn(move || {
            while i < a.len() && j < b.len() {
                match a[i].0.cmp(&b[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let out = (a[i].0, a[i].1, b[j].1);
                        i += 1;
                        j += 1;
                        return Some(out);
                    }
                }
            }
            None
        })
    }

    /// Merges two maps (ranges hulled for shared groups). Callers are
    /// responsible for shifting each side by its wire delay first.
    pub fn merge(&self, other: &Self) -> Self {
        self.merge_with(other, |r| r, |r| r)
    }

    /// `self.shifted(da).merge(&other.shifted(db))` without the two
    /// intermediate maps: the merged candidate's map, built in one pass
    /// (bit-identical, as every range is shifted the same way).
    ///
    /// ```
    /// use astdme_engine::{DelayMap, GroupId};
    ///
    /// let (a, b) = (DelayMap::leaf(GroupId(0)), DelayMap::leaf(GroupId(0)));
    /// let m = a.merge_shifted(1e-12, &b, 3e-12);
    /// assert_eq!(m, a.shifted(1e-12).merge(&b.shifted(3e-12)));
    /// ```
    pub fn merge_shifted(&self, da: f64, other: &Self, db: f64) -> Self {
        self.merge_with(other, |r| r.shift(da), |r| r.shift(db))
    }

    /// The merge walk, mapping each side's ranges on the way.
    fn merge_with(
        &self,
        other: &Self,
        fa: impl Fn(DelayRange) -> DelayRange,
        fb: impl Fn(DelayRange) -> DelayRange,
    ) -> Self {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        let mut entries = Store::default();
        while i < a.len() || j < b.len() {
            if j >= b.len() {
                entries.push((a[i].0, fa(a[i].1)));
                i += 1;
            } else if i >= a.len() {
                entries.push((b[j].0, fb(b[j].1)));
                j += 1;
            } else {
                match a[i].0.cmp(&b[j].0) {
                    std::cmp::Ordering::Less => {
                        entries.push((a[i].0, fa(a[i].1)));
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        entries.push((b[j].0, fb(b[j].1)));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        entries.push((a[i].0, fa(a[i].1).hull(&fb(b[j].1))));
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        Self { entries }
    }

    /// The largest spread across all groups (for invariant checks).
    pub fn max_spread(&self) -> f64 {
        self.as_slice()
            .iter()
            .map(|(_, r)| r.spread())
            .fold(0.0, f64::max)
    }

    /// Extremes over all groups: `(min lo, max hi)`, or `None` if empty.
    pub fn overall_range(&self) -> Option<DelayRange> {
        let s = self.as_slice();
        let lo = s.iter().map(|(_, r)| r.lo).fold(f64::INFINITY, f64::min);
        let hi = s
            .iter()
            .map(|(_, r)| r.hi)
            .fold(f64::NEG_INFINITY, f64::max);
        if s.is_empty() {
            None
        } else {
            Some(DelayRange { lo, hi })
        }
    }
}

impl PartialEq for DelayMap {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for DelayMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DelayMap")
            .field("entries", &self.as_slice())
            .finish()
    }
}

impl fmt::Display for DelayMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (g, r)) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{g}: {r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u32) -> GroupId {
        GroupId(i)
    }

    #[test]
    fn leaf_is_zero_point() {
        let m = DelayMap::leaf(g(3));
        assert_eq!(m.group_count(), 1);
        let r = m.range(g(3)).unwrap();
        assert_eq!((r.lo, r.hi), (0.0, 0.0));
        assert!(m.range(g(0)).is_none());
    }

    #[test]
    fn shift_moves_all_ranges() {
        let m = DelayMap::from_entries(vec![
            (g(0), DelayRange { lo: 1.0, hi: 2.0 }),
            (g(1), DelayRange::point(5.0)),
        ])
        .shifted(10.0);
        assert_eq!(m.range(g(0)).unwrap().lo, 11.0);
        assert_eq!(m.range(g(1)).unwrap().hi, 15.0);
        // Spread is invariant under shift.
        assert_eq!(m.range(g(0)).unwrap().spread(), 1.0);
    }

    #[test]
    fn shared_groups_intersection() {
        let a = DelayMap::from_entries(vec![
            (g(0), DelayRange::point(0.0)),
            (g(2), DelayRange::point(0.0)),
            (g(5), DelayRange::point(0.0)),
        ]);
        let b = DelayMap::from_entries(vec![
            (g(2), DelayRange::point(0.0)),
            (g(3), DelayRange::point(0.0)),
            (g(5), DelayRange::point(0.0)),
        ]);
        assert_eq!(a.shared_groups(&b), vec![g(2), g(5)]);
        assert_eq!(
            DelayMap::leaf(g(0)).shared_groups(&DelayMap::leaf(g(1))),
            vec![]
        );
    }

    #[test]
    fn merge_hulls_shared_ranges() {
        let a = DelayMap::from_entries(vec![(g(0), DelayRange { lo: 1.0, hi: 2.0 })]);
        let b = DelayMap::from_entries(vec![
            (g(0), DelayRange { lo: 0.5, hi: 1.5 }),
            (g(1), DelayRange::point(7.0)),
        ]);
        let m = a.merge(&b);
        assert_eq!(m.group_count(), 2);
        let r0 = m.range(g(0)).unwrap();
        assert_eq!((r0.lo, r0.hi), (0.5, 2.0));
        assert_eq!(m.range(g(1)).unwrap().lo, 7.0);
    }

    #[test]
    fn merge_is_commutative() {
        let a = DelayMap::from_entries(vec![
            (g(0), DelayRange { lo: 0.0, hi: 1.0 }),
            (g(2), DelayRange::point(3.0)),
        ]);
        let b = DelayMap::from_entries(vec![
            (g(1), DelayRange::point(4.0)),
            (g(2), DelayRange { lo: 2.0, hi: 5.0 }),
        ]);
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn max_spread_and_overall_range() {
        let m = DelayMap::from_entries(vec![
            (g(0), DelayRange { lo: 1.0, hi: 4.0 }),
            (g(1), DelayRange { lo: 0.0, hi: 2.0 }),
        ]);
        assert_eq!(m.max_spread(), 3.0);
        let o = m.overall_range().unwrap();
        assert_eq!((o.lo, o.hi), (0.0, 4.0));
        assert!(DelayMap::default().overall_range().is_none());
    }

    #[test]
    fn maps_larger_than_inline_capacity_spill_transparently() {
        // 6 groups: exceeds INLINE_GROUPS both via from_entries and via
        // merge-driven growth; behavior must be identical to the inline
        // case.
        let big = DelayMap::from_entries(
            (0..6)
                .map(|i| (g(i), DelayRange::point(i as f64)))
                .collect(),
        );
        assert_eq!(big.group_count(), 6);
        for i in 0..6 {
            assert_eq!(big.range(g(i)).unwrap().lo, i as f64);
        }
        // Merge two disjoint 3-group maps: pushes past the inline capacity
        // one entry at a time.
        let lo = DelayMap::from_entries((0..3).map(|i| (g(i), DelayRange::point(0.0))).collect());
        let hi = DelayMap::from_entries((3..7).map(|i| (g(i), DelayRange::point(1.0))).collect());
        let m = lo.merge(&hi);
        assert_eq!(m.group_count(), 7);
        assert_eq!(m.shifted(2.0).range(g(6)).unwrap().hi, 3.0);
        assert_eq!(m, hi.merge(&lo));
    }

    #[test]
    #[should_panic(expected = "duplicate group")]
    fn duplicate_groups_rejected() {
        let _ = DelayMap::from_entries(vec![
            (g(0), DelayRange::point(0.0)),
            (g(0), DelayRange::point(1.0)),
        ]);
    }
}
