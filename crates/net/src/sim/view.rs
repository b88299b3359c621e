//! Versioned per-origin views for anti-entropy gossip.
//!
//! Epidemic protocols exchange *state*, not messages: every node keeps one
//! entry per origin, each tagged with a monotonically increasing version,
//! and peers reconcile by comparing compact digests (the version vector)
//! before shipping only the entries the other side is missing or holds
//! stale. [`VersionedView`] is that store, payload-agnostic so the
//! placement layer can gossip demand summaries through it while tests
//! gossip plain integers.
//!
//! The merge rule is a max-version register per origin: a higher version
//! always wins, an equal or lower version is ignored. Merging is therefore
//! commutative, associative and idempotent — the order in which a node
//! hears about the same entries (including duplicates from concurrent
//! exchanges, or replays after a partition heals) cannot change the state
//! it converges to. That property is what lets the decentralized placement
//! strategy promise schedule-independent results.

/// A staleness-versioned view of one entry per origin node.
///
/// Versions start at `0`, meaning "nothing known from this origin yet";
/// every [`VersionedView::publish`] bumps the origin's version by one.
///
/// # Example
///
/// ```
/// use georep_net::sim::VersionedView;
///
/// let mut a: VersionedView<&str> = VersionedView::new(2);
/// let mut b: VersionedView<&str> = VersionedView::new(2);
/// a.publish(0, "alpha");
/// b.publish(1, "beta");
/// // b pulls what it is missing from a's digest.
/// for (origin, version, entry) in a.newer_than(&b.digest()) {
///     assert!(b.merge(origin, version, entry.clone()));
/// }
/// assert_eq!(b.entry(0), Some(&"alpha"));
/// assert!(b.is_complete_at(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedView<T> {
    versions: Vec<u64>,
    entries: Vec<Option<T>>,
}

impl<T: Clone> VersionedView<T> {
    /// An empty view over `origins` origin nodes.
    pub fn new(origins: usize) -> Self {
        VersionedView {
            versions: vec![0; origins],
            entries: vec![None; origins],
        }
    }

    /// Number of origin slots.
    pub fn origins(&self) -> usize {
        self.versions.len()
    }

    /// Installs a new local entry for `origin`, bumping its version.
    /// Returns the new version.
    ///
    /// # Panics
    ///
    /// If `origin` is out of range.
    pub fn publish(&mut self, origin: usize, entry: T) -> u64 {
        self.versions[origin] += 1;
        self.entries[origin] = Some(entry);
        self.versions[origin]
    }

    /// The version vector — the anti-entropy digest peers compare.
    pub fn digest(&self) -> Vec<u64> {
        self.versions.clone()
    }

    /// Version currently held for `origin` (`0` = nothing known).
    pub fn version(&self, origin: usize) -> u64 {
        self.versions[origin]
    }

    /// The entry currently held for `origin`, if any.
    pub fn entry(&self, origin: usize) -> Option<&T> {
        self.entries[origin].as_ref()
    }

    /// Origins with a known entry.
    pub fn known(&self) -> usize {
        self.versions.iter().filter(|&&v| v > 0).count()
    }

    /// `true` once every origin slot has reached at least `version`.
    pub fn is_complete_at(&self, version: u64) -> bool {
        self.versions.iter().all(|&v| v >= version)
    }

    /// Entries this view holds at a strictly newer version than the given
    /// digest — what a push-pull exchange ships to the digest's sender.
    /// A digest shorter than the view treats missing slots as version 0.
    pub fn newer_than(&self, digest: &[u64]) -> Vec<(usize, u64, &T)> {
        self.versions
            .iter()
            .enumerate()
            .filter(|&(origin, &v)| v > digest.get(origin).copied().unwrap_or(0))
            .filter_map(|(origin, &v)| self.entries[origin].as_ref().map(|e| (origin, v, e)))
            .collect()
    }

    /// Merges a received entry: installs it iff `version` is strictly newer
    /// than what is held. Returns `true` when the view changed (a "view
    /// delta" in the quiescence detector's sense).
    ///
    /// # Panics
    ///
    /// If `origin` is out of range.
    pub fn merge(&mut self, origin: usize, version: u64, entry: T) -> bool {
        if version > self.versions[origin] {
            self.versions[origin] = version;
            self.entries[origin] = Some(entry);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_versions_monotonically() {
        let mut v: VersionedView<u32> = VersionedView::new(2);
        assert_eq!(v.publish(0, 10), 1);
        assert_eq!(v.publish(0, 11), 2);
        assert_eq!(v.version(0), 2);
        assert_eq!(v.entry(0), Some(&11));
        assert_eq!(v.version(1), 0);
        assert!(!v.is_complete_at(1));
    }

    #[test]
    fn merge_keeps_the_newest_version_only() {
        let mut v: VersionedView<&str> = VersionedView::new(1);
        assert!(v.merge(0, 2, "new"));
        // Stale and duplicate deliveries are ignored — idempotent merge.
        assert!(!v.merge(0, 1, "old"));
        assert!(!v.merge(0, 2, "dup"));
        assert_eq!(v.entry(0), Some(&"new"));
        assert!(v.merge(0, 3, "newer"));
        assert_eq!(v.entry(0), Some(&"newer"));
    }

    #[test]
    fn merge_order_does_not_matter() {
        let updates = [(0usize, 1u64, 'a'), (1, 2, 'b'), (0, 2, 'c'), (2, 1, 'd')];
        let mut forward: VersionedView<char> = VersionedView::new(3);
        let mut backward: VersionedView<char> = VersionedView::new(3);
        for &(o, ver, e) in &updates {
            forward.merge(o, ver, e);
        }
        for &(o, ver, e) in updates.iter().rev() {
            backward.merge(o, ver, e);
        }
        assert_eq!(forward, backward);
        assert!(forward.is_complete_at(1));
        assert!(!forward.is_complete_at(2));
    }

    #[test]
    fn newer_than_ships_exactly_the_missing_entries() {
        let mut a: VersionedView<u32> = VersionedView::new(3);
        a.publish(0, 7);
        a.publish(2, 9);
        a.publish(2, 10);
        let mut b: VersionedView<u32> = VersionedView::new(3);
        b.merge(2, 1, 9);
        let diff = a.newer_than(&b.digest());
        assert_eq!(diff, vec![(0, 1, &7), (2, 2, &10)]);
        for (origin, version, entry) in diff {
            b.merge(origin, version, *entry);
        }
        assert!(a.newer_than(&b.digest()).is_empty());
        // Short digests read as all-zero beyond their length.
        assert_eq!(a.newer_than(&[]).len(), 2);
    }
}
