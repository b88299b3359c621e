//! Object → owner tiering: the fleet's two-level popularity split.
//!
//! A million-key fleet cannot afford a [`crate::manager::ReplicaManager`]
//! per key, and does not need one: under the Zipf demand the paper assumes
//! (Section V), a small head of objects carries most of the traffic while
//! the tail is individually negligible. The [`Tiering`] maps every object
//! id to its *owner* — the manager that summarizes, places and migrates it:
//!
//! * **hot tier** — object ids `0..hot` each get their own exact manager
//!   (owner id = object id). Workload generators emit Zipf-ranked ids, so
//!   the lowest ids *are* the popularity head by construction;
//! * **cold tier** — every other object is hashed onto one of
//!   `cold_groups` aggregated placement groups. All objects in a group
//!   share one placement, driven by their pooled demand — the paper's
//!   "group objects with similar access patterns" escape hatch for scale.
//!
//! The cold hash is a fixed SplitMix64 finalizer: stable across platforms
//! and releases, because the object → owner map is part of the fleet's
//! bit-identity contract (the same trace must route to the same owners
//! forever).

use crate::hash::splitmix64;

/// The object → owner map: exact managers for the hot head, hashed
/// aggregated groups for the cold tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiering {
    objects: u64,
    hot: u64,
    cold_groups: u64,
}

impl Tiering {
    /// A tiering over `objects` logical objects: ids `0..hot` are exact,
    /// the rest hash onto `cold_groups` groups. When `hot == objects` the
    /// cold tier is empty and `cold_groups` is ignored.
    ///
    /// # Errors
    ///
    /// A static description of the inconsistency: zero objects, a hot head
    /// larger than the key space, or a non-empty tail with no groups.
    pub fn new(objects: u64, hot: u64, cold_groups: usize) -> Result<Tiering, &'static str> {
        if objects == 0 {
            return Err("fleet needs at least one object");
        }
        if hot > objects {
            return Err("hot head cannot exceed the object count");
        }
        let cold_groups = if hot == objects {
            0
        } else {
            cold_groups as u64
        };
        if hot < objects && cold_groups == 0 {
            return Err("a non-empty cold tail needs at least one group");
        }
        let owners = hot.saturating_add(cold_groups);
        if owners > u32::MAX as u64 {
            return Err("owner count overflows the routing table encoding");
        }
        Ok(Tiering {
            objects,
            hot,
            cold_groups,
        })
    }

    /// The owner (manager index) of `object`.
    ///
    /// # Panics
    ///
    /// Panics when `object` is outside the fleet's key space.
    #[inline]
    pub fn owner_of(&self, object: u64) -> usize {
        assert!(object < self.objects, "object {object} out of range");
        if object < self.hot {
            object as usize
        } else {
            (self.hot + splitmix64(object) % self.cold_groups) as usize
        }
    }

    /// Total number of owners: hot managers plus cold groups.
    pub fn owner_count(&self) -> usize {
        (self.hot + self.cold_groups) as usize
    }

    /// Number of exact (hot-tier) owners.
    pub fn hot_owners(&self) -> usize {
        self.hot as usize
    }

    /// Number of aggregated (cold-tier) groups.
    pub fn cold_groups(&self) -> usize {
        self.cold_groups as usize
    }

    /// Size of the logical key space.
    pub fn objects(&self) -> u64 {
        self.objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_head_maps_to_itself() {
        let t = Tiering::new(1_000, 16, 4).unwrap();
        for object in 0..16 {
            assert_eq!(t.owner_of(object), object as usize);
        }
        assert_eq!(t.owner_count(), 20);
        assert_eq!(t.hot_owners(), 16);
        assert_eq!(t.cold_groups(), 4);
    }

    #[test]
    fn cold_tail_hashes_into_its_groups_deterministically() {
        let t = Tiering::new(1_000, 16, 4).unwrap();
        for object in 16..1_000 {
            let owner = t.owner_of(object);
            assert!((16..20).contains(&owner), "object {object} → owner {owner}");
            assert_eq!(t.owner_of(object), owner, "map must be stable");
        }
        // The hash must actually spread the tail: every group sees keys.
        let mut hit = [false; 4];
        for object in 16..1_000 {
            hit[t.owner_of(object) - 16] = true;
        }
        assert!(hit.iter().all(|&h| h), "a cold group received no objects");
    }

    #[test]
    fn all_hot_fleet_ignores_cold_groups() {
        let t = Tiering::new(8, 8, 99).unwrap();
        assert_eq!(t.owner_count(), 8);
        assert_eq!(t.cold_groups(), 0);
        assert_eq!(t.owner_of(7), 7);
    }

    #[test]
    fn invalid_tierings_are_rejected() {
        assert!(Tiering::new(0, 0, 1).is_err());
        assert!(Tiering::new(10, 11, 1).is_err());
        assert!(Tiering::new(10, 4, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_objects_panic() {
        Tiering::new(10, 4, 2).unwrap().owner_of(10);
    }

    #[test]
    fn the_cold_hash_is_pinned() {
        // The SplitMix64 finalizer is part of the bit-identity contract:
        // these values may never change.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }
}
