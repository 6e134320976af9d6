//! Prefix-tagged key subspaces: carving one store's `u64` keyspace into
//! disjoint contiguous regions ("subspaces") by a high-bit tag, so several
//! logical indexes can share a single [`crate::LeapStore`] — and therefore
//! a single transactional domain — while every subspace remains one
//! contiguous key interval that range partitioning can route, scan and
//! reshard independently.
//!
//! This is the encoding every `leap-memdb` table uses: subspace 0
//! holds a table's primary index, subspace `1 + i` its `i`-th secondary
//! index, and a row mutation touching several subspaces is one
//! [`crate::LeapStore::apply`] batch — one cross-list transaction.
//!
//! Layout of a tagged key (the payload layout below the tag is the
//! caller's business; `leap-memdb` packs `(column value, row id)`):
//!
//! ```text
//!   63         56 55                                            0
//!  +-------------+----------------------------------------------+
//!  |   tag (8)   |                payload (56)                  |
//!  +-------------+----------------------------------------------+
//! ```

/// Bits reserved for the subspace tag (the key's high byte).
pub const TAG_BITS: u32 = 8;

/// Bits left for the per-subspace payload.
pub const PAYLOAD_BITS: u32 = 64 - TAG_BITS;

/// Largest payload a tagged key can carry.
pub const MAX_PAYLOAD: u64 = (1 << PAYLOAD_BITS) - 1;

/// One tagged key subspace: the contiguous interval
/// `[tag << 56, (tag << 56) | MAX_PAYLOAD]`.
///
/// Tag `255` is rejected: its last key would be `u64::MAX`, the store's
/// reserved sentinel.
///
/// # Example
///
/// ```
/// use leap_store::Subspace;
/// let primary = Subspace::new(0);
/// let index = Subspace::new(1);
/// assert!(primary.hi() < index.lo(), "subspaces are disjoint and ordered");
/// let k = index.key(42);
/// assert!(index.contains(k) && !primary.contains(k));
/// assert_eq!(index.payload(k), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Subspace {
    tag: u8,
}

impl Subspace {
    /// The subspace with the given tag.
    ///
    /// # Panics
    ///
    /// Panics if `tag == 255` (would collide with the reserved key
    /// `u64::MAX`).
    pub fn new(tag: u8) -> Self {
        assert!(tag < 255, "tag 255 would contain the reserved key u64::MAX");
        Subspace { tag }
    }

    /// This subspace's tag.
    pub fn tag(&self) -> u8 {
        self.tag
    }

    /// First key of the subspace.
    pub fn lo(&self) -> u64 {
        (self.tag as u64) << PAYLOAD_BITS
    }

    /// Last key (inclusive) of the subspace.
    pub fn hi(&self) -> u64 {
        self.lo() | MAX_PAYLOAD
    }

    /// The tagged key for `payload`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_PAYLOAD`].
    pub fn key(&self, payload: u64) -> u64 {
        assert!(
            payload <= MAX_PAYLOAD,
            "payload exceeds {PAYLOAD_BITS} bits"
        );
        self.lo() | payload
    }

    /// Whether `key` lies in this subspace.
    pub fn contains(&self, key: u64) -> bool {
        key >> PAYLOAD_BITS == self.tag as u64
    }

    /// The payload of a key from this subspace.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the key carries a different tag.
    pub fn payload(&self, key: u64) -> u64 {
        debug_assert!(self.contains(key), "key from a different subspace");
        key & MAX_PAYLOAD
    }

    /// The key interval for payloads in `[lo, hi]`, clipped to the
    /// subspace — the arguments a range scan over this subspace passes to
    /// [`crate::LeapStore::range`] / [`crate::LeapStore::scan_pages`].
    pub fn range(&self, lo: u64, hi: u64) -> (u64, u64) {
        (self.key(lo.min(MAX_PAYLOAD)), self.key(hi.min(MAX_PAYLOAD)))
    }

    /// The smallest `key_space` covering subspaces with tags `0..tags` —
    /// the value to hand [`crate::StoreConfig::with_key_space`] so range
    /// partitioning slices exactly the used region evenly across shards.
    ///
    /// # Panics
    ///
    /// Panics if `tags` is zero or exceeds 255.
    pub fn key_space(tags: usize) -> u64 {
        assert!((1..=255).contains(&tags), "need 1..=255 subspaces");
        (tags as u64) << PAYLOAD_BITS
    }
}

/// Key count and shard placement of one subspace — the per-subspace load
/// view behind [`crate::LeapStore::subspace_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubspaceStats {
    /// The subspace's tag.
    pub tag: u8,
    /// Keys currently held in the subspace (one consistent snapshot per
    /// subspace).
    pub keys: usize,
    /// Shard slots a scan of the subspace visits under the current
    /// routing table (ignores an in-flight migration overlay).
    pub shards: Vec<usize>,
}

impl SubspaceStats {
    /// The stats as a JSON object:
    /// `{"tag":..,"keys":..,"shards":[..]}`.
    pub fn to_json(&self) -> leap_obs::Json {
        use leap_obs::Json;
        Json::obj()
            .field("tag", Json::U64(self.tag as u64))
            .field("keys", Json::U64(self.keys as u64))
            .field(
                "shards",
                Json::Arr(self.shards.iter().map(|&s| Json::U64(s as u64)).collect()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subspaces_tile_disjoint_intervals() {
        let a = Subspace::new(0);
        let b = Subspace::new(1);
        assert_eq!(a.lo(), 0);
        assert_eq!(a.hi() + 1, b.lo());
        assert_eq!(b.tag(), 1);
        assert!(a.contains(a.hi()) && !a.contains(b.lo()));
        assert_eq!(b.payload(b.key(7)), 7);
        assert_eq!(b.range(5, u64::MAX), (b.key(5), b.hi()));
        assert_eq!(Subspace::key_space(3), 3 << PAYLOAD_BITS);
        assert!(Subspace::new(254).hi() < u64::MAX);
    }

    #[test]
    fn stats_render_as_json() {
        let stats = SubspaceStats {
            tag: 2,
            keys: 17,
            shards: vec![0, 3],
        };
        assert_eq!(
            stats.to_json().render(),
            "{\"tag\":2,\"keys\":17,\"shards\":[0,3]}"
        );
    }

    #[test]
    #[should_panic(expected = "reserved key")]
    fn tag_255_rejected() {
        Subspace::new(255);
    }

    #[test]
    #[should_panic(expected = "payload exceeds")]
    fn oversized_payload_rejected() {
        Subspace::new(1).key(MAX_PAYLOAD + 1);
    }
}
