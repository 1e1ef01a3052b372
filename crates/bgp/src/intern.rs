//! Hash-consed AS-path interning — the compact route representation.
//!
//! Path exploration touches thousands of *distinct* AS paths millions
//! of times: every RIB-in insert, RIB-out write, MRAI flush and
//! per-peer fan-out used to clone a `Vec<NodeId>`. The [`PathTable`]
//! stores each distinct path once in a flat arena and hands out
//! [`PathId`] handles; [`Route`] is a small `Copy` struct carrying the
//! handle plus the metadata the decision process needs without a table
//! lookup (length, head, origin).
//!
//! Loop detection (`contains`) runs in O(log n) against a per-path
//! sorted copy, short-circuited by a 64-bit membership bloom. A
//! `(path, node) → path` memo makes the prepend in a k-peer fan-out
//! allocation-free after the first peer.
//!
//! ## Determinism
//!
//! [`PathId`]s are assigned in first-intern order, which depends only
//! on the (deterministic) simulation event order. Deduplication maps a
//! path's content hash to the *newest* id with that hash; earlier ids
//! with the same hash hang off it through [`PathMeta::next`], so a
//! collision costs one slice comparison per link and no allocation.
//! The table's maps are used strictly for point lookups — nothing ever
//! iterates them — so neither the hash function
//! ([`rfd_snap::MixHasher`]) nor the chain order can reach simulator
//! output.
//!
//! A [`PathId`]'s value never reaches output either, and a
//! [`PulseChain`](crate::PulseChain) relies on it: its forks share one
//! table, so paths one fork interned are already present in the next
//! and ids differ from a fresh run's. Nothing orders or prints by id:
//! the decision process ranks by (policy class, path length, peer id),
//! RIB-OUT compares ids only for equality (the dedup makes id and
//! content equality the same), and trace events carry path lengths,
//! never ids. Keep it so.

use rfd_snap::MixMap;
use rfd_topology::NodeId;

/// Handle to an interned AS path (index into the owning
/// [`PathTable`]). Ids are only meaningful within the table that
/// issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

impl PathId {
    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// A route: an interned AS path plus the metadata hot paths need
/// without dereferencing the table. `path[0]` is the advertising
/// router, `path.last()` the origin AS.
///
/// `Route` is `Copy`: installing, exporting and fanning a route out to
/// k peers moves 16 bytes instead of cloning a vector. Operations that
/// need the actual hops (`path`, `contains`, `prepend`, display) go
/// through the [`PathTable`] that created the route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Route {
    id: PathId,
    len: u16,
    head: NodeId,
    origin: NodeId,
}

impl Route {
    /// The interned path handle.
    pub fn id(self) -> PathId {
        self.id
    }

    /// Number of AS hops (path length; 1 for an originated route).
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Never true — paths are non-empty by construction.
    pub fn is_empty(self) -> bool {
        false
    }

    /// The advertising (first) AS.
    pub fn head(self) -> NodeId {
        self.head
    }

    /// The origin (last) AS.
    pub fn origin(self) -> NodeId {
        self.origin
    }
}

/// End of a collision chain ([`PathMeta::next`]).
const NO_PATH: u32 = u32::MAX;

/// Per-path metadata: a slice of the flat arenas plus the membership
/// bloom for O(1) negative `contains` checks.
#[derive(Debug, Clone, Copy)]
struct PathMeta {
    off: u32,
    len: u32,
    bloom: u64,
    /// The previously interned path with the same content hash, or
    /// [`NO_PATH`].
    next: u32,
}

impl PathMeta {
    fn range(self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
}

/// Interner statistics (exported as `bgp.intern.*` obs counters and
/// via [`PathTable::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct paths interned.
    pub distinct: usize,
    /// Lookups resolved to an existing path.
    pub hits: u64,
    /// Lookups that interned a new path.
    pub misses: u64,
    /// Approximate bytes held by the arenas and metadata.
    pub bytes: usize,
}

/// The hash-consing table: every distinct AS path stored once, flat.
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    /// All paths concatenated in intern order.
    arena: Vec<NodeId>,
    /// The same slices with each path's hops sorted (binary-searchable
    /// for loop detection).
    sorted: Vec<NodeId>,
    meta: Vec<PathMeta>,
    /// Content hash → the newest id with that hash; older ones follow
    /// through [`PathMeta::next`] (collisions resolved by slice
    /// comparison). Point lookups only — never iterated.
    dedup: MixMap<u64, u32>,
    /// `(path, prepended node) → path`: the k-peer fan-out interns at
    /// most once per distinct (route, self) pair.
    prepend_memo: MixMap<(u32, u32), u32>,
    /// Reusable buffer for prepend and the `from_path` loop check
    /// (keeps the steady state allocation-free).
    scratch: Vec<NodeId>,
    hits: u64,
    misses: u64,
}

/// FNV-1a over the raw node ids: deterministic across runs and
/// platforms (the table must never make output depend on hash seeds).
fn hash_path(path: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in path {
        h ^= u64::from(n.raw());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bloom_bit(node: NodeId) -> u64 {
    1u64 << (node.raw() % 64)
}

impl PathTable {
    /// An empty table.
    pub fn new() -> Self {
        PathTable::default()
    }

    /// Number of distinct paths interned.
    pub fn distinct(&self) -> usize {
        self.meta.len()
    }

    /// Current statistics.
    pub fn stats(&self) -> InternStats {
        InternStats {
            distinct: self.meta.len(),
            hits: self.hits,
            misses: self.misses,
            bytes: (self.arena.len() + self.sorted.len()) * std::mem::size_of::<NodeId>()
                + self.meta.len() * std::mem::size_of::<PathMeta>(),
        }
    }

    /// Interns `path`, returning the existing id when the same hop
    /// sequence was seen before.
    fn intern(&mut self, path: &[NodeId]) -> PathId {
        self.intern_hashed(hash_path(path), path)
    }

    /// [`PathTable::intern`] under a given content hash (the unit tests
    /// force collisions through this).
    fn intern_hashed(&mut self, h: u64, path: &[NodeId]) -> PathId {
        debug_assert!(!path.is_empty());
        let head = self.dedup.get(&h).copied().unwrap_or(NO_PATH);
        let mut id = head;
        while id != NO_PATH {
            let m = self.meta[id as usize];
            if &self.arena[m.range()] == path {
                self.hits += 1;
                rfd_obs::inc("bgp.intern.hits");
                return PathId(id);
            }
            id = m.next;
        }
        self.misses += 1;
        rfd_obs::inc("bgp.intern.misses");
        rfd_obs::inc("bgp.intern.paths");
        rfd_obs::add(
            "bgp.intern.bytes",
            (2 * path.len() * std::mem::size_of::<NodeId>() + std::mem::size_of::<PathMeta>())
                as u64,
        );
        assert!(
            self.meta.len() < NO_PATH as usize,
            "more than u32::MAX - 1 distinct paths"
        );
        let id = self.meta.len() as u32;
        let off = u32::try_from(self.arena.len()).expect("path arena exceeds u32 offsets");
        self.arena.extend_from_slice(path);
        self.sorted.extend_from_slice(path);
        let tail = self.sorted.len() - path.len();
        self.sorted[tail..].sort_unstable();
        let bloom = path.iter().fold(0u64, |acc, &n| acc | bloom_bit(n));
        self.meta.push(PathMeta {
            off,
            len: path.len() as u32,
            bloom,
            next: head,
        });
        self.dedup.insert(h, id);
        PathId(id)
    }

    fn route(&self, id: PathId, path: &[NodeId]) -> Route {
        Route {
            id,
            len: u16::try_from(path.len()).expect("AS path longer than u16::MAX hops"),
            head: path[0],
            origin: *path.last().expect("paths are non-empty"),
        }
    }

    /// A route originated by `origin` itself.
    pub fn originate(&mut self, origin: NodeId) -> Route {
        let id = self.intern(&[origin]);
        Route {
            id,
            len: 1,
            head: origin,
            origin,
        }
    }

    /// A route with an explicit path.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty or contains a repeated AS (a looped
    /// path must never be constructed).
    pub fn from_path(&mut self, path: &[NodeId]) -> Route {
        assert!(!path.is_empty(), "a route needs a non-empty AS path");
        self.scratch.clear();
        self.scratch.extend_from_slice(path);
        self.scratch.sort_unstable();
        assert!(
            self.scratch.windows(2).all(|w| w[0] != w[1]),
            "AS path contains a loop: {path:?}"
        );
        let id = self.intern(path);
        self.route(id, path)
    }

    /// The route as re-advertised by `node`: `node` prepended to the
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already in the path (would create a loop).
    pub fn prepend(&mut self, route: Route, node: NodeId) -> Route {
        assert!(
            !self.contains(route, node),
            "prepending {node} onto {} would loop",
            self.display(route)
        );
        if let Some(&id) = self.prepend_memo.get(&(route.id.0, node.raw())) {
            self.hits += 1;
            rfd_obs::inc("bgp.intern.hits");
            return Route {
                id: PathId(id),
                len: route.len + 1,
                head: node,
                origin: route.origin,
            };
        }
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.push(node);
        buf.extend_from_slice(&self.arena[self.meta[route.id.0 as usize].range()]);
        let id = self.intern(&buf);
        self.scratch = buf;
        self.prepend_memo.insert((route.id.0, node.raw()), id.0);
        Route {
            id,
            len: route.len + 1,
            head: node,
            origin: route.origin,
        }
    }

    /// The AS path of `route`.
    pub fn path(&self, route: Route) -> &[NodeId] {
        &self.arena[self.meta[route.id.0 as usize].range()]
    }

    /// Whether `node` appears in the path (loop detection): a bloom
    /// reject, then binary search over the sorted copy.
    pub fn contains(&self, route: Route, node: NodeId) -> bool {
        let m = self.meta[route.id.0 as usize];
        if m.bloom & bloom_bit(node) == 0 {
            return false;
        }
        self.sorted[m.range()].binary_search(&node).is_ok()
    }

    /// All interned paths in id order (snapshot capture).
    pub fn paths(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.meta.iter().map(|m| &self.arena[m.range()])
    }

    /// The route handle for an already-interned path id (snapshot
    /// restore: routes are checkpointed as raw ids against the table's
    /// path list); `None` when `raw` is not an interned id.
    pub fn route_by_id(&self, raw: u32) -> Option<Route> {
        let m = *self.meta.get(raw as usize)?;
        Some(self.route(PathId(raw), &self.arena[m.range()]))
    }

    /// Rebuilds a table that assigns ids `0..n` to `paths` in order;
    /// `None` when a path is empty, longer than a [`Route`] can carry,
    /// or repeats an earlier one (a valid snapshot lists each interned
    /// path exactly once, in intern order).
    ///
    /// The prepend memo and hit counters start empty — they are caches
    /// and never influence which id a path interns to.
    pub fn rebuild<I, P>(paths: I) -> Option<Self>
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[NodeId]>,
    {
        let mut table = PathTable::new();
        for (i, p) in paths.into_iter().enumerate() {
            let path = p.as_ref();
            if path.is_empty() || path.len() > usize::from(u16::MAX) {
                return None;
            }
            if table.intern(path).0 as usize != i {
                return None;
            }
        }
        Some(table)
    }

    /// The path rendered like the wire format ("AS2 AS1 AS0").
    pub fn display(&self, route: Route) -> String {
        let parts: Vec<String> = self.path(route).iter().map(ToString::to_string).collect();
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn originate_and_prepend_build_paths() {
        let mut t = PathTable::new();
        let r = t.originate(n(0));
        assert_eq!(t.path(r), &[n(0)]);
        assert_eq!((r.len(), r.head(), r.origin()), (1, n(0), n(0)));
        let r1 = t.prepend(r, n(1));
        let r2 = t.prepend(r1, n(2));
        assert_eq!(t.path(r2), &[n(2), n(1), n(0)]);
        assert_eq!((r2.len(), r2.head(), r2.origin()), (3, n(2), n(0)));
        assert!(t.contains(r2, n(1)));
        assert!(!t.contains(r2, n(9)));
        assert!(!r2.is_empty());
    }

    #[test]
    fn interning_dedupes_identical_paths() {
        let mut t = PathTable::new();
        let a = t.from_path(&[n(3), n(1), n(0)]);
        let b0 = t.originate(n(0));
        let b1 = t.prepend(b0, n(1));
        let b = t.prepend(b1, n(3));
        assert_eq!(a, b, "same hops must intern to the same id");
        assert_eq!(t.distinct(), 3, "[0], [1,0], [3,1,0]");
        let before = t.stats();
        let c = t.from_path(&[n(3), n(1), n(0)]);
        assert_eq!(a.id(), c.id());
        assert_eq!(t.stats().hits, before.hits + 1);
        assert_eq!(t.stats().misses, before.misses);
    }

    #[test]
    fn colliding_hashes_chain_without_merging() {
        let mut t = PathTable::new();
        let paths = [vec![n(1), n(0)], vec![n(2), n(0)], vec![n(3), n(2), n(0)]];
        let ids: Vec<PathId> = paths.iter().map(|p| t.intern_hashed(42, p)).collect();
        assert_eq!(ids, [PathId(0), PathId(1), PathId(2)], "first-seen order");
        assert_eq!((t.stats().hits, t.stats().misses), (0, 3));
        for (path, id) in paths.iter().zip(&ids) {
            assert_eq!(t.intern_hashed(42, path), *id, "found again down the chain");
        }
        assert_eq!((t.stats().hits, t.stats().misses), (3, 3));
        assert_eq!(t.distinct(), 3);
        let listed: Vec<&[NodeId]> = t.paths().collect();
        assert_eq!(listed, paths.iter().map(Vec::as_slice).collect::<Vec<_>>());
    }

    #[test]
    fn prepend_memo_avoids_rehash() {
        let mut t = PathTable::new();
        let base = t.originate(n(0));
        let first = t.prepend(base, n(7));
        let hits_before = t.stats().hits;
        let second = t.prepend(base, n(7));
        assert_eq!(first, second);
        assert_eq!(t.stats().hits, hits_before + 1, "memo hit counted");
    }

    #[test]
    fn contains_survives_bloom_collisions() {
        let mut t = PathTable::new();
        // 5 and 69 collide in the 64-bit bloom (69 % 64 == 5).
        let r = t.from_path(&[n(5), n(1), n(0)]);
        assert!(t.contains(r, n(5)));
        assert!(!t.contains(r, n(69)), "bloom collision resolved by search");
    }

    #[test]
    #[should_panic(expected = "loop")]
    fn prepend_loop_panics() {
        let mut t = PathTable::new();
        let base = t.originate(n(0));
        let r = t.prepend(base, n(1));
        let _ = t.prepend(r, n(0));
    }

    #[test]
    #[should_panic(expected = "loop")]
    fn from_path_rejects_loops() {
        PathTable::new().from_path(&[n(1), n(2), n(1)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn from_path_rejects_empty() {
        PathTable::new().from_path(&[]);
    }

    #[test]
    fn display_formats() {
        let mut t = PathTable::new();
        let base = t.originate(n(0));
        let r = t.prepend(base, n(1));
        assert_eq!(t.display(r), "AS1 AS0");
    }

    #[test]
    fn stats_report_bytes_and_counts() {
        let mut t = PathTable::new();
        assert_eq!(t.stats().bytes, 0);
        t.from_path(&[n(1), n(0)]);
        let s = t.stats();
        assert_eq!(s.distinct, 1);
        assert_eq!(s.misses, 1);
        assert!(s.bytes > 0);
    }

    #[test]
    fn route_is_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Route>();
        assert!(std::mem::size_of::<Route>() <= 16);
    }
}
