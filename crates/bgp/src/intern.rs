//! Hash-consed AS-path interning — the compact route representation.
//!
//! Path exploration touches thousands of *distinct* AS paths millions
//! of times: every RIB-in insert, RIB-out write, MRAI flush and
//! per-peer fan-out used to clone a `Vec<NodeId>`. The [`PathTable`]
//! stores each distinct path once and hands out [`PathId`] handles;
//! [`Route`] is a small `Copy` struct carrying the handle plus the
//! metadata the decision process needs without a table lookup (length,
//! head, origin).
//!
//! Every path the network builds is one AS prepended onto a path it
//! already holds, so a path is one 16-byte cons cell: its head AS, its
//! tail's id and a 64-bit membership bloom of the whole path. One
//! `(tail, head) → id` map finds a cell, which makes `prepend` — the
//! k-peer fan-out's operation — a single lookup. Loop detection
//! (`contains`) walks head → tail and stops at the first suffix whose
//! bloom lacks the AS.
//!
//! ## Determinism
//!
//! [`PathId`]s are assigned in first-intern order, which depends only
//! on the (deterministic) simulation event order. A cell's tail was
//! interned before it, so its id is smaller. The map is used strictly
//! for point lookups — nothing ever iterates it — so its hash function
//! ([`rfd_snap::MixHasher`]) cannot reach simulator output.
//!
//! A [`PathId`]'s value never reaches output either, and a
//! [`PulseChain`](crate::PulseChain) relies on it: its forks share one
//! table, so paths one fork interned are already present in the next
//! and ids differ from a fresh run's. Nothing orders or prints by id:
//! the decision process ranks by (policy class, path length, peer id),
//! RIB-OUT compares ids only for equality (the dedup makes id and
//! content equality the same), and trace events carry path lengths,
//! never ids. Keep it so.

use std::sync::OnceLock;

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
/// without dereferencing the table. The first hop is the advertising
/// router, the last the origin AS.
///
/// `Route` is `Copy`: installing, exporting and fanning a route out to
/// k peers moves 16 bytes instead of cloning a vector. Operations that
/// need the actual hops (`hops`, `contains`, `prepend`, display) go
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

/// The tail of a one-hop path: no cell.
const NONE: u32 = u32::MAX;

/// One interned path: `head` prepended onto the path `tail`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    head: NodeId,
    /// The tail's id (always smaller than this cell's), or [`NONE`].
    tail: u32,
    /// Membership bloom of the whole path: the tail's bloom plus the
    /// head's bit.
    bloom: u64,
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
    /// Bytes held by the cells plus the map's capacity.
    pub bytes: usize,
}

/// The hash-consing table: every distinct AS path stored once, as a
/// cons cell onto its tail.
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    /// Indexed by [`PathId`].
    cells: Vec<Cell>,
    /// `(tail, head) → id`. Point lookups only — never iterated.
    ids: MixMap<(u32, u32), u32>,
    /// [`PathTable::paths`]' flat copy (hops, then each path's start
    /// and end), built on its first call and dropped on the next intern.
    flat: OnceLock<(Vec<NodeId>, Vec<usize>)>,
    hits: u64,
    misses: u64,
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
        self.cells.len()
    }

    /// Current statistics.
    pub fn stats(&self) -> InternStats {
        InternStats {
            distinct: self.cells.len(),
            hits: self.hits,
            misses: self.misses,
            bytes: self.cells.len() * std::mem::size_of::<Cell>()
                + self.ids.capacity() * std::mem::size_of::<((u32, u32), u32)>(),
        }
    }

    /// The cells of path `id`, head first (none for [`NONE`]).
    fn walk(&self, id: u32) -> impl Iterator<Item = &Cell> + '_ {
        std::iter::successors(self.cells.get(id as usize), |c| {
            self.cells.get(c.tail as usize)
        })
    }

    /// Whether `node` is on path `id` (or [`NONE`]).
    fn on_path(&self, id: u32, node: NodeId) -> bool {
        let bit = bloom_bit(node);
        self.walk(id)
            .take_while(|c| c.bloom & bit != 0)
            .any(|c| c.head == node)
    }

    /// The id of `head` prepended onto `tail`, if interned.
    fn find(&self, tail: u32, head: NodeId) -> Option<u32> {
        self.ids.get(&(tail, head.raw())).copied()
    }

    /// The id of `head` prepended onto path `tail` (or [`NONE`]): one
    /// lookup, counted as a hit or a miss, and on a miss a new cell.
    /// `None` when that new path would loop. Only a miss is checked: an
    /// interned path passed when it was built.
    fn cons(&mut self, tail: u32, head: NodeId) -> Option<u32> {
        if let Some(id) = self.find(tail, head) {
            self.hits += 1;
            rfd_obs::inc("bgp.intern.hits");
            return Some(id);
        }
        if self.on_path(tail, head) {
            return None;
        }
        assert!(
            self.cells.len() < NONE as usize,
            "more than u32::MAX - 1 distinct paths"
        );
        self.misses += 1;
        rfd_obs::inc("bgp.intern.misses");
        rfd_obs::inc("bgp.intern.paths");
        let (id, bytes) = (self.cells.len() as u32, self.stats().bytes);
        let bloom = self.cells.get(tail as usize).map_or(0, |c| c.bloom) | bloom_bit(head);
        self.cells.push(Cell { head, tail, bloom });
        self.ids.insert((tail, head.raw()), id);
        rfd_obs::add("bgp.intern.bytes", (self.stats().bytes - bytes) as u64);
        self.flat.take();
        Some(id)
    }

    /// A route originated by `origin` itself.
    pub fn originate(&mut self, origin: NodeId) -> Route {
        let id = self.cons(NONE, origin).expect("a one-hop path cannot loop");
        Route {
            id: PathId(id),
            len: 1,
            head: origin,
            origin,
        }
    }

    /// A route with an explicit path, interned from the origin
    /// backwards (every suffix becomes a path of the table too).
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty or contains a repeated AS (a looped
    /// path must never be constructed).
    pub fn from_path(&mut self, path: &[NodeId]) -> Route {
        assert!(!path.is_empty(), "a route needs a non-empty AS path");
        let id = path
            .iter()
            .rev()
            .try_fold(NONE, |id, &hop| self.cons(id, hop))
            .unwrap_or_else(|| panic!("AS path contains a loop: {path:?}"));
        self.route_by_id(id).expect("just interned")
    }

    /// The route as re-advertised by `node`: `node` prepended to the
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already in the path (would create a loop).
    pub fn prepend(&mut self, route: Route, node: NodeId) -> Route {
        let id = self
            .cons(route.id.0, node)
            .unwrap_or_else(|| panic!("prepending {node} onto {} would loop", self.display(route)));
        Route {
            id: PathId(id),
            len: route.len + 1,
            head: node,
            origin: route.origin,
        }
    }

    /// The AS hops of `route`, advertising router first.
    pub fn hops(&self, route: Route) -> impl Iterator<Item = NodeId> + '_ {
        self.walk(route.id.0).map(|c| c.head)
    }

    /// Whether `node` appears in the path (loop detection): a walk from
    /// the head that stops at the first suffix whose bloom lacks `node`.
    pub fn contains(&self, route: Route, node: NodeId) -> bool {
        self.on_path(route.id.0, node)
    }

    /// All interned paths in id order, as slices of a flat copy built
    /// on the first call after an intern (it costs a `NodeId` per hop
    /// of every path, so readers that can walk [`hops`](Self::hops)
    /// should).
    pub fn paths(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        let (hops, bounds) = self.flat.get_or_init(|| {
            let mut hops = Vec::new();
            let mut bounds = vec![0];
            for id in 0..self.cells.len() as u32 {
                hops.extend(self.walk(id).map(|c| c.head));
                bounds.push(hops.len());
            }
            (hops, bounds)
        });
        bounds.windows(2).map(|w| &hops[w[0]..w[1]])
    }

    /// The route handle for an already-interned path id (snapshot
    /// restore: routes are checkpointed as raw ids against the table's
    /// path list); `None` when `raw` is not an interned id.
    pub fn route_by_id(&self, raw: u32) -> Option<Route> {
        let head = self.cells.get(raw as usize)?.head;
        let (len, origin) = self
            .walk(raw)
            .fold((0usize, head), |(len, _), c| (len + 1, c.head));
        Some(Route {
            id: PathId(raw),
            len: u16::try_from(len).expect("AS path longer than u16::MAX hops"),
            head,
            origin,
        })
    }

    /// Rebuilds a table that assigns ids `0..n` to `paths` in order;
    /// `None` when a path is empty, longer than a [`Route`] can carry,
    /// loops, repeats an earlier one or has a tail that is not an
    /// earlier path (a valid snapshot lists each interned path exactly
    /// once, in intern order, after its tail).
    ///
    /// The hit counter starts at zero — it never influences which id a
    /// path interns to.
    pub fn rebuild<I, P>(paths: I) -> Option<Self>
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[NodeId]>,
    {
        let mut table = PathTable::new();
        for p in paths {
            let path = p.as_ref();
            let (&head, tail) = path.split_first()?;
            let tail = tail
                .iter()
                .rev()
                .try_fold(NONE, |id, &hop| table.find(id, hop))?;
            if path.len() > usize::from(u16::MAX) || table.find(tail, head).is_some() {
                return None;
            }
            table.cons(tail, head)?;
        }
        Some(table)
    }

    /// The path rendered like the wire format ("AS2 AS1 AS0").
    pub fn display(&self, route: Route) -> String {
        let parts: Vec<String> = self.hops(route).map(|n| n.to_string()).collect();
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn hops(t: &PathTable, r: Route) -> Vec<NodeId> {
        t.hops(r).collect()
    }

    #[test]
    fn originate_and_prepend_build_paths() {
        let mut t = PathTable::new();
        let r = t.originate(n(0));
        assert_eq!(hops(&t, r), [n(0)]);
        assert_eq!((r.len(), r.head(), r.origin()), (1, n(0), n(0)));
        let r1 = t.prepend(r, n(1));
        let r2 = t.prepend(r1, n(2));
        assert_eq!(hops(&t, r2), [n(2), n(1), n(0)]);
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
        assert_eq!(t.stats().hits, before.hits + 3, "one lookup per hop");
        assert_eq!(t.stats().misses, before.misses);
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
        assert_eq!(s.distinct, 2, "[0] and [1,0]");
        assert_eq!(s.misses, 2);
        assert!(s.bytes >= 2 * std::mem::size_of::<Cell>());
    }

    #[test]
    fn route_is_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Route>();
        assert!(std::mem::size_of::<Route>() <= 16);
    }

    #[test]
    fn a_path_is_one_16_byte_cell() {
        assert_eq!(std::mem::size_of::<Cell>(), 16);
    }
}
