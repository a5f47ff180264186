//! A page-backed B+Tree.
//!
//! RodentStore's paper scopes indexing out of its contribution ("RodentStore
//! will include both B+Trees as well as a variety of geo-spatial indices")
//! but the substrate still has to exist for the system to be usable. This
//! B+Tree maps `i64` keys to `u64` payloads (typically record identifiers or
//! page indices), stores one node per page of the shared [`Pager`], and
//! therefore has its probe cost visible in the same I/O statistics the rest
//! of the system uses. A tree is bulk-loaded from sorted pairs and read
//! from then on; it is never modified in place.
//!
//! Duplicate keys are allowed; range scans return every matching entry.

use crate::{le_u64, node_entries, IndexError, Result, Walk, TYPE_INTERNAL, TYPE_LEAF};
use rodentstore_storage::page::{Page, PageId};
use rodentstore_storage::pager::Pager;
use std::sync::Arc;

const HEADER: usize = 1 + 4 + 8; // type, count, next-leaf
const ENTRY: usize = 16; // key + value/child
const NO_NEXT: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Node {
    page_id: PageId,
    is_leaf: bool,
    next: u64,
    /// `(key, value-or-child)` pairs, sorted by key.
    entries: Vec<(i64, u64)>,
}

impl Node {
    fn leaf(page_id: PageId) -> Node {
        Node {
            page_id,
            is_leaf: true,
            next: NO_NEXT,
            entries: Vec::new(),
        }
    }

    fn internal(page_id: PageId) -> Node {
        Node {
            page_id,
            is_leaf: false,
            next: NO_NEXT,
            entries: Vec::new(),
        }
    }

    /// Decodes the node stored in page `page_id`, whose bytes are `data`.
    fn decode(page_id: PageId, data: &[u8]) -> Result<Node> {
        let (is_leaf, entries) = node_entries(data, HEADER, ENTRY)?;
        Ok(Node {
            page_id,
            is_leaf,
            next: le_u64(data, 5),
            entries: entries
                .map(|e| (le_u64(e, 0) as i64, le_u64(e, 8)))
                .collect(),
        })
    }

    fn encode(&self, page: &mut Page) -> Result<()> {
        page.data.fill(0);
        page.data[0] = if self.is_leaf { TYPE_LEAF } else { TYPE_INTERNAL };
        page.write_u32(1, self.entries.len() as u32)?;
        page.write_u64(5, self.next)?;
        for (i, (key, val)) in self.entries.iter().enumerate() {
            let off = HEADER + i * ENTRY;
            page.write_u64(off, *key as u64)?;
            page.write_u64(off + 8, *val)?;
        }
        Ok(())
    }

    fn first_key(&self) -> i64 {
        self.entries.first().map(|(k, _)| *k).unwrap_or(i64::MIN)
    }
}

/// A page-backed B+Tree index from `i64` keys to `u64` payloads.
pub struct BTree {
    pager: Arc<Pager>,
    root: PageId,
    len: u64,
    height: usize,
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("len", &self.len)
            .field("height", &self.height)
            .finish()
    }
}

impl BTree {
    /// Creates an empty B+Tree whose nodes live in `pager`.
    pub fn new(pager: Arc<Pager>) -> Result<BTree> {
        node_capacity(pager.page_size())?;
        let mut page = pager.allocate()?;
        let root = Node::leaf(page.id);
        root.encode(&mut page)?;
        pager.write(&page)?;
        Ok(BTree {
            root: page.id,
            pager,
            len: 0,
            height: 1,
        })
    }

    /// Reattaches a B+Tree previously built in `pager` from its persisted
    /// root page, entry count, and height (as recorded in a manifest). No
    /// pages are read or written; the tree is usable immediately.
    pub fn from_parts(pager: Arc<Pager>, root: PageId, len: u64, height: usize) -> Result<BTree> {
        node_capacity(pager.page_size())?;
        Ok(BTree {
            pager,
            root,
            len,
            height,
        })
    }

    /// Bulk-loads a B+Tree from key-sorted `(key, value)` pairs, filling
    /// each node to ~90% of its capacity.
    pub fn bulk_load(pager: Arc<Pager>, sorted: &[(i64, u64)]) -> Result<BTree> {
        if sorted.is_empty() {
            return BTree::new(pager);
        }
        let capacity = node_capacity(pager.page_size())?;
        debug_assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
        let per_leaf = ((capacity * 9) / 10).max(1);

        // Build leaf level.
        let mut level: Vec<(i64, PageId)> = Vec::new();
        let mut prev_leaf: Option<Node> = None;
        for chunk in sorted.chunks(per_leaf) {
            let mut page = pager.allocate()?;
            let mut node = Node::leaf(page.id);
            node.entries = chunk.to_vec();
            if let Some(mut prev) = prev_leaf.take() {
                prev.next = page.id;
                // Encoding rewrites the whole node: no read needed.
                let mut prev_page = Page::zeroed(prev.page_id, pager.page_size());
                prev.encode(&mut prev_page)?;
                pager.write(&prev_page)?;
            }
            node.encode(&mut page)?;
            pager.write(&page)?;
            level.push((node.first_key(), page.id));
            prev_leaf = Some(node);
        }

        // Build internal levels until a single root remains.
        let mut height = 1usize;
        while level.len() > 1 {
            let mut next_level: Vec<(i64, PageId)> = Vec::new();
            for chunk in level.chunks(per_leaf) {
                let mut page = pager.allocate()?;
                let mut node = Node::internal(page.id);
                node.entries = chunk.iter().map(|(k, id)| (*k, *id)).collect();
                node.encode(&mut page)?;
                pager.write(&page)?;
                next_level.push((node.first_key(), page.id));
            }
            level = next_level;
            height += 1;
        }

        Ok(BTree {
            root: level[0].1,
            pager,
            len: sorted.len() as u64,
            height,
        })
    }

    /// Number of entries in the tree.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree in levels (a single leaf root has height 1).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The pager backing this index.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// The root page id (persisted in manifests for reattachment).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Every page occupied by the tree, collected by walking it from the
    /// root. Used to record the index extent in manifests and to return the
    /// pages to the free list when the index is retired.
    pub fn page_ids(&self) -> Result<Vec<PageId>> {
        let mut walk = Walk::new(&self.pager, self.height);
        let mut out = Vec::new();
        let mut stack = vec![(self.root, 1)];
        while let Some((id, depth)) = stack.pop() {
            walk.visit(depth)?;
            let node = self.read_node(id)?;
            out.push(id);
            if !node.is_leaf {
                stack.extend(node.entries.iter().map(|&(_, child)| (child, depth + 1)));
            }
        }
        Ok(out)
    }

    fn read_node(&self, id: PageId) -> Result<Node> {
        Node::decode(id, self.pager.read_frame(id)?.data())
    }

    /// Every `(key, value)` with `lo <= key <= hi`, in key order, and the
    /// number of node pages the walk read to find them: the root-to-leaf
    /// path plus the leaf chain it follows. An empty tree or an inverted
    /// range reads the root alone.
    pub fn range(&self, lo: i64, hi: i64) -> Result<(Vec<(i64, u64)>, usize)> {
        let mut walk = Walk::new(&self.pager, self.height);
        let mut out = Vec::new();
        let mut depth = 1;
        walk.visit(depth)?;
        let mut node = self.read_node(self.root)?;
        if lo > hi || self.len == 0 {
            return Ok((out, walk.visited));
        }
        // Descend to the leftmost leaf that may contain `lo`. Because leaves
        // holding duplicate keys can share a separator equal to `lo`, descend
        // into the last child whose separator is *strictly* below `lo` (or
        // the first child if none is).
        while !node.is_leaf {
            let idx = node
                .entries
                .partition_point(|(k, _)| *k < lo)
                .saturating_sub(1);
            depth += 1;
            walk.visit(depth)?;
            node = self.read_node(node.entries[idx].1)?;
        }
        loop {
            for &(k, v) in &node.entries {
                if k > hi {
                    return Ok((out, walk.visited));
                }
                if k >= lo {
                    out.push((k, v));
                }
            }
            if node.next == NO_NEXT {
                return Ok((out, walk.visited));
            }
            walk.visit(depth)?;
            node = self.read_node(node.next)?;
        }
    }
}

fn node_capacity(page_size: usize) -> Result<usize> {
    let capacity = page_size.saturating_sub(HEADER) / ENTRY;
    if capacity < 4 {
        return Err(IndexError::PageTooSmall {
            page_size,
            minimum: HEADER + 4 * ENTRY,
        });
    }
    Ok(capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pager(page_size: usize) -> Arc<Pager> {
        Arc::new(Pager::in_memory_with_page_size(page_size))
    }

    fn keys(tree: &BTree, lo: i64, hi: i64) -> Vec<(i64, u64)> {
        tree.range(lo, hi).unwrap().0
    }

    #[test]
    fn damaged_node_pages_decode_to_an_error_or_a_node() {
        let pager = pager(512);
        let pairs: Vec<(i64, u64)> = (0..200).map(|key| (key * 3, key as u64)).collect();
        let tree = BTree::bulk_load(Arc::clone(&pager), &pairs).unwrap();
        let root = pager.read_frame(tree.root()).unwrap();
        let node = Node::decode(root.id(), root.data()).unwrap();
        assert!(!node.is_leaf && tree.height() > 1);
        let leaf = pager.read_frame(node.entries[0].1).unwrap();
        for frame in [&root, &leaf] {
            let mut decoded = 0;
            crate::for_each_damaged(frame.data(), 4_000, |bytes| {
                decoded += usize::from(Node::decode(frame.id(), bytes).is_ok());
            });
            assert!(decoded > 0, "some damaged pages still decode");
        }
        // A count past what the page holds is corruption, not an allocation,
        // and an internal node without children is corruption, not a node
        // a descent would index past the end of.
        for count in [u32::MAX, 0] {
            let mut damaged = root.data().to_vec();
            damaged[1..5].copy_from_slice(&count.to_le_bytes());
            assert!(matches!(
                Node::decode(root.id(), &damaged),
                Err(IndexError::Storage(rodentstore_storage::StorageError::Corrupted(_)))
            ));
        }
    }

    /// A one-node tree whose node links back to itself: an internal node
    /// whose only child is itself, or a leaf whose `next` is itself.
    fn self_linked(is_leaf: bool) -> BTree {
        let pager = pager(256);
        let mut page = pager.allocate().unwrap();
        let mut node = if is_leaf { Node::leaf(page.id) } else { Node::internal(page.id) };
        node.entries = vec![(0, if is_leaf { 7 } else { page.id })];
        if is_leaf {
            node.next = page.id;
        }
        node.encode(&mut page).unwrap();
        pager.write(&page).unwrap();
        BTree::from_parts(pager, page.id, 1, 1).unwrap()
    }

    #[test]
    fn walks_over_self_linked_nodes_are_corrupted() {
        // The range [1, 10] holds no entry, so a walk that followed the
        // links would loop without allocating.
        for is_leaf in [false, true] {
            let range = crate::finishes(move || self_linked(is_leaf).range(1, 10).map(|_| ()));
            assert!(
                matches!(
                    range,
                    Err(IndexError::Storage(rodentstore_storage::StorageError::Corrupted(_)))
                ),
                "range over a self-linked {} node: {range:?}",
                if is_leaf { "leaf" } else { "internal" }
            );
        }
        let pages = crate::finishes(|| self_linked(false).page_ids());
        assert!(matches!(
            pages,
            Err(IndexError::Storage(rodentstore_storage::StorageError::Corrupted(_)))
        ));
    }

    #[test]
    fn range_queries() {
        let pairs: Vec<(i64, u64)> = (0..1000).map(|i| (i, (i * 2) as u64)).collect();
        let tree = BTree::bulk_load(pager(512), &pairs).unwrap();
        let r = keys(&tree, 100, 110);
        assert_eq!(r.len(), 11);
        assert_eq!(r[0], (100, 200));
        assert_eq!(r[10], (110, 220));
        assert!(keys(&tree, 2000, 3000).is_empty());
        assert!(keys(&tree, 10, 5).is_empty());
    }

    #[test]
    fn duplicate_keys_are_kept() {
        let pairs: Vec<(i64, u64)> = (0..50u64).map(|i| (42, i)).collect();
        let tree = BTree::bulk_load(pager(256), &pairs).unwrap();
        assert_eq!(keys(&tree, 42, 42).len(), 50);
    }

    #[test]
    fn probe_cost_is_logarithmic_in_pages() {
        let pairs: Vec<(i64, u64)> = (0..20_000).map(|i| (i, i as u64)).collect();
        let p = pager(4096);
        let tree = BTree::bulk_load(Arc::clone(&p), &pairs).unwrap();
        p.stats().reset();
        let (found, nodes) = tree.range(12_345, 12_345).unwrap();
        assert_eq!(found, vec![(12_345, 12_345)]);
        let reads = p.stats().snapshot().pages_read;
        assert_eq!(reads as usize, nodes, "the walk counts the pages it reads");
        assert!(nodes <= tree.height() + 1, "reads {reads} > height + 1");
        assert!(reads <= 4);
    }

    #[test]
    fn page_too_small_is_rejected() {
        assert!(BTree::new(pager(32)).is_err());
    }

    #[test]
    fn empty_tree_behaviour() {
        let tree = BTree::new(pager(256)).unwrap();
        assert!(tree.is_empty());
        assert!(keys(&tree, 1, 1).is_empty());
        assert!(keys(&tree, 0, 100).is_empty());
        let empty = BTree::bulk_load(pager(256), &[]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn bulk_load_adds_a_level_exactly_past_one_full_leaf() {
        // A leaf is filled to 90 % of its capacity: that many keys make a
        // single leaf root, and one more key makes two leaves under a root.
        let per_leaf = node_capacity(256).unwrap() * 9 / 10;
        let pairs: Vec<(i64, u64)> = (0..=per_leaf as i64).map(|i| (i, i as u64)).collect();
        let one = BTree::bulk_load(pager(256), &pairs[..per_leaf]).unwrap();
        assert_eq!((one.height(), one.page_ids().unwrap().len()), (1, 1));
        let two = BTree::bulk_load(pager(256), &pairs).unwrap();
        assert_eq!((two.height(), two.page_ids().unwrap().len()), (2, 3));
        assert_eq!(keys(&two, i64::MIN, i64::MAX), pairs);
    }

    #[test]
    fn bulk_loaded_ranges_match_a_filter_of_the_input() {
        // Keys with gaps and runs of three duplicates, from a single leaf up
        // to a four-level tree: every window returns exactly the input
        // pairs it covers, in input order.
        for n in [1u64, 30, 600, 5_000] {
            let pairs: Vec<(i64, u64)> = (0..n).map(|i| ((i / 3 * 5) as i64, i)).collect();
            let tree = BTree::bulk_load(pager(256), &pairs).unwrap();
            let top = pairs[pairs.len() - 1].0;
            let mid = top / 2;
            for (lo, hi) in [
                (-5, -1),
                (0, 0),
                (1, 4),
                (5, 5),
                (7, 23),
                (mid, mid + 11),
                (top, top),
                (top + 1, top + 9),
                (i64::MIN, i64::MAX),
            ] {
                let want: Vec<(i64, u64)> = pairs
                    .iter()
                    .copied()
                    .filter(|&(k, _)| lo <= k && k <= hi)
                    .collect();
                assert_eq!(keys(&tree, lo, hi), want, "{n} keys, [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn duplicate_runs_span_leaf_boundaries() {
        // More duplicates of one key than fit in a single leaf: the run
        // spans leaves whose separators equal the key, and range(k, k) must
        // still return every payload exactly once.
        let capacity = node_capacity(256).unwrap();
        let n = capacity as u64 * 4;
        let pairs: Vec<(i64, u64)> = [(6, n)]
            .into_iter()
            .chain((0..n).map(|v| (7, v)))
            .chain([(8, n + 1)])
            .collect();
        let tree = BTree::bulk_load(pager(256), &pairs).unwrap();
        assert!(tree.height() > 1);
        let mut got: Vec<u64> = keys(&tree, 7, 7).iter().map(|(_, v)| *v).collect();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert_eq!(keys(&tree, 6, 6), vec![(6, n)]);
        assert_eq!(keys(&tree, 8, 8), vec![(8, n + 1)]);
    }

    #[test]
    fn extreme_keys_round_trip() {
        let extremes = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let pairs: Vec<(i64, u64)> = extremes.iter().map(|&key| (key, key as u64)).collect();
        let tree = BTree::bulk_load(pager(256), &pairs).unwrap();
        for key in [i64::MIN, i64::MAX, 0, -1] {
            assert_eq!(keys(&tree, key, key), vec![(key, key as u64)]);
        }
        let all = keys(&tree, i64::MIN, i64::MAX);
        assert_eq!(all.len(), 7);
        assert_eq!(all[0].0, i64::MIN);
        assert_eq!(all[6].0, i64::MAX);
    }

    #[test]
    fn from_parts_reattaches_identically() {
        let p = pager(256);
        let pairs: Vec<(i64, u64)> = (0..700).map(|i| (i * 2, i as u64)).collect();
        let built = BTree::bulk_load(Arc::clone(&p), &pairs).unwrap();
        let reattached =
            BTree::from_parts(Arc::clone(&p), built.root(), built.len(), built.height()).unwrap();
        assert_eq!(reattached.len(), built.len());
        assert_eq!(reattached.height(), built.height());
        assert_eq!(
            reattached.range(i64::MIN, i64::MAX).unwrap(),
            built.range(i64::MIN, i64::MAX).unwrap()
        );
        assert_eq!(keys(&reattached, 100, 100), vec![(100, 50)]);
        assert!(keys(&reattached, 101, 101).is_empty());
        let mut a = built.page_ids().unwrap();
        let mut b = reattached.page_ids().unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "reattached extent must match the built extent");
    }

    #[test]
    fn range_node_count_boundaries() {
        // Degenerate inputs visit exactly the root.
        let empty = BTree::new(pager(256)).unwrap();
        assert_eq!(empty.range(0, 100).unwrap().1, 1);
        let pairs: Vec<(i64, u64)> = (0..500).map(|i| (i, i as u64)).collect();
        let p = pager(256);
        let tree = BTree::bulk_load(Arc::clone(&p), &pairs).unwrap();
        assert_eq!(tree.range(10, 5).unwrap().1, 1, "inverted range");

        // A point probe walks one root-to-leaf path (plus at most one leaf
        // link when the key sits at a leaf boundary).
        for probe in [0i64, 250, 499] {
            let visited = tree.range(probe, probe).unwrap().1;
            assert!(
                visited >= tree.height() && visited <= tree.height() + 1,
                "point probe visited {visited}, height {}",
                tree.height()
            );
        }

        // The count is exact: a range() probe reads precisely the pages it
        // reports, for narrow, wide, leaf-boundary-straddling and
        // degenerate windows alike.
        let leaves = tree
            .page_ids()
            .unwrap()
            .iter()
            .filter(|id| tree.read_node(**id).unwrap().is_leaf)
            .count();
        for (lo, hi) in [(0, 0), (100, 120), (0, 499), (490, 600), (-50, 10), (10, 5)] {
            p.stats().reset();
            let visited = tree.range(lo, hi).unwrap().1;
            let read = p.stats().snapshot().pages_read as usize;
            assert_eq!(visited, read, "range [{lo}, {hi}]");
        }
        // A full sweep walks the entire leaf chain exactly once.
        assert_eq!(
            tree.range(i64::MIN, i64::MAX).unwrap().1,
            tree.height() + leaves - 1
        );
    }
}
