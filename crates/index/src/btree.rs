//! A page-backed B+Tree.
//!
//! RodentStore's paper scopes indexing out of its contribution ("RodentStore
//! will include both B+Trees as well as a variety of geo-spatial indices")
//! but the substrate still has to exist for the system to be usable. This
//! B+Tree maps `i64` keys to `u64` payloads (typically record identifiers or
//! page indices), stores one node per page of the shared [`Pager`], and
//! therefore has its probe cost visible in the same I/O statistics the rest
//! of the system uses.
//!
//! Duplicate keys are allowed; range scans return every matching entry.

use crate::{le_u64, node_entries, IndexError, Result, TYPE_INTERNAL, TYPE_LEAF};
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
    capacity: usize,
    len: u64,
    height: usize,
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("len", &self.len)
            .field("height", &self.height)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl BTree {
    /// Creates an empty B+Tree whose nodes live in `pager`.
    pub fn new(pager: Arc<Pager>) -> Result<BTree> {
        let capacity = node_capacity(pager.page_size())?;
        let mut page = pager.allocate()?;
        let root = Node::leaf(page.id);
        root.encode(&mut page)?;
        pager.write(&page)?;
        Ok(BTree {
            root: page.id,
            pager,
            capacity,
            len: 0,
            height: 1,
        })
    }

    /// Reattaches a B+Tree previously built in `pager` from its persisted
    /// root page, entry count, and height (as recorded in a manifest). No
    /// pages are read or written; the tree is usable immediately.
    pub fn from_parts(pager: Arc<Pager>, root: PageId, len: u64, height: usize) -> Result<BTree> {
        let capacity = node_capacity(pager.page_size())?;
        Ok(BTree {
            pager,
            root,
            capacity,
            len,
            height,
        })
    }

    /// Bulk-loads a B+Tree from key-sorted `(key, value)` pairs. Leaves are
    /// packed to ~90% so subsequent inserts do not immediately split.
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
            capacity,
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
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = self.read_node(id)?;
            out.push(id);
            if !node.is_leaf {
                for (_, child) in &node.entries {
                    stack.push(*child);
                }
            }
        }
        Ok(out)
    }

    fn read_node(&self, id: PageId) -> Result<Node> {
        Node::decode(id, self.pager.read_frame(id)?.data())
    }

    fn write_node(&self, node: &Node) -> Result<()> {
        let mut page = Page::zeroed(node.page_id, self.pager.page_size());
        node.encode(&mut page)?;
        self.pager.write(&page)?;
        Ok(())
    }

    /// Index of the child to descend into for `key`.
    fn child_index(node: &Node, key: i64) -> usize {
        let mut idx = 0usize;
        for (i, (k, _)) in node.entries.iter().enumerate() {
            if *k <= key {
                idx = i;
            } else {
                break;
            }
        }
        idx
    }

    /// Looks up the first value associated with `key`.
    pub fn get(&self, key: i64) -> Result<Option<u64>> {
        let mut node = self.read_node(self.root)?;
        while !node.is_leaf {
            let idx = Self::child_index(&node, key);
            node = self.read_node(node.entries[idx].1)?;
        }
        Ok(node
            .entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v))
    }

    /// Returns every `(key, value)` with `lo <= key <= hi`, in key order.
    pub fn range(&self, lo: i64, hi: i64) -> Result<Vec<(i64, u64)>> {
        let mut out = Vec::new();
        if lo > hi || self.len == 0 {
            return Ok(out);
        }
        // Descend to the leftmost leaf that may contain `lo`. Because leaves
        // holding duplicate keys can share a separator equal to `lo`, descend
        // into the last child whose separator is *strictly* below `lo` (or
        // the first child if none is).
        let mut node = self.read_node(self.root)?;
        while !node.is_leaf {
            let idx = node
                .entries
                .partition_point(|(k, _)| *k < lo)
                .saturating_sub(1);
            node = self.read_node(node.entries[idx].1)?;
        }
        loop {
            for (k, v) in &node.entries {
                if *k > hi {
                    return Ok(out);
                }
                if *k >= lo {
                    out.push((*k, *v));
                }
            }
            if node.next == NO_NEXT {
                return Ok(out);
            }
            node = self.read_node(node.next)?;
        }
    }

    /// Number of tree node pages a [`BTree::range`] probe of `[lo, hi]`
    /// reads: the root-to-leaf path plus the leaf chain the scan walks.
    pub fn range_node_count(&self, lo: i64, hi: i64) -> Result<usize> {
        let mut visited = 1usize;
        if lo > hi || self.len == 0 {
            return Ok(visited);
        }
        let mut node = self.read_node(self.root)?;
        while !node.is_leaf {
            let idx = node
                .entries
                .partition_point(|(k, _)| *k < lo)
                .saturating_sub(1);
            node = self.read_node(node.entries[idx].1)?;
            visited += 1;
        }
        loop {
            if node.entries.iter().any(|(k, _)| *k > hi) || node.next == NO_NEXT {
                return Ok(visited);
            }
            node = self.read_node(node.next)?;
            visited += 1;
        }
    }

    /// Inserts a `(key, value)` pair.
    pub fn insert(&mut self, key: i64, value: u64) -> Result<()> {
        let split = self.insert_into(self.root, key, value)?;
        if let Some((sep_key, new_page)) = split {
            // Grow the tree with a new root.
            let old_root = self.read_node(self.root)?;
            let mut page = self.pager.allocate()?;
            let mut new_root = Node::internal(page.id);
            new_root.entries = vec![(old_root.first_key(), self.root), (sep_key, new_page)];
            new_root.encode(&mut page)?;
            self.pager.write(&page)?;
            self.root = page.id;
            self.height += 1;
        }
        self.len += 1;
        Ok(())
    }

    /// Recursive insert; returns `Some((separator_key, new_page_id))` when
    /// the target node split.
    fn insert_into(&mut self, page_id: PageId, key: i64, value: u64) -> Result<Option<(i64, PageId)>> {
        let mut node = self.read_node(page_id)?;
        if node.is_leaf {
            let pos = node.entries.partition_point(|(k, _)| *k <= key);
            node.entries.insert(pos, (key, value));
            if node.entries.len() <= self.capacity {
                self.write_node(&node)?;
                return Ok(None);
            }
            // Split the leaf.
            let mid = node.entries.len() / 2;
            let right_entries = node.entries.split_off(mid);
            let mut right_page = self.pager.allocate()?;
            let mut right = Node::leaf(right_page.id);
            right.entries = right_entries;
            right.next = node.next;
            node.next = right.page_id;
            right.encode(&mut right_page)?;
            self.pager.write(&right_page)?;
            self.write_node(&node)?;
            return Ok(Some((right.first_key(), right.page_id)));
        }

        let idx = Self::child_index(&node, key);
        let child_id = node.entries[idx].1;
        let split = self.insert_into(child_id, key, value)?;
        if let Some((sep_key, new_page)) = split {
            let pos = node.entries.partition_point(|(k, _)| *k <= sep_key);
            node.entries.insert(pos, (sep_key, new_page));
            if node.entries.len() <= self.capacity {
                self.write_node(&node)?;
                return Ok(None);
            }
            // Split the internal node.
            let mid = node.entries.len() / 2;
            let right_entries = node.entries.split_off(mid);
            let mut right_page = self.pager.allocate()?;
            let mut right = Node::internal(right_page.id);
            right.entries = right_entries;
            right.encode(&mut right_page)?;
            self.pager.write(&right_page)?;
            self.write_node(&node)?;
            return Ok(Some((right.first_key(), right.page_id)));
        }
        Ok(None)
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

    #[test]
    fn damaged_node_pages_decode_to_an_error_or_a_node() {
        let pager = pager(512);
        let mut tree = BTree::new(Arc::clone(&pager)).unwrap();
        for key in 0..200i64 {
            tree.insert(key * 3, key as u64).unwrap();
        }
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

    #[test]
    fn insert_and_get() {
        let mut tree = BTree::new(pager(256)).unwrap();
        for key in [5i64, 1, 9, 3, 7, -2, 100] {
            tree.insert(key, (key * 10) as u64).unwrap();
        }
        assert_eq!(tree.len(), 7);
        assert_eq!(tree.get(9).unwrap(), Some(90));
        assert_eq!(tree.get(-2).unwrap(), Some(u64::MAX - 19), "negative keys");
    }

    #[test]
    fn many_inserts_force_splits_and_stay_sorted() {
        let mut tree = BTree::new(pager(256)).unwrap();
        let n = 2000i64;
        // Insert in a scrambled but deterministic order.
        for i in 0..n {
            let key = (i * 7919) % n;
            tree.insert(key, key as u64).unwrap();
        }
        assert!(tree.height() > 1, "tree must have split");
        let all = tree.range(i64::MIN, i64::MAX).unwrap();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
        for probe in [0i64, 1, 999, 1999, n / 2] {
            assert_eq!(tree.get(probe).unwrap(), Some(probe as u64));
        }
        assert_eq!(tree.get(n + 5).unwrap(), None);
    }

    #[test]
    fn range_queries() {
        let pairs: Vec<(i64, u64)> = (0..1000).map(|i| (i, (i * 2) as u64)).collect();
        let tree = BTree::bulk_load(pager(512), &pairs).unwrap();
        let r = tree.range(100, 110).unwrap();
        assert_eq!(r.len(), 11);
        assert_eq!(r[0], (100, 200));
        assert_eq!(r[10], (110, 220));
        assert!(tree.range(2000, 3000).unwrap().is_empty());
        assert!(tree.range(10, 5).unwrap().is_empty());
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() {
        let pairs: Vec<(i64, u64)> = (0..500).map(|i| (i * 3, i as u64)).collect();
        let bulk = BTree::bulk_load(pager(256), &pairs).unwrap();
        let mut incr = BTree::new(pager(256)).unwrap();
        for (k, v) in &pairs {
            incr.insert(*k, *v).unwrap();
        }
        assert_eq!(
            bulk.range(i64::MIN, i64::MAX).unwrap(),
            incr.range(i64::MIN, i64::MAX).unwrap()
        );
        assert_eq!(bulk.len(), incr.len());
    }

    #[test]
    fn duplicate_keys_are_kept() {
        let mut tree = BTree::new(pager(256)).unwrap();
        for i in 0..50u64 {
            tree.insert(42, i).unwrap();
        }
        let r = tree.range(42, 42).unwrap();
        assert_eq!(r.len(), 50);
    }

    #[test]
    fn probe_cost_is_logarithmic_in_pages() {
        let pairs: Vec<(i64, u64)> = (0..20_000).map(|i| (i, i as u64)).collect();
        let p = pager(4096);
        let tree = BTree::bulk_load(Arc::clone(&p), &pairs).unwrap();
        p.stats().reset();
        tree.get(12_345).unwrap();
        let reads = p.stats().snapshot().pages_read;
        assert!(reads as usize <= tree.height(), "reads {reads} > height");
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
        assert_eq!(tree.get(1).unwrap(), None);
        assert!(tree.range(0, 100).unwrap().is_empty());
        let empty = BTree::bulk_load(pager(256), &[]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn split_happens_exactly_at_capacity_boundary() {
        let p = pager(256);
        let capacity = node_capacity(256).unwrap();
        let mut tree = BTree::new(Arc::clone(&p)).unwrap();
        for i in 0..capacity as i64 {
            tree.insert(i, i as u64).unwrap();
        }
        assert_eq!(tree.height(), 1, "a full leaf must not split pre-emptively");
        tree.insert(capacity as i64, capacity as u64).unwrap();
        assert_eq!(tree.height(), 2, "overflowing the leaf must split");
        let all = tree.range(i64::MIN, i64::MAX).unwrap();
        assert_eq!(all.len(), capacity + 1);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn duplicate_runs_survive_splits() {
        // More duplicates of one key than fit in a single leaf: the run is
        // forced across a split boundary and range(k, k) must still return
        // every payload exactly once.
        let mut tree = BTree::new(pager(256)).unwrap();
        let capacity = node_capacity(256).unwrap();
        let n = capacity as u64 * 4;
        for v in 0..n {
            tree.insert(7, v).unwrap();
        }
        assert!(tree.height() > 1);
        let mut got: Vec<u64> = tree.range(7, 7).unwrap().iter().map(|(_, v)| *v).collect();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert!(tree.range(6, 6).unwrap().is_empty());
        assert!(tree.range(8, 8).unwrap().is_empty());
    }

    #[test]
    fn extreme_keys_round_trip() {
        let mut tree = BTree::new(pager(256)).unwrap();
        for key in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            tree.insert(key, key as u64).unwrap();
        }
        for key in [i64::MIN, i64::MAX, 0] {
            assert_eq!(tree.get(key).unwrap(), Some(key as u64));
        }
        let all = tree.range(i64::MIN, i64::MAX).unwrap();
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
        assert_eq!(reattached.get(100).unwrap(), Some(50));
        assert_eq!(reattached.get(101).unwrap(), None);
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
        assert_eq!(empty.range_node_count(0, 100).unwrap(), 1);
        let pairs: Vec<(i64, u64)> = (0..500).map(|i| (i, i as u64)).collect();
        let p = pager(256);
        let tree = BTree::bulk_load(Arc::clone(&p), &pairs).unwrap();
        assert_eq!(tree.range_node_count(10, 5).unwrap(), 1, "inverted range");

        // A point probe walks one root-to-leaf path (plus at most one leaf
        // link when the key sits at a leaf boundary).
        for probe in [0i64, 250, 499] {
            let visited = tree.range_node_count(probe, probe).unwrap();
            assert!(
                visited >= tree.height() && visited <= tree.height() + 1,
                "point probe visited {visited}, height {}",
                tree.height()
            );
        }

        // The estimate is exact: a real range() probe reads precisely the
        // pages range_node_count() predicts, for narrow, wide, and
        // leaf-boundary-straddling windows alike.
        let leaves = tree
            .page_ids()
            .unwrap()
            .iter()
            .filter(|id| tree.read_node(**id).unwrap().is_leaf)
            .count();
        for (lo, hi) in [(0, 0), (100, 120), (0, 499), (490, 600), (-50, 10)] {
            let predicted = tree.range_node_count(lo, hi).unwrap();
            p.stats().reset();
            tree.range(lo, hi).unwrap();
            let read = p.stats().snapshot().pages_read as usize;
            assert_eq!(predicted, read, "range [{lo}, {hi}]");
        }
        // A full sweep walks the entire leaf chain exactly once.
        assert_eq!(
            tree.range_node_count(i64::MIN, i64::MAX).unwrap(),
            tree.height() + leaves - 1
        );
    }
}
