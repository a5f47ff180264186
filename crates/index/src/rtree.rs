//! A page-backed R-Tree.
//!
//! This is the "relatively common approach to index spatial objects" the
//! paper's case study compares against: a secondary R-Tree whose leaf entries
//! point at trajectories (or individual observations). Every node occupies
//! one page, so probing the index costs one — usually random — page read per
//! visited node, which is exactly why the paper finds it sub-optimal on dense
//! data with many overlapping bounding boxes.
//!
//! A tree is bulk-loaded, by Sort-Tile-Recursive (STR) packing or along the
//! Hilbert curve, and read from then on; it is never modified in place.

use crate::bounds::Rect;
use crate::{le_u64, node_entries, IndexError, Result, Walk, TYPE_INTERNAL, TYPE_LEAF};
use rodentstore_sfc::hilbert2;
use rodentstore_storage::page::{Page, PageId};
use rodentstore_storage::pager::Pager;
use std::sync::Arc;

const HEADER: usize = 1 + 4; // type + count
const ENTRY: usize = 40; // 4 × f64 bounds + u64 payload/child

#[derive(Debug, Clone, Copy)]
struct Entry {
    rect: Rect,
    /// Payload for leaf entries, child page id for internal entries.
    value: u64,
}

#[derive(Debug, Clone)]
struct Node {
    page_id: PageId,
    is_leaf: bool,
    entries: Vec<Entry>,
}

impl Node {
    /// Decodes the node stored in page `page_id`, whose bytes are `data`.
    fn decode(page_id: PageId, data: &[u8]) -> Result<Node> {
        let (is_leaf, entries) = node_entries(data, HEADER, ENTRY)?;
        let bound = |e: &[u8], at: usize| f64::from_bits(le_u64(e, at));
        Ok(Node {
            page_id,
            is_leaf,
            entries: entries
                .map(|e| Entry {
                    rect: Rect {
                        min_x: bound(e, 0),
                        min_y: bound(e, 8),
                        max_x: bound(e, 16),
                        max_y: bound(e, 24),
                    },
                    value: le_u64(e, 32),
                })
                .collect(),
        })
    }

    fn encode(&self, page: &mut Page) -> Result<()> {
        page.data.fill(0);
        page.data[0] = if self.is_leaf { TYPE_LEAF } else { TYPE_INTERNAL };
        page.write_u32(1, self.entries.len() as u32)?;
        for (i, entry) in self.entries.iter().enumerate() {
            let off = HEADER + i * ENTRY;
            page.write_u64(off, entry.rect.min_x.to_bits())?;
            page.write_u64(off + 8, entry.rect.min_y.to_bits())?;
            page.write_u64(off + 16, entry.rect.max_x.to_bits())?;
            page.write_u64(off + 24, entry.rect.max_y.to_bits())?;
            page.write_u64(off + 32, entry.value)?;
        }
        Ok(())
    }

    fn mbr(&self) -> Rect {
        self.entries
            .iter()
            .fold(Rect::empty(), |acc, e| acc.union(&e.rect))
    }
}

/// A page-backed R-Tree from rectangles to `u64` payloads.
pub struct RTree {
    pager: Arc<Pager>,
    root: PageId,
    len: u64,
    height: usize,
}

impl std::fmt::Debug for RTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree")
            .field("len", &self.len)
            .field("height", &self.height)
            .finish()
    }
}

impl RTree {
    /// Creates an empty R-Tree whose nodes live in `pager`.
    pub fn new(pager: Arc<Pager>) -> Result<RTree> {
        node_capacity(pager.page_size())?;
        let mut page = pager.allocate()?;
        let root = Node {
            page_id: page.id,
            is_leaf: true,
            entries: Vec::new(),
        };
        root.encode(&mut page)?;
        pager.write(&page)?;
        Ok(RTree {
            root: page.id,
            pager,
            len: 0,
            height: 1,
        })
    }

    /// Reattaches an R-Tree previously built in `pager` from its persisted
    /// root page, entry count, and height (as recorded in a manifest). No
    /// pages are read or written; the tree is usable immediately.
    pub fn from_parts(pager: Arc<Pager>, root: PageId, len: u64, height: usize) -> Result<RTree> {
        node_capacity(pager.page_size())?;
        Ok(RTree {
            pager,
            root,
            len,
            height,
        })
    }

    /// Bulk-loads an R-Tree with the Sort-Tile-Recursive algorithm.
    pub fn bulk_load(pager: Arc<Pager>, items: &[(Rect, u64)]) -> Result<RTree> {
        let capacity = node_capacity(pager.page_size())?;
        if items.is_empty() {
            return RTree::new(pager);
        }
        let per_node = ((capacity * 9) / 10).max(2);

        // STR: sort by center x, tile into vertical slices, sort each slice
        // by center y, then pack nodes.
        let mut sorted: Vec<Entry> = items
            .iter()
            .map(|(rect, value)| Entry {
                rect: *rect,
                value: *value,
            })
            .collect();
        let mut level = str_pack(&pager, &mut sorted, per_node, true)?;
        let mut height = 1usize;
        while level.len() > 1 {
            let mut upper: Vec<Entry> = level;
            level = str_pack(&pager, &mut upper, per_node, false)?;
            height += 1;
        }
        Ok(RTree {
            root: level[0].value,
            pager,
            len: items.len() as u64,
            height,
        })
    }

    /// Bulk-loads an R-Tree by sorting entries along the Hilbert curve over
    /// their quantized centers and packing consecutive runs into leaves.
    /// Compared to STR this keeps each leaf's entries on one contiguous curve
    /// segment, so spatially tight queries touch fewer leaves — the layout
    /// engine uses it when rendering declared `index[x,y]` operators.
    pub fn bulk_load_hilbert(pager: Arc<Pager>, items: &[(Rect, u64)]) -> Result<RTree> {
        let capacity = node_capacity(pager.page_size())?;
        if items.is_empty() {
            return RTree::new(pager);
        }
        let per_node = ((capacity * 9) / 10).max(2);

        // Quantize entry centers onto a 2^order lattice spanning the data's
        // bounding box, then sort by Hilbert rank.
        const ORDER: u32 = 16;
        let bbox = items
            .iter()
            .fold(Rect::empty(), |acc, (r, _)| acc.union(r));
        let side = ((1u64 << ORDER) - 1) as f64;
        let quantize = |v: f64, lo: f64, hi: f64| -> u32 {
            if hi <= lo || !v.is_finite() {
                0
            } else {
                (((v - lo) / (hi - lo)) * side).clamp(0.0, side) as u32
            }
        };
        let mut sorted: Vec<Entry> = items
            .iter()
            .map(|(rect, value)| Entry {
                rect: *rect,
                value: *value,
            })
            .collect();
        sorted.sort_by_key(|e| {
            let (cx, cy) = e.rect.center();
            hilbert2(
                ORDER,
                quantize(cx, bbox.min_x, bbox.max_x),
                quantize(cy, bbox.min_y, bbox.max_y),
            )
        });

        // Pack consecutive curve runs into leaves, then build internal
        // levels bottom-up.
        let mut is_leaf = true;
        let mut height = 0usize;
        let mut current = sorted;
        loop {
            let mut parents = Vec::new();
            for chunk in current.chunks(per_node) {
                let mut page = pager.allocate()?;
                let node = Node {
                    page_id: page.id,
                    is_leaf,
                    entries: chunk.to_vec(),
                };
                node.encode(&mut page)?;
                pager.write(&page)?;
                parents.push(Entry {
                    rect: node.mbr(),
                    value: page.id,
                });
            }
            height += 1;
            is_leaf = false;
            if parents.len() == 1 {
                return Ok(RTree {
                    root: parents[0].value,
                    pager,
                    len: items.len() as u64,
                    height,
                });
            }
            current = parents;
        }
    }

    /// Number of indexed rectangles.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree in levels.
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
        self.walk(|_| true, |node| out.push(node.page_id))?;
        Ok(out)
    }

    fn read_node(&self, id: PageId) -> Result<Node> {
        Node::decode(id, self.pager.read_frame(id)?.data())
    }

    /// The payloads of every entry whose rectangle intersects `query`, and
    /// the number of node pages the walk read to find them: each visited
    /// node is one page read, the root always among them.
    pub fn query(&self, query: &Rect) -> Result<(Vec<u64>, usize)> {
        let mut out = Vec::new();
        let visited = self.walk(
            |rect| rect.intersects(query),
            |node| {
                if node.is_leaf {
                    let hits = node.entries.iter().filter(|e| e.rect.intersects(query));
                    out.extend(hits.map(|e| e.value));
                }
            },
        )?;
        Ok((out, visited))
    }

    /// Walks the tree depth-first from the root, handing `visit` every node
    /// read and descending into the children whose rectangles pass
    /// `descend`. Returns the number of nodes read.
    fn walk(&self, descend: impl Fn(&Rect) -> bool, mut visit: impl FnMut(&Node)) -> Result<usize> {
        let mut walk = Walk::new(&self.pager, self.height);
        let mut stack = vec![(self.root, 1)];
        while let Some((id, depth)) = stack.pop() {
            walk.visit(depth)?;
            let node = self.read_node(id)?;
            if !node.is_leaf {
                let children = node.entries.iter().filter(|e| descend(&e.rect));
                stack.extend(children.map(|e| (e.value, depth + 1)));
            }
            visit(&node);
        }
        Ok(walk.visited)
    }
}

/// Packs one level of entries into nodes of `pager`, returning the parent
/// entries (`value` = child page id).
fn str_pack(
    pager: &Arc<Pager>,
    entries: &mut [Entry],
    per_node: usize,
    leaf: bool,
) -> Result<Vec<Entry>> {
    let n = entries.len();
    let node_count = n.div_ceil(per_node);
    let slice_count = (node_count as f64).sqrt().ceil() as usize;
    let per_slice = n.div_ceil(slice_count.max(1));
    entries.sort_by(|a, b| {
        a.rect
            .center()
            .0
            .partial_cmp(&b.rect.center().0)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut parents = Vec::new();
    for slice in entries.chunks_mut(per_slice.max(1)) {
        slice.sort_by(|a, b| {
            a.rect
                .center()
                .1
                .partial_cmp(&b.rect.center().1)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for chunk in slice.chunks(per_node) {
            let mut page = pager.allocate()?;
            let node = Node {
                page_id: page.id,
                is_leaf: leaf,
                entries: chunk.to_vec(),
            };
            node.encode(&mut page)?;
            pager.write(&page)?;
            parents.push(Entry {
                rect: node.mbr(),
                value: page.id,
            });
        }
    }
    Ok(parents)
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

    /// A deterministic pseudo-random point cloud in the unit square.
    fn points(n: usize) -> Vec<(Rect, u64)> {
        let mut state = 0x2545F4914F6CDD1Du64;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let x = (state >> 11) as f64 / (1u64 << 53) as f64;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let y = (state >> 11) as f64 / (1u64 << 53) as f64;
                (Rect::point(x, y), i as u64)
            })
            .collect()
    }

    fn brute_force(items: &[(Rect, u64)], query: &Rect) -> Vec<u64> {
        let mut v: Vec<u64> = items
            .iter()
            .filter(|(r, _)| r.intersects(query))
            .map(|(_, id)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn damaged_node_pages_decode_to_an_error_or_a_node() {
        let pager = pager(512);
        let tree = RTree::bulk_load(Arc::clone(&pager), &points(500)).unwrap();
        let root = pager.read_frame(tree.root()).unwrap();
        let node = Node::decode(root.id(), root.data()).unwrap();
        assert!(!node.is_leaf && tree.height() > 1);
        let leaf = pager.read_frame(node.entries[0].value).unwrap();
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
    fn bulk_load_query_matches_brute_force() {
        let items = points(3000);
        let tree = RTree::bulk_load(pager(1024), &items).unwrap();
        assert_eq!(tree.len(), 3000);
        for query in [
            Rect::new(0.1, 0.1, 0.2, 0.2),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.95, 0.95, 0.99, 0.99),
            Rect::new(2.0, 2.0, 3.0, 3.0),
        ] {
            let mut got = tree.query(&query).unwrap().0;
            got.sort_unstable();
            assert_eq!(got, brute_force(&items, &query));
        }
    }

    #[test]
    fn small_queries_touch_few_pages() {
        let items = points(20_000);
        let p = pager(4096);
        let tree = RTree::bulk_load(Arc::clone(&p), &items).unwrap();
        let total_pages = p.page_count();
        p.stats().reset();
        let (_, visited) = tree.query(&Rect::new(0.4, 0.4, 0.41, 0.41)).unwrap();
        let reads = p.stats().snapshot().pages_read;
        assert_eq!(reads as usize, visited, "the walk counts the pages it reads");
        assert!(
            reads * 10 < total_pages,
            "query read {reads} of {total_pages} pages"
        );
    }

    #[test]
    fn overlapping_boxes_force_many_node_visits() {
        // Dense overlapping rectangles (the paper's trajectory MBRs): every
        // query rectangle intersects most boxes, so the index degenerates to
        // visiting nearly every leaf.
        let items: Vec<(Rect, u64)> = (0..500)
            .map(|i| {
                let off = i as f64 * 1e-4;
                (Rect::new(0.0 + off, 0.0, 0.8 + off, 0.8), i as u64)
            })
            .collect();
        let p = pager(512);
        let tree = RTree::bulk_load(Arc::clone(&p), &items).unwrap();
        let visited = tree.query(&Rect::new(0.4, 0.4, 0.45, 0.45)).unwrap().1;
        let leaf_pages = items.len().div_ceil(10);
        assert!(
            visited * 2 > leaf_pages,
            "visited {visited}, leaves ≈ {leaf_pages}"
        );
    }

    #[test]
    fn empty_tree_and_page_size_checks() {
        let tree = RTree::new(pager(512)).unwrap();
        assert!(tree.is_empty());
        assert!(tree.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap().0.is_empty());
        assert!(RTree::new(pager(64)).is_err());
        let empty = RTree::bulk_load(pager(512), &[]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn hilbert_bulk_load_matches_brute_force() {
        let items = points(3000);
        let tree = RTree::bulk_load_hilbert(pager(1024), &items).unwrap();
        assert_eq!(tree.len(), 3000);
        for query in [
            Rect::new(0.1, 0.1, 0.2, 0.2),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::point(0.5, 0.5),
            Rect::new(2.0, 2.0, 3.0, 3.0),
        ] {
            let mut got = tree.query(&query).unwrap().0;
            got.sort_unstable();
            assert_eq!(got, brute_force(&items, &query));
        }
    }

    #[test]
    fn hilbert_packing_keeps_tight_queries_local() {
        let items = points(20_000);
        let p = pager(4096);
        let tree = RTree::bulk_load_hilbert(Arc::clone(&p), &items).unwrap();
        let total = tree.page_ids().unwrap().len();
        // Hilbert packing keeps each leaf on one curve segment; a tight
        // window must prune the overwhelming majority of the tree.
        for q in [
            Rect::new(0.3, 0.3, 0.32, 0.32),
            Rect::new(0.7, 0.1, 0.72, 0.12),
            Rect::point(0.5, 0.5),
        ] {
            let visited = tree.query(&q).unwrap().1;
            assert!(
                visited * 20 < total,
                "tight query visited {visited} of {total} pages"
            );
        }
    }

    #[test]
    fn from_parts_reattaches_identically() {
        let p = pager(1024);
        let items = points(2000);
        let built = RTree::bulk_load_hilbert(Arc::clone(&p), &items).unwrap();
        let reattached =
            RTree::from_parts(Arc::clone(&p), built.root(), built.len(), built.height()).unwrap();
        assert_eq!(reattached.len(), built.len());
        assert_eq!(reattached.height(), built.height());
        let q = Rect::new(0.2, 0.2, 0.6, 0.6);
        let mut a = built.query(&q).unwrap().0;
        let mut b = reattached.query(&q).unwrap().0;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        let mut pa = built.page_ids().unwrap();
        let mut pb = reattached.page_ids().unwrap();
        pa.sort_unstable();
        pb.sort_unstable();
        assert_eq!(pa, pb, "reattached extent must match the built extent");
    }

    #[test]
    fn query_node_count_edges() {
        let empty = RTree::new(pager(512)).unwrap();
        assert_eq!(
            empty.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap().1,
            1,
            "empty tree still reads its root"
        );
        let items = points(2000);
        let tree = RTree::bulk_load_hilbert(pager(1024), &items).unwrap();
        // A query disjoint from the data's bounding box prunes at the root.
        assert_eq!(tree.query(&Rect::new(5.0, 5.0, 6.0, 6.0)).unwrap().1, 1);
        // A query covering everything visits every page of the tree.
        let all = tree.query(&Rect::new(-1.0, -1.0, 2.0, 2.0)).unwrap().1;
        assert_eq!(all, tree.page_ids().unwrap().len());
    }

    #[test]
    fn each_parent_rect_is_its_childs_mbr() {
        // Both packings: a parent entry's rectangle is exactly the union of
        // its child's entries, and every leaf sits at the recorded height.
        let items = points(3000);
        for tree in [
            RTree::bulk_load(pager(512), &items).unwrap(),
            RTree::bulk_load_hilbert(pager(512), &items).unwrap(),
        ] {
            assert!(tree.height() > 2);
            let mut leaf_entries = 0;
            let mut stack = vec![(tree.root(), 1)];
            while let Some((id, depth)) = stack.pop() {
                let node = tree.read_node(id).unwrap();
                if node.is_leaf {
                    assert_eq!(depth, tree.height());
                    leaf_entries += node.entries.len();
                    continue;
                }
                for entry in &node.entries {
                    assert_eq!(entry.rect, tree.read_node(entry.value).unwrap().mbr());
                    stack.push((entry.value, depth + 1));
                }
            }
            assert_eq!(leaf_entries, items.len());
        }
    }

    #[test]
    fn coincident_points_are_all_returned() {
        // Every entry at the same coordinate: splits cannot separate them
        // spatially, yet a point query must return each payload exactly once.
        let items: Vec<(Rect, u64)> = (0..300).map(|i| (Rect::point(0.5, 0.5), i)).collect();
        for tree in [
            RTree::bulk_load(pager(512), &items).unwrap(),
            RTree::bulk_load_hilbert(pager(512), &items).unwrap(),
        ] {
            let mut got = tree.query(&Rect::point(0.5, 0.5)).unwrap().0;
            got.sort_unstable();
            assert_eq!(got, (0..300).collect::<Vec<u64>>());
            assert!(tree.query(&Rect::point(0.4, 0.5)).unwrap().0.is_empty());
        }
    }

    #[test]
    fn walks_over_a_self_linked_node_are_corrupted() {
        // An internal node whose only child is itself: a walk that followed
        // the link would loop without allocating.
        let tree = || {
            let pager = pager(512);
            let mut page = pager.allocate().unwrap();
            let node = Node {
                page_id: page.id,
                is_leaf: false,
                entries: vec![Entry {
                    rect: Rect::new(0.0, 0.0, 1.0, 1.0),
                    value: page.id,
                }],
            };
            node.encode(&mut page).unwrap();
            pager.write(&page).unwrap();
            RTree::from_parts(pager, page.id, 1, 1).unwrap()
        };
        let corrupted = |r: &Result<()>| {
            matches!(
                r,
                Err(IndexError::Storage(rodentstore_storage::StorageError::Corrupted(_)))
            )
        };
        let query = crate::finishes(move || tree().query(&Rect::point(0.5, 0.5)).map(|_| ()));
        assert!(corrupted(&query), "{query:?}");
        let pages = crate::finishes(move || tree().page_ids().map(|_| ()));
        assert!(corrupted(&pages), "{pages:?}");
    }
}
