//! The block directory: a small tree of `(mbr, children)` nodes over an
//! index's dense block-id space — see [`BlockDirectory`].

use std::sync::Arc;

use twoknn_geometry::{Point, Rect};

use crate::block::{BlockId, BlockMeta};
use crate::points::BlockPoints;

/// Children per node of the tile and consecutive-id packers.
const FANOUT: usize = 16;
/// Grid tiles are `TILE × TILE` cells (`TILE² == FANOUT`).
const TILE: usize = 4;
/// Tag bit of an encoded child reference: set for blocks, clear for nodes.
const BLOCK_BIT: u32 = 1 << 31;

/// A child of a directory node: another node or a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DirChild {
    /// An internal node, by the index [`DirectoryBuilder::node`] returned.
    Node(u32),
    /// A block, by its id local to the tree (`0..num_blocks`).
    Block(BlockId),
}

impl DirChild {
    fn encode(self) -> u32 {
        match self {
            DirChild::Node(n) => {
                assert!(n < BLOCK_BIT, "directory node index overflow");
                n
            }
            DirChild::Block(b) => {
                assert!(b < BLOCK_BIT, "directory block id overflow");
                b | BLOCK_BIT
            }
        }
    }

    #[inline]
    pub(crate) fn decode(raw: u32) -> Self {
        if raw & BLOCK_BIT != 0 {
            DirChild::Block(raw & !BLOCK_BIT)
        } else {
            DirChild::Node(raw)
        }
    }
}

/// What a cursor needs to lower-bound the key of everything beneath a node:
/// a rectangle containing every block's footprint and the smallest block
/// half-extents (which tighten the MAXDIST bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Extent {
    pub(crate) mbr: Rect,
    pub(crate) min_half_w: f64,
    pub(crate) min_half_h: f64,
}

impl Extent {
    fn of_block(b: &BlockMeta) -> Self {
        Self {
            mbr: b.mbr,
            min_half_w: b.mbr.width() * 0.5,
            min_half_h: b.mbr.height() * 0.5,
        }
    }

    fn merge(&mut self, other: &Extent) {
        self.mbr = self.mbr.union(&other.mbr);
        self.min_half_w = self.min_half_w.min(other.min_half_w);
        self.min_half_h = self.min_half_h.min(other.min_half_h);
    }

    fn merged(extents: impl IntoIterator<Item = Extent>) -> Option<Self> {
        let mut extents = extents.into_iter();
        let mut acc = extents.next()?;
        for e in extents {
            acc.merge(&e);
        }
        Some(acc)
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct DirNode {
    pub(crate) extent: Extent,
    first_child: u32,
    num_children: u32,
}

/// The node tree over one index's blocks. Immutable once built and shared by
/// `Arc` across every snapshot over the same base.
#[derive(Debug)]
pub(crate) struct DirTree {
    nodes: Vec<DirNode>,
    /// Encoded [`DirChild`]ren of all nodes, each node's run contiguous.
    children: Vec<u32>,
    /// The root node; `None` for an index without blocks.
    root: Option<u32>,
    num_blocks: u32,
}

impl DirTree {
    pub(crate) fn node(&self, idx: u32) -> &DirNode {
        &self.nodes[idx as usize]
    }

    pub(crate) fn children(&self, node: &DirNode) -> &[u32] {
        let first = node.first_child as usize;
        &self.children[first..first + node.num_children as usize]
    }

    pub(crate) fn root(&self) -> Option<&DirNode> {
        self.root.map(|r| self.node(r))
    }
}

/// Bottom-up construction of a single-shard [`BlockDirectory`]: add nodes
/// children-first with [`DirectoryBuilder::node`], then name the root in
/// [`DirectoryBuilder::finish`]. Every block must hang off exactly one node.
#[derive(Debug)]
pub(crate) struct DirectoryBuilder<'a> {
    blocks: &'a [BlockMeta],
    nodes: Vec<DirNode>,
    children: Vec<u32>,
}

impl<'a> DirectoryBuilder<'a> {
    /// A builder over `blocks` (the index's full, dense block list).
    pub(crate) fn new(blocks: &'a [BlockMeta]) -> Self {
        Self {
            blocks,
            nodes: Vec::new(),
            children: Vec::with_capacity(blocks.len() + blocks.len() / (FANOUT - 1) + 1),
        }
    }

    /// Adds a node over `children` (non-empty) and returns its reference.
    pub(crate) fn node(&mut self, children: &[DirChild]) -> DirChild {
        DirChild::Node(self.push_node(children))
    }

    fn extent_of(&self, child: DirChild) -> Extent {
        match child {
            DirChild::Node(n) => self.nodes[n as usize].extent,
            DirChild::Block(b) => Extent::of_block(&self.blocks[b as usize]),
        }
    }

    fn push_node(&mut self, children: &[DirChild]) -> u32 {
        let extent = Extent::merged(children.iter().map(|c| self.extent_of(*c)))
            .expect("a directory node has at least one child");
        let first_child = self.children.len() as u32;
        self.children.extend(children.iter().map(|c| c.encode()));
        self.nodes.push(DirNode {
            extent,
            first_child,
            num_children: children.len() as u32,
        });
        self.nodes.len() as u32 - 1
    }

    /// Sort-Tile-Recursive packing of `level` into nodes of up to
    /// [`FANOUT`] children, level by level, until one node remains; returns
    /// that root. Each level is cut into vertical slices by center x and
    /// every slice into runs by center y, so nodes come out roughly square
    /// whatever order the children arrive in.
    fn pack_str(&mut self, mut level: Vec<DirChild>) -> Option<DirChild> {
        if level.is_empty() {
            return None;
        }
        loop {
            let center = |this: &Self, c: &DirChild| this.extent_of(*c).mbr.center();
            let runs = level.len().div_ceil(FANOUT);
            let slices = (runs as f64).sqrt().ceil() as usize;
            let per_slice = runs.div_ceil(slices) * FANOUT;
            level.sort_by(|a, b| center(self, a).x.total_cmp(&center(self, b).x));
            let mut next = Vec::with_capacity(runs);
            for slice in level.chunks_mut(per_slice) {
                slice.sort_by(|a, b| center(self, a).y.total_cmp(&center(self, b).y));
                next.extend(slice.chunks(FANOUT).map(|run| self.node(run)));
            }
            if next.len() == 1 {
                return Some(next[0]);
            }
            level = next;
        }
    }

    /// Finishes the directory with `root` on top (`None` only for an index
    /// without blocks; a lone block is wrapped in a node of its own).
    pub(crate) fn finish(mut self, root: Option<DirChild>) -> BlockDirectory {
        let root = root.map(|r| match r {
            DirChild::Node(n) => n,
            block @ DirChild::Block(_) => self.push_node(&[block]),
        });
        let nonempty_blocks = self.blocks.iter().filter(|b| b.count > 0).count() as u32;
        let tree = DirTree {
            nodes: self.nodes,
            children: self.children,
            root,
            num_blocks: self.blocks.len() as u32,
        };
        debug_assert_eq!(
            tree.children
                .iter()
                .filter(|c| matches!(DirChild::decode(**c), DirChild::Block(_)))
                .count(),
            self.blocks.len(),
            "every block hangs off exactly one directory node"
        );
        let extent = tree.root().map(|r| r.extent);
        BlockDirectory {
            num_blocks: tree.num_blocks,
            nonempty_blocks,
            shards: vec![DirShard {
                tree: Arc::new(tree),
                extent,
                first_block: 0,
                overlay_blocks: 0,
                populated: nonempty_blocks > 0,
            }],
        }
    }
}

/// One shard of a directory: a shared base tree plus the overlay blocks
/// that follow the base blocks in the id space.
#[derive(Debug, Clone)]
pub(crate) struct DirShard {
    pub(crate) tree: Arc<DirTree>,
    /// Extent over the tree and the overlay blocks; `None` when the shard
    /// has no blocks at all.
    pub(crate) extent: Option<Extent>,
    /// Id (in the directory's id space) of the tree's block 0.
    pub(crate) first_block: u32,
    /// Number of overlay blocks, at ids
    /// `first_block + tree.num_blocks ..`.
    pub(crate) overlay_blocks: u32,
    /// Whether the shard holds any point.
    pub(crate) populated: bool,
}

impl DirShard {
    /// Ids of the overlay blocks in the directory's id space.
    pub(crate) fn overlay_range(&self) -> std::ops::Range<u32> {
        let first = self.first_block + self.tree.num_blocks;
        first..first + self.overlay_blocks
    }
}

/// The block directory of an index: a small tree of `(mbr, children)` nodes
/// over its dense block-id space.
///
/// Every index family already knows, at build time, which blocks are near
/// each other — grid cells tile, quadtree leaves hang off internal nodes,
/// STR leaves are packed strip by strip — and used to throw that away,
/// exposing only a flat `blocks()` slice. The directory keeps it, so a
/// [`DistanceCursor`](crate::DistanceCursor) can enumerate blocks in MINDIST
/// or MAXDIST order while computing distances only for the nodes and blocks
/// it actually reaches.
///
/// A directory is a list of **shards**, each one an `Arc`-shared node tree
/// over the shard's base blocks plus an optional run of *overlay* blocks that
/// follow them in the id space. Plain indexes have one shard and no overlay;
/// the store composes by reference: a shard snapshot reuses its base's tree
/// and appends its overlay blocks ([`BlockDirectory::with_overlay`]), a
/// relation snapshot concatenates its shards' directories
/// ([`BlockDirectory::sharded`]). Nothing is copied per publish except the
/// shard headers, and cloning a directory is as cheap.
///
/// The directory stores structure only. Block footprints and counts are
/// always read from the `blocks()` slice of the index being queried, so a
/// snapshot's tombstone-adjusted counts are what a cursor yields.
#[derive(Debug, Clone)]
pub struct BlockDirectory {
    pub(crate) shards: Vec<DirShard>,
    num_blocks: u32,
    nonempty_blocks: u32,
}

impl BlockDirectory {
    /// Directory of a `cells_per_axis × cells_per_axis` grid whose row-major
    /// cells are `blocks`: 4×4 cell tiles, recursively tiled 4×4 until one
    /// node covers the grid.
    pub fn grid_tiles(blocks: &[BlockMeta], cells_per_axis: usize) -> Self {
        assert_eq!(blocks.len(), cells_per_axis * cells_per_axis);
        let mut builder = DirectoryBuilder::new(blocks);
        let mut dims = cells_per_axis;
        let mut level: Vec<DirChild> = (0..blocks.len() as u32).map(DirChild::Block).collect();
        let mut tile = Vec::with_capacity(FANOUT);
        loop {
            let tiles = dims.div_ceil(TILE);
            let mut next = Vec::with_capacity(tiles * tiles);
            for ty in 0..tiles {
                for tx in 0..tiles {
                    tile.clear();
                    for iy in ty * TILE..((ty + 1) * TILE).min(dims) {
                        let row = iy * dims;
                        tile.extend_from_slice(
                            &level[row + tx * TILE..row + ((tx + 1) * TILE).min(dims)],
                        );
                    }
                    next.push(builder.node(&tile));
                }
            }
            if tiles <= 1 {
                return builder.finish(next.first().copied());
            }
            level = next;
            dims = tiles;
        }
    }

    /// Directory packed from the block footprints alone, the way an STR
    /// R-tree packs its upper levels: for an index that knows nothing about
    /// its blocks beyond their rectangles (STR leaves, a block file written
    /// from any family).
    pub fn packed(blocks: &[BlockMeta]) -> Self {
        let mut builder = DirectoryBuilder::new(blocks);
        let level = (0..blocks.len() as u32).map(DirChild::Block).collect();
        let root = builder.pack_str(level);
        builder.finish(root)
    }

    /// This (single-shard) directory with `overlay` blocks appended after
    /// its base blocks — the directory of a snapshot that shares this base.
    ///
    /// `emptied` is the number of base blocks that held points in the base
    /// and hold none in the snapshot (tombstones). Costs `O(overlay)`; the
    /// node tree is shared.
    ///
    /// # Panics
    ///
    /// Panics if this directory is not a plain base (sharded, or carrying an
    /// overlay already): snapshots are only ever built over a base index.
    pub fn with_overlay(&self, overlay: &[BlockMeta], emptied: usize) -> Self {
        let base = match self.shards.as_slice() {
            [base] if base.overlay_blocks == 0 => base,
            _ => panic!("with_overlay needs a plain base directory"),
        };
        let extent = Extent::merged(
            base.extent
                .into_iter()
                .chain(overlay.iter().map(Extent::of_block)),
        );
        let overlay_nonempty = overlay.iter().filter(|b| b.count > 0).count() as u32;
        let nonempty_blocks = self.nonempty_blocks - emptied as u32 + overlay_nonempty;
        Self {
            num_blocks: self.num_blocks + overlay.len() as u32,
            nonempty_blocks,
            shards: vec![DirShard {
                tree: Arc::clone(&base.tree),
                extent,
                first_block: 0,
                overlay_blocks: overlay.len() as u32,
                populated: nonempty_blocks > 0,
            }],
        }
    }

    /// The directory of several indexes whose blocks are concatenated, in
    /// order, into one dense id space: every part's shards, re-based.
    pub fn sharded<'a>(parts: impl IntoIterator<Item = &'a BlockDirectory>) -> Self {
        let mut out = Self {
            shards: Vec::new(),
            num_blocks: 0,
            nonempty_blocks: 0,
        };
        for part in parts {
            out.shards.extend(part.shards.iter().map(|s| DirShard {
                first_block: s.first_block + out.num_blocks,
                ..s.clone()
            }));
            out.num_blocks += part.num_blocks;
            out.nonempty_blocks += part.nonempty_blocks;
        }
        out
    }

    /// Number of blocks the directory covers.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks as usize
    }

    /// Number of those blocks that hold at least one point.
    pub fn nonempty_blocks(&self) -> usize {
        self.nonempty_blocks as usize
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of shards that hold at least one point.
    pub fn populated_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.populated).count()
    }

    /// Total number of internal nodes (shared trees counted once per shard).
    pub fn num_nodes(&self) -> usize {
        self.shards.iter().map(|s| s.tree.nodes.len()).sum()
    }

    /// The block whose footprint contains `p`, preferring the one that
    /// stores `p` itself (same id and coordinates) when footprints overlap —
    /// an R-tree's leaves, the closed cells of a grid or quadtree on a shared
    /// edge. When a single footprint contains `p` it is returned without
    /// reading any point; otherwise the first storing block in depth-first
    /// child order, failing that the first containing one. Only nodes whose
    /// rectangle contains `p` are descended, so the cost is the containing
    /// leaves, not the block count.
    ///
    /// `blocks` is the block list of the index that owns this directory and
    /// `points` reads a block's points.
    pub fn locate<'a>(
        &self,
        blocks: &[BlockMeta],
        p: &Point,
        points: impl Fn(BlockId) -> BlockPoints<'a>,
    ) -> Option<BlockId> {
        let stores = |id: BlockId| {
            points(id)
                .iter()
                .any(|q| q.id == p.id && q.x == p.x && q.y == p.y)
        };
        let mut first = None;
        let mut shared = false;
        // `Some` ends the search with the block to report.
        let mut probe = |id: BlockId| -> Option<BlockId> {
            if !blocks[id as usize].mbr.contains(p) {
                return None;
            }
            let Some(earlier) = first else {
                first = Some(id);
                return None;
            };
            if !std::mem::replace(&mut shared, true) && stores(earlier) {
                return Some(earlier);
            }
            stores(id).then_some(id)
        };
        for shard in &self.shards {
            let found = shard
                .tree
                .root
                .and_then(|root| locate_in(&shard.tree, root, shard.first_block, p, &mut probe))
                .or_else(|| shard.overlay_range().find_map(&mut probe));
            if found.is_some() {
                return found;
            }
        }
        first
    }
}

/// Depth-first search below `node` for a block `probe` settles on.
fn locate_in(
    tree: &DirTree,
    node: u32,
    first_block: u32,
    p: &Point,
    probe: &mut impl FnMut(BlockId) -> Option<BlockId>,
) -> Option<BlockId> {
    let node = tree.node(node);
    if !node.extent.mbr.contains(p) {
        return None;
    }
    tree.children(node)
        .iter()
        .find_map(|&child| match DirChild::decode(child) {
            DirChild::Block(local) => probe(first_block + local),
            DirChild::Node(n) => locate_in(tree, n, first_block, p, probe),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::PointBlock;

    fn grid_blocks(n: usize) -> Vec<BlockMeta> {
        (0..n * n)
            .map(|i| {
                let (x, y) = ((i % n) as f64, (i / n) as f64);
                BlockMeta::new(i as u32, Rect::new(x, y, x + 1.0, y + 1.0), i % 3)
            })
            .collect()
    }

    /// Every block reachable exactly once, every node's rectangle covering
    /// what hangs beneath it.
    fn check_tree(dir: &BlockDirectory, blocks: &[BlockMeta]) {
        let mut seen = vec![false; blocks.len()];
        for shard in &dir.shards {
            let tree = &shard.tree;
            let Some(root) = tree.root else { continue };
            let mut stack = vec![root];
            while let Some(n) = stack.pop() {
                let node = tree.node(n);
                for &c in tree.children(node) {
                    match DirChild::decode(c) {
                        DirChild::Block(b) => {
                            let id = (shard.first_block + b) as usize;
                            assert!(!std::mem::replace(&mut seen[id], true));
                            assert!(node.extent.mbr.contains_rect(&blocks[id].mbr));
                            assert!(node.extent.min_half_w <= blocks[id].mbr.width() * 0.5);
                        }
                        DirChild::Node(m) => {
                            assert!(node.extent.mbr.contains_rect(&tree.node(m).extent.mbr));
                            assert!(node.extent.min_half_h <= tree.node(m).extent.min_half_h);
                            stack.push(m);
                        }
                    }
                }
            }
            for id in shard.overlay_range() {
                assert!(!std::mem::replace(&mut seen[id as usize], true));
                let extent = shard.extent.expect("a shard with blocks has an extent");
                assert!(extent.mbr.contains_rect(&blocks[id as usize].mbr));
            }
        }
        assert!(seen.iter().all(|s| *s), "every block is reachable");
    }

    #[test]
    fn grid_tiles_cover_every_cell_at_every_size() {
        for n in [1usize, 2, 3, 4, 5, 8, 9, 16, 17, 33] {
            let blocks = grid_blocks(n);
            let dir = BlockDirectory::grid_tiles(&blocks, n);
            assert_eq!(dir.num_blocks(), n * n);
            assert_eq!(
                dir.nonempty_blocks(),
                blocks.iter().filter(|b| b.count > 0).count()
            );
            check_tree(&dir, &blocks);
        }
        // 125 × 125 cells: 1 024 + 64 + 4 + 1 nodes, far below the cells.
        let blocks = grid_blocks(125);
        let dir = BlockDirectory::grid_tiles(&blocks, 125);
        assert!(dir.num_nodes() < blocks.len() / 10, "{}", dir.num_nodes());
    }

    #[test]
    fn packed_directory_covers_every_block() {
        for n in [0usize, 1, 15, 16, 17, 256, 257, 1000] {
            let blocks: Vec<BlockMeta> = grid_blocks(32).into_iter().take(n).collect();
            let dir = BlockDirectory::packed(&blocks);
            assert_eq!(dir.num_blocks(), n);
            check_tree(&dir, &blocks);
        }
    }

    #[test]
    fn overlay_and_sharding_compose_by_reference() {
        let base_blocks = grid_blocks(8);
        let base = BlockDirectory::grid_tiles(&base_blocks, 8);
        let mut blocks = base_blocks.clone();
        blocks.push(BlockMeta::new(64, Rect::new(20.0, 20.0, 21.0, 20.5), 3));
        blocks.push(BlockMeta::new(65, Rect::new(-3.0, 1.0, -2.0, 2.0), 1));
        let snap = base.with_overlay(&blocks[64..], 2);
        assert_eq!(snap.num_blocks(), 66);
        assert_eq!(snap.nonempty_blocks(), base.nonempty_blocks() - 2 + 2);
        assert!(Arc::ptr_eq(&snap.shards[0].tree, &base.shards[0].tree));
        check_tree(&snap, &blocks);
        assert_eq!(base.with_overlay(&[], 0).num_blocks(), 64);

        let composed = BlockDirectory::sharded([&snap, &base, &snap]);
        assert_eq!(composed.num_shards(), 3);
        assert_eq!(composed.num_blocks(), 66 + 64 + 66);
        assert_eq!(composed.populated_shards(), 3);
        assert_eq!(composed.shards[2].first_block, 130);
        let mut all = blocks.clone();
        all.extend(base_blocks.iter().copied());
        all.extend(blocks.iter().copied());
        check_tree(&composed, &all);
    }

    #[test]
    fn locate_descends_only_into_containing_nodes() {
        let blocks = grid_blocks(16);
        let dir = BlockDirectory::grid_tiles(&blocks, 16);
        let stored = PointBlock::from_points(&[Point::new(7, 5.0, 9.25)]);
        let reads = std::cell::Cell::new(0);
        let points = |id: BlockId| {
            reads.set(reads.get() + 1);
            if id == 9 * 16 + 5 {
                stored.view()
            } else {
                BlockPoints::empty()
            }
        };
        // One containing block: reported without reading any point.
        let inside = Point::anonymous(5.5, 9.25);
        assert_eq!(dir.locate(&blocks, &inside, points), Some(9 * 16 + 5));
        assert_eq!(reads.get(), 0);
        // On the edge x = 5 two cells contain the point: the one storing it
        // wins over the first in depth-first order, which wins otherwise.
        let edge = Point::new(7, 5.0, 9.25);
        assert_eq!(dir.locate(&blocks, &edge, points), Some(9 * 16 + 5));
        let stranger = Point::new(8, 5.0, 9.25);
        assert_eq!(dir.locate(&blocks, &stranger, points), Some(9 * 16 + 4));
        assert_eq!(
            dir.locate(&blocks, &Point::anonymous(-1.0, 3.0), points),
            None
        );
    }
}
