//! Immutable on-disk shard block files.
//!
//! A block file is the durable image of one shard's compacted base index:
//! the same blocks-with-MBRs structure [`SpatialIndex`] exposes in memory,
//! serialized column-wise. [`super::compact`] writes one after every shard
//! rebuild (and registration writes the initial ones); recovery opens them
//! with [`BlockFileIndex::open`] straight into the [`PackedIndex`] the shard
//! uses as its base — no re-partitioning needed to serve queries after a
//! restart.
//!
//! Layout (all integers little-endian, coordinates as `f64::to_bits`):
//!
//! ```text
//! [magic "TKBF"][version u32]
//! [num_blocks u32][num_points u64][bounds 4×f64]          ─┐ header
//! per block: [mbr 4×f64][count u32][offset u64][crc u32]  ─┘ directory
//! [header crc u32]   — over header + directory
//! per block: [ids count×u64][xs count×f64][ys count×f64]    payloads
//! ```
//!
//! A block's payload is its three columns, so the file's payloads, in block
//! order, *are* a [`PackedIndex`]'s arena: opening a file verifies every
//! checksum — corruption surfaces as a [`RecoveryError`] at open, never
//! mid-query — and copies each payload into the arena once. Nothing of the
//! file stays in memory beyond that arena.
//!
//! Block files are immutable: a rebuild writes a new generation
//! (`shard-<s>-<gen>.blk`) via a temp file + rename, the manifest flips to
//! it, and the old generation is deleted. A crash between those steps
//! leaves the previous generation referenced and intact.

use std::io::Write;
use std::path::Path;

use twoknn_geometry::Rect;
use twoknn_index::{BlockId, BlockMeta, IndexConfig, PackedIndex, SpatialIndex};

use super::recover::RecoveryError;
use super::wal::crc32;

const MAGIC: &[u8; 4] = b"TKBF";
const FORMAT_VERSION: u32 = 1;
/// magic + version + num_blocks + num_points + bounds.
const HEADER_BYTES: usize = 4 + 4 + 4 + 8 + 32;
/// mbr + count + offset + crc.
const DIR_ENTRY_BYTES: usize = 32 + 4 + 8 + 4;

fn push_rect(buf: &mut Vec<u8>, r: &Rect) {
    for v in [r.min_x, r.min_y, r.max_x, r.max_y] {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// The little-endian `u64`s of `bytes`, in order.
fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
}

fn read_rect(buf: &[u8], at: usize) -> Rect {
    Rect::new(
        f64::from_bits(read_u64(buf, at)),
        f64::from_bits(read_u64(buf, at + 8)),
        f64::from_bits(read_u64(buf, at + 16)),
        f64::from_bits(read_u64(buf, at + 24)),
    )
}

/// Serializes `index` into the block-file format.
pub(crate) fn encode_block_file(index: &dyn SpatialIndex) -> Vec<u8> {
    let blocks = index.blocks();
    let dir_end = HEADER_BYTES + blocks.len() * DIR_ENTRY_BYTES;
    let mut payloads: Vec<u8> = Vec::new();
    let mut directory: Vec<(u64, u32)> = Vec::with_capacity(blocks.len()); // (offset, crc)
    for b in blocks {
        let pts = index.block_points(b.id);
        let mut payload = Vec::with_capacity(pts.len() * 24);
        for id in pts.ids() {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        for x in pts.xs() {
            payload.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        for y in pts.ys() {
            payload.extend_from_slice(&y.to_bits().to_le_bytes());
        }
        // +4 below the directory: the header crc sits between them.
        let offset = (dir_end + 4 + payloads.len()) as u64;
        directory.push((offset, crc32(&payload)));
        payloads.extend_from_slice(&payload);
    }

    let mut out = Vec::with_capacity(dir_end + 4 + payloads.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    out.extend_from_slice(&(index.num_points() as u64).to_le_bytes());
    push_rect(&mut out, &index.bounds());
    for (b, (offset, crc)) in blocks.iter().zip(&directory) {
        push_rect(&mut out, &b.mbr);
        out.extend_from_slice(&(b.count as u32).to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
    }
    let header_crc = crc32(&out[8..dir_end]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    out.extend_from_slice(&payloads);
    out
}

/// Writes `index` as an immutable block file at `path` (temp file + rename,
/// synced before the rename so the name never points at a partial file).
/// Returns the number of bytes written.
pub(crate) fn write_block_file(path: &Path, index: &dyn SpatialIndex) -> std::io::Result<u64> {
    let bytes = encode_block_file(index);
    let tmp = path.with_extension("blk.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(bytes.len() as u64)
}

/// Opens block files into [`PackedIndex`]es (the type has no values).
///
/// A recovered relation serves its shards from the opened files until the
/// first compaction of each shard rebuilds it with the shard recipe.
#[derive(Debug)]
pub enum BlockFileIndex {}

impl BlockFileIndex {
    /// Opens and fully verifies the block file at `path`, recording `recipe`
    /// (the recipe the file was built with; a grid recipe must have exactly
    /// the file's block count in cells) as the index's recipe. The block
    /// directory is packed from the footprints: it is in memory only, not
    /// part of the file format.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Io`] when the file cannot be read and
    /// [`RecoveryError::Corrupt`] when any structural check or checksum
    /// fails — corruption is reported, never panicked on.
    pub fn open(path: &Path, recipe: IndexConfig) -> Result<PackedIndex, RecoveryError> {
        Self::open_shard(path, recipe, recipe)
    }

    /// Opens a shard's block file as [`BlockFileIndex::open`] does, at the
    /// shard recipe `shard` — or, for a grid file that holds the relation
    /// recipe's `n × n` cells instead (written before a sharded grid's
    /// shards had a recipe of their own), at the relation recipe
    /// `relation`. The shard's next compaction rewrites such a file at
    /// `shard`.
    pub(crate) fn open_shard(
        path: &Path,
        shard: IndexConfig,
        relation: IndexConfig,
    ) -> Result<PackedIndex, RecoveryError> {
        let buf = std::fs::read(path).map_err(|source| RecoveryError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        Self::decode(&buf, shard, relation).map_err(|detail| RecoveryError::Corrupt {
            path: path.to_path_buf(),
            detail,
        })
    }

    fn decode(
        buf: &[u8],
        shard: IndexConfig,
        relation: IndexConfig,
    ) -> Result<PackedIndex, String> {
        if buf.len() < HEADER_BYTES + 4 {
            return Err(format!("{} bytes is too short for a header", buf.len()));
        }
        if &buf[0..4] != MAGIC {
            return Err("bad magic (not a block file)".into());
        }
        let version = read_u32(buf, 4);
        if version != FORMAT_VERSION {
            return Err(format!("unsupported format version {version}"));
        }
        let num_blocks = read_u32(buf, 8) as usize;
        let num_points = read_u64(buf, 12) as usize;
        let bounds = read_rect(buf, 20);
        let dir_end = HEADER_BYTES + num_blocks * DIR_ENTRY_BYTES;
        if buf.len() < dir_end + 4 {
            return Err(format!(
                "directory of {num_blocks} blocks exceeds the {}-byte file",
                buf.len()
            ));
        }
        if crc32(&buf[8..dir_end]) != read_u32(buf, dir_end) {
            return Err("header/directory checksum mismatch".into());
        }
        // A grid locates by cell arithmetic, so its blocks must be the cells.
        let cells = |recipe: IndexConfig| match recipe {
            IndexConfig::Grid { cells_per_axis: n } => Some(n),
            _ => None,
        };
        let recipe = match (cells(shard), cells(relation)) {
            (Some(n), _) if num_blocks == n * n => shard,
            (Some(_), Some(n)) if num_blocks == n * n => relation,
            (Some(n), _) => return Err(format!("{num_blocks} blocks are not a {n}×{n} grid")),
            (None, _) => shard,
        };
        let mut metas = Vec::with_capacity(num_blocks);
        let mut payloads = Vec::with_capacity(num_blocks);
        let mut total = 0usize;
        for b in 0..num_blocks {
            let at = HEADER_BYTES + b * DIR_ENTRY_BYTES;
            let mbr = read_rect(buf, at);
            let count = read_u32(buf, at + 32) as usize;
            let offset = read_u64(buf, at + 36) as usize;
            let crc = read_u32(buf, at + 44);
            let payload = buf
                .get(offset..offset + count * 24)
                .ok_or_else(|| format!("block {b} payload out of file bounds"))?;
            if crc32(payload) != crc {
                return Err(format!("block {b} payload checksum mismatch"));
            }
            metas.push(BlockMeta::new(b as BlockId, mbr, count));
            payloads.push(payload);
            total += count;
        }
        if total != num_points {
            return Err(format!(
                "directory counts sum to {total}, header claims {num_points} points"
            ));
        }
        let mut ids = Vec::with_capacity(num_points);
        let mut xs = Vec::with_capacity(num_points);
        let mut ys = Vec::with_capacity(num_points);
        for payload in payloads {
            let (id_bytes, coords) = payload.split_at(payload.len() / 3);
            let (x_bytes, y_bytes) = coords.split_at(payload.len() / 3);
            ids.extend(words(id_bytes));
            xs.extend(words(x_bytes).map(f64::from_bits));
            ys.extend(words(y_bytes).map(f64::from_bits));
        }
        Ok(PackedIndex::from_columns(
            recipe, bounds, metas, ids, xs, ys,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use twoknn_geometry::Point;
    use twoknn_index::{check_index_invariants, GridIndex};

    fn tmpfile(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "twoknn-blockfile-{}-{tag}-{}.blk",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_index(n: u64) -> PackedIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Point::new(i, (h % 977) as f64 * 0.11, ((h / 977) % 977) as f64 * 0.11)
            })
            .collect();
        GridIndex::build(pts, 6).unwrap()
    }

    #[test]
    fn roundtrip_preserves_blocks_points_and_bounds() {
        let src = sample_index(500);
        let path = tmpfile("roundtrip");
        let bytes = write_block_file(&path, &src).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());

        let opened = BlockFileIndex::open(&path, src.recipe()).unwrap();
        assert_eq!(opened.recipe(), src.recipe());
        assert_eq!(opened.num_points(), src.num_points());
        assert_eq!(opened.num_blocks(), src.num_blocks());
        assert_eq!(opened.bounds(), src.bounds());
        check_index_invariants(&opened).unwrap();
        // Every block's columns, in order, bit for bit.
        for (a, b) in opened.blocks().iter().zip(src.blocks()) {
            assert_eq!((a.id, a.mbr, a.count), (b.id, b.mbr, b.count));
            let (got, want) = (opened.block_points(a.id), src.block_points(b.id));
            assert_eq!(got.ids(), want.ids(), "block {}", a.id);
            let bits = |col: &[f64]| col.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.xs()), bits(want.xs()), "block {}", a.id);
            assert_eq!(bits(got.ys()), bits(want.ys()), "block {}", a.id);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_is_detected_at_open_not_panicked_on() {
        let src = sample_index(300);
        let path = tmpfile("corrupt");
        write_block_file(&path, &src).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // Flip one byte in the last block payload.
        let n = bytes.len();
        bytes[n - 5] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match BlockFileIndex::open(&path, src.recipe()) {
            Err(RecoveryError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "unexpected detail: {detail}")
            }
            other => panic!("payload corruption must surface as Corrupt, got {other:?}"),
        }

        // Flip a directory byte (an MBR bound): the header checksum catches it.
        bytes[n - 5] ^= 0x10;
        bytes[HEADER_BYTES + 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            BlockFileIndex::open(&path, src.recipe()),
            Err(RecoveryError::Corrupt { .. })
        ));

        // Truncation and a foreign file are also reported, not panicked on.
        std::fs::write(&path, &bytes[..HEADER_BYTES / 2]).unwrap();
        assert!(matches!(
            BlockFileIndex::open(&path, src.recipe()),
            Err(RecoveryError::Corrupt { .. })
        ));
        assert!(BlockFileIndex::open(&path.with_extension("missing"), src.recipe()).is_err());

        // A grid recipe that does not match the file's blocks is refused.
        write_block_file(&path, &src).unwrap();
        let five = IndexConfig::Grid { cells_per_axis: 5 };
        assert!(matches!(
            BlockFileIndex::open(&path, five),
            Err(RecoveryError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_shard_file_opens_at_the_shard_or_the_relation_recipe() {
        let src = sample_index(400); // a 6×6 grid
        let path = tmpfile("shard");
        write_block_file(&path, &src).unwrap();
        let grid = |n| IndexConfig::Grid { cells_per_axis: n };
        // A file at the shard recipe opens at it.
        let opened = BlockFileIndex::open_shard(&path, grid(6), grid(12)).unwrap();
        assert_eq!(opened.recipe(), grid(6));
        // A legacy file, at the relation recipe, opens at that one.
        let opened = BlockFileIndex::open_shard(&path, grid(2), grid(6)).unwrap();
        assert_eq!(opened.recipe(), grid(6));
        check_index_invariants(&opened).unwrap();
        // Any other cell count is corruption.
        match BlockFileIndex::open_shard(&path, grid(2), grid(5)) {
            Err(RecoveryError::Corrupt { detail, .. }) => {
                assert!(detail.contains("not a 2×2 grid"), "{detail}")
            }
            other => panic!("a 36-block file is neither 2×2 nor 5×5, got {other:?}"),
        }
        // Other families take the shard recipe whatever the block count.
        let quad = IndexConfig::Quadtree {
            capacity: 8,
            max_depth: twoknn_index::DEFAULT_MAX_DEPTH,
        };
        let opened = BlockFileIndex::open_shard(&path, quad, quad).unwrap();
        assert_eq!(opened.recipe(), quad);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_sparse_indexes_roundtrip() {
        let src =
            GridIndex::build_with_bounds(Vec::new(), Rect::new(0.0, 0.0, 10.0, 10.0), 3).unwrap();
        let path = tmpfile("empty");
        write_block_file(&path, &src).unwrap();
        let opened = BlockFileIndex::open(&path, src.recipe()).unwrap();
        assert_eq!(opened.num_points(), 0);
        assert_eq!(opened.num_blocks(), src.num_blocks());
        check_index_invariants(&opened).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
