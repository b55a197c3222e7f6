//! Immutable on-disk shard block files.
//!
//! A block file is the durable image of one shard's compacted base index:
//! the same blocks-with-MBRs structure [`SpatialIndex`] exposes in memory,
//! serialized column-wise. [`super::compact`] writes one after every shard
//! rebuild (and registration writes the initial ones); recovery opens them
//! with [`BlockFileIndex::open`] and uses the file *itself* as the shard's
//! base — no rebuild needed to serve queries after a restart.
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
//! The directory carries everything the kNN drivers read on the hot path
//! (block MBRs and counts), so opening a file decodes **no** point data:
//! every per-block CRC is verified up front against the retained buffer —
//! corruption surfaces as a [`RecoveryError`] at open, never mid-query —
//! but the three point columns of a block are decoded lazily on first
//! [`BlockFileIndex::block_points`] call. A MINDIST-pruned block is never
//! decoded at all.
//!
//! Block files are immutable: a rebuild writes a new generation
//! (`shard-<s>-<gen>.blk`) via a temp file + rename, the manifest flips to
//! it, and the old generation is deleted. A crash between those steps
//! leaves the previous generation referenced and intact.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;

use twoknn_geometry::{Point, Rect};
use twoknn_index::{BlockDirectory, BlockId, BlockMeta, BlockPoints, PointBlock, SpatialIndex};

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

/// A shard base index served directly from an opened block file.
///
/// Construction verifies every checksum in the file (header, directory and
/// all block payloads) against a retained in-memory buffer, so queries can
/// never hit corruption; the per-block point *columns*, however, are only
/// decoded on first access. Query plans read block MBRs/counts from the
/// directory and MINDIST-pruned blocks stay raw bytes forever.
///
/// A recovered relation uses `BlockFileIndex` only as its cold-start base:
/// the first compaction of a shard folds it into a freshly built index of
/// the relation's configured family.
#[derive(Debug)]
pub struct BlockFileIndex {
    buf: Vec<u8>,
    metas: Vec<BlockMeta>,
    /// Packed from the block footprints at open; in memory only, not part
    /// of the file format.
    directory: BlockDirectory,
    /// Absolute payload offset of each block within `buf`.
    offsets: Vec<u64>,
    decoded: Vec<OnceLock<PointBlock>>,
    bounds: Rect,
    num_points: usize,
}

impl BlockFileIndex {
    /// Opens and fully verifies the block file at `path`.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Io`] when the file cannot be read and
    /// [`RecoveryError::Corrupt`] when any structural check or checksum
    /// fails — corruption is reported, never panicked on.
    pub fn open(path: &Path) -> Result<Self, RecoveryError> {
        let buf = std::fs::read(path).map_err(|source| RecoveryError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        Self::decode(buf).map_err(|detail| RecoveryError::Corrupt {
            path: path.to_path_buf(),
            detail,
        })
    }

    fn decode(buf: Vec<u8>) -> Result<Self, String> {
        if buf.len() < HEADER_BYTES + 4 {
            return Err(format!("{} bytes is too short for a header", buf.len()));
        }
        if &buf[0..4] != MAGIC {
            return Err("bad magic (not a block file)".into());
        }
        let version = read_u32(&buf, 4);
        if version != FORMAT_VERSION {
            return Err(format!("unsupported format version {version}"));
        }
        let num_blocks = read_u32(&buf, 8) as usize;
        let num_points = read_u64(&buf, 12) as usize;
        let bounds = read_rect(&buf, 20);
        let dir_end = HEADER_BYTES + num_blocks * DIR_ENTRY_BYTES;
        if buf.len() < dir_end + 4 {
            return Err(format!(
                "directory of {num_blocks} blocks exceeds the {}-byte file",
                buf.len()
            ));
        }
        if crc32(&buf[8..dir_end]) != read_u32(&buf, dir_end) {
            return Err("header/directory checksum mismatch".into());
        }
        let mut metas = Vec::with_capacity(num_blocks);
        let mut offsets = Vec::with_capacity(num_blocks);
        let mut total = 0usize;
        for b in 0..num_blocks {
            let at = HEADER_BYTES + b * DIR_ENTRY_BYTES;
            let mbr = read_rect(&buf, at);
            let count = read_u32(&buf, at + 32) as usize;
            let offset = read_u64(&buf, at + 36) as usize;
            let crc = read_u32(&buf, at + 44);
            let len = count * 24;
            let payload = buf
                .get(offset..offset + len)
                .ok_or_else(|| format!("block {b} payload out of file bounds"))?;
            if crc32(payload) != crc {
                return Err(format!("block {b} payload checksum mismatch"));
            }
            metas.push(BlockMeta::new(b as BlockId, mbr, count));
            offsets.push(offset as u64);
            total += count;
        }
        if total != num_points {
            return Err(format!(
                "directory counts sum to {total}, header claims {num_points} points"
            ));
        }
        let decoded = (0..num_blocks).map(|_| OnceLock::new()).collect();
        Ok(Self {
            buf,
            directory: BlockDirectory::packed(&metas),
            metas,
            offsets,
            decoded,
            bounds,
            num_points,
        })
    }

    /// Decodes block `id`'s columns from the retained buffer (checksummed at
    /// open, so this cannot fail).
    fn block(&self, id: BlockId) -> &PointBlock {
        self.decoded[id as usize].get_or_init(|| {
            let count = self.metas[id as usize].count;
            let at = self.offsets[id as usize] as usize;
            let mut block = PointBlock::with_capacity(count);
            for i in 0..count {
                block.push(Point::new(
                    read_u64(&self.buf, at + i * 8),
                    f64::from_bits(read_u64(&self.buf, at + (count + i) * 8)),
                    f64::from_bits(read_u64(&self.buf, at + (2 * count + i) * 8)),
                ));
            }
            block
        })
    }

    /// Number of blocks whose point columns have been decoded so far —
    /// observability for the lazy-loading tests.
    pub fn blocks_decoded(&self) -> usize {
        self.decoded.iter().filter(|c| c.get().is_some()).count()
    }
}

impl SpatialIndex for BlockFileIndex {
    fn bounds(&self) -> Rect {
        self.bounds
    }

    fn num_points(&self) -> usize {
        self.num_points
    }

    fn blocks(&self) -> &[BlockMeta] {
        &self.metas
    }

    fn block_points(&self, id: BlockId) -> BlockPoints<'_> {
        self.block(id).view()
    }

    fn locate(&self, p: &Point) -> Option<BlockId> {
        // Prefer a containing block that actually stores a point at these
        // coordinates (footprints may overlap if the source was an R-tree);
        // fall back to the first containing footprint.
        self.directory.locate(&self.metas, p, |id| {
            self.block_points(id)
                .iter()
                .any(|q| q.x == p.x && q.y == p.y)
        })
    }

    fn directory(&self) -> &BlockDirectory {
        &self.directory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
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

    fn sample_index(n: u64) -> GridIndex {
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

        let opened = BlockFileIndex::open(&path).unwrap();
        assert_eq!(opened.num_points(), src.num_points());
        assert_eq!(opened.num_blocks(), src.num_blocks());
        assert_eq!(opened.bounds(), src.bounds());
        for (a, b) in opened.blocks().iter().zip(src.blocks()) {
            assert_eq!((a.id, a.mbr, a.count), (b.id, b.mbr, b.count));
        }
        check_index_invariants(&opened).unwrap();
        let mut got = opened.all_points();
        let mut want = src.all_points();
        got.sort_by_key(|p| p.id);
        want.sort_by_key(|p| p.id);
        assert_eq!(got, want);
        // locate agrees on every stored point.
        for p in want.iter().take(50) {
            let id = opened.locate(p).expect("stored point locates");
            assert!(opened.blocks()[id as usize].mbr.contains(p));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn columns_decode_lazily() {
        let src = sample_index(800);
        let path = tmpfile("lazy");
        write_block_file(&path, &src).unwrap();
        let opened = BlockFileIndex::open(&path).unwrap();
        assert_eq!(opened.blocks_decoded(), 0, "open decodes no point data");
        // Directory-only work (MINDIST ordering) decodes nothing.
        let origin = Point::anonymous(0.0, 0.0);
        let _ = opened
            .mindist_order(&origin, &mut twoknn_index::ScratchSpace::new())
            .next();
        assert_eq!(opened.blocks_decoded(), 0);
        let first_nonempty = opened.blocks().iter().find(|b| !b.is_empty()).unwrap().id;
        assert!(!opened.block_points(first_nonempty).is_empty());
        assert_eq!(opened.blocks_decoded(), 1, "only the touched block decodes");
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
        match BlockFileIndex::open(&path) {
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
            BlockFileIndex::open(&path),
            Err(RecoveryError::Corrupt { .. })
        ));

        // Truncation and a foreign file are also reported, not panicked on.
        std::fs::write(&path, &bytes[..HEADER_BYTES / 2]).unwrap();
        assert!(matches!(
            BlockFileIndex::open(&path),
            Err(RecoveryError::Corrupt { .. })
        ));
        assert!(BlockFileIndex::open(&path.with_extension("missing")).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_sparse_indexes_roundtrip() {
        let src =
            GridIndex::build_with_bounds(Vec::new(), Rect::new(0.0, 0.0, 10.0, 10.0), 3).unwrap();
        let path = tmpfile("empty");
        write_block_file(&path, &src).unwrap();
        let opened = BlockFileIndex::open(&path).unwrap();
        assert_eq!(opened.num_points(), 0);
        assert_eq!(opened.num_blocks(), src.num_blocks());
        check_index_invariants(&opened).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
