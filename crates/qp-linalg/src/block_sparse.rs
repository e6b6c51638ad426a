//! Block-sparse matrices over an atom partition.
//!
//! The screening pass (`qp-grid`) proves that operator matrices assembled
//! from strictly-finite-support NAO basis functions are *exactly* zero
//! outside the atom-pair neighbor list.  This type stores only the
//! surviving blocks: block rows/columns are atoms (each atom owns a
//! contiguous run of basis functions), the pair structure is CSR over
//! atoms, and each stored pair holds a dense row-major `|I| × |J|` block.
//! The screened operator merge in `qp-core` scatters batch triangles into
//! these blocks and densifies them with [`BlockSparseMatrix::to_dense`],
//! which writes exact `+0.0` off the support — so the merged matrix is
//! bit-identical to the dense merge.

use crate::dense::DMatrix;
use crate::{LinalgError, Result};

/// Contiguous function ranges per atom block: block `i` owns functions
/// `offsets[i]..offsets[i + 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPartition {
    offsets: Vec<usize>,
}

impl BlockPartition {
    /// Build from cumulative offsets (`n_blocks + 1` entries, ascending,
    /// starting at 0).
    pub fn new(offsets: Vec<usize>) -> Self {
        assert!(!offsets.is_empty() && offsets[0] == 0);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        BlockPartition { offsets }
    }

    /// Build from per-block sizes.
    pub fn from_sizes(sizes: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0;
        offsets.push(0);
        for &s in sizes {
            acc += s;
            offsets.push(acc);
        }
        BlockPartition { offsets }
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total partitioned dimension.
    pub fn total(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// First function of block `i`.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Size of block `i`.
    pub fn size(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }
}

/// Square block-sparse matrix: atom-block rows, CSR over stored atom pairs,
/// dense row-major blocks.
#[derive(Debug, Clone)]
pub struct BlockSparseMatrix {
    part: BlockPartition,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    /// Offset of each stored block in `data` (`cols.len() + 1` entries).
    data_off: Vec<usize>,
    data: Vec<f64>,
}

impl BlockSparseMatrix {
    /// Zero matrix with the given pair structure.  `row_ptr`/`cols` is CSR
    /// over atom pairs (columns ascending per row), e.g. straight from
    /// `qp_grid::NeighborList`.
    pub fn zeros(part: BlockPartition, row_ptr: &[usize], cols: &[u32]) -> Self {
        assert_eq!(row_ptr.len(), part.n_blocks() + 1);
        let mut data_off = Vec::with_capacity(cols.len() + 1);
        let mut acc = 0usize;
        data_off.push(0);
        for i in 0..part.n_blocks() {
            for &j in &cols[row_ptr[i]..row_ptr[i + 1]] {
                acc += part.size(i) * part.size(j as usize);
                data_off.push(acc);
            }
        }
        BlockSparseMatrix {
            part,
            row_ptr: row_ptr.to_vec(),
            cols: cols.to_vec(),
            data_off,
            data: vec![0.0; acc],
        }
    }

    /// Copy the supported blocks out of a dense matrix (the masking oracle:
    /// `from_dense(d).to_dense()` zeroes exactly the off-support entries).
    pub fn from_dense(
        dense: &DMatrix,
        part: BlockPartition,
        row_ptr: &[usize],
        cols: &[u32],
    ) -> Result<Self> {
        if dense.rows() != part.total() || dense.cols() != part.total() {
            return Err(LinalgError::DimensionMismatch {
                op: "block_sparse::from_dense",
                dims: vec![dense.rows(), dense.cols(), part.total()],
            });
        }
        let mut m = Self::zeros(part, row_ptr, cols);
        let n = m.part.total();
        let src = dense.as_slice();
        for i in 0..m.part.n_blocks() {
            let (ro, rs) = (m.part.offset(i), m.part.size(i));
            for p in m.row_ptr[i]..m.row_ptr[i + 1] {
                let j = m.cols[p] as usize;
                let (co, cs) = (m.part.offset(j), m.part.size(j));
                let dst = &mut m.data[m.data_off[p]..m.data_off[p + 1]];
                for r in 0..rs {
                    dst[r * cs..(r + 1) * cs]
                        .copy_from_slice(&src[(ro + r) * n + co..(ro + r) * n + co + cs]);
                }
            }
        }
        Ok(m)
    }

    /// Dense-conversion oracle: materialize with exact `+0.0` off support.
    pub fn to_dense(&self) -> DMatrix {
        let n = self.part.total();
        let mut out = DMatrix::zeros(n, n);
        let dst = out.as_mut_slice();
        for i in 0..self.part.n_blocks() {
            let (ro, rs) = (self.part.offset(i), self.part.size(i));
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.cols[p] as usize;
                let (co, cs) = (self.part.offset(j), self.part.size(j));
                let blk = &self.data[self.data_off[p]..self.data_off[p + 1]];
                for r in 0..rs {
                    dst[(ro + r) * n + co..(ro + r) * n + co + cs]
                        .copy_from_slice(&blk[r * cs..(r + 1) * cs]);
                }
            }
        }
        out
    }

    /// Partition shared by rows and columns.
    pub fn partition(&self) -> &BlockPartition {
        &self.part
    }

    /// Stored pair index of `(i, j)`, if on the support.
    pub fn find(&self, i: usize, j: usize) -> Option<usize> {
        let row = &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]];
        row.binary_search(&(j as u32))
            .ok()
            .map(|k| self.row_ptr[i] + k)
    }

    /// Stored block `(i, j)` as a row-major `|I| × |J|` slice.
    pub fn block(&self, pair: usize) -> &[f64] {
        &self.data[self.data_off[pair]..self.data_off[pair + 1]]
    }

    /// Mutable stored block.
    pub fn block_mut(&mut self, pair: usize) -> &mut [f64] {
        &mut self.data[self.data_off[pair]..self.data_off[pair + 1]]
    }

    /// Number of stored blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.cols.len()
    }

    /// Stored scalar entries / dense entries.
    pub fn fill_ratio(&self) -> f64 {
        let n = self.part.total();
        if n == 0 {
            return 0.0;
        }
        self.data.len() as f64 / (n * n) as f64
    }

    /// Heap bytes of the storage.
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * 8 + self.cols.len() * 4 + self.data_off.len() * 8 + self.data.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tridiagonal-of-blocks structure over `sizes`, plus self pairs.
    fn banded(sizes: &[usize], band: usize) -> (BlockPartition, Vec<usize>, Vec<u32>) {
        let nb = sizes.len();
        let mut row_ptr = vec![0usize];
        let mut cols = Vec::new();
        for i in 0..nb {
            for j in 0..nb {
                if i.abs_diff(j) <= band {
                    cols.push(j as u32);
                }
            }
            row_ptr.push(cols.len());
        }
        (BlockPartition::from_sizes(sizes), row_ptr, cols)
    }

    fn lcg_matrix(n: usize, m: usize, seed: u64) -> DMatrix {
        let mut s = seed;
        let mut out = DMatrix::zeros(n, m);
        for v in out.as_mut_slice().iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((s >> 33) as f64) / (u32::MAX as f64) - 0.5;
        }
        out
    }

    #[test]
    fn dense_roundtrip_masks_off_support() {
        let sizes = [3usize, 1, 4, 2];
        let (part, row_ptr, cols) = banded(&sizes, 1);
        let d = lcg_matrix(10, 10, 7);
        let b = BlockSparseMatrix::from_dense(&d, part.clone(), &row_ptr, &cols).unwrap();
        let back = b.to_dense();
        // Supported entries survive bit-for-bit; others are exactly +0.0.
        let offsets: Vec<usize> = (0..sizes.len()).map(|i| part.offset(i)).collect();
        let block_of = |f: usize| offsets.iter().rposition(|&o| o <= f).unwrap();
        for r in 0..10 {
            for c in 0..10 {
                let (bi, bj) = (block_of(r), block_of(c));
                if bi.abs_diff(bj) <= 1 {
                    assert_eq!(back[(r, c)].to_bits(), d[(r, c)].to_bits());
                } else {
                    assert_eq!(back[(r, c)].to_bits(), 0.0f64.to_bits());
                }
            }
        }
        assert!(b.fill_ratio() < 1.0);
        assert!(b.memory_bytes() > 0);
    }
}
