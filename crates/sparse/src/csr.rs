use rsqp_par::ThreadPool;

use crate::{CooMatrix, CscMatrix, RowPartition, SparseError};

/// Compressed sparse row matrix with `f64` values.
///
/// This is the working format of the reproduction: the problem matrices `P`,
/// `A` and `Aᵀ` are stored in CSR and streamed row-by-row to the (simulated)
/// SpMV engine, mirroring how RSQP lays the non-zero values out contiguously
/// in HBM.
///
/// Invariants (checked by [`CsrMatrix::from_raw_parts`]):
/// * `indptr.len() == nrows + 1`, `indptr[0] == 0`, non-decreasing,
/// * `indices` are strictly increasing within each row and `< ncols`,
/// * `data.len() == indices.len() == indptr[nrows]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the arrays do not satisfy
    /// the invariants listed on [`CsrMatrix`].
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if indptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "indptr length {} != nrows + 1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(SparseError::InvalidStructure("indptr[0] must be 0".into()));
        }
        if *indptr.last().expect("indptr is non-empty") != indices.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indptr[last] {} != indices length {}",
                indptr[nrows],
                indices.len()
            )));
        }
        if indices.len() != data.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indices length {} != data length {}",
                indices.len(),
                data.len()
            )));
        }
        for r in 0..nrows {
            if indptr[r] > indptr[r + 1] {
                return Err(SparseError::InvalidStructure(format!("indptr decreases at row {r}")));
            }
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} has unsorted or duplicate column indices"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} has column index {last} >= ncols {ncols}"
                    )));
                }
            }
        }
        Ok(CsrMatrix { nrows, ncols, indptr, indices, data })
    }

    /// Builds a CSR matrix from a triplet list (duplicates summed).
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut coo = CooMatrix::new(nrows, ncols);
        coo.extend(triplets);
        coo.to_csr()
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_diag(&vec![1.0; n])
    }

    /// An empty (all-zero) matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            data: Vec::new(),
        }
    }

    /// A square diagonal matrix with the given diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            data: diag.to_vec(),
        }
    }

    /// Builds from a dense row-major matrix, dropping exact zeros.
    pub fn from_dense(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut coo = CooMatrix::new(nrows, ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "ragged dense matrix");
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Value array.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable value array (structure stays fixed).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Stored value at `(i, j)`, or `0.0` if the coordinate is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Computes `y = self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != ncols` or
    /// `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        self.check_spmv_dims(x, y)?;
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            y[i] = acc;
        }
        Ok(())
    }

    /// Computes `y += alpha * self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
    pub fn spmv_acc(&self, alpha: f64, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        self.check_spmv_dims(x, y)?;
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            y[i] += alpha * acc;
        }
        Ok(())
    }

    /// Computes `y = selfᵀ * x` without materializing the transpose.
    ///
    /// This is a **scatter** kernel: each source row adds into output
    /// positions spread across all of `y`, so it walks the output with no
    /// locality and cannot be row-parallelized without atomics. It is the
    /// right choice when the transpose is applied once (problem setup,
    /// polish); repeated applications — the reduced KKT operator evaluates
    /// `Aᵀv` on every PCG iteration — should build a
    /// [`crate::TransposeCache`] once and use its gather SpMV instead.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != nrows` or
    /// `y.len() != ncols`.
    pub fn spmv_transpose(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        if x.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "spmv_transpose input",
                expected: self.nrows,
                found: x.len(),
            });
        }
        if y.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "spmv_transpose output",
                expected: self.ncols,
                found: y.len(),
            });
        }
        y.fill(0.0);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let xi = x[i];
            for (&j, &v) in cols.iter().zip(vals) {
                y[j] += v * xi;
            }
        }
        Ok(())
    }

    fn check_spmv_dims(&self, x: &[f64], y: &[f64]) -> Result<(), SparseError> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "spmv input",
                expected: self.ncols,
                found: x.len(),
            });
        }
        if y.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "spmv output",
                expected: self.nrows,
                found: y.len(),
            });
        }
        Ok(())
    }

    /// Materializes the transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![0.0; self.nnz()];
        let mut next = counts.clone();
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let dst = next[j];
                indices[dst] = i;
                data[dst] = v;
                next[j] += 1;
            }
        }
        CsrMatrix { nrows: self.ncols, ncols: self.nrows, indptr: counts, indices, data }
    }

    /// Converts to CSC storage.
    pub fn to_csc(&self) -> CscMatrix {
        let t = self.transpose();
        CscMatrix::from_raw_parts(self.nrows, self.ncols, t.indptr, t.indices, t.data)
            .expect("transpose of a valid CSR is a valid CSC")
    }

    /// Converts to a dense row-major representation.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.ncols]; self.nrows];
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                out[i][j] = v;
            }
        }
        out
    }

    /// Returns the diagonal (length `min(nrows, ncols)`), with zeros for
    /// unstored diagonal entries.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Scales row `i` by `d[i]` in place (left multiplication by `diag(d)`).
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != nrows`.
    pub fn scale_rows(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.nrows, "row scaling length mismatch");
        for i in 0..self.nrows {
            let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
            for v in &mut self.data[lo..hi] {
                *v *= d[i];
            }
        }
    }

    /// Scales column `j` by `d[j]` in place (right multiplication by
    /// `diag(d)`).
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != ncols`.
    pub fn scale_cols(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.ncols, "column scaling length mismatch");
        for (v, &j) in self.data.iter_mut().zip(&self.indices) {
            *v *= d[j];
        }
    }

    /// Returns a copy with rows reordered so that new row `i` is old row
    /// `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..nrows`.
    pub fn permute_rows(&self, perm: &[usize]) -> CsrMatrix {
        assert_eq!(perm.len(), self.nrows, "permutation length mismatch");
        let mut seen = vec![false; self.nrows];
        for &p in perm {
            assert!(p < self.nrows && !seen[p], "perm is not a permutation");
            seen[p] = true;
        }
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut data = Vec::with_capacity(self.nnz());
        indptr.push(0);
        for &old in perm {
            let (cols, vals) = self.row(old);
            indices.extend_from_slice(cols);
            data.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        CsrMatrix { nrows: self.nrows, ncols: self.ncols, indptr, indices, data }
    }

    /// Returns a copy with columns reordered so that new column `j` holds old
    /// column `perm[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..ncols`.
    pub fn permute_cols(&self, perm: &[usize]) -> CsrMatrix {
        assert_eq!(perm.len(), self.ncols, "permutation length mismatch");
        // inverse map: old column -> new column
        let mut inv = vec![usize::MAX; self.ncols];
        for (new, &old) in perm.iter().enumerate() {
            assert!(old < self.ncols && inv[old] == usize::MAX, "perm is not a permutation");
            inv[old] = new;
        }
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                coo.push(i, inv[j], v);
            }
        }
        coo.to_csr()
    }

    /// Applies `f` to every stored value, keeping the structure.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = f(*v);
        }
        out
    }

    /// The number of stored entries per row (the paper's `nnz_row`, the basis
    /// of the sparsity string encoding).
    pub fn row_nnz_counts(&self) -> Vec<usize> {
        (0..self.nrows).map(|i| self.row_nnz(i)).collect()
    }

    /// Column-wise sums of squared values, i.e. `diag(selfᵀ · self)`.
    ///
    /// Used to build the Jacobi preconditioner for the reduced KKT operator
    /// `P + σI + ρ AᵀA` without forming `AᵀA`.
    pub fn column_sq_norms(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.ncols];
        for (&j, &v) in self.indices.iter().zip(&self.data) {
            out[j] += v * v;
        }
        out
    }

    /// Extracts the upper triangle (including the diagonal). Only meaningful
    /// for square matrices; used when assembling the KKT matrix for LDLᵀ.
    pub fn upper_triangle(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j >= i {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// `max |value|` over stored entries of each column.
    pub fn column_inf_norms(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.ncols];
        for (&j, &v) in self.indices.iter().zip(&self.data) {
            out[j] = out[j].max(v.abs());
        }
        out
    }

    /// `max |value|` over stored entries of each row.
    pub fn row_inf_norms(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows];
        for i in 0..self.nrows {
            let (_, vals) = self.row(i);
            out[i] = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        }
        out
    }
}

impl CsrMatrix {
    /// Computes `y = self * x` on a reusable [`ThreadPool`] over a
    /// precomputed [`RowPartition`].
    ///
    /// Dispatches to an existing pool with no per-call allocation — the
    /// shape the PCG inner loop needs. Bit-identical to
    /// [`CsrMatrix::spmv`] for any pool and any partition, because each
    /// row's dot product is still accumulated left-to-right by one thread.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch or when
    /// the partition does not cover this matrix's rows.
    pub fn spmv_partitioned(
        &self,
        x: &[f64],
        y: &mut [f64],
        pool: &ThreadPool,
        partition: &RowPartition,
    ) -> Result<(), SparseError> {
        self.check_spmv_dims(x, y)?;
        if partition.nrows() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "spmv partition rows",
                expected: self.nrows,
                found: partition.nrows(),
            });
        }
        if pool.is_serial() || partition.num_chunks() <= 1 {
            return self.spmv(x, y);
        }
        pool.par_chunks(y, partition.bounds(), |_, lo, chunk| {
            for (k, yi) in chunk.iter_mut().enumerate() {
                let (cols, vals) = self.row(lo + k);
                let mut acc = 0.0;
                for (&j, &v) in cols.iter().zip(vals) {
                    acc += v * x[j];
                }
                *yi = acc;
            }
        });
        Ok(())
    }

    /// Computes `y += alpha * self * x` on a reusable [`ThreadPool`] over a
    /// precomputed [`RowPartition`]. See [`CsrMatrix::spmv_partitioned`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch or when
    /// the partition does not cover this matrix's rows.
    pub fn spmv_acc_partitioned(
        &self,
        alpha: f64,
        x: &[f64],
        y: &mut [f64],
        pool: &ThreadPool,
        partition: &RowPartition,
    ) -> Result<(), SparseError> {
        self.check_spmv_dims(x, y)?;
        if partition.nrows() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "spmv partition rows",
                expected: self.nrows,
                found: partition.nrows(),
            });
        }
        if pool.is_serial() || partition.num_chunks() <= 1 {
            return self.spmv_acc(alpha, x, y);
        }
        pool.par_chunks(y, partition.bounds(), |_, lo, chunk| {
            for (k, yi) in chunk.iter_mut().enumerate() {
                let (cols, vals) = self.row(lo + k);
                let mut acc = 0.0;
                for (&j, &v) in cols.iter().zip(vals) {
                    acc += v * x[j];
                }
                *yi += alpha * acc;
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        CsrMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn spmv_matches_dense() {
        let m = example();
        let mut y = vec![0.0; 2];
        m.spmv(&[1.0, 2.0, 3.0], &mut y).unwrap();
        assert_eq!(y, vec![7.0, 6.0]);
    }

    #[test]
    fn spmv_dimension_errors() {
        let m = example();
        let mut y = vec![0.0; 2];
        assert!(matches!(m.spmv(&[1.0], &mut y), Err(SparseError::DimensionMismatch { .. })));
        let mut bad_y = vec![0.0; 1];
        assert!(m.spmv(&[1.0, 2.0, 3.0], &mut bad_y).is_err());
    }

    #[test]
    fn spmv_transpose_matches_materialized() {
        let m = example();
        let t = m.transpose();
        let x = vec![2.0, -1.0];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        m.spmv_transpose(&x, &mut y1).unwrap();
        t.spmv(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn spmv_acc_accumulates() {
        let m = example();
        let mut y = vec![1.0, 1.0];
        m.spmv_acc(2.0, &[1.0, 1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, vec![1.0 + 2.0 * 3.0, 1.0 + 2.0 * 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = example();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn csc_roundtrip() {
        let m = example();
        assert_eq!(m.to_csc().to_csr(), m);
    }

    #[test]
    fn identity_and_diag() {
        let i3 = CsrMatrix::identity(3);
        assert_eq!(i3.diagonal(), vec![1.0, 1.0, 1.0]);
        let d = CsrMatrix::from_diag(&[2.0, 3.0]);
        let mut y = vec![0.0; 2];
        d.spmv(&[1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn from_dense_drops_zeros() {
        let m = CsrMatrix::from_dense(&[vec![0.0, 1.0], vec![2.0, 0.0]]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense(), vec![vec![0.0, 1.0], vec![2.0, 0.0]]);
    }

    #[test]
    fn scale_rows_and_cols() {
        let mut m = example();
        m.scale_rows(&[2.0, 3.0]);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.get(1, 1), 9.0);
        m.scale_cols(&[1.0, 0.5, 1.0]);
        assert_eq!(m.get(1, 1), 4.5);
    }

    #[test]
    fn permute_rows_reorders() {
        let m = example();
        let p = m.permute_rows(&[1, 0]);
        assert_eq!(p.get(0, 1), 3.0);
        assert_eq!(p.get(1, 0), 1.0);
    }

    #[test]
    fn permute_cols_reorders() {
        let m = example();
        // new col 0 <- old col 2, new col 1 <- old col 0, new col 2 <- old col 1
        let p = m.permute_cols(&[2, 0, 1]);
        assert_eq!(p.get(0, 0), 2.0);
        assert_eq!(p.get(0, 1), 1.0);
        assert_eq!(p.get(1, 2), 3.0);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_permutation_panics() {
        example().permute_rows(&[0, 0]);
    }

    #[test]
    fn invalid_structure_rejected() {
        // indptr wrong length
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // unsorted columns
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // column out of range
        assert!(CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
        // data length mismatch
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![0], vec![]).is_err());
        // decreasing indptr
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn upper_triangle_of_symmetric() {
        let m = CsrMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0)],
        );
        let u = m.upper_triangle();
        assert_eq!(u.nnz(), 3);
        assert_eq!(u.get(1, 0), 0.0);
        assert_eq!(u.get(0, 1), 1.0);
    }

    #[test]
    fn column_sq_norms_match_transpose_product() {
        let m = example();
        let sq = m.column_sq_norms();
        assert_eq!(sq, vec![1.0, 9.0, 4.0]);
    }

    #[test]
    fn norms_per_row_and_col() {
        let m = example();
        assert_eq!(m.row_inf_norms(), vec![2.0, 3.0]);
        assert_eq!(m.column_inf_norms(), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn map_values_keeps_structure() {
        let m = example().map_values(|v| -v);
        assert_eq!(m.get(0, 0), -1.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn row_nnz_counts() {
        assert_eq!(example().row_nnz_counts(), vec![2, 1]);
    }
}
