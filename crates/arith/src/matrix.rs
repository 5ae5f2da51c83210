//! A minimal dense row-major `f32` matrix used throughout the workspace.
//!
//! This deliberately small container is the lingua franca between the
//! arithmetic kernels, the trainer, and the tests. It is not a general
//! linear-algebra library — it implements exactly the operations the
//! Equinox reproduction needs.

/// Dense row-major matrix of `f32`.
///
/// # Example
///
/// ```
/// use equinox_arith::Matrix;
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.transpose().get(2, 1), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Matrix { rows, cols, data: vec![0.0; len] }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of one row as a slice.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of one row as a slice.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns the transpose, scattering each row into a column.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise binary combination.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch in zip_map"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place scaled addition: `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch in axpy"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt() as f32
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:>10.4} ", self.get(r, c))?;
            }
            if self.cols > show_cols {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn from_fn_and_get_set() {
        let mut m = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.get(0, 1), 1.0);
        m.set(0, 1, 9.0);
        assert_eq!(m.get(0, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_wrong_len_panics() {
        Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn row_access() {
        let mut m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        m.row_mut(0)[2] = 9.0;
        assert_eq!(m.get(0, 2), 9.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn transpose_of_an_empty_shape_swaps_it() {
        for (rows, cols) in [(0, 3), (3, 0)] {
            let t = Matrix::zeros(rows, cols).transpose();
            assert_eq!((t.rows(), t.cols()), (cols, rows));
        }
    }

    #[test]
    fn axpy_adds_scaled() {
        let mut a = Matrix::from_fn(2, 2, |_, _| 1.0);
        let b = Matrix::from_fn(2, 2, |_, _| 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn zip_map_shapes_must_match() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let result = std::panic::catch_unwind(|| a.zip_map(&b, |x, y| x + y));
        assert!(result.is_err());
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(10, 10);
        let s = m.to_string();
        assert!(s.contains("Matrix 10x10"));
        assert!(s.contains('…'));
    }

    #[test]
    fn transpose_preserves_elements() {
        check::check(0x6d6101, |g| {
            let rows = g.usize_in(1, 8);
            let cols = g.usize_in(1, 8);
            let m = Matrix::from_fn(rows, cols, |r, c| (r * 31 + c) as f32);
            let t = m.transpose();
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(m.get(r, c), t.get(c, r));
                }
            }
        });
    }
}
