//! Safe chunked-slice and reduction helpers layered on [`ThreadPool::run`].

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pool::ThreadPool;

/// Vectors shorter than this are best processed serially: below it the
/// condvar round-trip of a pool dispatch costs more than the work.
pub const PAR_LEN_THRESHOLD: usize = 8192;

/// Chunk length used by elementwise kernels (`axpy`, `lincomb`, …).
pub const ELEM_CHUNK: usize = 16_384;

/// Sparse matrices with fewer stored entries than this run their SpMV
/// inline: below it, waking the pool costs more than splitting the rows
/// saves. Measured at 2 threads on the benchmark suite's own matrices
/// (DESIGN §9).
pub const PAR_NNZ_THRESHOLD: usize = 32_768;

/// Number of row chunks an SpMV over a matrix with `nnz` stored entries is
/// split into on a pool of `threads`: one (the inline path) for a single
/// thread or a matrix below [`PAR_NNZ_THRESHOLD`], otherwise two per
/// thread — a mild oversplit that smooths out rows of uneven cost.
pub fn spmv_chunks(nnz: usize, threads: usize) -> usize {
    if threads <= 1 || nnz < PAR_NNZ_THRESHOLD {
        1
    } else {
        2 * threads
    }
}

/// Maximum number of chunks a reduction is split into. Fixed so the partial
/// sums fit a stack array and the combine order never changes.
pub const MAX_REDUCE_CHUNKS: usize = 128;

/// Minimum reduction chunk length (keeps tiny chunks from dominating).
const REDUCE_CHUNK_MIN: usize = 4096;

/// The fixed reduction chunk length for a vector of length `len`.
///
/// Depends only on `len`, never on the thread count, so the chunk grid —
/// and therefore the floating-point grouping of a reduction — is identical
/// on every pool.
pub fn reduce_chunk_len(len: usize) -> usize {
    len.div_ceil(MAX_REDUCE_CHUNKS).max(REDUCE_CHUNK_MIN)
}

/// Shares a raw base pointer with worker threads.
///
/// Each chunk task derives a slice from it over a range that the caller
/// has proven disjoint from every other chunk's range.
struct SlicePtr<T> {
    ptr: *mut T,
}

// SAFETY: the tasks built on this only ever materialize disjoint
// subslices, so aliased access to the same element cannot occur.
unsafe impl<T: Send> Sync for SlicePtr<T> {}

impl<T> SlicePtr<T> {
    /// Pointer `off` elements past the base. A method (rather than direct
    /// field access) so closures capture the `Sync` wrapper, not the raw
    /// pointer field.
    fn at(&self, off: usize) -> *mut T {
        self.ptr.wrapping_add(off)
    }
}

impl ThreadPool {
    /// Splits `out` at `bounds` and runs `f(chunk_index, start, chunk)` on
    /// every piece in parallel. `bounds` must start at 0, end at
    /// `out.len()`, and be non-decreasing — the caller typically gets it
    /// from a row partition balanced by nnz.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not a valid partition of `out`, or if `f`
    /// panics.
    pub fn par_chunks<T, F>(&self, out: &mut [T], bounds: &[usize], f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        assert!(bounds.len() >= 2, "partition needs at least one chunk");
        assert_eq!(bounds[0], 0, "partition must start at 0");
        assert_eq!(*bounds.last().unwrap(), out.len(), "partition must cover the slice");
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "partition bounds must be sorted");

        let base = SlicePtr { ptr: out.as_mut_ptr() };
        self.run(bounds.len() - 1, &|i| {
            let (lo, hi) = (bounds[i], bounds[i + 1]);
            // SAFETY: bounds are sorted and within `out`, so [lo, hi) is in
            // range and disjoint from every other chunk's range.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.at(lo), hi - lo) };
            f(i, lo, chunk);
        });
    }

    /// Splits `out` into `chunk_len`-sized pieces (last one shorter) and
    /// runs `f(start, chunk)` on every piece in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0` or if `f` panics.
    pub fn par_chunks_uniform<T, F>(&self, out: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk length must be positive");
        let len = out.len();
        if len == 0 {
            return;
        }
        let base = SlicePtr { ptr: out.as_mut_ptr() };
        self.run(len.div_ceil(chunk_len), &|i| {
            let lo = i * chunk_len;
            let hi = (lo + chunk_len).min(len);
            // SAFETY: [lo, hi) ranges of distinct chunk indices are
            // disjoint and within `out`.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.at(lo), hi - lo) };
            f(lo, chunk);
        });
    }

    /// Ordered parallel sum: evaluates `f(range)` for every chunk of the
    /// fixed grid (`chunk_len`-sized pieces of `0..len`) in parallel, then
    /// adds the partial sums **in chunk order** on the calling thread.
    ///
    /// Bit-identical across thread counts because both the grid and the
    /// combine order are independent of scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`, if the grid exceeds
    /// [`MAX_REDUCE_CHUNKS`] chunks, or if `f` panics.
    pub fn par_sum<F>(&self, len: usize, chunk_len: usize, f: F) -> f64
    where
        F: Fn(Range<usize>) -> f64 + Sync,
    {
        if len == 0 {
            return 0.0;
        }
        assert!(chunk_len > 0, "chunk length must be positive");
        let nchunks = len.div_ceil(chunk_len);
        assert!(
            nchunks <= MAX_REDUCE_CHUNKS,
            "reduction grid too fine: {nchunks} chunks (max {MAX_REDUCE_CHUNKS}); \
             use reduce_chunk_len(len)"
        );
        // Fixed stack slots — no allocation on the reduction path.
        let slots: [AtomicU64; MAX_REDUCE_CHUNKS] =
            std::array::from_fn(|_| AtomicU64::new(0f64.to_bits()));
        self.run(nchunks, &|i| {
            let lo = i * chunk_len;
            let hi = (lo + chunk_len).min(len);
            slots[i].store(f(lo..hi).to_bits(), Ordering::Relaxed);
        });
        let mut total = 0.0;
        for slot in slots.iter().take(nchunks) {
            total += f64::from_bits(slot.load(Ordering::Relaxed));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_covers_disjoint_ranges() {
        let pool = ThreadPool::new(4);
        let mut v = vec![0usize; 100];
        let bounds = [0usize, 10, 10, 55, 100];
        pool.par_chunks(&mut v, &bounds, |idx, start, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = 1000 * idx + start + k;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            let idx = if i < 10 {
                0
            } else if i < 55 {
                2
            } else {
                3
            };
            assert_eq!(x, 1000 * idx + i);
        }
    }

    #[test]
    #[should_panic(expected = "partition must cover")]
    fn par_chunks_rejects_short_partition() {
        let pool = ThreadPool::serial();
        let mut v = vec![0.0; 10];
        pool.par_chunks(&mut v, &[0, 5], |_, _, _| {});
    }

    #[test]
    fn par_chunks_uniform_touches_every_element_once() {
        let pool = ThreadPool::new(3);
        let mut v = vec![0u32; 1000];
        pool.par_chunks_uniform(&mut v, 64, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn par_sum_matches_chunked_serial_sum_bitwise() {
        let x: Vec<f64> = (0..50_000).map(|i| ((i * 37 + 11) % 1000) as f64 * 1e-3 - 0.4).collect();
        let chunk = reduce_chunk_len(x.len());
        let serial_chunked: f64 =
            x.chunks(chunk).map(|c| c.iter().sum::<f64>()).fold(0.0, |a, b| a + b);
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let got = pool.par_sum(x.len(), chunk, |r| x[r].iter().sum());
            assert_eq!(got.to_bits(), serial_chunked.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn spmv_splits_only_above_the_nnz_threshold() {
        for threads in [1usize, 2, 8] {
            assert_eq!(spmv_chunks(0, threads), 1);
            assert_eq!(spmv_chunks(PAR_NNZ_THRESHOLD - 1, threads), 1);
        }
        assert_eq!(spmv_chunks(PAR_NNZ_THRESHOLD, 1), 1);
        assert_eq!(spmv_chunks(PAR_NNZ_THRESHOLD, 2), 4);
        assert_eq!(spmv_chunks(10 * PAR_NNZ_THRESHOLD, 8), 16);
    }

    #[test]
    fn reduce_chunk_len_is_pure_in_len() {
        assert_eq!(reduce_chunk_len(1), 4096);
        assert_eq!(reduce_chunk_len(4096 * 128), 4096);
        let len: usize = 10_000_000;
        assert!(len.div_ceil(reduce_chunk_len(len)) <= MAX_REDUCE_CHUNKS);
    }
}
