//! Test oracles: the textbook constructions the production code must match
//! bit for bit.

use rsqp_sparse::CscMatrix;

use super::dense_threshold;

/// Classical minimum degree on a `BTreeSet` elimination graph, with
/// (degree, index) tie-break and dense-vertex deferral.
pub(super) fn min_degree_ordering(upper: &CscMatrix) -> Vec<usize> {
    use std::collections::BTreeSet;

    let n = upper.ncols();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for j in 0..n {
        let (rows, _) = upper.col(j);
        for &i in rows {
            if i != j {
                adj[i].insert(j);
                adj[j].insert(i);
            }
        }
    }
    let dense_cap = dense_threshold(n);
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut deferred: Vec<usize> = Vec::new();

    // A binary heap with lazy invalidation avoids O(n^2) scans.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(usize, usize)>> =
        (0..n).map(|v| std::cmp::Reverse((adj[v].len(), v))).collect();

    while order.len() + deferred.len() < n {
        let v = loop {
            let Some(std::cmp::Reverse((deg, v))) = heap.pop() else {
                // Heap exhausted by stale entries; fall back to a scan.
                break (0..n)
                    .filter(|&u| !eliminated[u])
                    .min_by_key(|&u| adj[u].len())
                    .expect("some vertex remains");
            };
            if eliminated[v] || deg != adj[v].len() {
                continue; // stale heap entry
            }
            break v;
        };
        if adj[v].len() > dense_cap {
            // Defer dense vertices: mark eliminated but order them last.
            eliminated[v] = true;
            deferred.push(v);
            // Remove from neighbours without forming a clique (AMD treats
            // dense rows as if eliminated last).
            let nbrs: Vec<usize> = adj[v].iter().copied().collect();
            for &u in &nbrs {
                adj[u].remove(&v);
                heap.push(std::cmp::Reverse((adj[u].len(), u)));
            }
            adj[v].clear();
            continue;
        }
        eliminated[v] = true;
        order.push(v);
        let nbrs: Vec<usize> = adj[v].iter().copied().collect();
        // Connect neighbours into a clique and drop v.
        for (a_idx, &a) in nbrs.iter().enumerate() {
            adj[a].remove(&v);
            for &b in &nbrs[a_idx + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        for &u in &nbrs {
            heap.push(std::cmp::Reverse((adj[u].len(), u)));
        }
        adj[v].clear();
    }
    deferred.sort_unstable();
    order.extend(deferred);
    order
}

/// `Pᵀ·M·P` (upper triangle) and its source-slot map, built by sorting
/// `(col, row, source index)` triplets.
pub(super) fn symmetric_permutation(upper: &CscMatrix, perm: &[usize]) -> (CscMatrix, Vec<usize>) {
    let n = upper.ncols();
    let iperm = super::inverse_permutation(perm).expect("a permutation");
    let mut entries: Vec<(usize, usize, usize)> = Vec::with_capacity(upper.nnz());
    let mut data_idx = 0usize;
    for j in 0..n {
        let (rows, _) = upper.col(j);
        for &i in rows {
            let (mut pi, mut pj) = (iperm[i], iperm[j]);
            if pi > pj {
                std::mem::swap(&mut pi, &mut pj);
            }
            entries.push((pj, pi, data_idx));
            data_idx += 1;
        }
    }
    entries.sort_unstable();
    let mut colptr = vec![0usize; n + 1];
    let mut rowidx = Vec::with_capacity(entries.len());
    let mut src = Vec::with_capacity(entries.len());
    for &(pj, pi, d) in &entries {
        colptr[pj + 1] += 1;
        rowidx.push(pi);
        src.push(d);
    }
    for j in 0..n {
        colptr[j + 1] += colptr[j];
    }
    let data: Vec<f64> = src.iter().map(|&d| upper.data()[d]).collect();
    (CscMatrix::from_raw_parts(n, n, colptr, rowidx, data).expect("valid CSC"), src)
}
