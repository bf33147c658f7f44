//! Fill-reducing orderings and symmetric permutations.
//!
//! OSQP pairs QDLDL with SuiteSparse AMD. We provide classical minimum
//! degree with dense-row deferral ([`min_degree_ordering`], the closest
//! simple relative of AMD), Reverse-Cuthill-McKee ([`rcm_ordering`]), and
//! the natural ordering as a baseline, plus the [`SymmetricPermutation`]
//! plumbing that applies an ordering to the KKT system while preserving
//! O(nnz) numeric refresh for ρ updates.
//!
//! Minimum degree runs once per sparsity pattern, but on the default
//! (direct LDLᵀ) path it is part of every cold solve, so it is kept close
//! to the factorization's own cost: the elimination graph lives in flat
//! per-vertex hash sets, and clique formation skips neighbour pairs that a
//! previous clique already connected. It stays *exact*: the output equals
//! classical minimum degree with a (degree, index) tie-break, which the
//! unit tests check against a `BTreeSet` elimination graph on every
//! benchmark family and on random graphs. [`SymmetricPermutation::new`]
//! buckets entries with two counting passes, O(n + nnz).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use rsqp_sparse::CscMatrix;

use crate::LinsysError;

#[cfg(test)]
mod reference;

/// Computes a Reverse-Cuthill-McKee ordering of the symmetric matrix whose
/// upper triangle is `upper`.
///
/// Returns `perm` such that new index `i` corresponds to old index
/// `perm[i]`. Disconnected components are each seeded from their
/// minimum-degree vertex.
///
/// # Errors
///
/// Returns [`LinsysError::Dimension`] if `upper` is not square.
pub fn rcm_ordering(upper: &CscMatrix) -> Result<Vec<usize>, LinsysError> {
    let n = upper.ncols();
    if upper.nrows() != n {
        return Err(LinsysError::Dimension(format!(
            "rcm_ordering requires a square matrix, got {}x{}",
            upper.nrows(),
            n
        )));
    }
    // Build a full (symmetric) adjacency list from the upper triangle.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        let (rows, _) = upper.col(j);
        for &i in rows {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();

    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Stable iteration over candidate seeds sorted by degree.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&v| degree[v]);
    for &seed in &seeds {
        if visited[seed] {
            continue;
        }
        // BFS, visiting neighbours in increasing degree order.
        visited[seed] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            nbrs.sort_by_key(|&u| degree[u]);
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Ok(order)
}

/// Inverts a permutation: `inv[perm[i]] == i`.
///
/// # Errors
///
/// Returns [`LinsysError::InvalidPermutation`] if `perm` is not a
/// permutation of `0..perm.len()`.
pub fn inverse_permutation(perm: &[usize]) -> Result<Vec<usize>, LinsysError> {
    let n = perm.len();
    let mut inv = vec![usize::MAX; n];
    for (i, &p) in perm.iter().enumerate() {
        if p >= n || inv[p] != usize::MAX {
            return Err(LinsysError::InvalidPermutation(format!(
                "index {p} at position {i} is out of range or repeated"
            )));
        }
        inv[p] = i;
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_sparse::CsrMatrix;

    fn upper_of(dense: &[Vec<f64>]) -> CscMatrix {
        CsrMatrix::from_dense(dense).upper_triangle().to_csc()
    }

    #[test]
    fn rcm_is_a_permutation() {
        // Path graph 0-1-2-3-4 given in scrambled labels.
        let n = 5;
        let edges = [(0usize, 3usize), (3, 1), (1, 4), (4, 2)];
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 1.0;
        }
        for &(a, b) in &edges {
            dense[a][b] = 1.0;
            dense[b][a] = 1.0;
        }
        let perm = rcm_ordering(&upper_of(&dense)).unwrap();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth_of_scrambled_path() {
        // A path graph has bandwidth 1 under the RCM ordering.
        let n = 9;
        // scrambled path: vertices relabeled by i -> (4*i) % 9 (coprime)
        let label = |i: usize| (4 * i) % n;
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 1.0;
        }
        for i in 0..n - 1 {
            let (a, b) = (label(i), label(i + 1));
            dense[a][b] = 1.0;
            dense[b][a] = 1.0;
        }
        let perm = rcm_ordering(&upper_of(&dense)).unwrap();
        let inv = inverse_permutation(&perm).unwrap();
        let mut bandwidth = 0usize;
        for i in 0..n - 1 {
            let (a, b) = (label(i), label(i + 1));
            bandwidth = bandwidth.max(inv[a].abs_diff(inv[b]));
        }
        assert_eq!(bandwidth, 1, "perm {perm:?} did not linearize the path");
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let n = 4;
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 1.0;
        }
        dense[0][1] = 1.0;
        dense[1][0] = 1.0;
        let perm = rcm_ordering(&upper_of(&dense)).unwrap();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn inverse_permutation_roundtrip() {
        let perm = vec![2, 0, 3, 1];
        let inv = inverse_permutation(&perm).unwrap();
        for i in 0..perm.len() {
            assert_eq!(inv[perm[i]], i);
        }
    }

    #[test]
    fn inverse_of_non_permutation_is_an_error() {
        assert!(matches!(inverse_permutation(&[0, 0]), Err(LinsysError::InvalidPermutation(_))));
    }
}

/// Computes a minimum-degree ordering of the symmetric matrix whose upper
/// triangle is `upper` — our stand-in for SuiteSparse AMD (see `DESIGN.md`).
///
/// Classical minimum degree on the elimination graph: repeatedly eliminate
/// the live vertex of smallest (current degree, index) and connect its
/// neighbours into a clique. Vertices whose degree exceeds
/// `dense_threshold(n)` when they are picked are deferred instead (AMD's
/// dense-row handling), which keeps the clique formation from going
/// quadratic on nearly-dense rows; they are appended in index order. The
/// degrees are exact, so the permutation is the one any textbook
/// implementation of this rule returns (the unit tests check it against a
/// `BTreeSet` elimination graph).
///
/// Cost: one hash set of live neighbours per vertex, built in O(nnz).
/// Eliminating a pivot of degree `d` sorts its neighbours by clique stamp
/// (O(d log d)), inserts one edge per neighbour pair from *different*
/// stamps (at most `d²`, usually far fewer), and pushes a heap entry for
/// each neighbour whose degree changed (O(log n) each).
///
/// Returns `perm` such that new index `i` corresponds to old index
/// `perm[i]`.
///
/// # Errors
///
/// Returns [`LinsysError::Dimension`] if `upper` is not square or has more
/// than `u32::MAX` columns.
pub fn min_degree_ordering(upper: &CscMatrix) -> Result<Vec<usize>, LinsysError> {
    let n = upper.ncols();
    if upper.nrows() != n {
        return Err(LinsysError::Dimension(format!(
            "min_degree_ordering requires a square matrix, got {}x{}",
            upper.nrows(),
            n
        )));
    }
    if u32::try_from(n).is_err() {
        return Err(LinsysError::Dimension(format!(
            "min_degree_ordering supports at most {} vertices, got {n}",
            u32::MAX
        )));
    }
    let mut degree = vec![0usize; n];
    for j in 0..n {
        for &i in upper.col(j).0 {
            if i != j {
                degree[i] += 1;
                degree[j] += 1;
            }
        }
    }
    let mut adj: Vec<Neighbours> = degree
        .iter()
        .map(|&d| Neighbours::with_capacity_and_hasher(d, Default::default()))
        .collect();
    for j in 0..n {
        for &i in upper.col(j).0 {
            if i != j {
                adj[i].insert(j as u32);
                adj[j].insert(i as u32);
            }
        }
    }
    let dense_cap = dense_threshold(n);
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut deferred: Vec<usize> = Vec::new();
    // `clique[u]` is the last pivot whose neighbourhood `u` joined (or the
    // unique value `n + u` before any): live vertices with the same stamp
    // are pairwise adjacent already, because edges between live vertices
    // are never removed.
    let mut clique: Vec<usize> = (n..2 * n).collect();
    let mut nbrs: Vec<u32> = Vec::new();
    // Every live vertex always has an entry holding its current degree;
    // entries whose vertex was eliminated or whose degree changed are stale.
    let mut heap: BinaryHeap<Reverse<u64>> = (0..n).map(|v| heap_key(adj[v].len(), v)).collect();

    while let Some(Reverse(key)) = heap.pop() {
        let (deg, v) = ((key >> 32) as usize, (key & u64::from(u32::MAX)) as usize);
        if eliminated[v] || deg != adj[v].len() {
            continue;
        }
        eliminated[v] = true;
        nbrs.clear();
        nbrs.extend(std::mem::take(&mut adj[v]));
        if deg > dense_cap {
            // Defer dense vertices: drop them from the graph without forming
            // a clique (AMD treats dense rows as if eliminated last).
            deferred.push(v);
            for &u in &nbrs {
                let u = u as usize;
                adj[u].remove(&(v as u32));
                heap.push(heap_key(adj[u].len(), u));
            }
            continue;
        }
        order.push(v);
        // Connect the neighbours into a clique and drop v: each stamp group
        // is a clique already, so only pairs across groups need an edge.
        nbrs.sort_unstable_by_key(|&u| clique[u as usize]);
        let mut start = 0;
        while start < nbrs.len() {
            let stamp = clique[nbrs[start] as usize];
            let end =
                start + nbrs[start..].iter().take_while(|&&u| clique[u as usize] == stamp).count();
            for &a in &nbrs[start..end] {
                let set = &mut adj[a as usize];
                let before = set.len();
                set.remove(&(v as u32));
                for &b in nbrs[..start].iter().chain(&nbrs[end..]) {
                    set.insert(b);
                }
                if set.len() != before {
                    heap.push(heap_key(set.len(), a as usize));
                }
                clique[a as usize] = v;
            }
            start = end;
        }
    }
    deferred.sort_unstable();
    order.extend(deferred);
    Ok(order)
}

/// Live neighbours of one vertex in the elimination graph.
type Neighbours = HashSet<u32, BuildHasherDefault<IndexHasher>>;

/// Min-heap key ordering by (degree, vertex); both fit in 32 bits.
fn heap_key(degree: usize, v: usize) -> Reverse<u64> {
    Reverse(((degree as u64) << 32) | v as u64)
}

/// Multiplicative (Fx-style) hasher for vertex ids: one add and one
/// multiply per word. The keys are small dense integers chosen by us, so
/// SipHash's flooding resistance buys nothing and would dominate the cost
/// of every set operation.
#[derive(Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = self.0.wrapping_add(i).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits; the product's best
        // mixed bits are the high ones.
        self.0.rotate_left(26)
    }
}

fn dense_threshold(n: usize) -> usize {
    // AMD uses ~10·sqrt(n); anything denser is deferred.
    (10.0 * (n as f64).sqrt()).ceil() as usize + 16
}

/// Stable counting sort: returns the items of `order` (indices into `keys`,
/// each key `< buckets`) sorted by key, ties kept in `order`'s sequence.
fn counting_order(
    keys: &[usize],
    order: impl IntoIterator<Item = usize>,
    buckets: usize,
) -> Vec<usize> {
    let mut next = vec![0usize; buckets + 1];
    for &k in keys {
        next[k + 1] += 1;
    }
    for b in 0..buckets {
        next[b + 1] += next[b];
    }
    let mut out = vec![0usize; keys.len()];
    for d in order {
        let k = keys[d];
        out[next[k]] = d;
        next[k] += 1;
    }
    out
}

/// A symmetric permutation of an upper-triangular matrix, with the data-slot
/// mapping needed to refresh numeric values in place (for ρ updates that
/// change values but not structure).
#[derive(Debug, Clone)]
pub struct SymmetricPermutation {
    perm: Vec<usize>,
    iperm: Vec<usize>,
    mat: CscMatrix,
    /// `src[k]` = index into the *original* data array whose value belongs
    /// at permuted data slot `k`.
    src: Vec<usize>,
}

impl SymmetricPermutation {
    /// Builds `Pᵀ·M·P` (upper triangle) for the symmetric matrix whose
    /// upper triangle is `upper`, where new index `i` = old `perm[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if `upper` is not square or its
    /// size differs from `perm.len()`, and
    /// [`LinsysError::InvalidPermutation`] if `perm` is not a permutation.
    pub fn new(upper: &CscMatrix, perm: Vec<usize>) -> Result<Self, LinsysError> {
        let n = upper.ncols();
        if upper.nrows() != n {
            return Err(LinsysError::Dimension(format!(
                "symmetric permutation requires square input, got {}x{}",
                upper.nrows(),
                n
            )));
        }
        if perm.len() != n {
            return Err(LinsysError::Dimension(format!(
                "permutation length {} does not match matrix dimension {n}",
                perm.len()
            )));
        }
        let iperm = inverse_permutation(&perm)?;
        // Permuted (row ≤ col) coordinates of every stored entry, indexed by
        // its position in the source data array.
        let nnz = upper.nnz();
        let mut prow = Vec::with_capacity(nnz);
        let mut pcol = Vec::with_capacity(nnz);
        for j in 0..n {
            for &i in upper.col(j).0 {
                let (pi, pj) = (iperm[i], iperm[j]);
                prow.push(pi.min(pj));
                pcol.push(pi.max(pj));
            }
        }
        // Two stable counting passes (by row, then by column) order the
        // entries by (col, row, source index) in O(n + nnz).
        let by_row = counting_order(&prow, 0..nnz, n);
        let src = counting_order(&pcol, by_row, n);
        let mut colptr = vec![0usize; n + 1];
        for &c in &pcol {
            colptr[c + 1] += 1;
        }
        for j in 0..n {
            colptr[j + 1] += colptr[j];
        }
        let rowidx: Vec<usize> = src.iter().map(|&d| prow[d]).collect();
        let data: Vec<f64> = src.iter().map(|&d| upper.data()[d]).collect();
        let mat = CscMatrix::from_raw_parts(n, n, colptr, rowidx, data)?;
        Ok(SymmetricPermutation { perm, iperm, mat, src })
    }

    /// The permuted upper-triangular matrix.
    pub fn matrix(&self) -> &CscMatrix {
        &self.mat
    }

    /// The permutation (new → old).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Copies fresh numeric values from the (structurally identical)
    /// original matrix into the permuted one.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if `upper` has a different nnz
    /// count than the original (the structure changed).
    pub fn refresh_values(&mut self, upper: &CscMatrix) -> Result<(), LinsysError> {
        if upper.nnz() != self.src.len() {
            return Err(LinsysError::Dimension(format!(
                "refresh_values structure changed: {} nnz vs original {}",
                upper.nnz(),
                self.src.len()
            )));
        }
        let data = self.mat.data_mut();
        for (k, &d) in self.src.iter().enumerate() {
            data[k] = upper.data()[d];
        }
        Ok(())
    }

    /// Permutes a vector into the reordered space (`out[i] = v[perm[i]]`).
    pub fn permute_vec(&self, v: &[f64]) -> Vec<f64> {
        self.perm.iter().map(|&p| v[p]).collect()
    }

    /// Maps a reordered-space vector back (`out[perm[i]] = v[i]`).
    pub fn unpermute_vec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; v.len()];
        for (i, &p) in self.perm.iter().enumerate() {
            out[p] = v[i];
        }
        out
    }

    /// In-place variant of [`Self::permute_vec`] using a scratch buffer.
    pub fn permute_into(&self, v: &[f64], out: &mut [f64]) {
        for (o, &p) in out.iter_mut().zip(&self.perm) {
            *o = v[p];
        }
    }

    /// In-place variant of [`Self::unpermute_vec`].
    pub fn unpermute_into(&self, v: &[f64], out: &mut [f64]) {
        for (i, &p) in self.perm.iter().enumerate() {
            out[p] = v[i];
        }
    }

    /// Inverse permutation (old → new).
    pub fn iperm(&self) -> &[usize] {
        &self.iperm
    }
}

#[cfg(test)]
mod md_tests {
    use super::*;
    use proptest::prelude::*;
    use rsqp_problems::{generate, Domain};
    use rsqp_sparse::CsrMatrix;

    /// Upper triangle of the symmetric pattern with a unit diagonal and the
    /// given off-diagonal edges (self-loops and duplicates are harmless).
    fn graph(n: usize, edges: &[(usize, usize)]) -> CscMatrix {
        let mut t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 4.0)).collect();
        for &(a, b) in edges {
            t.push((a.min(b), a.max(b), 1.0));
        }
        CsrMatrix::from_triplets(n, n, t).upper_triangle().to_csc()
    }

    /// The ordering and the permuted matrix both equal their oracles.
    fn check_against_reference(upper: &CscMatrix) -> Result<(), TestCaseError> {
        let perm = min_degree_ordering(upper).unwrap();
        prop_assert_eq!(&perm, &reference::min_degree_ordering(upper));
        // Also permute by an unrelated (reversed) ordering.
        let reversed: Vec<usize> = perm.iter().rev().copied().collect();
        for p in [perm, reversed] {
            let sym = SymmetricPermutation::new(upper, p.clone()).unwrap();
            let (mat, src) = reference::symmetric_permutation(upper, &p);
            prop_assert_eq!(sym.matrix(), &mat);
            prop_assert_eq!(&sym.src, &src);
        }
        Ok(())
    }

    #[test]
    fn families_match_the_reference() {
        // The benchmark's fixed instance seed and a second one; instances of
        // one (family, size) share their pattern, so both must agree.
        for seed in [0x5253_5150, 7] {
            for domain in Domain::all() {
                for (i, &size) in domain.size_schedule(20)[..=12].iter().enumerate() {
                    let qp = generate(domain, size, seed + i as u64);
                    let rho = vec![1.0; qp.a().nrows()];
                    let kkt = crate::KktMatrix::assemble(qp.p(), qp.a(), 1.0, &rho).unwrap();
                    if let Err(e) = check_against_reference(kkt.matrix()) {
                        panic!("{} size {size} seed {seed}: {e}", domain.name());
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_sizes_match_the_reference() {
        for upper in [graph(0, &[]), graph(1, &[]), graph(1, &[(0, 0)]), graph(2, &[(0, 1)])] {
            check_against_reference(&upper).unwrap();
        }
        assert_eq!(min_degree_ordering(&graph(0, &[])).unwrap(), Vec::<usize>::new());
        assert_eq!(min_degree_ordering(&graph(1, &[])).unwrap(), vec![0]);
    }

    // Random edges over `n` vertices; endpoints are reduced modulo `n`.
    fn random_graph(n: usize, edges: Vec<(u64, u64)>) -> CscMatrix {
        let edges: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(a, b)| ((a % n as u64) as usize, (b % n as u64) as usize))
            .collect();
        graph(n, &edges)
    }

    fn clique(n: usize) -> CscMatrix {
        let edges: Vec<(usize, usize)> =
            (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect();
        graph(n, &edges)
    }

    // Graphs whose minimum degree exceeds `dense_threshold`: the deferral
    // path runs until the degrees fall to the cap, then large cliques form.
    fn arb_dense_graph() -> impl Strategy<Value = CscMatrix> {
        prop_oneof![
            // A nearly complete core with a sparse rim: once the rim is gone
            // every vertex is above `dense_threshold`, so the deferral path
            // runs before the rest of the core is eliminated.
            (200usize..240, 0usize..30, any::<u64>()).prop_map(|(core, rim, seed)| {
                let s = seed as usize % 1000;
                let mut edges = Vec::new();
                for a in 0..core {
                    for b in a + 1..core {
                        if !(a * 131 + b * 7919 + s).is_multiple_of(30) {
                            edges.push((a, b));
                        }
                    }
                }
                for r in 0..rim {
                    edges.push((core + r, (s + 13 * r) % (core + rim)));
                    edges.push((core + r, (s + 29 * r) % core));
                }
                graph(core + rim, &edges)
            }),
            (160usize..220).prop_map(clique),
        ]
    }

    fn arb_graph() -> impl Strategy<Value = CscMatrix> {
        prop_oneof![
            // Sparse random graphs, often disconnected.
            (1usize..120).prop_flat_map(|n| {
                prop::collection::vec((any::<u64>(), any::<u64>()), 0..3 * n)
                    .prop_map(move |e| random_graph(n, e))
            }),
            // Two random components side by side.
            (1usize..60, 1usize..60, prop::collection::vec((any::<u64>(), any::<u64>()), 0..150))
                .prop_map(|(n1, n2, e)| {
                    let mut edges = Vec::new();
                    for (k, &(a, b)) in e.iter().enumerate() {
                        let (base, size) = if k % 2 == 0 { (0, n1) } else { (n1, n2) };
                        let s = size as u64;
                        edges.push((base + (a % s) as usize, base + (b % s) as usize));
                    }
                    graph(n1 + n2, &edges)
                }),
            // Stars around a random hub.
            (1usize..400, any::<u64>()).prop_map(|(n, h)| {
                let hub = (h % n as u64) as usize;
                graph(n, &(0..n).map(|u| (hub, u)).collect::<Vec<_>>())
            }),
            // Small cliques.
            (1usize..40).prop_map(clique),
            // Diagonal only.
            (0usize..50).prop_map(|n| graph(n, &[])),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn min_degree_matches_the_reference(upper in arb_graph()) {
            check_against_reference(&upper)?;
        }
    }

    proptest! {
        // Each case eliminates cliques of ~150 vertices in the reference.
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn dense_graphs_match_the_reference(upper in arb_dense_graph()) {
            check_against_reference(&upper)?;
        }
    }

    fn upper_of(dense: &[Vec<f64>]) -> CscMatrix {
        CsrMatrix::from_dense(dense).upper_triangle().to_csc()
    }

    /// Arrow matrix with the dense row/column FIRST: natural ordering fills
    /// in completely, minimum degree orders the hub last and gets zero fill.
    fn bad_arrow(n: usize) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 4.0;
            if i > 0 {
                dense[0][i] = 1.0;
                dense[i][0] = 1.0;
            }
        }
        dense
    }

    fn fill_of(upper: &CscMatrix, perm: Option<Vec<usize>>) -> usize {
        let mat = match perm {
            Some(p) => SymmetricPermutation::new(upper, p).unwrap().matrix().clone(),
            None => upper.clone(),
        };
        crate::Ldlt::factor(&mat).expect("SPD input factors").l_nnz()
    }

    #[test]
    fn min_degree_is_a_permutation() {
        let u = upper_of(&bad_arrow(12));
        let perm = min_degree_ordering(&u).unwrap();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn min_degree_eliminates_arrow_fill() {
        let n = 24;
        let u = upper_of(&bad_arrow(n));
        let natural = fill_of(&u, None);
        let md = fill_of(&u, Some(min_degree_ordering(&u).unwrap()));
        // Natural: eliminating the hub first fills the whole matrix.
        assert_eq!(natural, (n * (n - 1)) / 2);
        // MD: hub eliminated last -> only the arrow edges remain.
        assert_eq!(md, n - 1, "minimum degree should avoid all fill");
    }

    #[test]
    fn min_degree_never_worse_than_natural_on_benchmarks() {
        // Tridiagonal plus random long-range edges.
        let n = 30;
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 6.0;
            if i + 1 < n {
                dense[i][i + 1] = 1.0;
                dense[i + 1][i] = 1.0;
            }
            let far = (i * 7 + 3) % n;
            if far != i {
                dense[i][far] = 0.5;
                dense[far][i] = 0.5;
            }
        }
        let u = upper_of(&dense);
        let natural = fill_of(&u, None);
        let md = fill_of(&u, Some(min_degree_ordering(&u).unwrap()));
        assert!(md <= natural, "md {md} vs natural {natural}");
    }

    #[test]
    fn symmetric_permutation_preserves_solutions() {
        let n = 10;
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 5.0 + i as f64;
            if i + 2 < n {
                dense[i][i + 2] = -1.0;
                dense[i + 2][i] = -1.0;
            }
        }
        let u = upper_of(&dense);
        let perm = min_degree_ordering(&u).unwrap();
        let sp = SymmetricPermutation::new(&u, perm).unwrap();
        let f = crate::Ldlt::factor(sp.matrix()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let pb = sp.permute_vec(&b);
        let px = f.solve(&pb).unwrap();
        let x = sp.unpermute_vec(&px);
        // Check A x = b against the original dense matrix.
        for i in 0..n {
            let got: f64 = (0..n).map(|j| dense[i][j] * x[j]).sum();
            assert!((got - b[i]).abs() < 1e-9, "row {i}: {got} vs {}", b[i]);
        }
    }

    #[test]
    fn refresh_values_tracks_source_matrix() {
        let u = upper_of(&bad_arrow(6));
        let perm = min_degree_ordering(&u).unwrap();
        let mut sp = SymmetricPermutation::new(&u, perm).unwrap();
        // Scale the original values and refresh.
        let mut u2 = u.clone();
        for v in u2.data_mut() {
            *v *= 3.0;
        }
        sp.refresh_values(&u2).unwrap();
        let rebuilt = SymmetricPermutation::new(&u2, sp.perm().to_vec()).unwrap();
        assert_eq!(sp.matrix(), rebuilt.matrix());
    }

    #[test]
    fn permute_roundtrip() {
        let u = upper_of(&bad_arrow(5));
        let sp = SymmetricPermutation::new(&u, vec![4, 2, 0, 1, 3]).unwrap();
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(sp.unpermute_vec(&sp.permute_vec(&v)), v);
        let mut buf = vec![0.0; 5];
        sp.permute_into(&v, &mut buf);
        assert_eq!(buf, sp.permute_vec(&v));
        let mut back = vec![0.0; 5];
        sp.unpermute_into(&buf, &mut back);
        assert_eq!(back, v);
    }

    #[test]
    fn star_hub_is_eliminated_near_the_end() {
        // Star graph: the hub always has the largest degree, so minimum
        // degree eliminates it among the last two vertices.
        let n = 60;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((0, i, 1.0));
                t.push((i, 0, 1.0));
            }
        }
        let u = CsrMatrix::from_triplets(n, n, t).upper_triangle().to_csc();
        let perm = min_degree_ordering(&u).unwrap();
        let hub_pos = perm.iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= n - 2, "hub at position {hub_pos} of {n}");
    }

    #[test]
    fn dense_clique_vertices_are_deferred() {
        // A complete graph bigger than the dense threshold: every vertex is
        // dense at pop time, so all are deferred and emitted in index order.
        let n = 200;
        let mut t = Vec::new();
        for i in 0..n {
            for j in 0..n {
                t.push((i, j, 1.0));
            }
        }
        let u = CsrMatrix::from_triplets(n, n, t).upper_triangle().to_csc();
        let perm = min_degree_ordering(&u).unwrap();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        // Vertex 0 is popped first while dense, hence deferred to the tail.
        let pos0 = perm.iter().position(|&v| v == 0).unwrap();
        assert!(pos0 > n / 2, "vertex 0 should be deferred, found at {pos0}");
    }
}
