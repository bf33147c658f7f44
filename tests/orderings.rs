//! Fill-reducing ordering behaviour on real benchmark KKT matrices.

use rsqp::linsys::{KktMatrix, Ldlt, SymmetricPermutation};
use rsqp::problems::{generate, Domain};
use rsqp::solver::{
    kkt_ordering, DirectLdltBackend, KktBackend, KktOrdering, Settings, Solver, Status,
};

fn kkt_fill(domain: Domain, size: usize, ordering: KktOrdering) -> usize {
    let qp = generate(domain, size, 1);
    let rho = vec![0.1; qp.num_constraints()];
    let kkt = KktMatrix::assemble(qp.p(), qp.a(), 1e-6, &rho).unwrap();
    let perm = kkt_ordering(qp.p(), qp.a(), ordering).unwrap();
    let permuted = SymmetricPermutation::new(kkt.matrix(), perm).unwrap();
    Ldlt::factor(permuted.matrix()).expect("KKT is quasi-definite").l_nnz()
}

#[test]
fn min_degree_reduces_fill_on_benchmark_kkt() {
    for (domain, size) in [(Domain::Control, 6), (Domain::Lasso, 8), (Domain::Svm, 8)] {
        let natural = kkt_fill(domain, size, KktOrdering::Natural);
        let md = kkt_fill(domain, size, KktOrdering::MinDegree);
        assert!(md <= natural, "{domain}: min-degree fill {md} vs natural {natural}");
    }
}

#[test]
fn all_orderings_give_identical_solutions() {
    let qp = generate(Domain::Control, 4, 5);
    let mut objectives = Vec::new();
    for ordering in [KktOrdering::Natural, KktOrdering::Rcm, KktOrdering::MinDegree] {
        let settings = Settings { ordering, eps_abs: 1e-6, eps_rel: 1e-6, ..Default::default() };
        let mut s = Solver::new(&qp, settings).unwrap();
        let r = s.solve().unwrap();
        assert_eq!(r.status, Status::Solved, "{ordering:?}");
        objectives.push(r.objective);
    }
    for w in objectives.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-6, "objectives differ: {objectives:?}");
    }
}

#[test]
fn rho_update_refactorizes_correctly_under_permutation() {
    // An equality-heavy problem drives adaptive-rho updates through the
    // permuted refactorization path.
    let qp = generate(Domain::Eqqp, 20, 2);
    let settings = Settings {
        ordering: KktOrdering::MinDegree,
        eps_abs: 1e-6,
        eps_rel: 1e-6,
        ..Default::default()
    };
    let mut s = Solver::new(&qp, settings).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!(qp.primal_infeasibility(&r.x) < 1e-4);
}

#[test]
fn natural_ordering_solves_like_the_unpermuted_factor() {
    // `Natural` takes the same permuted path as the fill-reducing orderings,
    // with the identity permutation. Its KKT solves must be bit-identical to
    // factoring the assembled KKT matrix itself, before and after a ρ
    // refactorization.
    let sigma = 1e-6;
    for domain in Domain::all() {
        let qp = generate(domain, 2, 1);
        let (n, m) = (qp.num_vars(), qp.num_constraints());
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.37).sin()).collect();
        let z: Vec<f64> = (0..m).map(|i| (i as f64 * 0.11).cos()).collect();
        let y: Vec<f64> = (0..m).map(|i| 0.5 - (i % 3) as f64 * 0.25).collect();
        let mut rho = vec![0.1; m];
        let mut backend =
            DirectLdltBackend::with_ordering(qp.p(), qp.a(), sigma, &rho, KktOrdering::Natural)
                .unwrap();
        let mut kkt = KktMatrix::assemble(qp.p(), qp.a(), sigma, &rho).unwrap();
        let mut factor = Ldlt::factor(kkt.matrix()).unwrap();
        for round in 0..2 {
            if round == 1 {
                rho = (0..m).map(|i| 0.1 + i as f64 * 1e-3).collect();
                backend.update_rho(&rho).unwrap();
                kkt.update_rho(&rho).unwrap();
                factor.refactor(kkt.matrix()).unwrap();
            }
            let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
            backend.solve_kkt(&x, &z, &y, qp.q(), &mut xt, &mut zt).unwrap();
            // The backend's right-hand side and z̃ recovery, unpermuted.
            let rho_inv: Vec<f64> = rho.iter().map(|&r| 1.0 / r).collect();
            let mut sol: Vec<f64> = (0..n)
                .map(|j| sigma * x[j] - qp.q()[j])
                .chain((0..m).map(|i| z[i] - rho_inv[i] * y[i]))
                .collect();
            factor.solve_in_place(&mut sol).unwrap();
            let want_z: Vec<f64> =
                (0..m).map(|i| z[i] + rho_inv[i] * (sol[n + i] - y[i])).collect();
            assert_eq!(xt, sol[..n], "{domain}, round {round}");
            assert_eq!(zt, want_z, "{domain}, round {round}");
        }
    }
}
