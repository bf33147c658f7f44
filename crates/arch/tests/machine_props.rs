//! Property-based machine tests: random vector-engine and SpMV programs
//! must compute exactly what a direct reference evaluation computes, and
//! cycle counts must be deterministic.

use proptest::prelude::*;
use rsqp_arch::{ArchConfig, Instr, Machine, ProgramBuilder, ScalarOp};
use rsqp_sparse::CsrMatrix;

/// A tiny reference interpreter over three vectors, four scalars and one
/// square sparse matrix (dense rows, zeros skipped).
#[derive(Clone)]
struct Ref {
    vecs: Vec<Vec<f64>>,
    sregs: Vec<f64>,
    mat: Vec<Vec<f64>>,
}

/// A 4×4 matrix with values from `vals` on a fixed pattern: a full
/// diagonal plus off-diagonal entries, two or three non-zeros per row.
fn matrix(vals: &[f64]) -> Vec<Vec<f64>> {
    (0..4)
        .map(|i| {
            (0..4)
                .map(|j| if i == j || (i + 2 * j) % 3 == 1 { vals[4 * i + j] } else { 0.0 })
                .collect()
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Lincomb {
        dst: usize,
        alpha: usize,
        a: usize,
        beta: usize,
        b: usize,
    },
    EwMul {
        dst: usize,
        a: usize,
        b: usize,
    },
    EwMax {
        dst: usize,
        a: usize,
        b: usize,
    },
    EwMin {
        dst: usize,
        a: usize,
        b: usize,
    },
    Dot {
        dst: usize,
        a: usize,
        b: usize,
    },
    Scalar {
        op: ScalarOp,
        dst: usize,
        a: usize,
        b: usize,
    },
    /// `Duplicate` of `input` into the matrix's CVB, then `Spmv`; `output`
    /// may be `input`.
    Spmv {
        input: usize,
        output: usize,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let v = 0usize..3;
    let s = 0usize..4;
    prop_oneof![
        (v.clone(), s.clone(), v.clone(), s.clone(), v.clone())
            .prop_map(|(dst, alpha, a, beta, b)| Op::Lincomb { dst, alpha, a, beta, b }),
        (v.clone(), v.clone(), v.clone()).prop_map(|(dst, a, b)| Op::EwMul { dst, a, b }),
        (v.clone(), v.clone(), v.clone()).prop_map(|(dst, a, b)| Op::EwMax { dst, a, b }),
        (v.clone(), v.clone(), v.clone()).prop_map(|(dst, a, b)| Op::EwMin { dst, a, b }),
        (s.clone(), v.clone(), v.clone()).prop_map(|(dst, a, b)| Op::Dot { dst, a, b }),
        (
            prop::sample::select(vec![ScalarOp::Add, ScalarOp::Sub, ScalarOp::Mul, ScalarOp::Max]),
            s.clone(),
            s.clone(),
            s
        )
            .prop_map(|(op, dst, a, b)| Op::Scalar { op, dst, a, b }),
        (v.clone(), v).prop_map(|(input, output)| Op::Spmv { input, output }),
    ]
}

impl Ref {
    fn apply(&mut self, op: Op) {
        let n = self.vecs[0].len();
        match op {
            Op::Lincomb { dst, alpha, a, beta, b } => {
                for k in 0..n {
                    let v =
                        self.sregs[alpha] * self.vecs[a][k] + self.sregs[beta] * self.vecs[b][k];
                    self.vecs[dst][k] = v;
                }
            }
            Op::EwMul { dst, a, b } => {
                for k in 0..n {
                    self.vecs[dst][k] = self.vecs[a][k] * self.vecs[b][k];
                }
            }
            Op::EwMax { dst, a, b } => {
                for k in 0..n {
                    self.vecs[dst][k] = self.vecs[a][k].max(self.vecs[b][k]);
                }
            }
            Op::EwMin { dst, a, b } => {
                for k in 0..n {
                    self.vecs[dst][k] = self.vecs[a][k].min(self.vecs[b][k]);
                }
            }
            Op::Dot { dst, a, b } => {
                self.sregs[dst] = (0..n).map(|k| self.vecs[a][k] * self.vecs[b][k]).sum();
            }
            Op::Scalar { op, dst, a, b } => {
                let (x, y) = (self.sregs[a], self.sregs[b]);
                self.sregs[dst] = match op {
                    ScalarOp::Add => x + y,
                    ScalarOp::Sub => x - y,
                    ScalarOp::Mul => x * y,
                    ScalarOp::Div => x / y,
                    ScalarOp::Max => x.max(y),
                };
            }
            Op::Spmv { input, output } => {
                let x = self.vecs[input].clone();
                for (i, row) in self.mat.iter().enumerate() {
                    let mut acc = 0.0;
                    for (&v, &xj) in row.iter().zip(&x) {
                        if v != 0.0 {
                            acc += v * xj;
                        }
                    }
                    self.vecs[output][i] = acc;
                }
            }
        }
    }
}

/// The machine instructions of `op` over the allocated registers.
fn instrs(
    op: Op,
    vids: &[rsqp_arch::VecId],
    sids: &[rsqp_arch::SReg],
    mat: rsqp_arch::MatrixId,
) -> Vec<Instr> {
    vec![match op {
        Op::Lincomb { dst, alpha, a, beta, b } => Instr::Lincomb {
            dst: vids[dst],
            alpha: sids[alpha],
            a: vids[a],
            beta: sids[beta],
            b: vids[b],
        },
        Op::EwMul { dst, a, b } => Instr::EwMul { dst: vids[dst], a: vids[a], b: vids[b] },
        Op::EwMax { dst, a, b } => Instr::EwMax { dst: vids[dst], a: vids[a], b: vids[b] },
        Op::EwMin { dst, a, b } => Instr::EwMin { dst: vids[dst], a: vids[a], b: vids[b] },
        Op::Dot { dst, a, b } => Instr::Dot { dst: sids[dst], a: vids[a], b: vids[b] },
        Op::Scalar { op, dst, a, b } => {
            Instr::Scalar { op, dst: sids[dst], a: sids[a], b: sids[b] }
        }
        Op::Spmv { input, output } => {
            return vec![
                Instr::Duplicate { vec: vids[input], matrix: mat },
                Instr::Spmv { matrix: mat, input: vids[input], output: vids[output] },
            ]
        }
    }]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn machine_matches_reference_interpreter(
        ops in prop::collection::vec(arb_op(), 1..25),
        init in prop::collection::vec(-4.0f64..4.0, 12),
        sinit in prop::collection::vec(-2.0f64..2.0, 4),
        minit in prop::collection::vec(0.5f64..3.0, 16),
    ) {
        let n = 4;
        let mut machine = Machine::new(ArchConfig::baseline(4));
        let vids: Vec<_> = (0..3).map(|_| machine.alloc_vec(n)).collect();
        let sids: Vec<_> = (0..4).map(|_| machine.alloc_scalar()).collect();
        let dense = matrix(&minit);
        let mat = machine.add_matrix(&CsrMatrix::from_dense(&dense));
        let mut reference = Ref {
            vecs: init.chunks(n).map(|c| c.to_vec()).collect(),
            sregs: sinit.clone(),
            mat: dense,
        };
        for (i, vid) in vids.iter().enumerate() {
            machine.write_vec(*vid, &reference.vecs[i]);
        }
        for (i, sid) in sids.iter().enumerate() {
            machine.write_scalar(*sid, reference.sregs[i]);
        }

        let mut pb = ProgramBuilder::new();
        let mut pushed = 0;
        for &op in &ops {
            for instr in instrs(op, &vids, &sids, mat) {
                pb.push(instr);
                pushed += 1;
            }
            reference.apply(op);
        }
        let program = pb.build().expect("no loops");
        machine.run(&program).expect("valid program");

        for (i, vid) in vids.iter().enumerate() {
            let got = machine.read_vec(*vid);
            for k in 0..n {
                prop_assert_eq!(got[k].to_bits(), reference.vecs[i][k].to_bits(),
                    "vec {} elem {}", i, k);
            }
        }
        for (i, sid) in sids.iter().enumerate() {
            prop_assert_eq!(machine.read_scalar(*sid).to_bits(), reference.sregs[i].to_bits(),
                "scalar {}", i);
        }
        prop_assert_eq!(machine.stats().instructions as usize, pushed);
    }

    #[test]
    fn cycle_counts_are_deterministic(ops in prop::collection::vec(arb_op(), 1..15)) {
        let run = || {
            let mut machine = Machine::new(ArchConfig::baseline(8));
            let vids: Vec<_> = (0..3).map(|_| machine.alloc_vec(8)).collect();
            let sids: Vec<_> = (0..4).map(|_| machine.alloc_scalar()).collect();
            let mat = machine.add_matrix(&CsrMatrix::identity(8));
            let mut pb = ProgramBuilder::new();
            for &op in &ops {
                for instr in instrs(op, &vids, &sids, mat) {
                    pb.push(instr);
                }
            }
            let program = pb.build().expect("no loops");
            machine.run(&program).expect("valid");
            machine.stats().cycles
        };
        prop_assert_eq!(run(), run());
    }
}
