//! Architecture configuration and the cycle-cost model.

use rsqp_encode::{Alphabet, StructureSet};

/// How the compressed vector buffers are organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CvbPolicy {
    /// First-Fit compressed layout (the customized design, §4.3).
    #[default]
    FirstFit,
    /// `C` full copies of the vector (the paper's baseline design:
    /// "C copies of the vector were stored in CVB", §5.2).
    FullDuplication,
}

/// Per-instruction-class fixed latencies, in cycles.
///
/// These model pipeline fill, instruction fetch/decode, and result
/// write-back of the corresponding hardware units. The streaming *throughput*
/// terms (`⌈L/C⌉`, scheduled pack count, compressed address count) are added
/// on top by the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed overhead of a vector-engine instruction.
    pub vector_latency: u64,
    /// Fixed overhead of an SpMV instruction (MAC-tree depth + alignment
    /// drain).
    pub spmv_latency: u64,
    /// Fixed overhead of a vector-duplication instruction.
    pub dup_latency: u64,
    /// Latency of a scalar ALU instruction.
    pub scalar_latency: u64,
    /// Latency of the loop-control instruction.
    pub control_latency: u64,
    /// Fixed overhead of an HBM transfer instruction.
    pub transfer_latency: u64,
    /// Extra cycles per dot product for the reduction drain.
    pub dot_drain: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            vector_latency: 12,
            spmv_latency: 40,
            dup_latency: 12,
            scalar_latency: 8,
            control_latency: 4,
            transfer_latency: 24,
            dot_drain: 16,
        }
    }
}

/// Deterministic, seed-driven fault injection for the cycle-level machine.
///
/// Models single-event upsets as single-bit flips in the IEEE-754
/// representation of a datum. Two strike sites are modeled, matching where
/// the real accelerator's data actually moves:
///
/// * **HBM reads** — each [`crate::Instr::LoadHbm`] flips one uniformly
///   chosen bit of one uniformly chosen element of the transferred vector
///   with probability `hbm_read_flip_prob`;
/// * **MAC outputs** — each [`crate::Instr::Spmv`] flips one bit of one
///   element of the freshly computed output vector with probability
///   `mac_output_flip_prob`.
///
/// All randomness comes from a SplitMix64 stream seeded by `seed`, so a
/// given (program, config, seed) triple reproduces the exact same fault
/// pattern on every run — a requirement for regression-testing the solve
/// pipeline's recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Per-`LoadHbm` probability of corrupting the transferred vector.
    pub hbm_read_flip_prob: f64,
    /// Per-`Spmv` probability of corrupting the output vector.
    pub mac_output_flip_prob: f64,
}

impl FaultConfig {
    /// A fault stream with the given seed and zero strike probability; use
    /// the `with_*` builders to arm the strike sites.
    pub fn new(seed: u64) -> Self {
        FaultConfig { seed, hbm_read_flip_prob: 0.0, mac_output_flip_prob: 0.0 }
    }

    /// Sets the per-`LoadHbm` flip probability.
    pub fn with_hbm_read_flips(mut self, prob: f64) -> Self {
        self.hbm_read_flip_prob = prob;
        self
    }

    /// Sets the per-`Spmv` flip probability.
    pub fn with_mac_output_flips(mut self, prob: f64) -> Self {
        self.mac_output_flip_prob = prob;
        self
    }

    /// Derives an independent fault stream for sub-stream `stream`, keeping
    /// the strike probabilities. Used to give each job of a concurrent
    /// chaos run its own decorrelated (but still reproducible) fault
    /// pattern from one master seed: `derive` is injective in `stream` and
    /// mixes it through SplitMix64's finalizer, so neighbouring stream
    /// indices do not produce correlated bit-flip sequences.
    pub fn derive(&self, stream: u64) -> Self {
        // SplitMix64 finalizer over (seed ⊕ golden-ratio·stream).
        let mut z = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultConfig { seed: z, ..*self }
    }
}

/// A concrete architecture instance: datapath width `C`, the customized MAC
/// structure set `S`, and the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    c: usize,
    set: StructureSet,
    cost: CostModel,
    cvb: CvbPolicy,
    single_precision: bool,
    fault: Option<FaultConfig>,
}

impl ArchConfig {
    /// Creates a configuration from a structure set (First-Fit CVB).
    pub fn new(set: StructureSet) -> Self {
        ArchConfig {
            c: set.alphabet().c(),
            set,
            cost: CostModel::default(),
            cvb: CvbPolicy::FirstFit,
            single_precision: false,
            fault: None,
        }
    }

    /// The paper's baseline architecture at width `c`: single-output MAC
    /// tree and `C` full vector copies in the CVB.
    ///
    /// # Panics
    ///
    /// Panics unless `c` is a power of two in `[2, 1024]`.
    pub fn baseline(c: usize) -> Self {
        ArchConfig::new(StructureSet::baseline(Alphabet::new(c)))
            .with_cvb_policy(CvbPolicy::FullDuplication)
    }

    /// Overrides the CVB organization.
    pub fn with_cvb_policy(mut self, cvb: CvbPolicy) -> Self {
        self.cvb = cvb;
        self
    }

    /// Emulates the FPGA's single-precision arithmetic: every functional
    /// result is rounded to `f32` before being stored (the paper's hardware
    /// computes in single precision; see `DESIGN.md` for the default-f64
    /// fidelity note).
    pub fn with_single_precision(mut self, on: bool) -> Self {
        self.single_precision = on;
        self
    }

    /// Whether single-precision emulation is enabled.
    pub fn single_precision(&self) -> bool {
        self.single_precision
    }

    /// The CVB organization.
    pub fn cvb_policy(&self) -> CvbPolicy {
        self.cvb
    }

    /// Overrides the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Arms the deterministic fault-injection harness. Pass `None` (the
    /// default) for a fault-free machine.
    pub fn with_fault_injection(mut self, fault: Option<FaultConfig>) -> Self {
        self.fault = fault;
        self
    }

    /// The fault-injection configuration, if armed.
    pub fn fault(&self) -> Option<FaultConfig> {
        self.fault
    }

    /// Datapath width `C`.
    pub fn c(&self) -> usize {
        self.c
    }

    /// The MAC structure set.
    pub fn set(&self) -> &StructureSet {
        &self.set
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Cycles for a streaming vector instruction over length `l`:
    /// `⌈l/C⌉` plus the fixed latency.
    pub fn vector_cycles(&self, l: usize) -> u64 {
        self.cost.vector_latency + l.div_ceil(self.c) as u64
    }

    /// Cycles for an HBM transfer of length `l`.
    pub fn transfer_cycles(&self, l: usize) -> u64 {
        self.cost.transfer_latency + l.div_ceil(self.c) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_single_structure() {
        let cfg = ArchConfig::baseline(16);
        assert_eq!(cfg.c(), 16);
        assert_eq!(cfg.set().len(), 1);
    }

    #[test]
    fn vector_cycles_scale_inversely_with_c() {
        let c16 = ArchConfig::baseline(16);
        let c64 = ArchConfig::baseline(64);
        let lat = CostModel::default().vector_latency;
        assert_eq!(c16.vector_cycles(1600), lat + 100);
        assert_eq!(c64.vector_cycles(1600), lat + 25);
        assert_eq!(c16.vector_cycles(0), lat);
        assert_eq!(c16.vector_cycles(1), lat + 1);
    }

    #[test]
    fn derived_fault_streams_are_deterministic_and_distinct() {
        let base = FaultConfig::new(7).with_hbm_read_flips(0.5).with_mac_output_flips(0.25);
        let a = base.derive(0);
        let b = base.derive(1);
        assert_eq!(a, base.derive(0), "derivation is deterministic");
        assert_ne!(a.seed, b.seed, "streams decorrelate");
        assert_ne!(a.seed, base.seed, "stream 0 is mixed too");
        assert_eq!(a.hbm_read_flip_prob, 0.5);
        assert_eq!(b.mac_output_flip_prob, 0.25);
    }

    #[test]
    fn cost_model_override() {
        let cfg = ArchConfig::baseline(4)
            .with_cost_model(CostModel { vector_latency: 0, ..Default::default() });
        assert_eq!(cfg.vector_cycles(8), 2);
    }
}
