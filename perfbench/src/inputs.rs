//! The benchmark's inputs, generated from its seed, and the fingerprint
//! that makes two results comparable.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use rsqp_problems::{generate, Domain};
use rsqp_solver::QpProblem;
use rsqp_sparse::PatternKey;

/// One generated instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Stable id: `<family>_i<schedule index>`.
    pub id: String,
    /// The generated problem.
    pub problem: Arc<QpProblem>,
}

/// Mixes the benchmark seed with a problem's coordinates (splitmix64), so
/// each instance gets its own stream and nearby seeds share nothing.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the fixed problem suite. ADMM iteration counts on these
/// families change by up to 2.4× under a 0.1 % perturbation of `q`, which
/// would swamp any change to the code, so the instances come from this
/// seed and the benchmark seed only orders them (and draws the MPC initial
/// states, which average over hundreds of steps).
pub const SUITE_SEED: u64 = 0x5253_5150;

/// All six families at the given indices of the 20-point size schedule,
/// generated from `instance_seed`, in an order drawn from `seed`.
pub fn family_set(seed: u64, instance_seed: u64, indices: &[usize]) -> Vec<Instance> {
    let mut out = Vec::new();
    for (f, domain) in Domain::all().into_iter().enumerate() {
        let schedule = domain.size_schedule(20);
        for &i in indices {
            let problem = generate(domain, schedule[i], mix(instance_seed, f as u64, i as u64));
            out.push(Instance {
                id: format!("{}_i{i:02}", domain.name()),
                problem: Arc::new(problem),
            });
        }
    }
    shuffle(&mut out, seed);
    out
}

/// Fisher–Yates shuffle driven by `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64, 0x5348) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The seed a held-out copy of the inputs is generated from.
pub fn held_out(seed: u64) -> u64 {
    mix(seed, 0x4845_4C44, 0x004F_5554)
}

/// Checks that `other` (the same set generated from a held-out seed) has
/// the same structure and dimensions as `set` but different values.
pub fn check_held_out(set: &[Instance], other: &[Instance]) -> Result<(), String> {
    if set.len() != other.len() {
        return Err(format!("held-out set has {} problems, not {}", other.len(), set.len()));
    }
    for a in set {
        let b = other
            .iter()
            .find(|b| b.id == a.id)
            .ok_or_else(|| format!("{}: missing from the held-out set", a.id))?;
        let (pa, pb) = (&a.problem, &b.problem);
        if PatternKey::new(pa.p(), pa.a()) != PatternKey::new(pb.p(), pb.a()) {
            return Err(format!("{}: held-out seed changed the sparsity pattern", a.id));
        }
        if (pa.num_vars(), pa.num_constraints()) != (pb.num_vars(), pb.num_constraints()) {
            return Err(format!("{}: held-out seed changed the dimensions", a.id));
        }
        let same_values = pa.p().data() == pb.p().data()
            && pa.a().data() == pb.a().data()
            && pa.q() == pb.q()
            && pa.l() == pb.l()
            && pa.u() == pb.u();
        if same_values {
            return Err(format!("{}: held-out seed produced identical values", a.id));
        }
    }
    Ok(())
}

/// What makes two results like for like: host, build, workload, seed and
/// the problems run. The source revision is recorded but not compared,
/// since comparing two revisions is the point.
#[derive(Debug, Clone)]
pub struct Fingerprint(pub Vec<(String, String)>);

/// Fingerprint keys that may differ between comparable results.
pub const UNCOMPARED: [&str; 1] = ["source_rev"];

impl Fingerprint {
    /// Stamps the host, build and inputs of this run.
    pub fn new(workload: &str, seed: u64, nproc: usize, set: &[Instance]) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |name: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_once(':'))
                .map_or("unknown".to_string(), |(_, v)| v.trim().to_string())
        };
        let llc = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| field("cache size"));
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        let mut kv = vec![
            ("nproc".to_string(), nproc.to_string()),
            ("cpu_model".to_string(), field("model name")),
            ("llc".to_string(), llc),
            ("profile".to_string(), profile.to_string()),
            ("source_rev".to_string(), source_rev()),
            ("workload".to_string(), workload.to_string()),
            ("seed".to_string(), seed.to_string()),
        ];
        for inst in set {
            let p = &inst.problem;
            kv.push((
                format!("problem.{}", inst.id),
                format!("n={} m={} nnz={}", p.num_vars(), p.num_constraints(), p.total_nnz()),
            ));
        }
        Fingerprint(kv)
    }

    /// Keys whose values differ between two fingerprints, ignoring
    /// [`UNCOMPARED`] keys.
    pub fn differences(&self, other: &Fingerprint) -> Vec<String> {
        let get =
            |f: &Fingerprint, k: &str| f.0.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
        let mut keys: Vec<&str> = self.0.iter().chain(&other.0).map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .filter(|k| !UNCOMPARED.contains(k) && get(self, k) != get(other, k))
            .map(str::to_string)
            .collect()
    }
}

/// The git commit when the run starts inside a git checkout, otherwise a
/// hash of the workspace sources the benchmark was built from.
fn source_rev() -> String {
    git_head().unwrap_or_else(|| format!("tree:{:016x}", tree_hash()))
}

fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(format!("git:{head}")),
        Some(r) => {
            let loose = std::fs::read_to_string(Path::new(".git").join(r)).ok();
            let packed = || {
                std::fs::read_to_string(".git/packed-refs").ok().and_then(|p| {
                    p.lines().find(|l| l.ends_with(r)).map(|l| l[..40.min(l.len())].to_string())
                })
            };
            loose.map(|s| s.trim().to_string()).or_else(packed).map(|h| format!("git:{h}"))
        }
    }
}

/// FNV-1a over the path and bytes of every Rust source and manifest under
/// `crates/`, `compat/` and this benchmark, in sorted order.
fn tree_hash() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "compat", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(path);
        }
    }
}

/// Renders the fingerprint as `fingerprint <key> <value>` lines.
pub fn fingerprint_tsv(f: &Fingerprint) -> String {
    let mut out = String::new();
    for (k, v) in &f.0 {
        let _ = writeln!(out, "fingerprint\t{k}\t{v}");
    }
    out
}
