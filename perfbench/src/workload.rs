//! Workload generation: a pure function of the workload seed.
//!
//! The program under test only ever sees what is generated here — the
//! experiment specs of the batch workloads and the job script of the
//! served one. The seed is mixed with the benchmark's own splitmix64
//! (not the program's PRNG), so a change to the program can never
//! change the inputs it is measured on.

use swim_exp::spec::{
    ExperimentKind, ExperimentSpec, ScenarioKind, ScenarioSpec, SelectionSpec, TrainingSpec,
};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of all tuning work: a later performance claim must
/// also hold on it.
pub const HELDOUT_SEED: u64 = 20_220_710;

/// Monte Carlo workers and serve-pool workers (the reference host has
/// two cores).
pub const WORKERS: usize = 2;

/// The named workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Table 1 shape: LeNet, three sigmas, four methods.
    Table1Lenet,
    /// Paper Fig. 2b shape: ResNet-18 (width 0.25), one sigma.
    Fig2bResnet,
    /// Closed loop of two clients against an in-process `swim serve`.
    ServeZoo,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::Table1Lenet, Workload::Fig2bResnet, Workload::ServeZoo];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Lenet => "table1-lenet",
            Workload::Fig2bResnet => "fig2b-resnet",
            Workload::ServeZoo => "serve-zoo",
        }
    }

    /// Resolves a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The experiment seed a workload seed maps to. Salted per workload so
/// no two workloads share a stream; kept below 2^31 so it survives every
/// integer field of the spec echo.
fn spec_seed(seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt;
    splitmix64(&mut state) % (1 << 31)
}

/// `table1-lenet`: LeNet / MNIST-substitute, 4-bit, sigma in {0.1, 0.15,
/// 0.2}, SWIM + Magnitude + Random + in-situ over the 7-point NWC grid.
/// The training and Monte Carlo budgets are cut so one `run_spec` takes
/// a few seconds; the shapes (network, grid, methods) are the paper's.
pub fn table1_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec {
        name: "bench-table1-lenet".into(),
        kind: ExperimentKind::Table1,
        seed: spec_seed(seed, 0x7AB1),
        training: TrainingSpec { samples: 400, epochs: 2, ..TrainingSpec::default() },
        ..ExperimentSpec::default()
    };
    spec.device.sigmas = vec![0.1, 0.15, 0.2];
    spec.montecarlo.runs = 2;
    spec.montecarlo.threads = WORKERS;
    spec
}

/// `fig2b-resnet`: ResNet-18 (width 0.25) / CIFAR-substitute, 6-bit,
/// sigma 0.1, SWIM + Magnitude, no in-situ, 7-point NWC grid.
pub fn fig2b_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec {
        name: "bench-fig2b-resnet".into(),
        kind: ExperimentKind::Fig2,
        seed: spec_seed(seed, 0xF12B),
        scenario: ScenarioSpec { model: ScenarioKind::Resnet18Cifar, width: 0.25, classes: 10 },
        training: TrainingSpec { samples: 100, epochs: 1, lr: 0.01, batch: 32 },
        selection: SelectionSpec {
            methods: vec!["swim".into(), "magnitude".into()],
            insitu: false,
        },
        ..ExperimentSpec::default()
    };
    spec.montecarlo.runs = 2;
    spec.montecarlo.threads = WORKERS;
    spec
}

/// Device models of the serve-zoo blocks (`examples/specs/device_zoo.toml`).
pub const SERVE_MODELS: [&str; 3] = ["rram-gaussian", "mram-stochastic", "sram-vt"];

/// The two variation levels of the serve-zoo blocks.
pub const SERVE_SIGMAS: [f64; 2] = [0.1, 0.2];

/// Number of distinct `(device model, sigma)` blocks — one prepared
/// model each.
pub const SERVE_BLOCKS: usize = SERVE_MODELS.len() * SERVE_SIGMAS.len();

/// The post-preparation suffixes a job may carry: `(methods, fractions,
/// runs)`. Only these vary between jobs of one block, so every job
/// after warm-up is a prepared-model cache hit.
const SERVE_SUFFIXES: [(&[&str], &[f64], usize); 2] =
    [(&["swim", "magnitude"], &[0.0, 0.1, 1.0], 1), (&["swim", "random"], &[0.1, 0.5], 2)];

/// Number of distinct job suffixes.
pub const SERVE_SUFFIX_COUNT: usize = SERVE_SUFFIXES.len();

/// One job of the serve-zoo script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServeJob {
    /// Index into the `SERVE_MODELS × SERVE_SIGMAS` grid.
    pub block: usize,
    /// Index into the suffix table.
    pub suffix: usize,
}

/// The spec of one serve-zoo job: a single-block LeNet `sweep`.
pub fn serve_job_spec(seed: u64, job: ServeJob) -> ExperimentSpec {
    let (methods, fractions, runs) = SERVE_SUFFIXES[job.suffix];
    let mut spec = ExperimentSpec {
        name: "bench-serve-zoo".into(),
        kind: ExperimentKind::Sweep,
        seed: spec_seed(seed, 0x5E2F),
        training: TrainingSpec { samples: 300, epochs: 2, ..TrainingSpec::default() },
        selection: SelectionSpec {
            methods: methods.iter().map(|m| m.to_string()).collect(),
            insitu: false,
        },
        ..ExperimentSpec::default()
    };
    spec.device.models = vec![SERVE_MODELS[job.block / SERVE_SIGMAS.len()].to_string()];
    spec.device.sigmas = vec![SERVE_SIGMAS[job.block % SERVE_SIGMAS.len()]];
    spec.sweep.fractions = fractions.to_vec();
    spec.montecarlo.runs = runs;
    // The service sweeps a block serially; saying so in the spec makes
    // `run_spec` of the same spec (the reference document) run alike.
    spec.montecarlo.threads = 1;
    spec
}

/// The job script the closed loop draws from, in submission order: the
/// first `SERVE_BLOCKS · SERVE_SUFFIX_COUNT` jobs cover every distinct
/// spec once (in a seed-dependent order), the rest are drawn uniformly.
pub fn serve_script(seed: u64, len: usize) -> Vec<ServeJob> {
    let mut state = seed ^ 0x5C21_7000;
    let distinct = SERVE_BLOCKS * SERVE_SUFFIX_COUNT;
    let mut head: Vec<usize> = (0..distinct).collect();
    for i in (1..head.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        head.swap(i, j);
    }
    let tail =
        (distinct..len.max(distinct)).map(|_| (splitmix64(&mut state) % distinct as u64) as usize);
    head.into_iter()
        .chain(tail)
        .take(len)
        .map(|k| ServeJob { block: k / SERVE_SUFFIX_COUNT, suffix: k % SERVE_SUFFIX_COUNT })
        .collect()
}

/// The batch spec of a batch workload.
pub fn batch_spec(workload: Workload, seed: u64) -> Option<ExperimentSpec> {
    match workload {
        Workload::Table1Lenet => Some(table1_spec(seed)),
        Workload::Fig2bResnet => Some(fig2b_spec(seed)),
        Workload::ServeZoo => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs(seed: u64) -> Vec<String> {
        let mut out = vec![table1_spec(seed).to_toml(), fig2b_spec(seed).to_toml()];
        for block in 0..SERVE_BLOCKS {
            for suffix in 0..SERVE_SUFFIX_COUNT {
                out.push(serve_job_spec(seed, ServeJob { block, suffix }).to_toml());
            }
        }
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(all_specs(DEFAULT_SEED), all_specs(DEFAULT_SEED));
        assert_eq!(serve_script(DEFAULT_SEED, 300), serve_script(DEFAULT_SEED, 300));
        for other in [DEFAULT_SEED + 1, HELDOUT_SEED] {
            let (a, b) = (all_specs(DEFAULT_SEED), all_specs(other));
            assert!(a.iter().zip(&b).all(|(x, y)| x != y), "seed {other} shares a spec");
            assert_ne!(serve_script(DEFAULT_SEED, 300), serve_script(other, 300));
        }
    }

    #[test]
    fn generated_specs_validate_and_round_trip() {
        for spec_text in all_specs(HELDOUT_SEED) {
            let spec = ExperimentSpec::parse_str(&spec_text).expect("generated spec parses");
            spec.validate().expect("generated spec validates");
            assert_eq!(spec.to_toml(), spec_text);
        }
    }

    #[test]
    fn serve_script_covers_every_distinct_job_first() {
        let script = serve_script(7, 40);
        assert_eq!(script.len(), 40);
        let mut head: Vec<_> = script[..SERVE_BLOCKS * SERVE_SUFFIX_COUNT].to_vec();
        head.sort_by_key(|j| (j.block, j.suffix));
        head.dedup();
        assert_eq!(head.len(), SERVE_BLOCKS * SERVE_SUFFIX_COUNT);
        assert!(script.iter().all(|j| j.block < SERVE_BLOCKS && j.suffix < SERVE_SUFFIX_COUNT));
    }

    #[test]
    fn jobs_of_one_block_share_their_preparation() {
        for block in 0..SERVE_BLOCKS {
            let (model, sigma) = (SERVE_MODELS[block / 2], SERVE_SIGMAS[block % 2]);
            let prints: Vec<String> = (0..SERVE_SUFFIX_COUNT)
                .map(|suffix| {
                    serve_job_spec(3, ServeJob { block, suffix }).prep_fingerprint(model, sigma)
                })
                .collect();
            assert!(prints.windows(2).all(|w| w[0] == w[1]), "block {block}");
        }
    }
}
