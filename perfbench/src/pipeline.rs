//! The traced pass: `run_spec`'s pipeline re-driven through the layer
//! entry points, with a span around every call.
//!
//! This mirrors `swim_bench::prep::prepare_with_model` and
//! `swim_bench::driver::run_methods` step for step (same seeds, same RNG
//! forks, same schedule-independent Monte Carlo harness). The output
//! check compares its statistics with the untraced `run_spec` document
//! bit for bit, which is what shows the decomposition is the same
//! program and not an approximation of it.

use std::sync::atomic::{AtomicU64, Ordering};

use swim_bench::driver::{insitu_stats_from_raw, DriverConfig, InsituStats};
use swim_bench::prep::{PrepConfig, Scenario};
use swim_cim::model::device_model_by_name;
use swim_core::insitu::{insitu_training, InsituConfig};
use swim_core::model::EvalScratch;
use swim_core::montecarlo::{
    aggregate_sweep_rows, parallel_fill_rows_isolated, parallel_map_with, SweepPoint,
};
use swim_core::select::{mask_top_fraction_into, SelectionInputs, Selector};
use swim_core::QuantizedModel;
use swim_data::{synthetic_cifar, synthetic_mnist, synthetic_tiny_imagenet, Dataset};
use swim_exp::spec::ExperimentSpec;
use swim_nn::loss::SoftmaxCrossEntropy;
use swim_nn::models::{ConvNetConfig, LeNetConfig, ResNet18Config, ResNetStem};
use swim_nn::train::{fit, TrainConfig};
use swim_nn::Network;
use swim_tensor::Prng;

use crate::trace::{LocalSpans, Tracer};

/// Work counted at the layer boundaries (exact, schedule-independent).
#[derive(Debug, Default)]
pub struct Counts {
    /// Monte Carlo runs swept (all methods and blocks).
    pub mc_runs: AtomicU64,
    /// Runs that faulted under the isolate policy.
    pub faults: AtomicU64,
    /// Write-verify pulses spent by sweep programming.
    pub verify_pulses: AtomicU64,
    /// Weights write-verified by sweep programming.
    pub verified_weights: AtomicU64,
    /// Weights programmed by sweeps (verified or not).
    pub programmed_weights: AtomicU64,
    /// Images scored by Monte Carlo evaluations.
    pub eval_images: AtomicU64,
    /// Evaluation batches of those images.
    pub eval_batches: AtomicU64,
    /// Training samples seen by `fit` (samples × epochs).
    pub train_samples: AtomicU64,
    /// Samples through the second-derivative pass.
    pub sensitivity_samples: AtomicU64,
}

impl Counts {
    /// A counter's value.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds every counter of `other` to this one.
    pub fn absorb(&self, other: &Counts) {
        for (mine, theirs) in [
            (&self.mc_runs, &other.mc_runs),
            (&self.faults, &other.faults),
            (&self.verify_pulses, &other.verify_pulses),
            (&self.verified_weights, &other.verified_weights),
            (&self.programmed_weights, &other.programmed_weights),
            (&self.eval_images, &other.eval_images),
            (&self.eval_batches, &other.eval_batches),
            (&self.train_samples, &other.train_samples),
            (&self.sensitivity_samples, &other.sensitivity_samples),
        ] {
            Counts::add(mine, Counts::get(theirs));
        }
    }
}

/// Statistics of one `(model, sigma)` block, as the results document
/// records them.
pub struct BlockStats {
    /// Device model key.
    pub model: String,
    /// Variation level.
    pub sigma: f64,
    /// Float accuracy (percent).
    pub float_accuracy: f64,
    /// Quantized clean accuracy (percent).
    pub quant_accuracy: f64,
    /// One aggregated curve per selector.
    pub methods: Vec<(String, Vec<SweepPoint>)>,
    /// In-situ checkpoints (empty without the baseline).
    pub insitu: Vec<InsituStats>,
}

/// What the traced pass hands back besides its spans.
pub struct TracedRun {
    /// Per-block statistics in grid order.
    pub blocks: Vec<BlockStats>,
    /// The evaluation batch of one Monte Carlo evaluation.
    pub eval_items: usize,
    /// Monte Carlo workers of the sweeps.
    pub workers: usize,
}

fn build_dataset(scenario: &Scenario, samples: usize, seed: u64) -> Dataset {
    match scenario {
        Scenario::LenetMnist => synthetic_mnist(samples, seed),
        Scenario::ConvnetCifar { .. } | Scenario::Resnet18Cifar { .. } => {
            synthetic_cifar(samples, seed)
        }
        Scenario::Resnet18Tiny { classes, .. } => synthetic_tiny_imagenet(samples, *classes, seed),
    }
}

fn build_network(scenario: &Scenario, seed: u64) -> Network {
    match scenario {
        Scenario::LenetMnist => LeNetConfig::paper().build(seed),
        Scenario::ConvnetCifar { width } => ConvNetConfig::reduced(*width).build(seed),
        Scenario::Resnet18Cifar { width } => ResNet18Config::reduced(*width).build(seed),
        Scenario::Resnet18Tiny { width, classes } => ResNet18Config {
            num_classes: *classes,
            stem: ResNetStem::TinyImageNet,
            width_factor: *width,
            ..ResNet18Config::paper_tiny_imagenet()
        }
        .build(seed),
    }
}

/// A Monte Carlo worker: the program's per-worker scratch plus the
/// worker's span buffer and counters.
struct Worker<'a> {
    scratch: EvalScratch,
    spans: LocalSpans<'a>,
    counts: &'a Counts,
    pulses: u64,
    verified: u64,
    programmed: u64,
    images: u64,
    batches: u64,
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        Counts::add(&self.counts.verify_pulses, self.pulses);
        Counts::add(&self.counts.verified_weights, self.verified);
        Counts::add(&self.counts.programmed_weights, self.programmed);
        Counts::add(&self.counts.eval_images, self.images);
        Counts::add(&self.counts.eval_batches, self.batches);
    }
}

/// `nwc_sweep_outcome` with spans: same seeds, same per-run order of RNG
/// draws, same aggregation.
#[allow(clippy::too_many_arguments)]
fn traced_sweep(
    model: &QuantizedModel,
    selector: &dyn Selector,
    sens: &[f32],
    mags: &[f32],
    eval: &Dataset,
    cfg: &DriverConfig,
    tracer: &Tracer,
    parent: u64,
    counts: &Counts,
) -> Vec<SweepPoint> {
    let base = Prng::seed_from_u64(cfg.seed);
    let denom = tracer.span("cim.wv_all_cost", parent, |_| {
        model.write_verify_all_cost(&mut base.fork(u64::MAX)) as f64
    });
    let spans = model.param_spans();
    let inputs = SelectionInputs::with_spans(sens, mags, &spans);
    let fixed = if selector.is_stochastic() {
        None
    } else {
        Some(tracer.span("core.rank", parent, |_| selector.rank(&inputs, None)))
    };
    let nf = cfg.fractions.len();
    let workers = cfg.threads.min(cfg.runs).max(1);
    let batches_per_eval = eval.len().div_ceil(cfg.eval_batch) as u64;
    let mut per_run = vec![(0.0f64, 0.0f64); cfg.runs * nf];
    let faults = parallel_fill_rows_isolated(
        cfg.runs,
        nf,
        cfg.threads,
        &base,
        cfg.run_offset,
        cfg.on_panic,
        &mut per_run,
        || Worker {
            scratch: EvalScratch::new(model),
            spans: tracer.local(workers),
            counts,
            pulses: 0,
            verified: 0,
            programmed: 0,
            images: 0,
            batches: 0,
        },
        |w, r, mut rng, row| {
            let (run_id, run_start) = (w.spans.id(), w.spans.now());
            let EvalScratch { network, mask, codes, weights, ranking, arena } = &mut w.scratch;
            let order: &[usize] = match &fixed {
                Some(order) => order,
                None => {
                    w.spans.leaf("core.rank", run_id, r, || {
                        selector.rank_into(&inputs, Some(&mut rng), ranking)
                    });
                    &ranking[..]
                }
            };
            for (slot, &fraction) in row.iter_mut().zip(&cfg.fractions) {
                w.spans.leaf("core.rank.mask", run_id, r, || {
                    mask_top_fraction_into(order, fraction, mask)
                });
                let summary = w.spans.leaf("cim.program", run_id, r, || {
                    let summary =
                        model.program_weights_into(Some(&mask[..]), &mut rng, codes, weights);
                    network.set_device_weights(weights);
                    summary
                });
                let acc = w.spans.leaf("nn.eval", run_id, r, || {
                    network.accuracy_with(eval.images(), eval.labels(), cfg.eval_batch, arena)
                });
                *slot = (100.0 * acc, summary.verify_pulses as f64 / denom);
                w.pulses += summary.verify_pulses;
                w.verified += summary.verified_weights;
                w.programmed += summary.total_weights;
                w.images += eval.len() as u64;
                w.batches += batches_per_eval;
            }
            w.spans.close("core.montecarlo.run", run_id, parent, r, run_start);
        },
    );
    Counts::add(&counts.mc_runs, cfg.runs as u64);
    Counts::add(&counts.faults, faults.len() as u64);
    let skip: Vec<usize> = faults.iter().map(|f| f.run - cfg.run_offset).collect();
    aggregate_sweep_rows(&cfg.fractions, &per_run, &skip)
}

/// Re-drives every `(model, sigma)` block of `spec` with spans: one
/// top-level `block` span each, holding a `prep` and a `sweep` span. `threads` overrides the spec's Monte
/// Carlo workers (the service sweeps serially inside a block); results
/// are bit-identical for every value.
pub fn run_traced(
    spec: &ExperimentSpec,
    threads: Option<usize>,
    tracer: &Tracer,
    counts: &Counts,
) -> Result<TracedRun, String> {
    let scenario = Scenario::from_spec(&spec.scenario);
    let prep = PrepConfig::from(spec);
    let tuning = swim_tensor::tune::current();
    let mut cfg = DriverConfig::from_spec(spec, tuning.gemm_threads, tuning.gemm_block_cols);
    if let Some(threads) = threads {
        cfg.threads = threads;
    }
    let selectors = spec.selection.selectors();
    let loss = SoftmaxCrossEntropy::new();
    let mut blocks = Vec::new();
    let mut eval_items = 0;
    for model_name in &spec.device.models {
        for &sigma in &spec.device.sigmas {
            let device_model = device_model_by_name(model_name)
                .ok_or_else(|| format!("unknown device model `{model_name}`"))?;
            let block = tracer.span("block", 0, |block_id| {
                // `prepare_with_model`: what the service's prepared-model
                // cache skips on a hit.
                let (train, test, float_accuracy, mut model, quant_accuracy) =
                    tracer.span("prep", block_id, |prep_id| {
                        let (train, test) = tracer.span("data.generate", prep_id, |_| {
                            build_dataset(&scenario, prep.samples, prep.seed).split(0.8)
                        });
                        let mut net = tracer.span("nn.train", prep_id, |_| {
                            let mut net = build_network(&scenario, prep.seed.wrapping_add(41));
                            let tc = TrainConfig {
                                epochs: prep.epochs,
                                batch_size: prep.batch,
                                lr: prep.lr,
                                seed: prep.seed.wrapping_add(97),
                                ..Default::default()
                            };
                            fit(&mut net, &loss, train.images(), train.labels(), &tc);
                            net
                        });
                        Counts::add(&counts.train_samples, (train.len() * prep.epochs) as u64);
                        let float_accuracy = tracer.span("nn.float_eval", prep_id, |_| {
                            100.0 * net.accuracy(test.images(), test.labels(), 256)
                        });
                        let (model, quant_accuracy) =
                            tracer.span("quant.quantize", prep_id, |_| {
                                let mut model = QuantizedModel::with_model(
                                    net,
                                    scenario.weight_bits(),
                                    spec.device.config_at(sigma),
                                    device_model,
                                );
                                let acc = 100.0 * model.clean_accuracy(&test, 256);
                                (model, acc)
                            });
                        (train, test, float_accuracy, model, quant_accuracy)
                    });
                // `run_methods`: the per-job work of a served block.
                let (methods, insitu) = tracer.span("sweep", block_id, |job_id| {
                    let sens = tracer.span("core.sensitivity", job_id, |_| {
                        model.sensitivities(&loss, &train, cfg.eval_batch)
                    });
                    Counts::add(&counts.sensitivity_samples, train.len() as u64);
                    let mags = tracer.span("core.rank.magnitudes", job_id, |_| model.magnitudes());
                    let methods = selectors
                        .iter()
                        .map(|selector| {
                            let points = tracer.span("core.montecarlo.sweep", job_id, |sweep_id| {
                                traced_sweep(
                                    &model,
                                    selector.as_ref(),
                                    &sens,
                                    &mags,
                                    &test,
                                    &cfg,
                                    tracer,
                                    sweep_id,
                                    counts,
                                )
                            });
                            (selector.name().to_string(), points)
                        })
                        .collect();
                    let insitu = if cfg.insitu {
                        tracer.span("core.insitu", job_id, |insitu_id| {
                            traced_insitu(&model, &loss, &train, &test, &cfg, tracer, insitu_id)
                        })
                    } else {
                        Vec::new()
                    };
                    (methods, insitu)
                });
                eval_items = test.len().min(cfg.eval_batch);
                BlockStats {
                    model: model_name.clone(),
                    sigma,
                    float_accuracy,
                    quant_accuracy,
                    methods,
                    insitu,
                }
            });
            blocks.push(block);
        }
    }
    Ok(TracedRun { blocks, eval_items, workers: cfg.threads.min(cfg.runs).max(1) })
}

/// The `[channels, height, width]` shape of the spec's input images.
pub fn input_shape(spec: &ExperimentSpec) -> [usize; 3] {
    let data = build_dataset(&Scenario::from_spec(&spec.scenario), 10, spec.seed);
    let shape = data.images().shape();
    [shape[1], shape[2], shape[3]]
}

/// The workload's network as `prepare_with_model` builds it, before
/// training — it has the trained network's layer shapes.
pub fn untrained_network(spec: &ExperimentSpec) -> Network {
    build_network(&Scenario::from_spec(&spec.scenario), spec.seed.wrapping_add(41))
}

/// The in-situ baseline exactly as `run_methods` runs it, one span per
/// run.
fn traced_insitu(
    model: &QuantizedModel,
    loss: &SoftmaxCrossEntropy,
    train: &Dataset,
    test: &Dataset,
    cfg: &DriverConfig,
    tracer: &Tracer,
    parent: u64,
) -> Vec<InsituStats> {
    let insitu_cfg = InsituConfig {
        lr: cfg.insitu_lr,
        batch_size: cfg.insitu_batch,
        eval_batch: cfg.eval_batch,
        record_at: cfg.fractions.clone(),
    };
    let base = Prng::seed_from_u64(cfg.seed.wrapping_add(0x5157_494D));
    let workers = cfg.threads.min(cfg.runs).max(1);
    let raw = parallel_map_with(
        cfg.runs,
        cfg.threads,
        &base,
        || tracer.local(workers),
        |spans, r, _| {
            spans.leaf("core.insitu.run", parent, r, || {
                let mut rng = base.fork((cfg.run_offset + r) as u64);
                let mut local = model.clone();
                insitu_training(&mut local, loss, train, test, &insitu_cfg, &mut rng)
                    .into_iter()
                    .map(|p| (p.nwc, p.accuracy))
                    .collect::<Vec<(f64, f64)>>()
            })
        },
    );
    insitu_stats_from_raw(cfg.fractions.len(), &raw)
}
