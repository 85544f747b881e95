//! The three workloads: what one operation is, how a run cycles through
//! operations, the set-up each times, and the checks on their outputs.

use crate::gate::{digest, Gate, Outcome};
use crate::setup::{self, ModelKind, FAMILIES};
use goldeneye::{run_campaign, run_weight_campaign, CampaignConfig, GoldenEye, ParamSnapshot};
use inject::{BitSampler, SiteKind};
use models::SyntheticDataset;
use nn::Module;
use std::sync::Arc;
use store::Store;
use tensor::Tensor;

/// Images per `emulate` operation (one `evaluate` call).
pub const EVAL_IMAGES: usize = 32;
/// Evaluation batch size.
pub const EVAL_BATCH: usize = 32;
/// Images each campaign trial runs on.
pub const CAMPAIGN_IMAGES: usize = 8;
/// Injections per layer in one `campaign` operation: the default of
/// `goldeneye campaign --injections`.
pub const CAMPAIGN_INJECTIONS: usize = 20;
/// Injections per weight tensor in one `weight_campaign` operation.
pub const WEIGHT_INJECTIONS: usize = 1;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Accuracy-evaluation traffic (Fig. 3, `goldeneye evaluate`).
    Emulate,
    /// Activation-fault resiliency campaigns (Fig. 7).
    Campaign,
    /// Weight-fault campaigns (§V-B).
    WeightCampaign,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "emulate" => Some(Workload::Emulate),
            "campaign" => Some(Workload::Campaign),
            "weight_campaign" => Some(Workload::WeightCampaign),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Emulate => "emulate",
            Workload::Campaign => "campaign",
            Workload::WeightCampaign => "weight_campaign",
        }
    }

    fn models(self) -> &'static [ModelKind] {
        match self {
            Workload::Emulate => &[ModelKind::Resnet18, ModelKind::DeitTiny],
            _ => &[ModelKind::Resnet18],
        }
    }

    /// Families this workload's operations emulate.
    pub fn families(self) -> &'static [&'static str] {
        match self {
            Workload::Emulate => &["fp", "fxp", "int", "bfp", "afp", "mx"],
            Workload::Campaign => &["fp", "bfp"],
            Workload::WeightCampaign => &["fp"],
        }
    }
}

/// Spec of a family's emulated format.
pub fn spec_of(family: &str) -> &'static str {
    FAMILIES.iter().find(|(f, _)| *f == family).expect("known family").1
}

/// Everything a run's operations use, built by [`setup`].
pub struct Env {
    /// The workload.
    pub workload: Workload,
    /// The models, in operation order.
    pub models: Vec<(ModelKind, Box<dyn Module>)>,
    /// Inputs generated from the workload seed.
    pub data: SyntheticDataset,
    /// The campaign input batch and its labels.
    pub x: Tensor,
    /// Labels of `x`.
    pub y: Vec<usize>,
    /// One engine per emulated family, with the warm store attached.
    pub engines: Vec<(&'static str, GoldenEye)>,
    /// The warm artifact store.
    pub store: Arc<Store>,
    /// Campaign worker threads (`nproc`).
    pub jobs: usize,
    /// Base seed of every campaign operation of the run.
    pub campaign_seed: u64,
    /// `weight_campaign`: the clean codes of every weight tensor, in the
    /// order `run_weight_campaign` numbers them, quantised without the
    /// store (empty on the other workloads).
    pub weight_codes: Vec<formats::Quantized>,
}

impl Env {
    /// The engine of `family`.
    pub fn engine(&self, family: &str) -> &GoldenEye {
        &self.engines.iter().find(|(f, _)| *f == family).expect("engine for family").1
    }

    /// The first (campaign) model.
    pub fn model(&self) -> &dyn Module {
        self.models[0].1.as_ref()
    }
}

/// One operation: one public call the workload makes.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `models::evaluate` (native) or `evaluate_accuracy_jobs` (emulated).
    Eval { model: usize, family: Option<&'static str> },
    /// `run_campaign` on one format and site.
    Campaign { family: &'static str, site: SiteKind, seed: u64 },
    /// `run_weight_campaign` in `fp:e4m3`.
    Weight { seed: u64 },
}

/// Loads models and inputs, parses formats (building their LUTs through
/// the store), attaches the warm store, and warms every operation's path.
pub fn setup(workload: Workload, seed: u64) -> Env {
    let models: Vec<(ModelKind, Box<dyn Module>)> =
        workload.models().iter().map(|&k| (k, k.load())).collect();
    let data = setup::inputs(seed, EVAL_IMAGES);
    let (x, y) = data.head_batch(CAMPAIGN_IMAGES);
    let store = setup::open_store();
    let engines =
        workload.families().iter().map(|&f| (f, setup::engine(spec_of(f), Some(&store)))).collect();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let weight_codes = match workload {
        Workload::WeightCampaign => clean_weight_codes(models[0].1.as_ref()),
        _ => Vec::new(),
    };
    let env = Env {
        workload,
        models,
        data,
        x,
        y,
        engines,
        store,
        jobs,
        campaign_seed: seed,
        weight_codes,
    };
    // Warm-up: a two-image pass down every operation's path.
    for (_, m) in &env.models {
        models::evaluate(m.as_ref(), &env.data, 2, 2);
        for (_, ge) in &env.engines {
            goldeneye::evaluate_accuracy_jobs(ge, m.as_ref(), &env.data, 2, 2, 1);
        }
    }
    env
}

/// The codes a weight campaign flips: every `.weight` tensor after
/// `quantize_weights`, quantised again, as `run_weight_campaign` does.
fn clean_weight_codes(model: &dyn Module) -> Vec<formats::Quantized> {
    let ge = setup::engine(spec_of("fp"), None);
    let snap = ParamSnapshot::capture(model);
    ge.quantize_weights(model);
    let mut codes = Vec::new();
    model.visit_params(&mut |p| {
        if p.name().ends_with(".weight") {
            codes.push(ge.format().real_to_format_tensor(&p.get()));
        }
    });
    snap.restore(model);
    codes
}

/// Whether a weight trial's recorded flip changes the code it names:
/// the weight, element and bit exist, and the flipped code decodes to a
/// different value.
fn weight_flip_landed(env: &Env, t: &trace::TrialRecord) -> bool {
    let (Some(element), Some(bit)) = (t.element, t.bit) else { return false };
    let Some(codes) = env.weight_codes.get(t.layer) else { return false };
    let format = env.engine("fp").format();
    if element >= codes.values.numel() || bit >= format.bit_width() as usize {
        return false;
    }
    let mut q = codes.clone();
    let flip = inject::flip_value(format, &mut q, element, bit);
    flip.old.to_bits() != flip.new.to_bits()
}

/// The operations of one cycle. Every cycle does the same work, so runs
/// are compared over whole cycles.
pub fn cycle(env: &Env) -> Vec<Op> {
    let seed = env.campaign_seed;
    match env.workload {
        Workload::Emulate => (0..env.models.len())
            .flat_map(|m| {
                std::iter::once(Op::Eval { model: m, family: None }).chain(
                    env.engines.iter().map(move |(f, _)| Op::Eval { model: m, family: Some(*f) }),
                )
            })
            .collect(),
        Workload::Campaign => vec![
            Op::Campaign { family: "fp", site: SiteKind::Value, seed },
            Op::Campaign { family: "bfp", site: SiteKind::Metadata, seed },
        ],
        Workload::WeightCampaign => vec![Op::Weight { seed }],
    }
}

/// The key an operation's output must repeat under.
pub fn key(env: &Env, op: Op) -> String {
    match op {
        Op::Eval { model, family } => {
            format!("{}/{}", env.models[model].0.name(), family.map_or("native", spec_of))
        }
        Op::Campaign { family, site, seed } => {
            format!("campaign/{}/{}/{seed}", spec_of(family), site.as_str())
        }
        Op::Weight { seed } => format!("weight_campaign/{}/{seed}", spec_of("fp")),
    }
}

/// The campaign configuration of one operation.
pub fn campaign_config(env: &Env, site: SiteKind, seed: u64) -> CampaignConfig {
    CampaignConfig {
        injections_per_layer: CAMPAIGN_INJECTIONS,
        kind: site,
        seed,
        jobs: env.jobs,
        trials_per_batch: 0,
        early_stop: None,
        sampler: BitSampler::Uniform,
    }
}

/// Emulated accuracy of `model` on the run's inputs.
pub fn accuracy(env: &Env, ge: &GoldenEye, model: &dyn Module) -> f32 {
    goldeneye::evaluate_accuracy_jobs(ge, model, &env.data, EVAL_IMAGES, EVAL_BATCH, 1)
}

/// Executes one operation.
pub fn run(env: &Env, op: Op) -> Outcome {
    match op {
        Op::Eval { model, family } => {
            let m = env.models[model].1.as_ref();
            let acc = match family {
                None => models::evaluate(m, &env.data, EVAL_IMAGES, EVAL_BATCH),
                Some(f) => accuracy(env, env.engine(f), m),
            };
            Outcome { units: EVAL_IMAGES as u64, digest: accuracy_digest(acc), fired: true }
        }
        Op::Campaign { family, .. } => run_campaign_op(env, env.engine(family), op),
        Op::Weight { .. } => run_campaign_op(env, env.engine("fp"), op),
    }
}

fn accuracy_digest(acc: f32) -> String {
    format!("{:08x}", acc.to_bits())
}

/// Executes a campaign or weight-campaign operation on `ge`.
fn run_campaign_op(env: &Env, ge: &GoldenEye, op: Op) -> Outcome {
    match op {
        Op::Campaign { site, seed, .. } => {
            let cfg = campaign_config(env, site, seed);
            let r = run_campaign(ge, env.model(), &env.x, &env.y, &cfg);
            Outcome {
                units: r.planned_trials as u64,
                digest: digest(r.canonical_trial_jsonl().as_bytes()),
                fired: r.layers.iter().all(|l| l.injections == CAMPAIGN_INJECTIONS),
            }
        }
        Op::Weight { seed } => {
            let cfg = CampaignConfig {
                injections_per_layer: WEIGHT_INJECTIONS,
                seed,
                jobs: 1,
                ..Default::default()
            };
            let r = run_weight_campaign(ge, env.model(), &env.x, &env.y, &cfg);
            Outcome {
                units: r.planned_trials as u64,
                digest: digest(r.canonical_trial_jsonl().as_bytes()),
                fired: r.trials.iter().all(|t| weight_flip_landed(env, t)),
            }
        }
        Op::Eval { .. } => unreachable!("not a campaign operation"),
    }
}

/// Bits of `ge`'s logits for `model` on the run's inputs, with the
/// weights quantised as `evaluate_accuracy_jobs` quantises them, and the
/// accuracy those logits give.
fn emulated_logits(env: &Env, ge: &GoldenEye, model: &dyn Module) -> (String, f32) {
    let (x, y) = env.data.head_batch(EVAL_IMAGES);
    let snap = ParamSnapshot::capture(model);
    ge.quantize_weights(model);
    let logits = ge.run(model, x);
    snap.restore(model);
    let correct = tensor::ops::argmax_rows(&logits).iter().zip(&y).filter(|(p, t)| p == t).count();
    let bits: Vec<u8> = logits.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    (digest(&bits), correct as f32 / y.len() as f32)
}

/// Checks made once per run before timing starts, each counted as one
/// attempted operation. Every dequantise LUT that attaching the store
/// loaded must equal the table the current code builds. (The LUT cache is
/// process-wide, so the store-less runs below share it.) Emulated
/// outputs are also computed *without* the store, and must match the
/// store-backed ones:
///
/// - `emulate`: the bits of every (model, format)'s logits on the run's
///   32 images must match with and without the store, and the accuracy
///   they give becomes the expected output of the timed operations;
/// - `weight_campaign`: the operation, run without the store, gives the
///   digest the timed operations must repeat;
/// - `campaign`: per site kind, a small config (one injection per layer)
///   run batched at `jobs = nproc` must be byte-identical to the
///   per-trial engine at `jobs = 1`, and to the batched run without the
///   store.
pub fn pre_checks(env: &Env, gate: &mut Gate) {
    for (f, ge) in &env.engines {
        if let Some(loaded) = formats::lut::cached(ge.format()) {
            let built = formats::lut::DequantLut::build(ge.format()).expect("LUT-eligible format");
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let same = bits(loaded.table()) == bits(built.table());
            gate.check(&format!("stored LUT == built LUT ({})", spec_of(f)), same);
        }
    }
    match env.workload {
        Workload::Emulate => {
            for (mi, (_, m)) in env.models.iter().enumerate() {
                for (f, ge) in &env.engines {
                    let op = Op::Eval { model: mi, family: Some(*f) };
                    let key = key(env, op);
                    let plain = setup::engine(spec_of(f), None);
                    let (want, acc) = emulated_logits(env, &plain, m.as_ref());
                    let (got, _) = emulated_logits(env, ge, m.as_ref());
                    gate.check(&format!("logits with store == without ({key})"), got == want);
                    gate.expect(&key, accuracy_digest(acc));
                }
            }
        }
        Workload::Campaign => {
            for (family, site) in [("fp", SiteKind::Value), ("bfp", SiteKind::Metadata)] {
                let small =
                    CampaignConfig { injections_per_layer: 1, ..campaign_config(env, site, 1) };
                let serial = CampaignConfig { jobs: 1, trials_per_batch: 1, ..small.clone() };
                let plain = setup::engine(spec_of(family), None);
                let (model, x, y) = (env.model(), &env.x, &env.y);
                let runs = [
                    run_campaign(env.engine(family), model, x, y, &small),
                    run_campaign(env.engine(family), model, x, y, &serial),
                    run_campaign(&plain, model, x, y, &small),
                ]
                .map(|r| r.canonical_trial_jsonl());
                let spec = spec_of(family);
                gate.check(&format!("batched == per-trial ({spec})"), runs[0] == runs[1]);
                gate.check(&format!("with store == without ({spec})"), runs[0] == runs[2]);
            }
        }
        Workload::WeightCampaign => {
            let op = Op::Weight { seed: env.campaign_seed };
            let key = key(env, op);
            let plain = setup::engine(spec_of("fp"), None);
            let reference =
                gate.op(&format!("without store {key}"), || run_campaign_op(env, &plain, op));
            if let Some(r) = reference {
                gate.expect(&key, r.digest);
            }
        }
    }
}
