//! Per-layer probes for the traced run.
//!
//! Every probe calls one layer's public functions from the outside, on
//! the workload's own model(s) and input batch, inside the benchmark's
//! spans (`crate::spans`). A work split, printed to stderr, then divides
//! one unit of the workload's work across layers: calls whose time spans
//! see directly are attributed directly; work no span can separate from
//! the outside (GEMM and quantise inside a replay batch or an emulated
//! forward) is estimated from the same-shape probes, and what remains of
//! such a call stays with the layer that made it. `README.md` lists which
//! is which. The split is not a metric: its shares sum to 1, so a speed-up
//! of one layer would raise every other layer's share.

use crate::gate::Gate;
use crate::setup::{self, FAMILIES};
use crate::spans::span;
use crate::stats::{median, median_ms};
use crate::workloads::{self, campaign_config, Env, Workload, CAMPAIGN_INJECTIONS, EVAL_IMAGES};
use crate::Metrics;
use goldeneye::{run_campaign, trial_seed, GoldenEye, InjectionPlan, ParamSnapshot};
use inject::{BitSampler, Injector, SiteKind};
use nn::{Ctx, ForwardHook, LayerInfo, Module};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tensor::Tensor;
use trace::names;

/// Repetitions per timed probe call (the median is kept).
const REPS: usize = 3;
/// Calls per micro-probe (fault flips, comparisons, store gets).
const MICRO_REPS: usize = 200;
/// Weight-fault trials timed by the weight probe.
const WEIGHT_TRIALS: usize = 6;

/// Program counters reported per unit of the traced cycles: (metric,
/// reported name, whether the metric's sum (ns) rather than its count is
/// reported, in ms).
const COUNTERS: [(&str, &str, bool); 7] = [
    (names::HOOK_CONVERT_ELEMS, "counters.hook.convert_elems_per_unit", false),
    (names::HOOK_QUANTIZE_NS, "counters.hook.quantize_ms_per_unit", true),
    (names::TENSOR_GEMM_FLOPS, "counters.tensor.gemm.flops_per_unit", false),
    (names::TENSOR_PARALLEL_DISPATCHES, "counters.tensor.parallel.dispatches_per_unit", false),
    (names::CAMPAIGN_TRIALS, "counters.campaign.trials_per_unit", false),
    (names::CAMPAIGN_REPLAY_BATCHES, "counters.campaign.replay.batches_per_unit", false),
    (names::STORE_HIT, "counters.store.hits_per_unit", false),
];

/// Accumulated program-counter deltas over the traced cycles.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    vals: [f64; COUNTERS.len()],
    units: u64,
}

impl Counters {
    /// The counters' current values.
    pub fn read() -> Counters {
        let mut c = Counters::default();
        for (v, (name, _, sum)) in c.vals.iter_mut().zip(COUNTERS) {
            let m = trace::counter(name);
            *v = if sum { m.sum() as f64 / 1e6 } else { m.count() as f64 };
        }
        c
    }

    /// The change since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        let mut c = self.clone();
        for (v, b) in c.vals.iter_mut().zip(before.vals) {
            *v -= b;
        }
        c
    }

    /// Adds a delta covering `units` units of work.
    pub fn add(&mut self, delta: &Counters, units: u64) {
        for (v, d) in self.vals.iter_mut().zip(delta.vals) {
            *v += d;
        }
        self.units += units;
    }

    /// Reports every counter per unit.
    pub fn report(&self, m: &mut Metrics) {
        for (v, (_, name, sum)) in self.vals.iter().zip(COUNTERS) {
            m.put(name, v / self.units.max(1) as f64, if sum { "ms" } else { "count" });
        }
    }
}

/// Records every hooked layer's output in a native forward.
#[derive(Default)]
struct CaptureHook(Mutex<Vec<(LayerInfo, Tensor)>>);

impl ForwardHook for CaptureHook {
    fn on_output(&self, layer: &LayerInfo, output: &Tensor) -> Option<Tensor> {
        self.0.lock().expect("capture hook poisoned").push((layer.clone(), output.clone()));
        None
    }
}

/// One hooked layer as a probe sees it.
struct Layer {
    index: usize,
    act: Tensor,
    /// The layer's GEMM as `(m, k, n)`: out channels, fan-in, output
    /// positions (im2col for convolutions).
    gemm: (usize, usize, usize),
    gemm_ms: f64,
    /// Round-trip ms of this layer's output, per family.
    roundtrip_ms: BTreeMap<&'static str, f64>,
}

/// Probe results of one model on one input batch.
struct ModelProbe {
    layers: Vec<Layer>,
    native_ms: f64,
    /// Emulated forward (`GoldenEye::run`) ms, per family.
    emulated_ms: BTreeMap<&'static str, f64>,
    /// `GoldenEye::quantize_weights` ms with the warm store, per family.
    quantize_weights_ms: BTreeMap<&'static str, f64>,
}

impl ModelProbe {
    fn gemm_ms(&self) -> f64 {
        self.layers.iter().map(|l| l.gemm_ms).sum()
    }

    fn roundtrip_ms(&self, family: &str) -> f64 {
        self.roundtrip_ms_where(family, |_| true)
    }

    /// Emulated − native − round-trip: hook time the probes do not explain.
    fn unexplained_ms(&self, family: &str) -> f64 {
        self.emulated_ms[family] - self.native_ms - self.roundtrip_ms(family)
    }

    /// Round-trip ms of the layers `keep` selects.
    fn roundtrip_ms_where(&self, family: &str, keep: impl Fn(usize) -> bool) -> f64 {
        self.layers.iter().filter(|l| keep(l.index)).map(|l| l.roundtrip_ms[family]).sum()
    }
}

/// The engines of every family, with the warm store attached.
fn all_engines(env: &Env) -> Vec<(&'static str, GoldenEye)> {
    FAMILIES.iter().map(|&(f, spec)| (f, setup::engine(spec, Some(&env.store)))).collect()
}

fn engine<'a>(engines: &'a [(&'static str, GoldenEye)], family: &str) -> &'a GoldenEye {
    &engines.iter().find(|(f, _)| *f == family).expect("engine of family").1
}

/// Round-trips `t` the way the emulation hook does when no fault lands:
/// the fused elementwise pass when the format has one, else the two-pass
/// quantise/dequantise route.
fn roundtrip(ge: &GoldenEye, t: &Tensor) -> Tensor {
    let f = ge.format();
    formats::fused_roundtrip(f, t)
        .unwrap_or_else(|| f.format_to_real_tensor(&f.real_to_format_tensor(t)))
}

fn probe_model(
    model: &dyn Module,
    x: &Tensor,
    engines: &[(&'static str, GoldenEye)],
    families: &[&'static str],
) -> ModelProbe {
    let hook = Arc::new(CaptureHook::default());
    let mut ctx = Ctx::inference();
    ctx.add_hook(hook.clone());
    let xv = ctx.input(x.clone());
    model.forward(&xv, &mut ctx);
    let captured = std::mem::take(&mut *hook.0.lock().expect("capture hook poisoned"));
    let mut weights = BTreeMap::new();
    model.visit_params(&mut |p| {
        weights.insert(p.name().to_string(), p.get());
    });

    let native_ms =
        median_ms(REPS, || span("tensor.forward", || models::forward_logits(model, x.clone())));
    let mut layers = Vec::new();
    for (info, act) in captured {
        let w = &weights[&format!("{}.weight", info.name)];
        let m = if w.ndim() == 4 {
            act.dims()[1]
        } else {
            *act.dims().last().expect("non-scalar output")
        };
        let (k, n) = (w.numel() / m, act.numel() / m);
        let a = vec![0.5f32; m * k];
        let b = vec![0.25f32; k * n];
        let mut out = vec![0.0f32; m * n];
        let gemm_ms = median_ms(REPS, || {
            span("tensor.gemm", || tensor::linalg::sgemm(m, k, n, &a, &b, &mut out))
        });
        let mut roundtrip_ms = BTreeMap::new();
        for (f, ge) in engines {
            let ms = median_ms(REPS, || span("formats.roundtrip", || roundtrip(ge, &act)));
            roundtrip_ms.insert(*f, ms);
        }
        layers.push(Layer { index: info.index, act, gemm: (m, k, n), gemm_ms, roundtrip_ms });
    }
    let mut emulated_ms = BTreeMap::new();
    for (f, ge) in engines {
        let ms = median_ms(REPS, || span("instrument.run", || ge.run(model, x.clone())));
        emulated_ms.insert(*f, ms);
    }
    let mut quantize_weights_ms = BTreeMap::new();
    for &f in families {
        let ge = engine(engines, f);
        let snap = ParamSnapshot::capture(model);
        let mut samples = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            span("instrument.quantize_weights", || ge.quantize_weights(model));
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            snap.restore(model);
        }
        quantize_weights_ms.insert(f, median(&samples));
    }
    ModelProbe { layers, native_ms, emulated_ms, quantize_weights_ms }
}

/// Times `calls` calls of `f(i)` and returns µs per call.
fn micro_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// The decomposed `run_campaign` of one site at `jobs = 1`: the time of
/// each public call, its per-layer estimates, and the whole-call walls.
#[derive(Default)]
struct CampaignProbe {
    discover_ms: f64,
    capture_ms: f64,
    replay_ms: Vec<f64>,
    replay_trials: usize,
    compare_ms: f64,
    compares: usize,
    /// Estimated native-forward and round-trip ms inside the calls above.
    tensor_est_ms: f64,
    formats_est_ms: f64,
    wall_jobs1_ms: f64,
    wall_jobs_n_ms: f64,
}

impl CampaignProbe {
    fn decomposed_ms(&self) -> f64 {
        self.discover_ms + self.capture_ms + self.replay_ms.iter().sum::<f64>() + self.compare_ms
    }
}

/// Native (hook-free) forwards of a model's segment suffixes on tiled
/// copies of one input, as a replay batch runs them, timed once per
/// `(first segment, replicas)` (a single sample: with 20 replicas these
/// are the costliest probes).
struct NativeSuffix<'a> {
    model: &'a dyn Module,
    seg_inputs: Vec<Tensor>,
    ms: BTreeMap<(usize, usize), f64>,
}

impl<'a> NativeSuffix<'a> {
    fn new(model: &'a dyn Module, x: &Tensor) -> Self {
        let mut ctx = Ctx::inference();
        let mut h = ctx.input(x.clone());
        let mut seg_inputs = Vec::new();
        for s in 0..model.num_segments() {
            seg_inputs.push(h.value());
            h = model.forward_segment(s, &h, &mut ctx);
        }
        NativeSuffix { model, seg_inputs, ms: BTreeMap::new() }
    }

    fn ms(&mut self, seg: usize, replicas: usize) -> f64 {
        let (model, inputs) = (self.model, &self.seg_inputs);
        *self.ms.entry((seg, replicas)).or_insert_with(|| {
            median_ms(1, || {
                span("tensor.forward", || {
                    let mut ctx = Ctx::inference();
                    let mut h = ctx.input(tensor::ops::tile_batch(&inputs[seg], replicas));
                    for s in seg..inputs.len() {
                        h = model.forward_segment(s, &h, &mut ctx);
                    }
                    h.value()
                })
            })
        })
    }
}

fn probe_campaign(
    env: &Env,
    gate: &mut Gate,
    ge: &GoldenEye,
    family: &'static str,
    site: SiteKind,
    mp: &ModelProbe,
) -> CampaignProbe {
    let (model, x, y) = (env.model(), &env.x, &env.y);
    let cfg = goldeneye::CampaignConfig { jobs: 1, ..campaign_config(env, site, 0x5EED) };
    let mut p = CampaignProbe::default();
    // Warm the engine's paths first: on workloads that never run a
    // campaign, the first campaign call pays one-time costs.
    run_campaign(
        ge,
        model,
        x,
        y,
        &goldeneye::CampaignConfig { injections_per_layer: 1, ..cfg.clone() },
    );
    let timed = |ms: &mut f64, name: &'static str, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        span(name, f);
        *ms += t0.elapsed().as_secs_f64() * 1e3;
    };
    let mut layers = Vec::new();
    timed(&mut p.discover_ms, "campaign.discover", &mut || {
        layers = ge.discover_layers(model, x.clone())
    });
    let mut clean = None;
    timed(&mut p.capture_ms, "campaign.capture", &mut || {
        clean = Some(ge.capture_clean_run(model, x.clone()))
    });
    let clean = clean.expect("clean run captured");
    let mut replayed = Vec::new();
    let batch = cfg.effective_batch(x.numel()).max(1);
    let mut deltas = Vec::new();
    for layer in &layers {
        let seg = clean.segment_for_layer(layer.index);
        let mut start = 0;
        while start < CAMPAIGN_INJECTIONS {
            let len = batch.min(CAMPAIGN_INJECTIONS - start);
            let seeds: Vec<u64> = (start..start + len)
                .map(|t| trial_seed(cfg.seed, layer.index as u64, t as u64))
                .collect();
            let plan = InjectionPlan::single(layer.index, site);
            let mut outs = Vec::new();
            let mut ms = 0.0;
            timed(&mut ms, "campaign.replay_batch", &mut || {
                outs = ge.run_replay_batch(model, &clean, plan, BitSampler::Uniform, &seeds)
            });
            p.replay_ms.push(ms);
            p.replay_trials += len;
            replayed.push((seg, len));
            // Each replica's slice is quantised separately.
            p.formats_est_ms +=
                len as f64 * mp.roundtrip_ms_where(family, |l| clean.segment_for_layer(l) >= seg);
            for (faulty, _) in &outs {
                let mut out = None;
                timed(&mut p.compare_ms, "metrics.compare", &mut || {
                    out = Some(metrics::compare_outcomes(clean.golden(), faulty, y))
                });
                deltas.push(out.expect("compared").delta_loss);
                p.compares += 1;
            }
            start += len;
        }
    }
    // Native replays are timed only now, so that they do not disturb the
    // decomposed calls. Discovery is one native forward with an observing
    // hook; the clean capture is one emulated forward.
    let mut native = NativeSuffix::new(model, x);
    p.tensor_est_ms =
        2.0 * native.ms(0, 1) + replayed.iter().map(|&(seg, len)| native.ms(seg, len)).sum::<f64>();
    p.formats_est_ms += mp.roundtrip_ms(family);
    let t0 = Instant::now();
    let whole = span("campaign.run", || run_campaign(ge, model, x, y, &cfg));
    p.wall_jobs1_ms = t0.elapsed().as_secs_f64() * 1e3;
    let want: Vec<f32> = whole.trials.iter().filter_map(|t| t.delta_loss).collect();
    gate.check(&format!("decomposed == run_campaign ({})", ge.format().name()), want == deltas);
    let t0 = Instant::now();
    span("campaign.run", || {
        run_campaign(ge, model, x, y, &goldeneye::CampaignConfig { jobs: env.jobs, ..cfg })
    });
    p.wall_jobs_n_ms = t0.elapsed().as_secs_f64() * 1e3;
    p
}

/// Times single weight-fault trials as `run_weight_campaign` runs them:
/// flip one code of a quantised weight, dequantise it, override the
/// parameter thread-locally, run the emulated forward, compare.
/// Returns (trial ms, flip ms, weight-dequantise ms, emulated-forward
/// ms, compare ms, native forward ms over the same quantised weights),
/// medians, and the per-trial ms of one whole `run_weight_campaign`.
fn probe_weight_trial(env: &Env, ge: &GoldenEye) -> ([f64; 6], f64) {
    let model = env.model();
    let snap = ParamSnapshot::capture(model);
    ge.quantize_weights(model);
    let golden = ge.run(model, env.x.clone());
    let mut weights = Vec::new();
    model.visit_params(&mut |p| {
        if p.name().ends_with(".weight") {
            weights.push(p.clone());
        }
    });
    let width = ge.format().bit_width() as usize;
    let mut cols: [Vec<f64>; 6] = Default::default();
    for t in 0..WEIGHT_TRIALS {
        let param = &weights[t * weights.len() / WEIGHT_TRIALS];
        let t0 = Instant::now();
        let mut lap = t0;
        let mut split = |i: usize, cols: &mut [Vec<f64>; 6]| {
            cols[i].push(lap.elapsed().as_secs_f64() * 1e3);
            lap = Instant::now();
        };
        span("campaign.weight_trial", || {
            let clean = param.get();
            let mut q = ge.quantize_tensor_cached(&clean);
            span("inject.flip", || {
                let fault = Injector::new(t as u64).sample_value_fault(clean.numel(), width);
                inject::flip_value(ge.format(), &mut q, fault.index, fault.bit);
            });
            split(1, &mut cols);
            let faulty =
                span("formats.dequantize_weight", || ge.format().format_to_real_tensor(&q));
            split(2, &mut cols);
            let guard = param.override_local(faulty);
            let logits = span("instrument.run", || ge.run(model, env.x.clone()));
            drop(guard);
            split(3, &mut cols);
            span("metrics.compare", || metrics::compare_outcomes(&golden, &logits, &env.y));
            split(4, &mut cols);
        });
        cols[0].push(t0.elapsed().as_secs_f64() * 1e3);
        let native_ms = median_ms(1, || {
            span("tensor.forward", || models::forward_logits(model, env.x.clone()))
        });
        cols[5].push(native_ms);
    }
    snap.restore(model);
    let cfg = goldeneye::CampaignConfig {
        injections_per_layer: workloads::WEIGHT_INJECTIONS,
        seed: env.campaign_seed,
        jobs: 1,
        ..Default::default()
    };
    let t0 = Instant::now();
    let whole =
        span("campaign.run", || goldeneye::run_weight_campaign(ge, model, &env.x, &env.y, &cfg));
    let per_trial = t0.elapsed().as_secs_f64() * 1e3 / whole.planned_trials as f64;
    (cols.map(|c| median(&c)), per_trial)
}

/// Runs every probe and reports the per-layer metrics.
pub fn probe(env: &Env, gate: &mut Gate, m: &mut Metrics) {
    crate::spans::set_on(true);
    crate::spans::next_run();
    let engines = all_engines(env);
    let families = env.workload.families();
    let x_eval = match env.workload {
        Workload::Emulate => env.data.head_batch(EVAL_IMAGES).0,
        _ => env.x.clone(),
    };
    let probes: Vec<ModelProbe> = env
        .models
        .iter()
        .map(|(_, model)| {
            span("probe.model", || probe_model(model.as_ref(), &x_eval, &engines, families))
        })
        .collect();

    // tensor
    let native: f64 = probes.iter().map(|p| p.native_ms).sum();
    let gemm: f64 = probes.iter().map(ModelProbe::gemm_ms).sum();
    let flops: f64 = probes
        .iter()
        .flat_map(|p| &p.layers)
        .map(|l| 2.0 * (l.gemm.0 * l.gemm.1 * l.gemm.2) as f64)
        .sum();
    m.put("tensor.forward_ms", native, "ms");
    m.put("tensor.gemm_ms", gemm, "ms");
    m.put("tensor.gemm_flops", flops, "count");
    m.put("tensor.gemm_gflops", flops / (gemm * 1e6), "GFLOP/s");
    m.put("tensor.gemm_share", gemm / native, "ratio");

    // formats and instrument
    let elems: f64 = probes.iter().flat_map(|p| &p.layers).map(|l| l.act.numel() as f64).sum();
    let sum = |f: &dyn Fn(&ModelProbe) -> f64| probes.iter().map(f).sum::<f64>();
    let mean_over_families = |f: &dyn Fn(&str) -> f64| {
        families.iter().map(|fam| f(fam)).sum::<f64>() / families.len() as f64
    };
    for (fam, _) in FAMILIES {
        m.put(
            format!("formats.roundtrip_ns_per_elem.{fam}"),
            sum(&|p| p.roundtrip_ms(fam)) * 1e6 / elems,
            "ns",
        );
    }
    m.put("formats.roundtrip_ms", mean_over_families(&|f| sum(&|p| p.roundtrip_ms(f))), "ms");
    m.put("formats.convert_elems", elems, "count");
    for (fam, _) in FAMILIES {
        m.put(format!("instrument.overhead_x.{fam}"), sum(&|p| p.emulated_ms[fam]) / native, "x");
    }
    m.put(
        "instrument.hook_unexplained_ms",
        mean_over_families(&|f| sum(&|p| p.unexplained_ms(f))),
        "ms",
    );
    m.put(
        "instrument.quantize_weights_ms",
        mean_over_families(&|f| sum(&|p| p.quantize_weights_ms[f])),
        "ms",
    );

    // campaign, inject, metrics (resnet18, campaign input)
    let campaign_input_probe;
    let cp_model = match env.workload {
        Workload::Emulate => {
            campaign_input_probe =
                span("probe.model", || probe_model(env.model(), &env.x, &engines, &["fp", "bfp"]));
            &campaign_input_probe
        }
        _ => &probes[0],
    };
    let sites = [("fp", SiteKind::Value), ("bfp", SiteKind::Metadata)];
    let cps: Vec<CampaignProbe> = sites
        .iter()
        .map(|&(f, site)| {
            span("probe.campaign", || {
                probe_campaign(env, gate, engine(&engines, f), f, site, cp_model)
            })
        })
        .collect();
    let n = cps.len() as f64;
    m.put("campaign.discover_ms", cps.iter().map(|c| c.discover_ms).sum::<f64>() / n, "ms");
    m.put("campaign.capture_ms", cps.iter().map(|c| c.capture_ms).sum::<f64>() / n, "ms");
    m.put("campaign.replay_batch_ms.value", median(&cps[0].replay_ms), "ms");
    m.put("campaign.replay_batch_ms.metadata", median(&cps[1].replay_ms), "ms");
    let replay: f64 = cps.iter().flat_map(|c| &c.replay_ms).sum();
    m.put(
        "campaign.replay_ms_per_trial",
        replay / cps.iter().map(|c| c.replay_trials).sum::<usize>() as f64,
        "ms",
    );
    let skipped = trace::counter(names::CAMPAIGN_REPLAY_SEG_SKIPPED).count() as f64;
    let total = trace::counter(names::CAMPAIGN_REPLAY_SEG_TOTAL).count() as f64;
    m.put("campaign.segments_skipped_frac", skipped / total.max(1.0), "ratio");
    let wall1: f64 = cps.iter().map(|c| c.wall_jobs1_ms).sum();
    let decomposed: f64 = cps.iter().map(CampaignProbe::decomposed_ms).sum();
    m.put("campaign.unattributed_frac", 1.0 - decomposed / wall1, "ratio");
    m.put("campaign.jobs_speedup", wall1 / cps.iter().map(|c| c.wall_jobs_n_ms).sum::<f64>(), "x");
    let ([trial_ms, flip_ms, dequant_ms, run_ms, compare_ms, native_q_ms], weight_campaign_ms) =
        span("probe.weight_trial", || probe_weight_trial(env, engine(&engines, "fp")));
    m.put("campaign.weight_trial_ms", trial_ms, "ms");

    let act = &cp_model.layers.iter().max_by_key(|l| l.act.numel()).expect("hooked layers").act;
    let (fp, bfp) = (engine(&engines, "fp").format(), engine(&engines, "bfp").format());
    let mut q = fp.real_to_format_tensor(act);
    let width = fp.bit_width() as usize;
    let value_us = micro_us(MICRO_REPS, |i| {
        span("inject.flip", || {
            let f = Injector::new(i as u64).sample_value_fault(q.values.numel(), width);
            inject::flip_value(fp, &mut q, f.index, f.bit);
        })
    });
    let mut qb = bfp.real_to_format_tensor(act);
    let (words, word_width) = (qb.meta.word_count(), qb.meta.word_width());
    let metadata_us = micro_us(MICRO_REPS, |i| {
        span("inject.flip", || {
            let f = Injector::new(i as u64).sample_metadata_fault(words, word_width);
            inject::flip_metadata(bfp, &mut qb, f.index, f.bit);
        })
    });
    m.put("inject.value_flip_us", value_us, "us");
    m.put("inject.metadata_flip_us", metadata_us, "us");
    let compares: usize = cps.iter().map(|c| c.compares).sum();
    let compare_us = cps.iter().map(|c| c.compare_ms).sum::<f64>() * 1e3 / compares as f64;
    m.put("metrics.compare_us", compare_us, "us");

    // store
    let mut weights = Vec::new();
    env.model().visit_params(&mut |p| {
        if p.name().ends_with(".weight") {
            weights.push(p.get());
        }
    });
    let get_us = micro_us(MICRO_REPS, |i| {
        span("store.get", || env.store.get_or_quantize(fp, &weights[i % weights.len()]));
    });
    m.put("store.get_us", get_us, "us");

    // Work split of one unit of this workload, as shares of its time,
    // from probe times of one consistent decomposition per workload.
    let split = match env.workload {
        Workload::Emulate => {
            // A cycle: every model runs one native and one emulated
            // evaluate per family (quantise weights, emulated forward).
            let fam_sum = |f: &dyn Fn(&ModelProbe, &str) -> f64| {
                families.iter().map(|fam| sum(&|p| f(p, fam))).sum::<f64>()
            };
            let total = native + fam_sum(&|p, f| p.emulated_ms[f] + p.quantize_weights_ms[f]);
            Split {
                tensor: (1 + families.len()) as f64 * native / total,
                formats: fam_sum(&|p, f| p.roundtrip_ms(f)) / total,
                instrument: fam_sum(&|p, f| p.unexplained_ms(f)).max(0.0) / total,
                store: fam_sum(&|p, f| p.quantize_weights_ms[f]) / total,
                ..Split::default()
            }
        }
        Workload::Campaign => {
            // The decomposed `jobs = 1` campaigns; the engine keeps what
            // the estimates inside its calls do not explain.
            let inject_ms = [value_us, metadata_us]
                .iter()
                .zip(&cps)
                .map(|(us, c)| us * c.replay_trials as f64 / 1e3)
                .sum::<f64>();
            let tensor: f64 = cps.iter().map(|c| c.tensor_est_ms).sum();
            let formats: f64 = cps.iter().map(|c| c.formats_est_ms).sum();
            let metrics: f64 = cps.iter().map(|c| c.compare_ms).sum();
            Split {
                tensor: tensor / decomposed,
                formats: formats / decomposed,
                inject: inject_ms / decomposed,
                metrics: metrics / decomposed,
                campaign: (decomposed - tensor - formats - inject_ms - metrics).max(0.0)
                    / decomposed,
                ..Split::default()
            }
        }
        Workload::WeightCampaign => {
            // One trial as the weight probe timed it, scaled to the share
            // of a whole `run_weight_campaign`'s per-trial time it covers;
            // the rest is the engine's (golden run, up-front weight
            // quantisation, records).
            let act_rt = cp_model.roundtrip_ms("fp");
            let store_ms = get_us / 1e3 / workloads::WEIGHT_INJECTIONS as f64;
            let parts = [
                native_q_ms,
                dequant_ms + act_rt,
                (run_ms - native_q_ms - act_rt).max(0.0),
                flip_ms,
                compare_ms,
                store_ms,
            ];
            let covered = (trial_ms + store_ms).min(weight_campaign_ms) / weight_campaign_ms;
            let scale = covered / parts.iter().sum::<f64>();
            Split {
                tensor: parts[0] * scale,
                formats: parts[1] * scale,
                instrument: parts[2] * scale,
                inject: parts[3] * scale,
                metrics: parts[4] * scale,
                store: parts[5] * scale,
                campaign: 1.0 - covered,
            }
        }
    };
    split.report();
    crate::spans::set_on(false);
}

/// A unit of work split across layers, as shares of its time.
#[derive(Debug, Default)]
struct Split {
    tensor: f64,
    formats: f64,
    instrument: f64,
    campaign: f64,
    inject: f64,
    metrics: f64,
    store: f64,
}

impl Split {
    fn report(&self) {
        for (name, v) in [
            ("share.tensor", self.tensor),
            ("share.formats", self.formats),
            ("share.instrument", self.instrument),
            ("share.campaign", self.campaign),
            ("share.inject", self.inject),
            ("share.metrics", self.metrics),
            ("share.store", self.store),
        ] {
            eprintln!("[perfbench] work split {name:<20} {v:>8.4}");
        }
    }
}
