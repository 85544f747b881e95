//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <emulate|campaign|weight_campaign> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the program only through its public functions. With
//! `--trace 0` it times whole operations and prints the end-to-end
//! metrics; with `--trace 1` it records its own spans around the public
//! calls and prints the per-layer metrics. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Any
//! failed check makes the exit status non-zero. See `README.md`.

mod gate;
mod layers;
mod setup;
mod spans;
mod stats;
mod sys;
mod workloads;

use gate::Gate;
use std::time::{Duration, Instant};
use workloads::{Env, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--prepare") {
        return Ok(None);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, seed, seconds: seconds.max(1), trace }))
}

/// One metric of the result line.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Collects named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }
}

/// Work and wall time of a stretch of operations.
#[derive(Default, Clone, Copy)]
struct Tally {
    units: u64,
    wall_s: f64,
}

/// Runs one cycle of operations through the gate, appending each
/// operation's latency in ms.
fn run_cycle(env: &Env, gate: &mut Gate, traced: bool, lat_ms: &mut Vec<f64>) -> Tally {
    let t0 = Instant::now();
    let mut units = 0;
    for op in workloads::cycle(env) {
        let key = workloads::key(env, op);
        let t = Instant::now();
        let outcome = if traced {
            spans::next_run();
            spans::span("op", || gate.op(&key, || workloads::run(env, op)))
        } else {
            gate.op(&key, || workloads::run(env, op))
        };
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        units += outcome.map_or(0, |o| o.units);
    }
    Tally { units, wall_s: t0.elapsed().as_secs_f64() }
}

/// `--trace 0`: sets up once, runs whole cycles until `seconds` of cycle
/// time have passed, and reports the end-to-end metrics. `setup_s` is the
/// process's one set-up, from `main` (after the one-time preparation) to
/// the first timed operation, less the untimed correctness pre-checks.
fn end_to_end(args: &Args, gate: &mut Gate, started: Instant) -> Metrics {
    let env = workloads::setup(args.workload, args.seed);
    let setup_s = started.elapsed().as_secs_f64();
    workloads::pre_checks(&env, gate);
    let store0 = env.store.stats();

    let budget = args.seconds as f64;
    let mut lat = Vec::new();
    // Per-cycle throughput and CPU cost; their medians filter out a cycle
    // that a slow stretch of the host hit.
    let (mut rate, mut cpu_per_unit) = (Vec::new(), Vec::new());
    let mut total = Tally::default();
    while total.wall_s < budget {
        let cpu0 = sys::cpu_seconds();
        let t = run_cycle(&env, gate, false, &mut lat);
        let units = t.units.max(1) as f64;
        cpu_per_unit.push((sys::cpu_seconds() - cpu0) * 1e3 / units);
        rate.push(t.units as f64 / t.wall_s);
        total.units += t.units;
        total.wall_s += t.wall_s;
    }
    eprintln!(
        "[perfbench] {} cycles, {} operations, {} units in {:.2} s",
        rate.len(),
        lat.len(),
        total.units,
        total.wall_s
    );
    check_store_unchanged(&env, gate, &store0);

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("units_per_s", stats::median(&rate), "units/s");
    m.put("op_ms_p50", stats::median(&lat), "ms");
    m.put("cpu_ms_per_unit", stats::median(&cpu_per_unit), "ms");
    m.put("peak_rss_mib", sys::peak_rss_mib(), "MiB");
    m
}

/// The one-time preparation fills the store with every artifact the
/// workloads look up, so a run that writes one measured a store that was
/// not warm, and fails. (Misses alone do not count: attaching the store
/// to a format that has no LUT looks one up and finds none, by design.)
fn check_store_unchanged(env: &workloads::Env, gate: &mut Gate, before: &store::StoreStats) {
    let written = env.store.stats().bytes_written - before.bytes_written;
    gate.check("the warm store was not written to", written == 0);
}

/// `--trace 1`: interleaves untraced and traced cycles for `seconds`
/// (at least one pair), then runs the per-layer probes.
fn traced(args: &Args, gate: &mut Gate) -> Metrics {
    let env = workloads::setup(args.workload, args.seed);
    workloads::pre_checks(&env, gate);
    // Run-scoped program counters.
    trace::reset_metrics();
    trace::reset_profile();
    let store0 = env.store.stats();

    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut ratios = Vec::new();
    let mut counters = layers::Counters::default();
    let mut lat = Vec::new();
    let mut pair = 0;
    while pair < 1 || t0.elapsed() < budget {
        let mut walls = [0.0; 2];
        for step in 0..2 {
            let traced = (step + pair) % 2 == 1;
            if traced {
                let before = layers::Counters::read();
                spans::set_on(true);
                trace::capture_events(true);
                let t = run_cycle(&env, gate, true, &mut lat);
                trace::capture_events(false);
                spans::set_on(false);
                counters.add(&layers::Counters::read().since(&before), t.units);
                walls[1] = t.wall_s;
            } else {
                walls[0] = run_cycle(&env, gate, false, &mut lat).wall_s;
            }
        }
        ratios.push(walls[1] / walls[0]);
        pair += 1;
    }
    let _ = trace::take_events();
    eprintln!(
        "[perfbench] {pair} untraced/traced cycle pairs in {:.2} s",
        t0.elapsed().as_secs_f64()
    );

    let mut m = Metrics::default();
    layers::probe(&env, gate, &mut m);
    check_store_unchanged(&env, gate, &store0);
    let store = env.store.stats();
    let (hits, misses) = (store.hits - store0.hits, store.misses - store0.misses);
    m.put("store.hit_rate", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    counters.report(&mut m);
    m.put("trace.overhead_frac", stats::median(&ratios) - 1.0, "ratio");
    let recorded = spans::recorded();
    for (name, ms) in spans::self_ms_by_name(&recorded) {
        eprintln!("[perfbench] span self time {name:<32} {ms:>12.2} ms");
    }
    eprintln!("[perfbench] {} spans recorded", recorded.len());
    let out = std::path::Path::new(".perfbench_out").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = spans::write_jsonl(&recorded, &out) {
        eprintln!("[perfbench] cannot write {}: {e}", out.display());
    }
    m
}

fn json_line(gate: &Gate, m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|x| {
                assert!(x.value.is_finite(), "metric {} is not finite", x.name);
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit)
            })
            .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.correct(),
        gate.attempted(),
        gate.failed(),
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return setup::prepare(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    setup::ensure_prepared();
    let started = Instant::now();
    let mut gate = Gate::default();
    let metrics =
        if args.trace { traced(&args, &mut gate) } else { end_to_end(&args, &mut gate, started) };
    for x in &metrics.0 {
        eprintln!("[perfbench] {:<40} {:>14.6} {}", x.name, x.value, x.unit);
    }
    println!("{}", json_line(&gate, &metrics));
    std::process::exit(gate.exit_code());
}
