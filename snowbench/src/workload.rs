//! What every workload shares: the context it runs in, the outcome it
//! reports, repeated set-up, the measurement window, and the helpers
//! that turn timings into metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::prelude::*;
use snowplow_core::analysis::AnalysisCache;
use snowplow_core::fuzzing::CampaignReport;
use snowplow_core::{ExecResult, Kernel, Prog, Scale, Vm};
use snowplow_prog::Mutator;

use crate::stats;
use crate::trace::{LayerStats, Tracer};

/// How much work one unit of each workload does. The benchmark always
/// runs [`Sizes::full`]; the tests run [`Sizes::smoke`] through the same
/// code.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Virtual length of one campaign (`day_config`'s 24 hours).
    pub campaign: Duration,
    /// Virtual time each fleet campaign runs per scheduler round.
    pub quantum: Duration,
    /// How the model the Snowplow workloads query is trained.
    pub train: Scale,
    /// Base tests per harvest unit, and mutations tried per base.
    pub harvest_bases: usize,
    pub harvest_mutations: usize,
    /// Light-phase arrival rate of `serve_open`, in queries per second.
    pub serve_rate: f64,
    /// Distinct query graphs `serve_open` cycles through.
    pub serve_graphs: usize,
    /// Queries kept in flight in the saturation phase.
    pub serve_inflight: usize,
    /// Set-up repetitions, each in its own process; `setup_s` is their
    /// median.
    pub setup_reps: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            campaign: Duration::from_secs(24 * 3600),
            quantum: Duration::from_secs(900),
            train: Scale::quick(),
            harvest_bases: 200,
            harvest_mutations: 300,
            serve_rate: 500.0,
            serve_graphs: 128,
            serve_inflight: 16,
            setup_reps: 3,
        }
    }

    /// One hundredth of the full work per unit, with a model trained on
    /// a sliver of data: enough to drive every code path in a test.
    #[cfg(test)]
    pub fn smoke() -> Sizes {
        let mut train = Scale::quick();
        train.dataset.base_tests = 12;
        train.dataset.mutations_per_base = 20;
        train.train.epochs = 1;
        Sizes {
            campaign: Duration::from_secs(24 * 36),
            quantum: Duration::from_secs(9),
            train,
            harvest_bases: 2,
            harvest_mutations: 300,
            serve_rate: 1000.0,
            serve_graphs: 4,
            serve_inflight: 4,
            setup_reps: 1,
        }
    }
}

/// Where and how one workload runs.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    /// The workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    pub sizes: Sizes,
    /// Process start, where the first set-up repetition's clock starts.
    pub started: Instant,
}

/// The seed of the `i`-th campaign or harvest unit. Inputs cycle through
/// eight seeds per workload seed, so a faster program repeats known
/// inputs instead of drawing new ones: the mix of work stays the same on
/// every commit, and each repeat must reproduce its digest.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(8).wrapping_add((i % 8) as u64)
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every measured value by name, with its unit.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Output digests by input seed (a campaign seed or a harvest unit).
    pub digests: BTreeMap<u64, u64>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Counts one attempted operation, failed when `result` is an error.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Records a failed check of an operation already counted.
    pub fn fail(&mut self, why: String) {
        eprintln!("snowbench: check failed: {why}");
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records the digest of input `key`; a repeated input must repeat
    /// its digest exactly.
    pub fn digest(&mut self, key: u64, digest: u64) -> Result<(), String> {
        match self.digests.insert(key, digest) {
            Some(prev) if prev != digest => Err(format!(
                "input {key} digested {digest:016x}, earlier {prev:016x}"
            )),
            _ => Ok(()),
        }
    }

    /// Sets `<prefix>.p50_<unit>` and `<prefix>.tail_<unit>` (with the
    /// tail's percentile) from samples in nanoseconds, scaled to `unit`.
    pub fn latency(&mut self, prefix: &str, samples_ns: &[f64], unit: &'static str) {
        if samples_ns.is_empty() {
            return;
        }
        let scale = match unit {
            "us" => 1e-3,
            "ms" => 1e-6,
            _ => 1.0,
        };
        let d = stats::sorted(samples_ns.iter().copied());
        self.set(
            format!("{prefix}.p50_{unit}"),
            stats::quantile(&d, 0.5) * scale,
            unit,
        );
        if let Some(p) = stats::tail_percentile(d.len()) {
            self.set(
                format!("{prefix}.tail_{unit}"),
                stats::quantile(&d, p / 100.0) * scale,
                unit,
            );
            self.set(format!("{prefix}.tail_pct"), p, "%");
        }
        self.set(format!("{prefix}.samples"), d.len() as f64, "count");
    }
}

/// Runs `f`, turning a panic into an error so one failed operation is
/// counted instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// Runs the workload's set-up `prepare` here, timed from process start,
/// and `ctx.sizes.setup_reps - 1` more times in fresh child processes
/// (`--setup-only`), so that no process-wide cache the first set-up
/// fills can shorten the others. Sets `setup_s` to the median.
pub fn setup<T>(ctx: &Ctx, out: &mut Outcome, prepare: impl FnOnce() -> T) -> T {
    let state = prepare();
    let mut times = vec![ctx.started.elapsed().as_secs_f64()];
    for _ in 1..ctx.sizes.setup_reps {
        match child_setup_secs(ctx) {
            Ok(t) => times.push(t),
            Err(e) => out.fail(format!("set-up in a child process: {e}")),
        }
    }
    out.set("setup_reps", times.len() as f64, "count");
    out.set("setup_s", stats::median(times), "s");
    state
}

/// Set-up time, in seconds, of this workload in a child process.
fn child_setup_secs(ctx: &Ctx) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .args([
            "--workload",
            &ctx.workload,
            "--seed",
            &ctx.seed.to_string(),
            "--setup-only",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    match stdout.lines().last().map(|l| l.trim().parse::<f64>()) {
        Some(Ok(secs)) if child.status.success() => Ok(secs),
        _ => Err(format!("exited with {}, printed {stdout:?}", child.status)),
    }
}

/// Calls `unit(i)` for `i = 0, 1, ...` until `seconds` have passed
/// since the first call began; always at least once. A unit that starts
/// inside the window runs to completion.
pub fn window(seconds: f64, mut unit: impl FnMut(usize)) {
    let t0 = Instant::now();
    for i in 0.. {
        unit(i);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Most samples [`Samples`] holds.
const SAMPLE_CAP: usize = 1 << 16;

/// Latency samples in fixed memory: once full, every other sample is
/// dropped and recording continues at half the rate. A faster program
/// therefore does not grow the process, which `peak_rss_mib` would
/// otherwise count against it.
#[derive(Debug)]
pub struct Samples {
    kept: Vec<f64>,
    stride: u64,
    seen: u64,
}

impl Samples {
    pub fn new() -> Samples {
        Samples {
            kept: Vec::with_capacity(SAMPLE_CAP),
            stride: 1,
            seen: 0,
        }
    }

    pub fn record(&mut self, d: Duration) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == SAMPLE_CAP {
                let mut keep = false;
                self.kept.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(d.as_nanos() as f64);
            }
        }
        self.seen += 1;
    }

    /// The kept samples, in nanoseconds.
    pub fn ns(&self) -> &[f64] {
        &self.kept
    }
}

/// Sets the `lat_p50_us` and `lat_p90_us` end-to-end metrics, and the
/// tail, from samples in nanoseconds.
pub fn set_latency_metrics(out: &mut Outcome, samples_ns: &[f64]) {
    let d = stats::sorted(samples_ns.iter().copied());
    if d.is_empty() {
        out.fail("no latency samples were taken".to_owned());
        return;
    }
    out.set("lat_p50_us", stats::quantile(&d, 0.5) / 1e3, "us");
    out.set("lat_p90_us", stats::quantile(&d, 0.9) / 1e3, "us");
    if let Some(p) = stats::tail_percentile(d.len()) {
        out.set("lat_tail_us", stats::quantile(&d, p / 100.0) / 1e3, "us");
        out.set("lat_tail_pct", p, "%");
    }
    out.set("lat_samples", d.len() as f64, "count");
}

/// Sets `<name>.{calls,busy_ns,self_ns,p50_ns,tail_ns,tail_pct}` from
/// the aggregate of the spans called `name` (nothing when none ran).
pub fn set_layer(out: &mut Outcome, layers: &BTreeMap<&'static str, LayerStats>, name: &str) {
    let Some(st) = layers.get(name) else { return };
    out.set(format!("{name}.calls"), st.calls as f64, "count");
    out.set(format!("{name}.busy_ns"), st.busy_ns as f64, "ns");
    out.set(format!("{name}.self_ns"), st.self_ns as f64, "ns");
    out.set(format!("{name}.p50_ns"), st.p50_ns, "ns");
    if let Some((p, v)) = st.tail {
        out.set(format!("{name}.tail_ns"), v, "ns");
        out.set(format!("{name}.tail_pct"), p, "%");
    }
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Fills the process-wide caches that a first unit would otherwise fill
/// inside the measurement window: compiled handlers (`Vm::new`) and the
/// static-analysis results campaigns consult (dead blocks).
pub fn warm(kernel: &Kernel) {
    drop(Vm::new(kernel));
    AnalysisCache::shared().dead_blocks(kernel);
}

/// Milliseconds a fixed integer loop takes, median of five: how fast
/// the host ran at the end of this run. It measures no part of the
/// program; it tells a slow host from a slow commit when runs taken at
/// different times are compared.
pub fn host_calibration_ms() -> f64 {
    stats::median((0..5).map(|_| {
        let t = Instant::now();
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        t.elapsed().as_secs_f64() * 1e3
    }))
}

/// Host CPU ticks stolen by the hypervisor, and all host CPU ticks, so
/// far (`/proc/stat`; zeros where it cannot be read).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// FNV-1a digest of a campaign report's byte-exact fingerprint.
pub fn report_digest(r: &CampaignReport) -> u64 {
    stats::fnv1a64(r.fingerprint().as_bytes())
}

/// The mutation a layer applies: a campaign's full `Mutator::mutate`,
/// or the harvest's argument-only mutation.
pub type MutateFn = fn(&mut Mutator, &mut StdRng, &Prog) -> Prog;

/// Mean cost, in nanoseconds, of one `Vm::execute_into` from a restored
/// snapshot and of one `mutate`, replayed over `progs`. The tracer
/// cannot see inside a campaign step or a harvest, so these public
/// calls are timed outside them and scaled by the execution count.
/// Each program is replayed back to back, the way a chosen base is
/// mutated and run over and over, so its data stays in cache.
pub fn replay_costs(kernel: &Kernel, progs: &[Prog], seed: u64, mutate: MutateFn) -> (f64, f64) {
    if progs.is_empty() {
        return (0.0, 0.0);
    }
    let reps = (20_000 / progs.len()).max(1);
    let per_call = |t: Instant| t.elapsed().as_nanos() as f64 / (reps * progs.len()) as f64;
    let mut vm = Vm::new(kernel);
    let snap = vm.snapshot();
    let mut buf = ExecResult::default();
    let t = Instant::now();
    for p in progs {
        for _ in 0..reps {
            vm.restore(&snap);
            vm.execute_into(p, &mut buf);
            std::hint::black_box(buf.trace.len());
        }
    }
    let exec_ns = per_call(t);

    let mut mutator = Mutator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    for p in progs {
        for _ in 0..reps {
            std::hint::black_box(mutate(&mut mutator, &mut rng, p));
        }
    }
    (exec_ns, per_call(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_decimate_to_fixed_memory() {
        let mut s = Samples::new();
        let n = 5 * SAMPLE_CAP as u64;
        for i in 0..n {
            s.record(Duration::from_nanos(i));
        }
        assert!(s.ns().len() <= SAMPLE_CAP);
        assert!(s.ns().len() > SAMPLE_CAP / 2);
        // Kept samples are evenly spaced over the whole stream.
        let stride = s.ns()[1] - s.ns()[0];
        assert_eq!(stride, 8.0);
        assert!(s.ns().windows(2).all(|w| w[1] - w[0] == stride));
        assert!(*s.ns().last().unwrap() >= (n - 8) as f64);
    }

    #[test]
    fn digests_must_repeat_for_repeated_inputs() {
        let mut out = Outcome::default();
        assert!(out.digest(3, 10).is_ok());
        assert!(out.digest(3, 10).is_ok());
        assert!(out.digest(3, 11).is_err());
        out.op(Ok(()));
        out.op(Err("boom".to_owned()));
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(guarded(|| -> Result<(), String> { panic!("inside") })
            .unwrap_err()
            .contains("inside"));
    }

    #[test]
    fn input_seeds_cycle_through_eight_inputs() {
        assert_eq!(input_seed(1, 0), 8);
        assert_eq!(input_seed(1, 7), 15);
        assert_eq!(input_seed(1, 8), 8);
        assert_eq!(input_seed(2, 3), 19);
    }
}
