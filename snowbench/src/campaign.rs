//! `campaign_syzkaller` and `campaign_snowplow`: 24-virtual-hour
//! campaigns on one thread, stepped one Figure-1 iteration at a time so
//! each iteration's latency is measured.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snowplow_bench::day_config;
use snowplow_core::fuzzing::{Campaign, CampaignConfig, CampaignReport, FuzzerKind};
use snowplow_core::{train_pmm, Kernel, KernelVersion, Pmm, Prog};

use crate::stats;
use crate::trace::{layer_stats, lock, SharedTracer, TracedClient, Tracer};
use crate::workload::{
    guarded, input_seed, pct, replay_costs, report_digest, set_latency_metrics, set_layer, setup,
    warm, window, Ctx, Outcome, Samples,
};

/// The campaign configuration of seed `seed`: `day_config`, with the
/// virtual length the sizes ask for.
pub fn config(ctx: &Ctx, seed: u64) -> CampaignConfig {
    let mut cfg = day_config(seed);
    cfg.duration = ctx.sizes.campaign;
    cfg
}

/// Executions a campaign of `cfg` must report: one per `exec_cost` of
/// virtual time.
pub fn expected_execs(cfg: &CampaignConfig) -> u64 {
    (cfg.duration.as_nanos() / cfg.exec_cost.as_nanos()) as u64
}

/// The invariants every finished campaign must satisfy.
pub fn check(report: &CampaignReport, cfg: &CampaignConfig, snowplow: bool) -> Result<(), String> {
    let seed = cfg.seed;
    if report.execs != expected_execs(cfg) {
        return Err(format!(
            "campaign {seed}: {} execs, expected {}",
            report.execs,
            expected_execs(cfg)
        ));
    }
    if report.final_edges == 0 || report.corpus_len == 0 {
        return Err(format!("campaign {seed}: no coverage"));
    }
    if snowplow && report.inferences == 0 {
        return Err(format!("campaign {seed}: the model was never queried"));
    }
    Ok(())
}

struct Unit {
    report: CampaignReport,
    wall: Duration,
    /// The final corpus, when asked for (replay estimates).
    corpus: Vec<Prog>,
}

/// Runs one campaign, recording each step's latency into `steps`, and
/// spans into `tracer` when given.
fn campaign(
    kernel: &Kernel,
    kind: FuzzerKind,
    cfg: CampaignConfig,
    steps: &mut Samples,
    tracer: Option<&SharedTracer>,
    keep_corpus: bool,
) -> Unit {
    let seed = cfg.seed;
    let t0 = Instant::now();
    let span = tracer.map(|t| lock(t).begin("fuzzer.setup", seed, t0));
    let mut rc = Campaign::new(kernel, kind, cfg).into_running();
    if let (Some(t), Some(id)) = (tracer, span) {
        lock(t).end(id, Instant::now());
    }
    while !rc.is_done() {
        let s = Instant::now();
        let span = tracer.map(|t| lock(t).begin("fuzzer.step", seed, s));
        let stepped = rc.step();
        let e = Instant::now();
        if let (Some(t), Some(id)) = (tracer, span) {
            lock(t).end(id, e);
        }
        assert!(stepped, "a campaign that is not done must step");
        steps.record(e - s);
    }
    let c0 = Instant::now();
    let corpus = if keep_corpus {
        rc.state().corpus.iter().map(|e| e.prog.clone()).collect()
    } else {
        Vec::new()
    };
    let copy_time = c0.elapsed();
    let report = rc.finish();
    Unit {
        report,
        wall: t0.elapsed() - copy_time,
        corpus,
    }
}

/// The set-up: the kernel, warm caches, and for Snowplow a trained model.
pub fn prepare(ctx: &Ctx, snowplow: bool) -> (Kernel, Option<Pmm>) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    warm(&kernel);
    let model = snowplow.then(|| train_pmm(&kernel, ctx.sizes.train.clone()).0);
    (kernel, model)
}

/// Runs `campaign_snowplow` when `snowplow` is set, else
/// `campaign_syzkaller`.
pub fn run(ctx: &Ctx, snowplow: bool) -> Outcome {
    let mut out = Outcome::default();
    let (kernel, model) = setup(ctx, &mut out, || prepare(ctx, snowplow));
    if ctx.trace {
        run_traced(ctx, &kernel, model.as_ref(), &mut out);
    } else {
        run_plain(ctx, &kernel, model.as_ref(), &mut out);
    }
    match crate::workload::peak_rss_mib() {
        Ok(mib) => out.set("peak_rss_mib", mib, "MiB"),
        Err(e) => out.fail(e),
    }
    out
}

/// The model behind the in-process `InferenceClient`, or the baseline.
fn kind(model: Option<&Pmm>, tracer: Option<(&SharedTracer, u64)>) -> FuzzerKind {
    match (model, tracer) {
        (None, _) => FuzzerKind::Syzkaller,
        (Some(m), None) => FuzzerKind::SnowplowShared {
            client: Box::new(m.clone()),
        },
        (Some(m), Some((t, seed))) => FuzzerKind::SnowplowShared {
            client: Box::new(TracedClient {
                inner: m.clone(),
                tracer: Arc::clone(t),
                trace: seed,
            }),
        },
    }
}

fn run_plain(ctx: &Ctx, kernel: &Kernel, model: Option<&Pmm>, out: &mut Outcome) {
    let mut steps = Samples::new();
    let (mut execs, mut wall, mut edges) = (0u64, Duration::ZERO, Vec::new());
    window(ctx.seconds, |i| {
        let cfg = config(ctx, input_seed(ctx.seed, i));
        let result = guarded(|| {
            let u = campaign(
                kernel,
                kind(model, None),
                cfg.clone(),
                &mut steps,
                None,
                false,
            );
            check(&u.report, &cfg, model.is_some())?;
            execs += u.report.execs;
            wall += u.wall;
            edges.push(u.report.final_edges as f64);
            out.digest(cfg.seed, report_digest(&u.report))
        });
        out.op(result);
    });
    out.set("ops_per_s", execs as f64 / wall.as_secs_f64(), "1/s");
    set_latency_metrics(out, steps.ns());
    out.set("campaigns", edges.len() as f64, "count");
    if !edges.is_empty() {
        out.set(
            "edges_24h",
            edges.iter().sum::<f64>() / edges.len() as f64,
            "count",
        );
    }
}

/// Each seed runs twice, untraced and traced in alternating order: the
/// digests must agree, and the wall-time ratio of the pair is the
/// tracing overhead.
fn run_traced(ctx: &Ctx, kernel: &Kernel, model: Option<&Pmm>, out: &mut Outcome) {
    let tracer: SharedTracer = Arc::new(Mutex::new(Tracer::new(Instant::now())));
    let mut scratch = Samples::new();
    let mut ratios = Vec::new();
    let (mut execs, mut wall) = (0u64, Duration::ZERO);
    let (mut guided, mut inferences, mut corpus_len) = (0usize, 0u64, 0usize);
    let mut replay = None;
    window(ctx.seconds, |i| {
        let cfg = config(ctx, input_seed(ctx.seed, i));
        let seed = cfg.seed;
        let mut walls = [None, None];
        for traced in [i % 2 == 1, i % 2 == 0] {
            let result = guarded(|| {
                let tr = traced.then_some(&tracer);
                let u = campaign(
                    kernel,
                    kind(model, tr.map(|t| (t, seed))),
                    cfg.clone(),
                    &mut scratch,
                    tr,
                    traced && replay.is_none(),
                );
                check(&u.report, &cfg, model.is_some())?;
                if traced {
                    execs += u.report.execs;
                    wall += u.wall;
                    guided += u.report.attribution.guided_args;
                    inferences += u.report.inferences;
                    corpus_len += u.report.corpus_len;
                    if replay.is_none() {
                        replay = Some(replay_costs(kernel, &u.corpus, seed, |m, rng, p| {
                            m.mutate(rng, p).0
                        }));
                    }
                }
                // Traced and untraced runs of one seed share a digest key,
                // so this also checks that tracing changed nothing.
                out.digest(seed, report_digest(&u.report))?;
                Ok(u.wall)
            });
            if let Ok(w) = &result {
                walls[traced as usize] = Some(w.as_secs_f64());
            }
            out.op(result.map(|_| ()));
        }
        if let [Some(plain), Some(traced)] = walls {
            ratios.push(traced / plain);
        }
    });

    let t = std::mem::replace(&mut *lock(&tracer), Tracer::new(Instant::now()));
    let layers = layer_stats(&t.spans);
    for name in ["fuzzer.setup", "fuzzer.step", "pmm.model.predict"] {
        set_layer(out, &layers, name);
    }
    let busy = |name: &str| layers.get(name).map_or(0.0, |s| s.busy_ns as f64);
    let steps = layers.get("fuzzer.step").map_or(0.0, |s| s.calls as f64);
    let step_busy = busy("fuzzer.step");
    let wall_ns = wall.as_nanos() as f64;
    let (exec_ns, mutate_ns) = replay.unwrap_or((0.0, 0.0));
    let predict_pct = pct(busy("pmm.model.predict"), step_busy);
    let kernel_pct = pct(exec_ns * steps, step_busy);
    let prog_pct = pct(mutate_ns * steps, step_busy);
    out.set("fuzzer.step_pct", pct(step_busy, wall_ns), "%");
    out.set("fuzzer.setup_pct", pct(busy("fuzzer.setup"), wall_ns), "%");
    out.set(
        "fuzzer.unattributed_pct",
        100.0 - predict_pct - kernel_pct - prog_pct,
        "%",
    );
    out.set("kernel.exec.replay_ns", exec_ns, "ns");
    out.set("prog.mutate.replay_ns", mutate_ns, "ns");
    out.set("kernel.exec.share_pct", kernel_pct, "%");
    out.set("prog.mutate.share_pct", prog_pct, "%");
    out.set(
        "corpus.admit_per_kexec",
        1e3 * corpus_len as f64 / execs.max(1) as f64,
        "count",
    );
    if model.is_some() {
        let count = |name: &str| t.counts.get(name).copied().unwrap_or(0) as f64;
        let queries = count("pmm.graph.queries").max(1.0);
        out.set("pmm.model.share_pct", predict_pct, "%");
        out.set(
            "pmm.model.per_kexec",
            1e3 * queries / execs.max(1) as f64,
            "count",
        );
        out.set(
            "pmm.model.predict.failed",
            count("pmm.model.predict.failed"),
            "count",
        );
        out.set(
            "pmm.graph.nodes_mean",
            count("pmm.graph.nodes") / queries,
            "count",
        );
        out.set(
            "pmm.graph.candidates_mean",
            count("pmm.graph.candidates") / queries,
            "count",
        );
        out.set(
            "fuzzer.guided_edges_per_query",
            guided as f64 / inferences.max(1) as f64,
            "count",
        );
    }
    if !ratios.is_empty() {
        out.set(
            "trace.overhead_pct",
            (stats::median(ratios) - 1.0) * 100.0,
            "%",
        );
    }
    out.set("trace.spans", t.spans.len() as f64, "count");
    out.tracer = Some(t);
}
