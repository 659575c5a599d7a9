//! `fleet_shared`: four Snowplow campaigns under `FleetScheduler`,
//! sharing one single-replica `InferenceService` and one `CorpusStore`.
//! Every query is a blocking batch of one, so this is the serving tier
//! as a fleet of fuzzers meets it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use snowplow_core::fleet::{FleetScheduler, InferenceService};
use snowplow_core::fuzzing::{Campaign, CorpusStore, FuzzerKind, StoreStats};
use snowplow_core::{train_pmm, Kernel, KernelVersion, Pmm};

use crate::campaign::{check, config};
use crate::stats;
use crate::trace::{layer_stats, Tracer};
use crate::workload::{
    guarded, input_seed, pct, peak_rss_mib, report_digest, set_latency_metrics, set_layer, setup,
    warm, window, Ctx, Outcome,
};

/// Campaigns per fleet.
const CAMPAIGNS: usize = 4;

/// What the fleets of one mode add up to.
#[derive(Debug, Default)]
struct Totals {
    execs: u64,
    wall: Duration,
    edges: Vec<f64>,
    guided: usize,
    inferences: u64,
    corpus_len: usize,
    /// Service counters accumulated over the fleets' lifetimes.
    served: u64,
    batches: u64,
    busy: Duration,
    latency: Duration,
    /// Time campaigns spent blocked on the service (traced fleets).
    wait: Duration,
    spread: Option<f64>,
    store: Option<StoreStats>,
}

/// What every fleet of one run shares.
struct Env<'a> {
    ctx: &'a Ctx,
    kernel: &'a Kernel,
    service: &'a Arc<InferenceService>,
}

/// Runs one fleet over `seeds` to completion, adding each round's
/// latency to `rounds` and, when tracing, spans to `tracer`. Returns
/// the fleet's wall time.
fn fleet(
    env: &Env,
    seeds: &[u64],
    rounds: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
    totals: &mut Totals,
    out: &mut Outcome,
) -> Duration {
    let start = env.service.stats();
    let store = CorpusStore::new();
    let mut fleet = FleetScheduler::new(env.kernel, Arc::clone(env.service));
    fleet.set_shared_corpus(store.clone());
    let t0 = Instant::now();
    let mut ids = Vec::new();
    for &seed in seeds {
        let s = Instant::now();
        ids.push((fleet.spawn_shared(config(env.ctx, seed)), seed));
        if let Some(t) = tracer.as_deref_mut() {
            t.record("fleet.spawn", seed, None, s, Instant::now());
        }
    }
    loop {
        let before = tracer.is_some().then(|| env.service.stats());
        let s = Instant::now();
        let active = fleet.run_round(env.ctx.sizes.quantum);
        let e = Instant::now();
        rounds.push((e - s).as_nanos() as f64);
        if let (Some(t), Some(b)) = (tracer.as_deref_mut(), before) {
            // Each round's queries are answered before it returns, so the
            // latency delta is the time its campaigns waited on them.
            totals.wait += env.service.stats().latency - b.latency;
            t.record("fleet.round", seeds[0], None, s, e);
        }
        if active == 0 {
            break;
        }
    }
    let wall = t0.elapsed();
    let end = env.service.stats();
    totals.served += end.served - start.served;
    totals.batches += end.batches - start.batches;
    totals.busy += end.busy - start.busy;
    totals.latency += end.latency - start.latency;
    totals.wall += wall;
    for (id, seed) in ids {
        let cfg = config(env.ctx, seed);
        let result = match fleet.report(id) {
            None => Err(format!("fleet campaign {seed} did not finish")),
            Some(r) => check(r, &cfg, true).and_then(|()| {
                totals.execs += r.execs;
                totals.edges.push(r.final_edges as f64);
                totals.guided += r.attribution.guided_args;
                totals.inferences += r.inferences;
                totals.corpus_len += r.corpus_len;
                out.digest(seed, report_digest(r))
            }),
        };
        out.op(result);
    }
    if let Some(s) = fleet.aggregate().gauges.get("fleet.fair_share_spread") {
        totals.spread = Some(totals.spread.map_or(*s, |m| m.min(*s)));
    }
    totals.store.get_or_insert_with(|| store.stats());
    wall
}

/// The set-up: the kernel, warm caches, a trained model, and the
/// started single-replica service.
pub fn prepare(ctx: &Ctx) -> (Kernel, Pmm, Arc<InferenceService>) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    warm(&kernel);
    let model = train_pmm(&kernel, ctx.sizes.train.clone()).0;
    let service = Arc::new(InferenceService::start(&model, 1));
    (kernel, model, service)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (kernel, model, service) = setup(ctx, &mut out, || prepare(ctx));
    let env = Env {
        ctx,
        kernel: &kernel,
        service: &service,
    };

    let seeds = |j: usize| -> Vec<u64> {
        (0..CAMPAIGNS)
            .map(|m| input_seed(ctx.seed, CAMPAIGNS * j + m))
            .collect()
    };
    let mut rounds = Vec::new();
    let mut totals = Totals::default();
    let mut tracer = ctx.trace.then(|| Tracer::new(Instant::now()));
    let mut ratios = Vec::new();
    window(ctx.seconds, |j| {
        let seeds = seeds(j);
        let Some(t) = tracer.as_mut() else {
            fleet(&env, &seeds, &mut rounds, None, &mut totals, &mut out);
            return;
        };
        // A traced fleet and an untraced one over the same seeds, in
        // alternating order: equal digests, and the overhead ratio.
        let mut walls = [Duration::ZERO; 2];
        for traced in [j % 2 == 1, j % 2 == 0] {
            walls[traced as usize] = if traced {
                fleet(
                    &env,
                    &seeds,
                    &mut rounds,
                    Some(&mut *t),
                    &mut totals,
                    &mut out,
                )
            } else {
                let mut untraced = Totals::default();
                fleet(&env, &seeds, &mut Vec::new(), None, &mut untraced, &mut out)
            };
        }
        ratios.push(walls[1].as_secs_f64() / walls[0].as_secs_f64());
    });

    // The shared tier must report exactly what an in-process model
    // does: replay the first fleet seed as a standalone campaign.
    let seed = seeds(0)[0];
    let result = guarded(|| {
        let cfg = config(ctx, seed);
        let kind = FuzzerKind::SnowplowShared {
            client: Box::new(model.clone()),
        };
        let report = Campaign::new(&kernel, kind, cfg.clone()).run();
        check(&report, &cfg, true)?;
        out.digest(seed, report_digest(&report))
            .map_err(|e| format!("fleet and standalone campaigns differ: {e}"))
    });
    out.op(result);

    out.set(
        "ops_per_s",
        totals.execs as f64 / totals.wall.as_secs_f64(),
        "1/s",
    );
    set_latency_metrics(&mut out, &rounds);
    set_metrics(&mut out, &totals, service.stats().max_queue_depth);
    match peak_rss_mib() {
        Ok(mib) => out.set("peak_rss_mib", mib, "MiB"),
        Err(e) => out.fail(e),
    }
    if let Some(t) = tracer {
        let layers = layer_stats(&t.spans);
        for name in ["fleet.spawn", "fleet.round"] {
            set_layer(&mut out, &layers, name);
        }
        let busy = |name: &str| layers.get(name).map_or(0, |s| s.busy_ns) as f64;
        let wall = totals.wall.as_nanos() as f64;
        let wait = totals.wait.as_nanos() as f64;
        out.set("fleet.round.wait_ns", wait, "ns");
        out.set(
            "fleet.round_self_pct",
            pct(busy("fleet.round") - wait, wall),
            "%",
        );
        out.set("fuzzer.setup_pct", pct(busy("fleet.spawn"), wall), "%");
        out.set(
            "trace.overhead_pct",
            (stats::median(ratios) - 1.0) * 100.0,
            "%",
        );
        out.set("trace.spans", t.spans.len() as f64, "count");
        out.tracer = Some(t);
    }
    out
}

/// Layer metrics that need no spans: the service's own counters, the
/// fleet's fairness, the shared store, and the campaigns' outcomes.
fn set_metrics(out: &mut Outcome, t: &Totals, max_queue_depth: u64) {
    let served = t.served as f64;
    let batches = t.batches.max(1) as f64;
    let busy = t.busy.as_nanos() as f64;
    let latency = t.latency.as_nanos() as f64;
    let wall = t.wall.as_nanos() as f64;
    let kexecs = t.execs.max(1) as f64 / 1e3;
    out.set("campaigns", t.edges.len() as f64, "count");
    if !t.edges.is_empty() {
        out.set(
            "edges_24h",
            t.edges.iter().sum::<f64>() / t.edges.len() as f64,
            "count",
        );
    }
    out.set("pmm.server.served", served, "count");
    out.set("pmm.server.batches", t.batches as f64, "count");
    out.set("pmm.server.mean_batch", served / batches, "count");
    out.set("pmm.server.busy_ns", busy, "ns");
    out.set("pmm.server.busy_pct", pct(busy, wall), "%");
    let mean_latency = latency / served.max(1.0);
    let wait = mean_latency - busy / batches;
    out.set("pmm.server.latency_mean_us", mean_latency / 1e3, "us");
    out.set("pmm.server.wait_us", wait / 1e3, "us");
    out.set("pmm.server.wait_pct", pct(wait, mean_latency), "%");
    out.set(
        "pmm.server.max_queue_depth",
        max_queue_depth as f64,
        "count",
    );
    out.set("pmm.model.share_pct", pct(busy, wall), "%");
    out.set("pmm.model.per_kexec", served / kexecs, "count");
    out.set(
        "fuzzer.guided_edges_per_query",
        t.guided as f64 / t.inferences.max(1) as f64,
        "count",
    );
    out.set(
        "corpus.admit_per_kexec",
        t.corpus_len as f64 / kexecs,
        "count",
    );
    if let Some(s) = t.spread {
        out.set("fleet.fair_share_spread", s, "x");
    }
    if let Some(s) = &t.store {
        out.set("corpus.store_entries", s.entries as f64, "count");
        out.set("corpus.store_dedup_hits", s.dedup_hits as f64, "count");
        out.set("corpus.index_bytes", s.index_bytes as f64, "count");
    }
}
