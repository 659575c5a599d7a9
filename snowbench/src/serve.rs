//! `serve_open`: the inference service under concurrent arrivals, one
//! replica with the default `BatchPolicy`.
//!
//! * Light phase: an open loop of Poisson arrivals at a fixed rate from
//!   one generator thread. Each query is timed from when it was due, so
//!   a stall also charges the queries queued behind it, and the
//!   generator's own lateness is reported.
//! * Saturation phase: a closed loop keeping a fixed number of queries
//!   in flight; its completion rate is the throughput.
//!
//! Every response must be bit-equal to the `Pmm::predict` result the
//! set-up computed for the same graph.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rand::prelude::*;
use snowplow_core::fleet::InferenceService;
use snowplow_core::learning::{InferenceStats, QueryGraph};
use snowplow_core::prog_gen::Generator;
use snowplow_core::{train_pmm, ArgLoc, Kernel, KernelVersion, Pmm, Vm};

use crate::stats;
use crate::trace::{layer_stats, Tracer};
use crate::workload::{pct, peak_rss_mib, set_latency_metrics, set_layer, setup, Ctx, Outcome};

/// Share of the window given to the light phase; the rest saturates.
const LIGHT_SHARE: f64 = 0.5;
/// Frontier blocks each query marks as targets.
const TARGETS: usize = 6;

/// Arrival offsets, in seconds from the phase start, of `n` Poisson
/// arrivals at `rate` per second drawn from `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t -= (1.0 - rng.random::<f64>()).ln() / rate;
            t
        })
        .collect()
}

/// `n` query graphs built from programs generated from `seed`, each
/// targeting up to six frontier blocks of its program's coverage. Only
/// graphs the service accepts (a candidate and a target) are kept.
pub fn query_graphs(kernel: &Kernel, seed: u64, n: usize) -> Vec<QueryGraph> {
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vm = Vm::new(kernel);
    let snap = vm.snapshot();
    let mut graphs = Vec::with_capacity(n);
    for _ in 0..n * 100 {
        if graphs.len() == n {
            break;
        }
        let prog = generator.generate(&mut rng, 6);
        vm.restore(&snap);
        let exec = vm.execute(&prog);
        let mut frontier = kernel.cfg().alternative_entries(&exec.coverage());
        frontier.shuffle(&mut rng);
        frontier.truncate(TARGETS);
        let g = QueryGraph::build(kernel, &prog, &exec, &frontier);
        if g.candidate_count() > 0 && g.target_count() > 0 {
            graphs.push(g);
        }
    }
    graphs
}

/// Bit-equality of two score lists.
fn same(a: &[(ArgLoc, f32)], b: &[(ArgLoc, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((la, fa), (lb, fb))| la == lb && fa.to_bits() == fb.to_bits())
}

/// Waits for a submitted query's scores (`None` if it was refused).
type Answer = Box<dyn FnOnce() -> Option<Vec<(ArgLoc, f32)>> + Send>;

/// One light-phase query: when it was due, submitted, and answered.
struct Query {
    due: Instant,
    submit: (Instant, Instant),
    done: Instant,
    ok: bool,
}

/// Service counters over one phase.
fn phase_stats(
    out: &mut Outcome,
    phase: &str,
    a: &InferenceStats,
    b: &InferenceStats,
    wall: Duration,
) {
    let served = (b.served - a.served) as f64;
    let batches = (b.batches - a.batches).max(1) as f64;
    let busy = (b.busy - a.busy).as_nanos() as f64;
    let mean_latency = (b.latency - a.latency).as_nanos() as f64 / served.max(1.0);
    let wait = mean_latency - busy / batches;
    out.set(format!("pmm.server.served.{phase}"), served, "count");
    out.set(
        format!("pmm.server.mean_batch.{phase}"),
        served / batches,
        "count",
    );
    out.set(
        format!("pmm.server.busy_pct.{phase}"),
        pct(busy, wall.as_nanos() as f64),
        "%",
    );
    out.set(
        format!("pmm.server.latency_mean_us.{phase}"),
        mean_latency / 1e3,
        "us",
    );
    out.set(format!("pmm.server.wait_us.{phase}"), wait / 1e3, "us");
    out.set(
        format!("pmm.server.wait_pct.{phase}"),
        pct(wait, mean_latency),
        "%",
    );
}

/// The set-up: a trained model, the query graphs with the scores every
/// answer must equal, and the started service, warmed by one round trip
/// per graph.
pub fn prepare(ctx: &Ctx) -> Prepared {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let mut model = train_pmm(&kernel, ctx.sizes.train.clone()).0;
    let graphs = query_graphs(&kernel, ctx.seed, ctx.sizes.serve_graphs);
    let expected = graphs.iter().map(|g| model.predict(g)).collect();
    let service = InferenceService::start(&model, 1);
    for g in &graphs {
        let _ = service.predict_blocking(g.clone());
    }
    Prepared {
        model,
        graphs,
        expected,
        service,
    }
}

pub struct Prepared {
    model: Pmm,
    graphs: Vec<QueryGraph>,
    expected: Vec<Vec<(ArgLoc, f32)>>,
    service: InferenceService,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let n_graphs = ctx.sizes.serve_graphs;
    let Prepared {
        model,
        graphs,
        expected,
        service,
    } = setup(ctx, &mut out, || prepare(ctx));
    if graphs.len() < n_graphs {
        out.fail(format!(
            "only {} of {n_graphs} query graphs were usable",
            graphs.len()
        ));
        return out;
    }

    // ---- Light phase: open loop. ----
    let n_light = ((ctx.sizes.serve_rate * ctx.seconds * LIGHT_SHARE).round() as usize).max(1);
    let schedule = poisson_schedule(!ctx.seed, ctx.sizes.serve_rate, n_light);
    let s0 = service.stats();
    let light_start = Instant::now();
    let queries: Vec<Query> = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Instant, (Instant, Instant), Answer)>();
        let expected = &expected;
        // Answers arrive in submission order (one replica, one lane), so
        // waiting on each in turn observes every completion promptly.
        let collector = s.spawn(move || {
            rx.iter()
                .map(|(i, due, submit, answer)| {
                    let answer = answer();
                    let done = Instant::now();
                    let ok = answer.is_some_and(|r| same(&r, &expected[i % expected.len()]));
                    Query {
                        due,
                        submit,
                        done,
                        ok,
                    }
                })
                .collect::<Vec<_>>()
        });
        let t0 = Instant::now() + Duration::from_millis(1);
        for (i, offset) in schedule.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(*offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let a = Instant::now();
            let pending = service.submit(graphs[i % graphs.len()].clone());
            let b = Instant::now();
            let answer: Answer = Box::new(move || pending.ok()?.recv().ok());
            tx.send((i, due, (a, b), answer))
                .expect("the collector outlives the generator");
        }
        drop(tx);
        collector.join().expect("the collector does not panic")
    });
    let light_wall = light_start.elapsed();
    let s1 = service.stats();

    // ---- Saturation phase: closed loop. ----
    let sat_start = Instant::now();
    let deadline = sat_start + Duration::from_secs_f64(ctx.seconds * (1.0 - LIGHT_SHARE));
    let submit = |k: usize| (k, service.submit(graphs[k % graphs.len()].clone()));
    let mut inflight: VecDeque<_> = (0..ctx.sizes.serve_inflight).map(submit).collect();
    let mut next = inflight.len();
    let (mut sat_ok, mut sat_failed, mut last) = (0u64, 0u64, sat_start);
    while let Some((k, pending)) = inflight.pop_front() {
        let answer = pending.ok().and_then(|p| p.recv().ok());
        last = Instant::now();
        if answer.is_some_and(|r| same(&r, &expected[k % expected.len()])) {
            sat_ok += 1;
        } else {
            sat_failed += 1;
        }
        if last < deadline {
            inflight.push_back(submit(next));
            next += 1;
        }
    }
    let sat_wall = last - sat_start;
    let s2 = service.stats();

    // ---- Checks and metrics. ----
    let light_failed = queries.iter().filter(|q| !q.ok).count() as u64;
    out.attempted = queries.len() as u64 + sat_ok + sat_failed;
    out.failed = light_failed + sat_failed;
    if out.failed > 0 {
        out.failures.push(format!(
            "{light_failed} light and {sat_failed} saturation answers were refused or differ from Pmm::predict"
        ));
    }
    let ns = |d: Duration| d.as_nanos() as f64;
    let latency: Vec<f64> = queries.iter().map(|q| ns(q.done - q.due)).collect();
    let late: Vec<f64> = queries
        .iter()
        .map(|q| ns(q.submit.0.saturating_duration_since(q.due)))
        .collect();
    let submit_ns: Vec<f64> = queries
        .iter()
        .map(|q| ns(q.submit.1 - q.submit.0))
        .collect();
    out.set("ops_per_s", sat_ok as f64 / sat_wall.as_secs_f64(), "1/s");
    set_latency_metrics(&mut out, &latency);
    out.latency("serve.gen_late", &late, "us");
    let late = stats::sorted(late);
    out.set(
        "serve.gen_late_max_us",
        late.last().copied().unwrap_or(0.0) / 1e3,
        "us",
    );
    out.latency("pmm.server.submit", &submit_ns, "ns");
    out.set("serve.sent.light", queries.len() as f64, "count");
    out.set("serve.failed.light", light_failed as f64, "count");
    out.set("serve.sent.sat", (sat_ok + sat_failed) as f64, "count");
    out.set("serve.failed.sat", sat_failed as f64, "count");
    phase_stats(&mut out, "light", &s0, &s1, light_wall);
    phase_stats(&mut out, "sat", &s1, &s2, sat_wall);
    out.set(
        "pmm.server.max_queue_depth",
        s2.max_queue_depth as f64,
        "count",
    );
    // The layer summary: batching at saturation, waiting under light load.
    for (name, from) in [
        ("pmm.server.mean_batch", "pmm.server.mean_batch.sat"),
        ("pmm.server.busy_pct", "pmm.server.busy_pct.sat"),
        ("pmm.model.share_pct", "pmm.server.busy_pct.sat"),
        ("pmm.server.wait_pct", "pmm.server.wait_pct.light"),
    ] {
        let (v, unit) = out.metrics[from];
        out.set(name, v, unit);
    }
    let mean = |f: fn(&QueryGraph) -> usize| {
        graphs.iter().map(|g| f(g) as f64).sum::<f64>() / graphs.len() as f64
    };
    out.set(
        "pmm.graph.nodes_mean",
        mean(QueryGraph::node_count),
        "count",
    );
    out.set(
        "pmm.graph.candidates_mean",
        mean(QueryGraph::candidate_count),
        "count",
    );
    match peak_rss_mib() {
        Ok(mib) => out.set("peak_rss_mib", mib, "MiB"),
        Err(e) => out.fail(e),
    }

    if ctx.trace {
        // Spans come from the timestamps every run takes, so tracing
        // adds no work to the measured phases.
        let mut t = Tracer::new(light_start);
        for (i, q) in queries.iter().enumerate() {
            let id = t.record("serve.query", i as u64, None, q.due, q.done);
            t.record(
                "pmm.server.submit",
                i as u64,
                Some(id),
                q.submit.0,
                q.submit.1,
            );
        }
        let layers = layer_stats(&t.spans);
        for name in ["serve.query", "pmm.server.submit"] {
            set_layer(&mut out, &layers, name);
        }
        forward_cost(&mut out, &model, &graphs);
        out.set("trace.overhead_pct", 0.0, "%");
        out.set("trace.spans", t.spans.len() as f64, "count");
        out.tracer = Some(t);
    }
    out
}

/// Direct `Pmm::predict_batch` cost per graph at batch 1 and batch 8,
/// outside the service: what batching saves in the forward pass alone.
fn forward_cost(out: &mut Outcome, model: &Pmm, graphs: &[QueryGraph]) {
    let mut m = model.clone();
    let rounds = (512 / graphs.len()).max(1);
    let mut per_graph = |batch: usize| {
        let t = Instant::now();
        for _ in 0..rounds {
            for chunk in graphs.chunks(batch) {
                std::hint::black_box(m.predict_batch(chunk));
            }
        }
        t.elapsed().as_nanos() as f64 / (rounds * graphs.len()) as f64
    };
    per_graph(8);
    let (b1, b8) = (per_graph(1), per_graph(8));
    out.set("pmm.model.forward_ns.b1", b1, "ns");
    out.set("pmm.model.forward_ns.b8", b8, "ns");
    out.set("pmm.model.batch8_speedup", b1 / b8, "x");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_its_seed() {
        let a = poisson_schedule(5, 1000.0, 4000);
        assert_eq!(a, poisson_schedule(5, 1000.0, 4000));
        assert_ne!(a, poisson_schedule(6, 1000.0, 4000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 4000 arrivals at 1000/s take about 4 s.
        let span = a[a.len() - 1];
        assert!((3.6..4.4).contains(&span), "{span}");
    }
}
