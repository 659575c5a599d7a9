//! `harvest`: the §3.1 dataset pipeline, `Dataset::generate`, sharded
//! over two pool workers. Brute-force argument mutation and execution;
//! it never touches the model.

use std::time::{Duration, Instant};

use snowplow_core::{Dataset, DatasetConfig, Kernel, KernelVersion};

use crate::stats;
use crate::trace::{layer_stats, Tracer};
use crate::workload::{
    guarded, input_seed, pct, peak_rss_mib, replay_costs, set_latency_metrics, set_layer, setup,
    warm, window, Ctx, Outcome,
};

/// Pool workers of the measured harvest.
const WORKERS: usize = 2;

fn config(ctx: &Ctx, seed: u64, workers: usize) -> DatasetConfig {
    DatasetConfig::builder()
        .base_tests(ctx.sizes.harvest_bases)
        .mutations_per_base(ctx.sizes.harvest_mutations)
        .seed(seed)
        .workers(workers)
        .build()
}

/// Digest of everything a dataset holds.
fn digest(ds: &Dataset) -> u64 {
    stats::fnv1a64(format!("{ds:?}").as_bytes())
}

/// Generates one dataset, checks its size and records its digest.
fn harvest(
    ctx: &Ctx,
    kernel: &Kernel,
    seed: u64,
    workers: usize,
    out: &mut Outcome,
) -> Result<(Dataset, Duration), String> {
    let t = Instant::now();
    let ds = Dataset::generate(kernel, config(ctx, seed, workers));
    let wall = t.elapsed();
    let want = ctx.sizes.harvest_bases * ctx.sizes.harvest_mutations;
    if ds.stats.mutations_tried != want || ds.progs.len() != ctx.sizes.harvest_bases {
        return Err(format!(
            "harvest {seed}: {} mutations over {} bases, expected {want} over {}",
            ds.stats.mutations_tried,
            ds.progs.len(),
            ctx.sizes.harvest_bases
        ));
    }
    out.digest(seed, digest(&ds))
        .map_err(|e| format!("harvest at workers={workers}: {e}"))?;
    Ok((ds, wall))
}

/// The set-up: the kernel and warm caches.
pub fn prepare() -> Kernel {
    let kernel = Kernel::build(KernelVersion::V6_8);
    warm(&kernel);
    kernel
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let kernel = setup(ctx, &mut out, prepare);

    let mut tracer = ctx.trace.then(|| Tracer::new(Instant::now()));
    let mut units = Vec::new();
    let (mut tried, mut successful, mut samples) = (0usize, 0usize, 0usize);
    let mut first: Option<(Dataset, Duration)> = None;
    let mut ratios = Vec::new();
    window(ctx.seconds, |i| {
        let seed = input_seed(ctx.seed, i);
        // When tracing, each unit also runs untraced, in alternating
        // order, for the overhead ratio.
        let runs: &[bool] = match tracer {
            None => &[false],
            Some(_) if i % 2 == 0 => &[false, true],
            Some(_) => &[true, false],
        };
        let mut walls = [None, None];
        for &traced in runs {
            let result = guarded(|| {
                let start = Instant::now();
                let (ds, wall) = harvest(ctx, &kernel, seed, WORKERS, &mut out)?;
                walls[traced as usize] = Some(wall.as_secs_f64());
                if traced || tracer.is_none() {
                    if let Some(t) = tracer.as_mut() {
                        t.record("pmm.dataset.generate", seed, None, start, start + wall);
                    }
                    units.push(wall.as_nanos() as f64);
                    tried += ds.stats.mutations_tried;
                    successful += ds.stats.successful_mutations;
                    samples += ds.samples.len();
                    if first.is_none() {
                        first = Some((ds, wall));
                    }
                }
                Ok(())
            });
            out.op(result);
        }
        if let [Some(plain), Some(traced)] = walls {
            ratios.push(traced / plain);
        }
    });

    // The pool's promise: the same dataset at any worker count. The
    // single-worker pass over the first unit also times the scaling.
    let seed = input_seed(ctx.seed, 0);
    let scaling = guarded(|| {
        let (_, w1) = harvest(ctx, &kernel, seed, 1, &mut out)?;
        Ok(first
            .as_ref()
            .map_or(0.0, |(_, w2)| w1.as_secs_f64() / w2.as_secs_f64()))
    });
    match scaling {
        Ok(s) => out.set("pool.scaling_w2", s, "x"),
        Err(e) => out.fail(e),
    }

    let busy: f64 = units.iter().sum();
    out.set("ops_per_s", tried as f64 / (busy / 1e9), "1/s");
    set_latency_metrics(&mut out, &units);
    out.set("pmm.dataset.tried", tried as f64, "count");
    out.set(
        "pmm.dataset.samples_per_unit",
        samples as f64 / units.len().max(1) as f64,
        "count",
    );
    out.set(
        "pmm.dataset.yield_pct",
        pct(successful as f64, tried as f64),
        "%",
    );
    match peak_rss_mib() {
        Ok(mib) => out.set("peak_rss_mib", mib, "MiB"),
        Err(e) => out.fail(e),
    }

    if let Some(t) = tracer {
        set_layer(&mut out, &layer_stats(&t.spans), "pmm.dataset.generate");
        // Worker time is the generate time of every worker; the replayed
        // per-call costs estimate the kernel's and mutator's share of it.
        let (exec_ns, mutate_ns) = first.as_ref().map_or((0.0, 0.0), |(ds, _)| {
            replay_costs(&kernel, &ds.progs, seed, |m, rng, p| {
                m.mutate_arguments(rng, p, None).0
            })
        });
        let worker_ns = busy * WORKERS as f64;
        out.set("kernel.exec.replay_ns", exec_ns, "ns");
        out.set("prog.mutate.replay_ns", mutate_ns, "ns");
        out.set(
            "kernel.exec.share_pct",
            pct(exec_ns * tried as f64, worker_ns),
            "%",
        );
        out.set(
            "prog.mutate.share_pct",
            pct(mutate_ns * tried as f64, worker_ns),
            "%",
        );
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
