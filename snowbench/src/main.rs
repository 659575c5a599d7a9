//! snowbench: the repository's end-to-end benchmark. Five workloads,
//! end-to-end metrics measured untraced, and a separate traced run that
//! breaks them down by layer. `README.md` next to this package explains
//! the workloads, the metrics and how to run, trace and compare.

mod campaign;
mod fleet;
mod harvest;
mod json;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::time::Instant;

use spec::Spec;
use workload::{Ctx, Outcome, Sizes};

const USAGE: &str = "usage:
  snowbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
  snowbench all --seed N [--seconds S] [--trace] [--out DIR]
  snowbench check DIR
  snowbench compare DIR_A DIR_B";

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => report::all(&args[1..]),
        Some("check") => report::check_cmd(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        _ => run(&args, started),
    };
    let code = result.unwrap_or_else(|e| {
        eprintln!("snowbench: {e}\n{USAGE}");
        2
    });
    std::process::exit(code);
}

/// Runs one workload in this process and reports it.
fn run(args: &[String], started: Instant) -> Result<i32, String> {
    let spec = Spec::load()?;
    let f = report::flags(
        args,
        &["workload", "seed", "seconds", "trace", "out", "setup-only"],
    )?;
    let workload = f.get("workload").ok_or("--workload is required")?;
    if !spec.workloads.contains(workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let trace = match f.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace `{t}`")),
    };
    let ctx = Ctx {
        workload: workload.clone(),
        seed: report::parse_flag(&f, "seed", 1)?,
        seconds: report::parse_flag(&f, "seconds", spec.run_seconds)?,
        trace,
        sizes: Sizes::full(),
        started,
    };
    if f.contains_key("setup-only") {
        // One set-up repetition for a parent run (see `workload::setup`).
        let elapsed = prepare_only(&ctx);
        println!("{elapsed}");
        return Ok(0);
    }
    // How the host behaved: what the numbers of this run owe to it.
    let (steal0, all0) = workload::cpu_ticks();
    let mut out = run_workload(&ctx);
    let (steal1, all1) = workload::cpu_ticks();
    let steal = (steal1 - steal0) as f64;
    out.set(
        "host.steal_pct",
        workload::pct(steal, (all1 - all0) as f64),
        "%",
    );
    out.set("host.calib_ms", workload::host_calibration_ms(), "ms");
    let dir = f.get("out").map_or(report::OUT_DIR, String::as_str);
    report::emit(&spec, &ctx, out, Path::new(dir))
}

/// Runs only the workload's set-up; returns seconds since process start.
fn prepare_only(ctx: &Ctx) -> f64 {
    let state: Box<dyn std::any::Any> = match ctx.workload.as_str() {
        "campaign_syzkaller" => Box::new(campaign::prepare(ctx, false)),
        "campaign_snowplow" => Box::new(campaign::prepare(ctx, true)),
        "fleet_shared" => Box::new(fleet::prepare(ctx)),
        "serve_open" => Box::new(serve::prepare(ctx)),
        _ => Box::new(harvest::prepare()),
    };
    let elapsed = ctx.started.elapsed().as_secs_f64();
    drop(state);
    elapsed
}

fn run_workload(ctx: &Ctx) -> Outcome {
    match ctx.workload.as_str() {
        "campaign_syzkaller" => campaign::run(ctx, false),
        "campaign_snowplow" => campaign::run(ctx, true),
        "fleet_shared" => fleet::run(ctx),
        "serve_open" => serve::run(ctx),
        "harvest" => harvest::run(ctx),
        other => {
            let mut out = Outcome::default();
            out.fail(format!("no implementation for workload `{other}`"));
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// Every workload, untraced and traced, at one hundredth of the work
    /// per unit and one unit per mode, through the functions the
    /// benchmark runs: all checks pass, every end-to-end metric is
    /// measured with its declared unit, and every declared layer metric
    /// is measured by some workload.
    #[test]
    fn every_workload_passes_its_checks_at_smoke_scale() {
        let spec = Spec::load().unwrap();
        let mut reached = BTreeSet::new();
        for w in &spec.workloads {
            for trace in [false, true] {
                let ctx = Ctx {
                    workload: w.clone(),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    sizes: Sizes::smoke(),
                    started: Instant::now(),
                };
                let out = run_workload(&ctx);
                assert!(
                    out.failures.is_empty(),
                    "{w} trace={trace}: {:?}",
                    out.failures
                );
                assert!(out.attempted > 0 && out.failed == 0, "{w} trace={trace}");
                for (name, (v, unit)) in &out.metrics {
                    assert!(stats::valid_name(name), "{w}: bad metric name {name}");
                    assert!(v.is_finite(), "{w}: {name} = {v}");
                    if let Some(m) = spec
                        .end_to_end
                        .iter()
                        .chain(&spec.per_layer)
                        .find(|m| &m.name == name)
                    {
                        assert_eq!(&m.unit, unit, "{w}: unit of {name}");
                    }
                }
                if !trace {
                    for m in &spec.end_to_end {
                        let v = out.metrics.get(&m.name).map(|m| m.0);
                        assert!(v.is_some_and(|v| v > 0.0), "{w}: {} = {v:?}", m.name);
                    }
                } else {
                    assert!(
                        out.tracer.is_some_and(|t| !t.spans.is_empty()),
                        "{w} recorded no spans"
                    );
                    reached.extend(out.metrics.into_keys());
                }
            }
        }
        for m in &spec.per_layer {
            assert!(reached.contains(&m.name), "no workload measures {}", m.name);
        }
    }
}
