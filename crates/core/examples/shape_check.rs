//! Quick end-to-end shape check: Snowplow vs Syzkaller edge coverage.
//! Run: cargo run --release -p snowplow-core --example shape_check

use std::time::Duration;

use snowplow_core::fuzzing::{Campaign, CampaignConfig, FuzzerKind};
use snowplow_core::{train_pmm, Kernel, KernelVersion, Scale};

fn main() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let t0 = std::time::Instant::now();
    let (model, report) = train_pmm(&kernel, Scale::paper());
    println!("trained PMM in {:?}; eval {}", t0.elapsed(), report.metrics);
    for seed in [1u64, 2] {
        let cfg = CampaignConfig::builder()
            .duration(Duration::from_secs(24 * 3600))
            .exec_cost(Duration::from_secs(2))
            .seed(seed)
            .build();
        let t = std::time::Instant::now();
        let base = Campaign::new(&kernel, FuzzerKind::Syzkaller, cfg.clone()).run();
        let tb = t.elapsed();
        let t = std::time::Instant::now();
        let snow = Campaign::new(
            &kernel,
            FuzzerKind::SnowplowShared {
                client: Box::new(model.clone()),
            },
            cfg,
        )
        .run();
        let ts = t.elapsed();
        let speedup = snow
            .time_to_edges(base.final_edges)
            .map(|t| base.timeline.last().unwrap().at.as_secs_f64() / t.as_secs_f64());
        println!(
            "seed {seed}: syzkaller {} edges ({} execs, {tb:?}) | snowplow {} edges ({} execs, {} inf, {ts:?}) | improv {:.1}% | speedup {:?}",
            base.final_edges,
            base.execs,
            snow.final_edges,
            snow.execs,
            snow.inferences,
            100.0 * (snow.final_edges as f64 / base.final_edges as f64 - 1.0),
            speedup
        );
        println!(
            "  attribution: syz {:?} | snow {:?}",
            base.attribution, snow.attribution
        );
        println!(
            "  crashes: syz {} new / {} known; snow {} new / {} known",
            base.crashes.new_count(),
            base.crashes.known_count(),
            snow.crashes.new_count(),
            snow.crashes.known_count()
        );
    }
}
