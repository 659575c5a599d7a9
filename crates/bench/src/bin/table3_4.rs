//! Tables 3 and 4: taxonomy of new crashes (with/without reproducer) and
//! the diagnosed-bug sample, from a 7-day Snowplow campaign.

use std::collections::BTreeMap;
use std::time::Duration;

use snowplow_bench::{hours, trained_model};
use snowplow_core::fuzzing::{
    attempt_reproducer, Campaign, CampaignConfig, FuzzerKind, ReproOutcome,
};
use snowplow_core::{CrashCategory, Kernel, KernelVersion};

fn main() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let (model, _) = trained_model(&kernel);
    let cfg = CampaignConfig::builder()
        .duration(hours(7 * 24))
        .exec_cost(Duration::from_secs(14))
        .sample_every(hours(12))
        .seed(11)
        .build();
    let report = Campaign::new(
        &kernel,
        FuzzerKind::SnowplowShared {
            client: Box::new(model),
        },
        cfg,
    )
    .run();

    // Triage every new crash with the syz-repro analogue.
    let mut by_cat: BTreeMap<CrashCategory, (usize, usize)> = BTreeMap::new();
    let mut with_repro = 0usize;
    let mut without = 0usize;
    let mut ata_related = 0usize;
    for rec in report.crashes.records() {
        if rec.known {
            continue;
        }
        let outcome = attempt_reproducer(&kernel, &rec.witness, &rec.description);
        let entry = by_cat.entry(rec.category).or_default();
        match outcome {
            ReproOutcome::Reproduced(repro) => {
                entry.0 += 1;
                with_repro += 1;
                // §5.3.2 attribution: does the reproducer contain the
                // SCSI ioctl?
                let scsi = kernel.registry().syscall_by_name("ioctl$scsi_send_command");
                if repro.calls.iter().any(|c| Some(c.def) == scsi) {
                    ata_related += 1;
                }
            }
            _ => {
                entry.1 += 1;
                without += 1;
            }
        }
    }
    println!("== Table 3: new bug reports by manifestation ==");
    println!("{:<34} {:>4} {:>4}", "Category", "Yes", "No");
    for (cat, (y, n)) in &by_cat {
        println!("{:<34} {:>4} {:>4}", format!("{cat:?}"), y, n);
    }
    println!("{:<34} {:>4} {:>4}", "Total", with_repro, without);
    println!(
        "reproducibility {:.0}% (paper: 66%); {} of {} reproducers contain the SCSI ioctl (paper: 45 of 57)",
        100.0 * with_repro as f64 / (with_repro + without).max(1) as f64,
        ata_related,
        with_repro
    );

    println!("\n== Table 4: diagnosed-bug sample (from the injected-bug registry) ==");
    println!(
        "{:<4} {:<55} {:<28} {:>6}",
        "ID", "Bug description", "Failure location", "Depth"
    );
    let mut shown = 0;
    for rec in report.crashes.records() {
        if rec.known {
            continue;
        }
        if let Some(bug) = kernel
            .bugs()
            .iter()
            .find(|b| *b.description == rec.description)
        {
            shown += 1;
            println!(
                "{:<4} {:<55} {:<28} {:>6}",
                shown,
                rec.description.chars().take(55).collect::<String>(),
                bug.location.chars().take(28).collect::<String>(),
                bug.gate_depth
            );
            if shown >= 7 {
                break;
            }
        }
    }
}
