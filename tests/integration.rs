//! Cross-crate integration tests: the full Snowplow pipeline, exercised
//! through the public facade only.

use std::time::Duration;

use snowplow::fuzzing::{
    attempt_reproducer, Campaign, CampaignConfig, DirectedCampaign, DirectedConfig,
    DirectedOutcome, FuzzerKind, ReproOutcome,
};
use snowplow::{
    train_pmm_with_dataset, Dataset, DatasetConfig, Kernel, KernelVersion, PmmConfig, Prog, Scale,
    Split, Trainer, Vm,
};

fn small_scale() -> Scale {
    let mut s = Scale::quick();
    s.dataset.base_tests = 40;
    s.dataset.mutations_per_base = 60;
    s.train.epochs = 3;
    s
}

#[test]
fn end_to_end_pipeline_trains_and_fuzzes() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let (model, report, dataset) = train_pmm_with_dataset(&kernel, small_scale());
    assert!(!dataset.samples.is_empty());
    assert!(report.metrics.f1 > 0.0);

    let cfg = CampaignConfig::builder()
        .duration(Duration::from_secs(1800))
        .seed_corpus(20)
        .seed(9)
        .build();
    let base = Campaign::new(&kernel, FuzzerKind::Syzkaller, cfg.clone()).run();
    let snow = Campaign::new(
        &kernel,
        FuzzerKind::SnowplowShared {
            client: Box::new(model),
        },
        cfg,
    )
    .run();
    assert!(base.final_edges > 300);
    assert!(snow.final_edges > 300);
    assert!(snow.inferences > 0, "Snowplow must query the model");
}

#[test]
fn model_trained_on_68_transfers_to_later_kernels() {
    // The generalization experiment's mechanics: one model, three
    // kernels, no retraining (Figure 6b–c).
    let k68 = Kernel::build(KernelVersion::V6_8);
    let (model, _, _) = train_pmm_with_dataset(&k68, small_scale());
    for version in [KernelVersion::V6_9, KernelVersion::V6_10] {
        let kernel = Kernel::build(version);
        let report = Campaign::new(
            &kernel,
            FuzzerKind::SnowplowShared {
                client: Box::new(model.clone()),
            },
            CampaignConfig::builder()
                .duration(Duration::from_secs(900))
                .seed_corpus(15)
                .seed(3)
                .build(),
        )
        .run();
        assert!(report.inferences > 0, "{version}: no queries served");
        assert!(report.final_edges > 200, "{version}: too little coverage");
    }
}

#[test]
fn campaign_crashes_are_reproducible_programs() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let report = Campaign::new(
        &kernel,
        FuzzerKind::Syzkaller,
        CampaignConfig::builder()
            .duration(Duration::from_secs(3600))
            .seed(77)
            .build(),
    )
    .run();
    let mut reproduced = 0;
    for rec in report.crashes.records() {
        // Witnesses must be valid programs whose replay from a pristine
        // VM yields the recorded signature (determinism), unless the
        // concurrency-sensitivity model declines reproduction.
        assert!(rec.witness.validate(kernel.registry()).is_ok());
        match attempt_reproducer(&kernel, &rec.witness, &rec.description) {
            ReproOutcome::Reproduced(min) => {
                reproduced += 1;
                assert!(min.len() <= rec.witness.len());
                let mut vm = Vm::new(&kernel);
                let crash = vm.execute(&min).crash.expect("minimized prog crashes");
                assert_eq!(&*crash.description, rec.description);
            }
            ReproOutcome::NotReproducible => {}
            ReproOutcome::NoCrash => panic!("witness for {} does not replay", rec.description),
        }
    }
    if report.crashes.unique() > 0 {
        assert!(reproduced > 0, "no crash at all was reproducible");
    }
}

#[test]
fn serialized_corpus_round_trips_through_text() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let report = Campaign::new(
        &kernel,
        FuzzerKind::Syzkaller,
        CampaignConfig::builder()
            .duration(Duration::from_secs(600))
            .seed(5)
            .build(),
    )
    .run();
    assert!(report.corpus_len > 0);
    // Spot-check: crashes' witness programs survive serialize/parse.
    for rec in report.crashes.records().iter().take(5) {
        let text = rec.witness.display(kernel.registry()).to_string();
        let back = Prog::parse(kernel.registry(), &text).expect("parses back");
        assert_eq!(back, rec.witness);
    }
}

#[test]
fn directed_mode_reaches_entry_level_targets_via_facade() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    // An entry-level target: a body block on some handler's trunk
    // (`Jump`-terminated, so the error/ok exits — which may sit behind
    // hard gates — are excluded).
    let target = kernel
        .blocks()
        .iter()
        .find(|b| {
            b.gate_depth == 0
                && matches!(b.term, snowplow::Terminator::Jump(_))
                && kernel.handler(b.handler).entry != b.id
        })
        .expect("trunk block")
        .id;
    let out = DirectedCampaign::new(
        &kernel,
        None,
        DirectedConfig::builder()
            .target(target)
            .duration(Duration::from_secs(1800))
            .seed(2)
            .build(),
    )
    .run();
    assert!(matches!(out, DirectedOutcome::Reached { .. }), "{out:?}");
}

#[test]
fn hyperparameter_search_selects_a_model() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let dataset = Dataset::generate(
        &kernel,
        DatasetConfig::builder()
            .base_tests(25)
            .mutations_per_base(50)
            .build(),
    );
    let grid = vec![
        (
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            snowplow::TrainConfig::builder().epochs(1).build(),
        ),
        (
            PmmConfig {
                dim: 24,
                rounds: 2,
                ..PmmConfig::default()
            },
            snowplow::TrainConfig::builder().epochs(1).build(),
        ),
    ];
    let (model, _tc, score) = Trainer::hyperparameter_search(&kernel, &dataset, &grid);
    assert!(score >= 0.0);
    assert!(model.parameter_count() > 0);
    // The winner must evaluate cleanly.
    let trainer = Trainer::new(&kernel, snowplow::TrainConfig::default());
    let mut model = model;
    let _ = trainer.evaluate(&mut model, &dataset, Split::Evaluation);
}
