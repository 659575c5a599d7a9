//! Isolated A/B test of guided vs random argument localization.

use rand::prelude::*;
use snowplow_core::{train_pmm, Kernel, KernelVersion, Scale, Vm};
use snowplow_pmm::graph::QueryGraph;
use snowplow_prog::gen::Generator;
use snowplow_prog::Mutator;

fn main() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let (mut model, report) = train_pmm(&kernel, Scale::paper());
    println!("eval {}", report.metrics);
    let mut rng = StdRng::seed_from_u64(42);
    let generator = Generator::new(kernel.registry());
    let mut mutator = Mutator::new(kernel.registry());
    let mut vm = Vm::new(&kernel);
    let snap = vm.snapshot();

    // Simulate mid-campaign state: global coverage from 3000 random execs.
    let mut global = snowplow_core::EdgeSet::new();
    let mut gblocks = snowplow_core::Coverage::new();
    let mut bases = Vec::new();
    for _ in 0..3000 {
        let p = generator.generate(&mut rng, 8);
        vm.restore(&snap);
        let e = vm.execute(&p);
        let newe = global.merge(&e.edges());
        gblocks.merge(&e.coverage());
        if newe > 0 {
            bases.push((p, e));
        }
    }
    println!("warmup: {} edges, {} bases", global.len(), bases.len());

    // A/B: for each of the last 200 bases, do 12 mutations each way.
    let mut rand_new = 0usize;
    let mut guided_new = 0usize;
    let mut rand_hits = 0usize;
    let mut guided_hits = 0usize;
    let mut loc_counts = Vec::new();
    let mut oracle_total = 0usize;
    let mut oracle_in_set = 0usize;
    let mut state_gated = 0usize;
    let mut ranks: Vec<usize> = Vec::new();
    let tail: Vec<_> = bases.iter().rev().take(200).cloned().collect();
    for (base, exec) in &tail {
        // random channel
        let mut g1 = global.clone();
        for _ in 0..12 {
            let (m, _) = mutator.mutate_arguments(&mut rng, base, None);
            vm.restore(&snap);
            let e = vm.execute(&m);
            let n = g1.merge(&e.edges());
            rand_new += n;
            if n > 0 {
                rand_hits += 1;
            }
        }
        // guided channel
        let frontier = kernel.cfg().alternative_entries(&exec.coverage());
        let mut wanted: Vec<_> = frontier
            .iter()
            .copied()
            .filter(|b| !gblocks.contains(*b))
            .collect();
        wanted.shuffle(&mut rng);
        wanted.truncate(6);
        if wanted.is_empty() {
            continue;
        }
        let graph = QueryGraph::build(&kernel, base, exec, &wanted);
        let scored = model.predict(&graph);
        let locs = model.predict_set(&graph, 0.5);
        loc_counts.push(locs.len());
        // Oracle check: does ANY single-arg mutation open a wanted target?
        // Find the gating predicate paths of the wanted blocks.
        for b in &wanted {
            for p in kernel.cfg().predecessors(*b) {
                let blk = kernel.block(*p);
                if let snowplow_kernel::Terminator::Branch { pred, taken, .. } = &blk.term {
                    if taken == b {
                        if let Some(path) = pred.arg_path() {
                            // which call is this handler's? find call idx in base with def == blk.handler
                            if let Some(ci) = base.calls.iter().position(|c| c.def == blk.handler) {
                                let loc = snowplow_prog::ArgLoc::new(ci, path.clone());
                                oracle_total += 1;
                                if locs.contains(&loc) {
                                    oracle_in_set += 1;
                                }
                                let rank = scored.iter().position(|(l, _)| *l == loc);
                                if let Some(r) = rank {
                                    ranks.push(r);
                                }
                            }
                        } else {
                            state_gated += 1;
                        }
                    }
                }
            }
        }
        let mut g2 = global.clone();
        for i in 0..12 {
            let loc = &locs[i % locs.len()];
            let (m, applied) =
                mutator.mutate_arguments(&mut rng, base, Some(std::slice::from_ref(loc)));
            if applied.is_empty() {
                continue;
            }
            vm.restore(&snap);
            let e = vm.execute(&m);
            let n = g2.merge(&e.edges());
            guided_new += n;
            if n > 0 {
                guided_hits += 1;
            }
        }
    }
    println!("random: {rand_new} new edges, {rand_hits} productive mutations");
    println!("guided: {guided_new} new edges, {guided_hits} productive mutations");
    let mean_locs: f64 = loc_counts.iter().sum::<usize>() as f64 / loc_counts.len().max(1) as f64;
    println!("mean |locs| = {mean_locs:.1}; oracle args in predicted set: {oracle_in_set}/{oracle_total} (state-gated targets: {state_gated})");
    ranks.sort();
    println!(
        "oracle rank distribution (first 20): {:?}",
        &ranks[..ranks.len().min(20)]
    );
    println!(
        "median rank: {:?} of mean {:.0} candidates",
        ranks.get(ranks.len() / 2),
        60.0
    );
}
