//! Criterion microbenchmarks for the performance-sensitive components:
//! simulated-kernel execution, the mutation engine, query-graph
//! construction, PMM inference, and one training step.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::prelude::*;
use snowplow_core::learning::QueryGraph;
use snowplow_core::{Kernel, KernelVersion, Pmm, PmmConfig, Vm};
use snowplow_prog::gen::Generator;
use snowplow_prog::Mutator;

fn bench_kernel_exec(c: &mut Criterion) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(1);
    let progs: Vec<_> = (0..64).map(|_| generator.generate(&mut rng, 6)).collect();
    let mut vm = Vm::new(&kernel);
    let snap = vm.snapshot();
    let mut i = 0;
    c.bench_function("kernel_exec", |b| {
        b.iter(|| {
            vm.restore(&snap);
            let r = vm.execute(&progs[i % progs.len()]);
            i += 1;
            r.trace.len()
        })
    });
}

fn bench_exec_throughput(c: &mut Criterion) {
    // The campaign's zero-alloc hot path: `execute_into` with a reused
    // result buffer.
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(12);
    let progs: Vec<_> = (0..64).map(|_| generator.generate(&mut rng, 6)).collect();

    let mut vm = Vm::new(&kernel);
    let snap = vm.snapshot();
    let mut buf = snowplow_core::ExecResult::default();
    let mut i = 0;
    c.bench_function("exec_throughput", |b| {
        b.iter(|| {
            vm.restore(&snap);
            vm.execute_into(&progs[i % progs.len()], &mut buf);
            i += 1;
            buf.trace.len()
        })
    });
}

fn bench_mutation(c: &mut Criterion) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(2);
    let base = generator.generate(&mut rng, 8);
    let mut mutator = Mutator::new(kernel.registry());
    c.bench_function("mutation", |b| {
        b.iter(|| mutator.mutate(&mut rng, &base).0.len())
    });
}

fn bench_graph_build(c: &mut Criterion) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(3);
    let prog = generator.generate(&mut rng, 6);
    let mut vm = Vm::new(&kernel);
    let exec = vm.execute(&prog);
    let frontier = kernel.cfg().alternative_entries(&exec.coverage());
    let targets = &frontier[..frontier.len().min(6)];
    c.bench_function("graph_build", |b| {
        b.iter(|| QueryGraph::build(&kernel, &prog, &exec, targets).node_count())
    });
}

fn bench_pmm_inference(c: &mut Criterion) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(4);
    let prog = generator.generate(&mut rng, 6);
    let mut vm = Vm::new(&kernel);
    let exec = vm.execute(&prog);
    let frontier = kernel.cfg().alternative_entries(&exec.coverage());
    let graph = QueryGraph::build(&kernel, &prog, &exec, &frontier[..frontier.len().min(6)]);
    let mut model = Pmm::new(PmmConfig::default(), kernel.registry().syscall_count());
    c.bench_function("pmm_inference", |b| b.iter(|| model.predict(&graph).len()));
}

fn bench_train_step(c: &mut Criterion) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(5);
    let prog = generator.generate(&mut rng, 6);
    let mut vm = Vm::new(&kernel);
    let exec = vm.execute(&prog);
    let frontier = kernel.cfg().alternative_entries(&exec.coverage());
    let graph = QueryGraph::build(&kernel, &prog, &exec, &frontier[..frontier.len().min(6)]);
    let labels: Vec<f32> = (0..graph.candidate_count())
        .map(|i| if i % 9 == 0 { 1.0 } else { 0.0 })
        .collect();
    let weights = vec![1.0f32; labels.len()];
    let mut model = Pmm::new(PmmConfig::default(), kernel.registry().syscall_count());
    c.bench_function("train_step", |b| {
        b.iter(|| model.loss_and_backward(&graph, &labels, &weights))
    });
}

fn bench_matmul(c: &mut Criterion) {
    use snowplow_core::learning::Matrix;
    let mut rng = StdRng::seed_from_u64(7);
    // The dominant PMM shape: (nodes × dim) @ (dim × dim).
    let a = Matrix::xavier(400, 48, &mut rng);
    let b = Matrix::xavier(48, 48, &mut rng);
    c.bench_function("matmul_400x48x48", |bench| {
        bench.iter(|| a.matmul(&b).at(0, 0))
    });
    c.bench_function("matmul_naive_400x48x48", |bench| {
        bench.iter(|| {
            let (m, k) = a.shape();
            let n = b.cols();
            let mut out = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a.at(i, p) * b.at(p, j);
                    }
                    *out.at_mut(i, j) = acc;
                }
            }
            out.at(0, 0)
        })
    });
    c.bench_function("matmul_t_400x48x48", |bench| {
        bench.iter(|| a.matmul_t(&b).at(0, 0))
    });
}

fn bench_gemm_tiled(c: &mut Criterion) {
    // The packed-panel GEMM across its dispatch regimes: the deep-k
    // cache-blocked shape (48-wide column blocks disabled past k=128),
    // the shallow-k shape where they engage, and a narrow output that
    // falls back to the streaming kernel.
    use snowplow_core::learning::Matrix;
    let mut rng = StdRng::seed_from_u64(5);
    for (m, k, n) in [
        (256usize, 256usize, 256usize),
        (1024, 48, 48),
        (400, 48, 12),
    ] {
        let a = Matrix::xavier(m, k, &mut rng);
        let b = Matrix::xavier(k, n, &mut rng);
        c.bench_function(&format!("gemm_tiled_{m}x{k}x{n}"), |bench| {
            bench.iter(|| a.matmul(&b).at(0, 0))
        });
    }
}

fn bench_predict_batch(c: &mut Criterion) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(8);
    let mut vm = Vm::new(&kernel);
    let graphs: Vec<QueryGraph> = (0..8)
        .map(|_| {
            let prog = generator.generate(&mut rng, 6);
            let exec = vm.execute(&prog);
            let frontier = kernel.cfg().alternative_entries(&exec.coverage());
            QueryGraph::build(&kernel, &prog, &exec, &frontier[..frontier.len().min(6)])
        })
        .collect();
    let mut model = Pmm::new(PmmConfig::default(), kernel.registry().syscall_count());
    c.bench_function("predict_8_singles", |b| {
        b.iter(|| graphs.iter().map(|g| model.predict(g).len()).sum::<usize>())
    });
    c.bench_function("predict_batch_of_8", |b| {
        b.iter(|| model.predict_batch(&graphs).len())
    });
}

fn bench_predict_replicas(c: &mut Criterion) {
    // End-to-end serving cost of a burst of 8 queries through the
    // replica-sharded service (2 replicas, round-robin routing, batch
    // formation per replica) — submit-to-answer, including queueing.
    use snowplow_core::learning::InferenceService;
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(8);
    let mut vm = Vm::new(&kernel);
    let graphs: Vec<QueryGraph> = (0..8)
        .map(|_| {
            let prog = generator.generate(&mut rng, 6);
            let exec = vm.execute(&prog);
            let frontier = kernel.cfg().alternative_entries(&exec.coverage());
            QueryGraph::build(&kernel, &prog, &exec, &frontier[..frontier.len().min(6)])
        })
        .collect();
    let model = Pmm::new(PmmConfig::default(), kernel.registry().syscall_count());
    let service = InferenceService::start(&model, 2);
    c.bench_function("predict_replicas", |b| {
        b.iter(|| {
            let pendings: Vec<_> = graphs
                .iter()
                .map(|g| service.submit(g.clone()).expect("well-formed"))
                .collect();
            pendings
                .into_iter()
                .map(|p| p.recv().expect("worker answers").len())
                .sum::<usize>()
        })
    });
}

fn bench_frontier_query(c: &mut Criterion) {
    // The per-iteration cost the campaign's frontier cache amortizes:
    // walking covered blocks and collecting uncovered successors.
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(9);
    let mut vm = Vm::new(&kernel);
    let snap = vm.snapshot();
    let mut cov = snowplow_core::Coverage::new();
    for _ in 0..32 {
        let prog = generator.generate(&mut rng, 6);
        vm.restore(&snap);
        vm.execute(&prog).merge_coverage_into(&mut cov);
    }
    c.bench_function("frontier_query", |b| {
        b.iter(|| kernel.cfg().alternative_entries(&cov).len())
    });
}

fn bench_coverage_merge(c: &mut Criterion) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(10);
    let mut vm = Vm::new(&kernel);
    let snap = vm.snapshot();
    let execs: Vec<_> = (0..32)
        .map(|_| {
            let prog = generator.generate(&mut rng, 6);
            vm.restore(&snap);
            vm.execute(&prog)
        })
        .collect();
    let mut blocks = snowplow_core::Coverage::new();
    let mut edges = snowplow_core::EdgeSet::new();
    let mut i = 0;
    c.bench_function("coverage_merge", |b| {
        b.iter(|| {
            let e = &execs[i % execs.len()];
            i += 1;
            e.merge_coverage_into(&mut blocks) + e.merge_edges_into(&mut edges)
        })
    });
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // The zero-cost-when-disabled contract: the frontier_query and
    // coverage_merge loops re-run with a disabled telemetry handle
    // recording every step must stay within noise (<1%) of the plain
    // variants above. A NullSink-backed handle is also measured — that
    // is the price of *recording* (sink only matters at flush).
    use snowplow_core::prelude::{NullSink, Phase, Telemetry};
    let kernel = Kernel::build(KernelVersion::V6_8);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(9);
    let mut vm = Vm::new(&kernel);
    let snap = vm.snapshot();
    let mut cov = snowplow_core::Coverage::new();
    for _ in 0..32 {
        let prog = generator.generate(&mut rng, 6);
        vm.restore(&snap);
        vm.execute(&prog).merge_coverage_into(&mut cov);
    }
    let disabled = Telemetry::disabled();
    c.bench_function("frontier_query_telemetry_disabled", |b| {
        b.iter(|| {
            let n = kernel.cfg().alternative_entries(&cov).len();
            disabled.phase(Phase::FrontierQuery, 0);
            disabled.observe("frontier.wanted_blocks", n as u64);
            n
        })
    });

    let mut rng = StdRng::seed_from_u64(10);
    let execs: Vec<_> = (0..32)
        .map(|_| {
            let prog = generator.generate(&mut rng, 6);
            vm.restore(&snap);
            vm.execute(&prog)
        })
        .collect();
    let mut blocks = snowplow_core::Coverage::new();
    let mut edges = snowplow_core::EdgeSet::new();
    let mut i = 0;
    c.bench_function("coverage_merge_telemetry_disabled", |b| {
        b.iter(|| {
            let e = &execs[i % execs.len()];
            i += 1;
            let n = e.merge_coverage_into(&mut blocks) + e.merge_edges_into(&mut edges);
            disabled.counter("execs", 1);
            disabled.observe("execute.new_edges", n as u64);
            n
        })
    });

    let null = Telemetry::with_sink(std::sync::Arc::new(NullSink));
    let mut blocks = snowplow_core::Coverage::new();
    let mut edges = snowplow_core::EdgeSet::new();
    let mut i = 0;
    c.bench_function("coverage_merge_telemetry_null_sink", |b| {
        b.iter(|| {
            let e = &execs[i % execs.len()];
            i += 1;
            let n = e.merge_coverage_into(&mut blocks) + e.merge_edges_into(&mut edges);
            null.counter("execs", 1);
            null.observe("execute.new_edges", n as u64);
            n
        })
    });
}

/// A small admitted-style corpus for the corpus-store benches: every
/// program kept, exec cost proportional to program length (the shape
/// the weighted minset discriminates on).
fn build_bench_corpus(kernel: &Kernel, n: usize) -> snowplow_core::fuzzing::CorpusHandle {
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(13);
    let mut vm = Vm::new(kernel);
    let snap = vm.snapshot();
    let mut corpus = snowplow_core::fuzzing::CorpusHandle::new();
    let mut union = snowplow_core::EdgeSet::new();
    for _ in 0..n {
        let p = generator.generate(&mut rng, 5);
        let cost = 250_000 * (1 + p.len() as u64);
        vm.restore(&snap);
        let exec = vm.execute(&p);
        let new = union.merge(&exec.edges());
        corpus.add_weighted(p, &exec, new, cost);
    }
    corpus
}

fn bench_corpus_minset(c: &mut Criterion) {
    // The weighted greedy cover end to end: re-execute every entry,
    // union the edge sets, lazy-greedy select by weight-per-new-edge,
    // prune, first-fit cardinality guard.
    let kernel = Kernel::build(KernelVersion::V6_8);
    let corpus = build_bench_corpus(&kernel, 256);
    c.bench_function("corpus_minset", |b| {
        b.iter(|| corpus.weighted_minset(&kernel, 1).len())
    });
}

fn bench_corpus_ingest_dedup(c: &mut Criterion) {
    // Shared-store ingest, both answers: a fresh store takes every
    // entry as an insert (hash, fingerprint, index each edge), then the
    // same entries again as pure dedup hits.
    use snowplow_core::fuzzing::{CorpusHandle, CorpusStore};
    let kernel = Kernel::build(KernelVersion::V6_8);
    let corpus = build_bench_corpus(&kernel, 256);
    c.bench_function("corpus_ingest_dedup", |b| {
        b.iter(|| {
            let store = CorpusStore::new();
            let mut insert = CorpusHandle::attached(store.clone());
            for e in corpus.iter() {
                insert.add_weighted(e.prog.clone(), &e.exec, e.new_edges, e.exec_time_ns);
            }
            let mut dedup = CorpusHandle::attached(store.clone());
            for e in corpus.iter() {
                dedup.add_weighted(e.prog.clone(), &e.exec, e.new_edges, e.exec_time_ns);
            }
            dedup.dedup_hits()
        })
    });
}

fn bench_lint(c: &mut Criterion) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let reg = kernel.registry();
    let generator = Generator::new(reg);
    let mut rng = StdRng::seed_from_u64(6);
    let progs: Vec<_> = (0..64).map(|_| generator.generate(&mut rng, 6)).collect();
    let mut i = 0;
    c.bench_function("lint", |b| {
        b.iter(|| {
            let n = snowplow_analysis::lint(reg, &progs[i % progs.len()]).len();
            i += 1;
            n
        })
    });
}

fn bench_dead_block_analysis(c: &mut Criterion) {
    let kernel = Kernel::build(KernelVersion::V6_8);
    c.bench_function("dead_block_analysis", |b| {
        b.iter(|| snowplow_analysis::statically_dead_blocks(&kernel).len())
    });
}

fn bench_analysis_fixpoint(c: &mut Criterion) {
    // Uncached interval fixpoint over one mid-sized handler: the cost
    // the AnalysisCache pays once per (handler, kernel build).
    let kernel = Kernel::build(KernelVersion::V6_8);
    let h = kernel
        .handlers()
        .iter()
        .max_by_key(|h| h.blocks.len())
        .expect("kernel has handlers");
    c.bench_function("analysis_fixpoint", |b| {
        b.iter(|| {
            snowplow_analysis::analyze_handler(kernel.registry(), kernel.blocks(), h).iterations
        })
    });
}

fn bench_static_distance(c: &mut Criterion) {
    // The distance-scheduling hot path: a multi-source reverse BFS over
    // the interval-pruned CFG from a frontier the size a campaign sees.
    let kernel = Kernel::build(KernelVersion::V6_8);
    let cache = snowplow_analysis::AnalysisCache::shared();
    let pruned = cache.pruned_cfg(&kernel);
    let infeasible = cache.infeasible_blocks(&kernel);
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(11);
    let mut vm = Vm::new(&kernel);
    let snap = vm.snapshot();
    let mut cov = snowplow_core::Coverage::new();
    for _ in 0..32 {
        let prog = generator.generate(&mut rng, 6);
        vm.restore(&snap);
        vm.execute(&prog).merge_coverage_into(&mut cov);
    }
    let frontier: Vec<_> = kernel
        .cfg()
        .alternative_entries(&cov)
        .into_iter()
        .filter(|b| !infeasible.contains(b))
        .collect();
    let mut dist = Vec::new();
    c.bench_function("static_distance", |b| {
        b.iter(|| {
            pruned.distance_to_sources(&frontier, &mut dist);
            dist.iter().flatten().count()
        })
    });
}

criterion_group!(
    benches,
    bench_kernel_exec,
    bench_exec_throughput,
    bench_mutation,
    bench_graph_build,
    bench_pmm_inference,
    bench_train_step,
    bench_matmul,
    bench_gemm_tiled,
    bench_predict_batch,
    bench_predict_replicas,
    bench_frontier_query,
    bench_coverage_merge,
    bench_telemetry_overhead,
    bench_corpus_minset,
    bench_corpus_ingest_dedup,
    bench_lint,
    bench_dead_block_analysis,
    bench_analysis_fixpoint,
    bench_static_distance
);
criterion_main!(benches);
