//! The virtual machine: executes test programs against a kernel.
//!
//! A [`Vm`] owns the mutable [`KernelState`] of one guest. Executing a
//! program walks each call's handler CFG, evaluating branch predicates
//! against the call's arguments and the current state, recording the block
//! trace (KCOV-style), applying effects, and stopping at the first injected
//! crash. [`Vm::snapshot`] / [`Vm::restore`] reproduce the paper's
//! snapshot-per-test determinism discipline (§3.1): restoring before each
//! execution guarantees identical traces for identical programs.
//!
//! The walk is a direct interpreter over the kernel's block table
//! (DESIGN.md §12).

use std::sync::Arc;

use snowplow_prog::{Arg, Call, Prog, ResSource};
use snowplow_syslang::ArgPath;

use crate::block::{BlockId, Effect, Terminator};
use crate::bugs::{BugId, CrashCategory};
use crate::coverage::{Coverage, EdgeSet};
use crate::kernel::Kernel;
use crate::state::{Handle, KernelState};

/// Upper bound on blocks executed per call (handler CFGs are DAGs by
/// construction; the cap guards against future construction bugs).
/// Overflowing it is counted in [`Vm::take_cfg_cap_hits`] — and is a
/// hard (debug-assertion) error under tests, where silent trace
/// truncation would invalidate whatever the test measures.
const MAX_BLOCKS_PER_CALL: usize = 4096;

/// A crash observed during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashInfo {
    /// Which injected bug fired.
    pub bug: BugId,
    /// Stable signature (`<detector> in <location>`), shared with the
    /// bug registry's interned string — building a `CrashInfo` clones a
    /// pointer, not the signature bytes.
    pub description: Arc<str>,
    /// Detector category.
    pub category: CrashCategory,
    /// Index of the crashing call within the program.
    pub call_index: usize,
    /// The block whose execution crashed.
    pub block: BlockId,
}

/// The result of executing one program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecResult {
    /// Flat block trace, in execution order.
    pub trace: Vec<BlockId>,
    /// Per-call block traces (calls after a crash are absent).
    pub call_traces: Vec<Vec<BlockId>>,
    /// The crash that ended execution, if any.
    pub crash: Option<CrashInfo>,
    /// How many calls ran to completion.
    pub completed_calls: usize,
}

impl ExecResult {
    /// Block coverage of the whole execution.
    pub fn coverage(&self) -> Coverage {
        Coverage::from_trace(&self.trace)
    }

    /// Edge coverage of the execution (consecutive pairs within each
    /// call's trace; no artificial cross-call edges).
    pub fn edges(&self) -> EdgeSet {
        let mut e = EdgeSet::new();
        self.merge_edges_into(&mut e);
        e
    }

    /// Merges this execution's edge coverage directly into `acc`;
    /// returns how many edges were new. Equivalent to
    /// `acc.merge(&self.edges())` without materializing the temporary
    /// set — the campaign hot loop calls this once per execution.
    pub fn merge_edges_into(&self, acc: &mut EdgeSet) -> usize {
        let mut added = 0usize;
        for t in &self.call_traces {
            added += acc.add_trace(t);
        }
        added
    }

    /// Merges this execution's block coverage directly into `acc`;
    /// returns how many blocks were new. Equivalent to
    /// `acc.merge(&self.coverage())` without the temporary set.
    pub fn merge_coverage_into(&self, acc: &mut Coverage) -> usize {
        acc.add_trace(&self.trace)
    }
}

/// A saved kernel state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    state: KernelState,
}

/// One guest VM bound to a kernel.
#[derive(Debug)]
pub struct Vm<'k> {
    kernel: &'k Kernel,
    state: KernelState,
    /// Scratch for the per-call produced-resource table, reused across
    /// executions.
    produced_scratch: Vec<Option<Handle>>,
    /// Retired per-call trace buffers, recycled by [`Vm::execute_into`].
    ct_spare: Vec<Vec<BlockId>>,
    /// Times the [`MAX_BLOCKS_PER_CALL`] cap truncated a call since the
    /// last [`Vm::take_cfg_cap_hits`]. Always 0 for well-formed (DAG)
    /// handler CFGs.
    cfg_cap_hits: u64,
}

impl<'k> Vm<'k> {
    /// Boots a pristine VM.
    pub fn new(kernel: &'k Kernel) -> Self {
        Vm {
            kernel,
            state: KernelState::new(),
            produced_scratch: Vec::new(),
            ct_spare: Vec::new(),
            cfg_cap_hits: 0,
        }
    }

    /// The kernel this VM runs.
    pub fn kernel(&self) -> &'k Kernel {
        self.kernel
    }

    /// Drains the count of calls truncated by the per-call block cap
    /// since the last drain. Nonzero only if a handler CFG contains a
    /// cycle (a construction bug); the campaign loop surfaces it as the
    /// `exec.cfg_cap_hit` telemetry counter instead of letting release
    /// builds silently truncate traces.
    pub fn take_cfg_cap_hits(&mut self) -> u64 {
        std::mem::take(&mut self.cfg_cap_hits)
    }

    /// Read-only view of the current state.
    pub fn state(&self) -> &KernelState {
        &self.state
    }

    /// Saves the current state.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            state: self.state.clone(),
        }
    }

    /// Restores a previously saved state (reusing the current state's
    /// allocations; restore runs once per test execution).
    pub fn restore(&mut self, snap: &Snapshot) {
        self.state.restore_from(&snap.state);
    }

    /// Executes `prog` sequentially in one thread (the paper's
    /// low-nondeterminism data-collection discipline; our simulator is
    /// deterministic by construction). Stops at the first crash.
    pub fn execute(&mut self, prog: &Prog) -> ExecResult {
        let mut out = ExecResult::default();
        self.execute_into(prog, &mut out);
        out
    }

    /// Like [`Vm::execute`], but writes the result into `out`, reusing
    /// its trace buffers (and the VM's internal scratch) so a hot loop
    /// executes without per-iteration allocation. The produced result is
    /// identical to [`Vm::execute`]'s.
    pub fn execute_into(&mut self, prog: &Prog, out: &mut ExecResult) {
        // Recycle the previous result's per-call trace buffers.
        for mut t in out.call_traces.drain(..) {
            t.clear();
            self.ct_spare.push(t);
        }
        out.trace.clear();
        out.crash = None;
        out.completed_calls = 0;

        let mut produced = std::mem::take(&mut self.produced_scratch);
        produced.clear();
        produced.resize(prog.len(), None);

        self.run(prog, out, &mut produced);

        self.produced_scratch = produced;
    }

    /// The interpreter: per executed block, a block-table lookup, a
    /// predicate evaluation, and per-effect dispatch.
    fn run(&mut self, prog: &Prog, out: &mut ExecResult, produced: &mut [Option<Handle>]) {
        'calls: for (ci, call) in prog.calls.iter().enumerate() {
            let handler = self.kernel.handler(call.def);
            let mut cur = handler.entry;
            let mut ct = self.ct_spare.pop().unwrap_or_default();
            let mut steps = 0usize;
            loop {
                steps += 1;
                if steps > MAX_BLOCKS_PER_CALL {
                    self.cfg_cap_hits += 1;
                    debug_assert!(false, "handler CFG cycle detected");
                    break;
                }
                ct.push(cur);
                out.trace.push(cur);
                let block = self.kernel.block(cur);
                // Effects first (the "instruction body" of the block).
                for eff in &block.effects {
                    self.apply_effect(eff, call, produced);
                }
                // Injected crash?
                if let Some(bug) = block.crash {
                    let info = self.kernel.bugs().info(bug);
                    out.crash = Some(CrashInfo {
                        bug,
                        description: info.description.clone(),
                        category: info.category,
                        call_index: ci,
                        block: cur,
                    });
                    out.call_traces.push(ct);
                    break 'calls;
                }
                // Terminator.
                match &block.term {
                    Terminator::Jump(t) => cur = *t,
                    Terminator::Branch {
                        pred,
                        taken,
                        fallthrough,
                    } => {
                        let resolve = |src: ResSource| -> Option<Handle> {
                            match src {
                                ResSource::Ref(i) => produced.get(i).copied().flatten(),
                                ResSource::Special(_) => None,
                            }
                        };
                        cur = if pred.eval(call, &self.state, &resolve) {
                            *taken
                        } else {
                            *fallthrough
                        };
                    }
                    Terminator::Return => break,
                }
            }
            // Resource production: only a return through the normal exit
            // yields a resource (error exits model failed producers).
            let exited_ok = ct.last() == Some(&handler.exit);
            if exited_ok {
                if let Some(kind) = self.kernel.registry().syscall(call.def).ret {
                    produced[ci] = Some(self.state.produce_resource(kind));
                }
            }
            out.completed_calls += 1;
            out.call_traces.push(ct);
        }
    }

    fn apply_effect(&mut self, eff: &Effect, call: &Call, produced: &[Option<Handle>]) {
        match eff {
            Effect::Inc(v) => self.state.inc(*v),
            Effect::Dec(v) => self.state.dec(*v),
            Effect::SetFlag(v) => self.state.set_flag(*v),
            Effect::ClearFlag(v) => self.state.clear_flag(*v),
            Effect::Poison => self.state.poison(),
            Effect::CloseArg { path } => {
                if let Some(h) = resolve_res_arg(call, path, produced) {
                    self.state.kill_resource(h);
                }
            }
        }
    }
}

fn resolve_res_arg(call: &Call, path: &ArgPath, produced: &[Option<Handle>]) -> Option<Handle> {
    match call.arg_at(path)? {
        Arg::Res {
            source: ResSource::Ref(i),
        } => produced.get(*i).copied().flatten(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snowplow_prog::gen::Generator;
    use snowplow_prog::{Arg, Call, Prog};
    use snowplow_syslang::PathSegment as S;

    use crate::version::KernelVersion;

    use super::*;

    fn kernel() -> Kernel {
        Kernel::build(KernelVersion::V6_8)
    }

    #[test]
    fn execution_is_deterministic_from_snapshot() {
        let k = kernel();
        let mut vm = Vm::new(&k);
        let snap = vm.snapshot();
        let generator = Generator::new(k.registry());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let p = generator.generate(&mut rng, 6);
            vm.restore(&snap);
            let a = vm.execute(&p);
            vm.restore(&snap);
            let b = vm.execute(&p);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn execute_into_reused_buffer_matches_fresh_execute() {
        let k = kernel();
        let mut vm = Vm::new(&k);
        let snap = vm.snapshot();
        let generator = Generator::new(k.registry());
        let mut rng = StdRng::seed_from_u64(21);
        let mut buf = ExecResult::default();
        for _ in 0..60 {
            let p = generator.generate(&mut rng, 6);
            vm.restore(&snap);
            let fresh = vm.execute(&p);
            vm.restore(&snap);
            vm.execute_into(&p, &mut buf);
            assert_eq!(fresh, buf);
        }
    }

    #[test]
    fn state_persists_across_calls_within_a_program() {
        let k = kernel();
        // A program whose second call's ResValid gate depends on the
        // first call's produced fd.
        let reg = k.registry();
        let open = reg.syscall_by_name("open").unwrap();
        let read = reg.syscall_by_name("read").unwrap();
        let open_call = Call {
            def: open,
            args: vec![
                Arg::ptr(
                    0x2000_0000,
                    Arg::Data {
                        bytes: b"./file0\0".to_vec(),
                    },
                ),
                Arg::int(0x1),
                Arg::int(0o600),
            ],
        };
        let read_wired = Prog {
            calls: vec![
                open_call.clone(),
                Call {
                    def: read,
                    args: vec![
                        Arg::Res {
                            source: snowplow_prog::ResSource::Ref(0),
                        },
                        Arg::null(),
                        Arg::int(8),
                    ],
                },
            ],
        };
        let read_bad = Prog {
            calls: vec![
                open_call,
                Call {
                    def: read,
                    args: vec![
                        Arg::Res {
                            source: snowplow_prog::ResSource::Special(u64::MAX),
                        },
                        Arg::null(),
                        Arg::int(8),
                    ],
                },
            ],
        };
        let mut vm = Vm::new(&k);
        let snap = vm.snapshot();
        let a = vm.execute(&read_wired);
        vm.restore(&snap);
        let b = vm.execute(&read_bad);
        // Whether traces differ depends on whether read's handler gates on
        // fd validity; coverage at minimum must be recorded for both.
        assert!(!a.trace.is_empty() && !b.trace.is_empty());
    }

    #[test]
    fn ata_bug_chain_poisons_and_crashes_on_second_call() {
        let k = kernel();
        let reg = k.registry();
        let openat = reg.syscall_by_name("openat$scsi").unwrap();
        let ioctl = reg.syscall_by_name("ioctl$scsi_send_command").unwrap();
        let trigger = |inlen: u64| Call {
            def: ioctl,
            args: vec![
                Arg::Res {
                    source: snowplow_prog::ResSource::Ref(0),
                },
                Arg::int(snowplow_syslang::builtin::SCSI_IOCTL_SEND_COMMAND),
                Arg::ptr(
                    0x2000_0000,
                    Arg::Group {
                        inner: vec![
                            Arg::int(inlen), // inlen
                            Arg::int(0),     // outlen
                            Arg::Union {
                                variant: 0, // ata16
                                inner: Box::new(Arg::Group {
                                    inner: vec![
                                        Arg::int(0x85), // opcode (const)
                                        Arg::int(4),    // protocol = PIO
                                        Arg::int(0),    // tf_flags
                                        Arg::int(0x00), // command = ATA_NOP
                                        Arg::int(1),    // sector
                                    ],
                                }),
                            },
                        ],
                    },
                ),
            ],
        };
        let open_call = Call {
            def: openat,
            args: vec![
                Arg::int(0xffff_ff9c),
                Arg::ptr(
                    0x2000_1000,
                    Arg::Data {
                        bytes: b"/dev/sg0\0".to_vec(),
                    },
                ),
                Arg::int(0x2),
            ],
        };
        // One trigger: poisons but no crash (the OOB write corrupts
        // memory silently).
        let p1 = Prog {
            calls: vec![open_call.clone(), trigger(0x400)],
        };
        let mut vm = Vm::new(&k);
        let snap = vm.snapshot();
        let r1 = vm.execute(&p1);
        assert!(r1.crash.is_none(), "got {:?}", r1.crash);
        assert!(vm.state().is_poisoned());

        // Trigger twice: the second call hits the poison-guarded block in
        // the SCSI handler and crashes with the ata_pio_sector signature.
        let p2 = Prog {
            calls: vec![open_call.clone(), trigger(0x400), trigger(0x400)],
        };
        vm.restore(&snap);
        let r2 = vm.execute(&p2);
        let crash = r2.crash.expect("second trigger crashes");
        assert!(
            crash.description.contains("sim_ata_pio_sector"),
            "{}",
            crash.description
        );

        // A wrong protocol never reaches the OOB write.
        let mut bad = p1.clone();
        if let Arg::Ptr { inner: Some(g), .. } = &mut bad.calls[1].args[2] {
            if let Arg::Group { inner } = g.as_mut() {
                if let Arg::Union { inner, .. } = &mut inner[2] {
                    if let Arg::Group { inner } = inner.as_mut() {
                        inner[1] = Arg::int(3); // protocol != PIO
                    }
                }
            }
        }
        vm.restore(&snap);
        let r3 = vm.execute(&bad);
        assert!(r3.crash.is_none());
        assert!(!vm.state().is_poisoned());
        // Sanity: the deep path really depends on the nested field.
        let deep = snowplow_syslang::ArgPath::arg(2)
            .child(S::Deref)
            .child(S::Field(2))
            .child(S::Variant(0))
            .child(S::Field(1));
        assert!(bad.calls[1].arg_at(&deep).is_some());
    }

    #[test]
    fn crashes_have_stable_signatures() {
        let k = kernel();
        // Find any known bug and check its signature appears in the known
        // list.
        let known = k.bugs().known_signatures();
        assert!(known.len() >= 10);
        for b in k.bugs().iter().filter(|b| b.known) {
            assert!(known.iter().any(|s| **s == *b.description));
        }
    }

    #[test]
    fn coverage_and_edges_accumulate() {
        let k = kernel();
        let mut vm = Vm::new(&k);
        let snap = vm.snapshot();
        let generator = Generator::new(k.registry());
        let mut rng = StdRng::seed_from_u64(8);
        let mut cov = Coverage::new();
        let mut edges = EdgeSet::new();
        for _ in 0..100 {
            let p = generator.generate(&mut rng, 5);
            vm.restore(&snap);
            let r = vm.execute(&p);
            cov.merge(&r.coverage());
            edges.merge(&r.edges());
        }
        assert!(cov.len() > 100, "covered only {} blocks", cov.len());
        assert!(edges.len() >= cov.len() / 2);
        // Far from everything: plenty of the kernel remains uncovered.
        assert!(cov.len() < k.block_count());
    }
}
