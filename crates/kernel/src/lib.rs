//! A deterministic simulated kernel for fuzzing research.
//!
//! This crate replaces the real Linux kernels of the Snowplow paper with a
//! fully synthetic — but structurally faithful — substitute. Every syscall
//! variant described by `snowplow-syslang` gets a *handler*: a control-flow
//! graph of basic blocks whose branch predicates read (possibly deeply
//! nested) argument fields and persistent kernel state. Executing a test
//! program walks these CFGs, producing a KCOV-style block trace, edge
//! coverage, state changes, and — when a test satisfies the right argument
//! constraints — injected crashes drawn from a bug registry.
//!
//! What makes the substitution faithful to the paper (see DESIGN.md §2):
//!
//! * branch conditions are *argument-gated*: reaching the not-taken side
//!   requires choosing the right argument (localization) and a satisfying
//!   value (instantiation) — the exact search problem PMM learns;
//! * every gate block's synthetic assembly mentions the argument slot it
//!   reads, just as a real `cmp` instruction mentions the register an
//!   argument was loaded into — this is the signal the model's block
//!   encoder consumes;
//! * the kernel exposes its full static CFG (what the paper recovers with
//!   Angr) for the one-hop "alternative path entry" analysis of §3.2;
//! * three [`KernelVersion`]s share a common structural prefix and later
//!   versions add new handler regions, modelling the 6.8 → 6.10 drift used
//!   to evaluate generalization.
//!
//! ```
//! use snowplow_kernel::{Kernel, KernelVersion, Vm};
//! use snowplow_prog::gen::Generator;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let kernel = Kernel::build(KernelVersion::V6_8);
//! let mut vm = Vm::new(&kernel);
//! let snap = vm.snapshot();
//! let mut rng = StdRng::seed_from_u64(1);
//! let prog = Generator::new(kernel.registry()).generate(&mut rng, 4);
//! let result = vm.execute(&prog);
//! assert!(!result.trace.is_empty());
//! vm.restore(&snap); // deterministic re-execution from pristine state
//! assert_eq!(vm.execute(&prog).trace, result.trace);
//! ```

pub mod asm;
pub mod block;
pub mod bugs;
pub mod cfg;
pub mod coverage;
pub mod handlergen;
pub mod kernel;
pub mod predicate;
pub mod state;
pub mod version;
pub mod vm;

pub use asm::Tok;
pub use block::{BasicBlock, BlockId, Effect, HandlerCfg, Terminator};
pub use bugs::{BugId, BugInfo, BugRegistry, CrashCategory};
pub use cfg::StaticCfg;
pub use coverage::{Coverage, Edge, EdgeSet};
pub use handlergen::HandlerGenConfig;
pub use kernel::{BugPlan, Kernel};
pub use predicate::Predicate;
pub use state::{KernelState, StateVar};
pub use version::KernelVersion;
pub use vm::{CrashInfo, ExecResult, Snapshot, Vm};
