//! The fuzzing loop: corpus management, virtual-time campaigns, crash
//! triage, reproducer minimization, and directed fuzzing.
//!
//! This crate rebuilds the Syzkaller-side machinery of the paper around
//! the simulated kernel:
//!
//! * [`clock`] — a virtual clock. The paper's comparisons are
//!   iso-resource (same machine-time for both fuzzers); campaigns here
//!   advance virtual time per execution and per pending inference, so a
//!   "24-hour" run is an execution budget, reproducible and fast;
//! * [`CorpusHandle`] — re-exported from `snowplow-corpus`: a
//!   per-campaign view over a (private or shared) coverage-indexed
//!   [`CorpusStore`] with Syzkaller-style weighted test selection,
//!   weighted minimization, and pluggable seed scheduling;
//! * [`crash`] — crash dedup by signature, the paper's §5.3.2 filtering
//!   rules, and the simulated "Syzbot since 2018" known-bug list;
//! * [`repro`] — syz-repro-style replay + call minimization;
//! * [`campaign`] — the Figure-1 fuzzing loop, runnable as the Syzkaller
//!   baseline or as Snowplow (PMM-guided argument localization with
//!   asynchronous inference accounted in virtual time, plus the random
//!   fallback of §3.4);
//! * [`directed`] — SyzDirect-style directed fuzzing and Snowplow-D.

pub mod campaign;
pub mod clock;
pub mod crash;
pub mod directed;
pub mod repro;

pub use campaign::{
    Campaign, CampaignConfig, CampaignConfigBuilder, CampaignReport, CampaignState,
    EdgeAttribution, FuzzerKind, PendingPrediction, RunningCampaign, TimelinePoint,
};
pub use clock::VirtualClock;
pub use crash::{CrashLog, CrashRecord};
pub use directed::{DirectedCampaign, DirectedConfig, DirectedConfigBuilder, DirectedOutcome};
pub use repro::{attempt_reproducer, ReproOutcome};
pub use snowplow_corpus::{
    CorpusConfig, CorpusConfigBuilder, CorpusEntry, CorpusHandle, CorpusStore, SchedulePolicy,
    SeedScheduler, StoreStats,
};
