//! A campaign's view into a corpus store.

use std::sync::Arc;

use rand::prelude::*;
use snowplow_kernel::{EdgeSet, ExecResult, Kernel, Vm};
use snowplow_prog::Prog;
use snowplow_syslang::Registry;

use crate::entry::CorpusEntry;
use crate::minset;
use crate::store::CorpusStore;

/// One campaign's corpus: a view (admission order, selection weights,
/// schedule overrides, pin flags) over a [`CorpusStore`].
///
/// The handle is the drop-in successor of the historical per-campaign
/// `Corpus`: every selection decision reads only the view, so a handle
/// over a *private* store (the default) behaves bit-identically to the
/// old type, and handles sharing a store stay deterministic no matter
/// what other campaigns ingest. On a dedup hit the canonical `Arc`
/// still enters this handle's view — the store saves the memory, the
/// campaign sees exactly the entry it admitted.
#[derive(Clone, Default)]
pub struct CorpusHandle {
    store: CorpusStore,
    /// Admitted entries in admission order (canonical store `Arc`s).
    view: Vec<Arc<CorpusEntry>>,
    /// Store ids parallel to `view`.
    ids: Vec<u32>,
    /// Per-view pin flags (this campaign's crash witnesses).
    pinned: Vec<bool>,
    /// Sum of contribution weights over the view.
    total_weight: u64,
    /// Distance-weighted scheduling overrides, parallel to `view`.
    /// `None` (the default) leaves [`CorpusHandle::choose`]
    /// byte-identical to the pre-scheduling behavior; entries admitted
    /// after the weights were computed fall back to their contribution
    /// weight until the scheduler recomputes.
    sched: Option<Vec<u64>>,
    /// Admissions answered by store dedup (this handle only).
    dedup_hits: u64,
}

impl std::fmt::Debug for CorpusHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusHandle")
            .field("entries", &self.view.len())
            .field("total_weight", &self.total_weight)
            .field("sched", &self.sched.as_ref().map(Vec::len))
            .field("dedup_hits", &self.dedup_hits)
            .finish()
    }
}

impl CorpusHandle {
    /// An empty corpus over its own private store.
    pub fn new() -> CorpusHandle {
        CorpusHandle::default()
    }

    /// An empty view into an existing (typically shared) store.
    pub fn attached(store: CorpusStore) -> CorpusHandle {
        CorpusHandle {
            store,
            ..CorpusHandle::default()
        }
    }

    /// The store this handle ingests into.
    pub fn store(&self) -> &CorpusStore {
        &self.store
    }

    /// Number of entries in this view.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Admits a program with the coverage of its execution (no measured
    /// cost; see [`CorpusHandle::add_weighted`]).
    pub fn add(&mut self, prog: Prog, exec: &ExecResult, new_edges: usize) {
        self.add_weighted(prog, exec, new_edges, 0);
    }

    /// Admits a program, capturing its measured execution cost (ns) for
    /// the weighted minset.
    pub fn add_weighted(
        &mut self,
        prog: Prog,
        exec: &ExecResult,
        new_edges: usize,
        exec_time_ns: u64,
    ) {
        let entry = CorpusEntry {
            prog,
            coverage: exec.coverage(),
            exec: exec.clone(),
            new_edges,
            exec_time_ns,
        };
        let (id, arc, hit) = self.store.ingest(entry);
        if hit {
            self.dedup_hits += 1;
        }
        self.total_weight += arc.contribution_weight();
        self.view.push(arc);
        self.ids.push(id);
        self.pinned.push(false);
    }

    /// Admits a program only if it passes the static linter: a corpus
    /// poisoned by malformed programs (dangling resource refs, stale
    /// lengths) wastes every mutation budget spent on its entries, so
    /// ingestion is the enforcement point. Returns whether the program
    /// was admitted.
    pub fn add_checked(
        &mut self,
        reg: &Registry,
        prog: Prog,
        exec: &ExecResult,
        new_edges: usize,
    ) -> bool {
        self.add_checked_weighted(reg, prog, exec, new_edges, 0)
    }

    /// [`CorpusHandle::add_checked`] with a measured execution cost.
    pub fn add_checked_weighted(
        &mut self,
        reg: &Registry,
        prog: Prog,
        exec: &ExecResult,
        new_edges: usize,
        exec_time_ns: u64,
    ) -> bool {
        if snowplow_analysis::lint(reg, &prog).is_empty() {
            self.add_weighted(prog, exec, new_edges, exec_time_ns);
            true
        } else {
            false
        }
    }

    /// Pins the most recently admitted entry: minimization will never
    /// drop it (the campaign pins crash witnesses at admission).
    pub fn pin_last(&mut self) {
        if let Some(flag) = self.pinned.last_mut() {
            *flag = true;
            self.store.pin(self.ids[self.ids.len() - 1]);
        }
    }

    /// Per-view pin flags, in admission order.
    pub fn pinned_flags(&self) -> &[bool] {
        &self.pinned
    }

    /// Admissions of this handle answered by store dedup.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Installs (or clears, with `None`) per-entry scheduling weights.
    /// While installed, the contribution-weighted half of
    /// [`CorpusHandle::choose`] draws by these weights instead; the
    /// recency window is untouched. Weights must be non-zero to keep
    /// every entry selectable.
    pub fn install_schedule(&mut self, weights: Option<Vec<u64>>) {
        if let Some(w) = &weights {
            debug_assert!(w.len() <= self.view.len());
            debug_assert!(w.iter().all(|&x| x > 0), "zero weight starves an entry");
        }
        self.sched = weights;
    }

    /// The installed scheduling weights, if any; exposed so a
    /// checkpoint can persist them instead of forcing a recompute on
    /// resume.
    pub fn schedule_weights(&self) -> Option<&[u64]> {
        self.sched.as_deref()
    }

    /// The effective contribution weight of entry `i` under the current
    /// scheduling mode.
    fn effective_weight(&self, i: usize) -> u64 {
        match &self.sched {
            Some(w) if i < w.len() => w[i],
            _ => self.view[i].contribution_weight(),
        }
    }

    /// Picks an entry index: half the time among the most recently
    /// admitted entries (whose coverage frontier is freshest — Syzkaller
    /// likewise prioritizes newly triaged programs), otherwise weighted
    /// by contribution across the whole view (or by the installed
    /// distance-derived weights, see [`CorpusHandle::install_schedule`]).
    pub fn choose(&self, rng: &mut StdRng) -> Option<usize> {
        if self.view.is_empty() {
            return None;
        }
        if self.view.len() > 8 && rng.random_bool(0.5) {
            let window = 32.min(self.view.len());
            let start = self.view.len() - window;
            return Some(rng.random_range(start..self.view.len()));
        }
        if self.sched.is_some() {
            let total: u64 = (0..self.view.len()).map(|i| self.effective_weight(i)).sum();
            let mut pick = rng.random_range(0..total.max(1));
            for i in 0..self.view.len() {
                let w = self.effective_weight(i);
                if pick < w {
                    return Some(i);
                }
                pick -= w;
            }
            return Some(self.view.len() - 1);
        }
        let mut pick = rng.random_range(0..self.total_weight.max(1));
        for (i, e) in self.view.iter().enumerate() {
            let w = e.contribution_weight();
            if pick < w {
                return Some(i);
            }
            pick -= w;
        }
        Some(self.view.len() - 1)
    }

    /// Greedy corpus minimization (the historical first-fit scan):
    /// re-executes every entry from a pristine snapshot (sharded over
    /// `workers` threads) and keeps, in admission order, only the
    /// entries still contributing new edges.
    ///
    /// Re-execution is deterministic and carries no cross-entry state,
    /// and the greedy keep/drop scan runs sequentially over the results
    /// in entry order, so the minimized corpus is identical for any
    /// worker count. Prefer [`CorpusHandle::weighted_minset`], which is
    /// never larger and honors pins.
    pub fn minimize(&self, kernel: &Kernel, workers: usize) -> CorpusHandle {
        let runs = snowplow_pool::scoped_map(
            workers,
            (0..self.view.len()).collect(),
            || {
                let vm = Vm::new(kernel);
                let snap = vm.snapshot();
                (vm, snap)
            },
            |(vm, snap), _, i| {
                vm.restore(snap);
                vm.execute(&self.view[i].prog)
            },
        );
        let mut kept = CorpusHandle::new();
        let mut edges = EdgeSet::new();
        for (entry, exec) in self.view.iter().zip(runs) {
            let new_edges = edges.merge(&exec.edges());
            if new_edges > 0 {
                kept.add_weighted(entry.prog.clone(), &exec, new_edges, entry.exec_time_ns);
            }
        }
        kept
    }

    /// Weighted minset over this view (afl-cmin with a cost model):
    /// re-executes every entry and greedily covers the union edge set
    /// preferring low `exec_time_ns * prog_len` weight per newly
    /// covered edge. Pinned entries (crash witnesses) are always kept.
    ///
    /// The kept set covers exactly the union edge set of the full view,
    /// is never larger than [`CorpusHandle::minimize`]'s result plus
    /// redundant pins, and is identical at any worker count. Kept
    /// entries return in admission order with their contribution counts
    /// recomputed by an admission-order merge scan; pin flags carry
    /// over.
    pub fn weighted_minset(&self, kernel: &Kernel, workers: usize) -> CorpusHandle {
        let (kept_idx, execs) = minset::weighted_minset(kernel, workers, &self.view, &self.pinned);
        let mut kept = CorpusHandle::new();
        let mut edges = EdgeSet::new();
        for &i in &kept_idx {
            let new_edges = edges.merge(&execs[i].edges());
            kept.add_weighted(
                self.view[i].prog.clone(),
                &execs[i],
                new_edges,
                self.view[i].exec_time_ns,
            );
            if self.pinned[i] {
                kept.pin_last();
            }
        }
        kept
    }

    /// Rebuilds a view from persisted parts (snapshot restore). The
    /// entries are re-ingested into a fresh private store — rebuilding
    /// the dedup map and edge index — *without* advancing any hit
    /// counter: `dedup_hits` restores to its serialized value.
    pub fn restore_parts(
        entries: Vec<CorpusEntry>,
        sched: Option<Vec<u64>>,
        pinned: Vec<bool>,
        dedup_hits: u64,
    ) -> CorpusHandle {
        debug_assert_eq!(entries.len(), pinned.len());
        let mut handle = CorpusHandle::new();
        for entry in entries {
            let (id, arc) = handle.store.ingest_restored(Arc::new(entry));
            handle.total_weight += arc.contribution_weight();
            handle.view.push(arc);
            handle.ids.push(id);
            handle.pinned.push(false);
        }
        for (i, pin) in pinned.into_iter().enumerate() {
            if pin {
                handle.pinned[i] = true;
                handle.store.pin(handle.ids[i]);
            }
        }
        handle.sched = sched;
        handle.dedup_hits = dedup_hits;
        handle
    }

    /// Re-attaches this view to `store` (the shared-corpus resume
    /// path): every view entry is re-ingested, deduplicating against
    /// whatever other resumed campaigns already contributed, and the
    /// view swaps to the store's canonical `Arc`s. No hit counter
    /// advances — any duplication found here was counted before the
    /// checkpoint. A no-op when the handle already uses `store`.
    pub fn reattach(&mut self, store: &CorpusStore) {
        if self.store.same_store(store) {
            return;
        }
        self.store = store.clone();
        let old_ids = std::mem::take(&mut self.ids);
        debug_assert_eq!(old_ids.len(), self.view.len());
        for (i, slot) in self.view.iter_mut().enumerate() {
            let (id, arc) = self.store.ingest_restored(Arc::clone(slot));
            *slot = arc;
            self.ids.push(id);
            if self.pinned[i] {
                self.store.pin(id);
            }
        }
    }

    /// Reads an entry.
    pub fn entry(&self, idx: usize) -> &CorpusEntry {
        &self.view[idx]
    }

    /// Iterates over entries in admission order.
    pub fn iter(&self) -> impl Iterator<Item = &CorpusEntry> {
        self.view.iter().map(Arc::as_ref)
    }

    /// The view as shared entries (what [`ScheduleContext`]
    /// carries).
    ///
    /// [`ScheduleContext`]: crate::ScheduleContext
    pub fn entries(&self) -> &[Arc<CorpusEntry>] {
        &self.view
    }

    /// For each view entry, the store-wide rarity of its rarest edge
    /// (shortest posting list; 1 = unique to this entry). Input to the
    /// cost-normalized rare-edge scheduler.
    pub fn rarity(&self) -> Vec<u32> {
        self.store.rarity(&self.ids)
    }
}
