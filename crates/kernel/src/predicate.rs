//! Branch predicates.
//!
//! Every conditional branch in a handler CFG is guarded by a [`Predicate`]
//! over the invoking call's argument values and the kernel state. The
//! not-taken side of a gate is reachable only by a test whose arguments
//! satisfy the predicate — which is precisely the search problem argument
//! mutation explores, and what PMM learns to localize.

use snowplow_prog::{ArgView, Call, ResSource};
use snowplow_syslang::{ArgPath, ResourceId};

use crate::state::{Handle, KernelState, StateVar};

/// A branch condition over arguments and kernel state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Scalar at `path` equals `value`.
    ArgEq {
        /// Argument location (description path).
        path: ArgPath,
        /// Required value.
        value: u64,
    },
    /// `(scalar & mask) == value` — flag-word tests.
    ArgMaskEq {
        /// Argument location.
        path: ArgPath,
        /// Bit mask applied before comparison.
        mask: u64,
        /// Required masked value.
        value: u64,
    },
    /// Scalar at `path` lies in `[lo, hi]` (inclusive, unsigned).
    ArgInRange {
        /// Argument location.
        path: ArgPath,
        /// Lower bound.
        lo: u64,
        /// Upper bound.
        hi: u64,
    },
    /// Buffer at `path` is longer than `len` bytes.
    DataLenGt {
        /// Argument location of a buffer.
        path: ArgPath,
        /// Exclusive length threshold.
        len: u64,
    },
    /// Pointer at `path` is NULL.
    IsNull {
        /// Argument location of a pointer.
        path: ArgPath,
    },
    /// Pointer at `path` is non-NULL.
    NotNull {
        /// Argument location of a pointer.
        path: ArgPath,
    },
    /// Union at `path` has the given active variant.
    UnionIs {
        /// Argument location of a union.
        path: ArgPath,
        /// Required description-variant index.
        variant: u16,
    },
    /// Resource argument at `path` is a live resource of `kind` (models
    /// fd-validity checks; failing it is the `EBADF` path).
    ResValid {
        /// Argument location of a resource.
        path: ArgPath,
        /// Required resource kind.
        kind: ResourceId,
    },
    /// State counter `var >= value`.
    StateCounterGe {
        /// State variable.
        var: StateVar,
        /// Threshold.
        value: u64,
    },
    /// State flag `var` is set.
    StateFlag {
        /// State variable.
        var: StateVar,
    },
    /// Kernel memory has been poisoned by a corruption bug.
    Poisoned,
}

impl Predicate {
    /// The argument path this predicate reads, if any. Gate blocks embed
    /// this path's slot token in their synthetic assembly.
    pub fn arg_path(&self) -> Option<&ArgPath> {
        match self {
            Predicate::ArgEq { path, .. }
            | Predicate::ArgMaskEq { path, .. }
            | Predicate::ArgInRange { path, .. }
            | Predicate::DataLenGt { path, .. }
            | Predicate::IsNull { path }
            | Predicate::NotNull { path }
            | Predicate::UnionIs { path, .. }
            | Predicate::ResValid { path, .. } => Some(path),
            _ => None,
        }
    }

    /// The state variable this predicate reads, if any.
    pub fn state_var(&self) -> Option<StateVar> {
        match self {
            Predicate::StateCounterGe { var, .. } | Predicate::StateFlag { var } => Some(*var),
            _ => None,
        }
    }

    /// Evaluates the predicate against a call, the kernel state, and a
    /// resource resolver (mapping a call-relative [`ResSource`] to a live
    /// [`Handle`], if the producing call succeeded).
    ///
    /// A path that does not resolve in the program's actual structure
    /// (NULL pointer, inactive union variant, missing field) evaluates
    /// to `false` — the structure gate. Structural absence does not
    /// count as a NULL pointer.
    pub fn eval(
        &self,
        call: &Call,
        state: &KernelState,
        resolve: &dyn Fn(ResSource) -> Option<Handle>,
    ) -> bool {
        match self {
            Predicate::ArgEq { path, value } => {
                matches!(call.view_at(path), Some(ArgView::Int(v)) if v == *value)
            }
            Predicate::ArgMaskEq { path, mask, value } => {
                matches!(call.view_at(path), Some(ArgView::Int(v)) if v & mask == *value)
            }
            Predicate::ArgInRange { path, lo, hi } => {
                matches!(call.view_at(path), Some(ArgView::Int(v)) if (*lo..=*hi).contains(&v))
            }
            Predicate::DataLenGt { path, len } => {
                matches!(call.view_at(path), Some(ArgView::Data(d)) if (d.len() as u64) > *len)
            }
            Predicate::IsNull { path } => {
                matches!(call.view_at(path), Some(ArgView::Ptr { is_null: true }))
            }
            Predicate::NotNull { path } => {
                matches!(call.view_at(path), Some(ArgView::Ptr { is_null: false }))
            }
            Predicate::UnionIs { path, variant } => {
                matches!(call.view_at(path), Some(ArgView::Union { variant: v }) if v == *variant)
            }
            Predicate::ResValid { path, kind } => match call.view_at(path) {
                Some(ArgView::Res(src)) => {
                    resolve(src).is_some_and(|h| state.resource_valid(h, *kind))
                }
                _ => false,
            },
            Predicate::StateCounterGe { var, value } => state.counter(*var) >= *value,
            Predicate::StateFlag { var } => state.flag(*var),
            Predicate::Poisoned => state.is_poisoned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use snowplow_prog::Arg;
    use snowplow_syslang::builtin;

    use super::*;

    fn open_call(flags: u64) -> (snowplow_syslang::Registry, Call) {
        let reg = builtin::linux_sim();
        let open = reg.syscall_by_name("open").unwrap();
        let call = Call {
            def: open,
            args: vec![
                Arg::ptr(
                    0x2000_0000,
                    Arg::Data {
                        bytes: b"./file0\0".to_vec(),
                    },
                ),
                Arg::int(flags),
                Arg::int(0o777),
            ],
        };
        (reg, call)
    }

    fn no_resolve(_: ResSource) -> Option<Handle> {
        None
    }

    #[test]
    fn arg_predicates() {
        let (_, call) = open_call(0x41);
        let state = KernelState::new();
        let flags = ArgPath::arg(1);
        assert!(Predicate::ArgEq {
            path: flags.clone(),
            value: 0x41
        }
        .eval(&call, &state, &no_resolve));
        assert!(Predicate::ArgMaskEq {
            path: flags.clone(),
            mask: 0x40,
            value: 0x40
        }
        .eval(&call, &state, &no_resolve));
        assert!(!Predicate::ArgInRange {
            path: flags,
            lo: 0x50,
            hi: 0x60
        }
        .eval(&call, &state, &no_resolve));
    }

    #[test]
    fn pointer_and_data_predicates() {
        let (_, call) = open_call(0);
        let state = KernelState::new();
        let file = ArgPath::arg(0);
        assert!(Predicate::NotNull { path: file.clone() }.eval(&call, &state, &no_resolve));
        assert!(!Predicate::IsNull { path: file.clone() }.eval(&call, &state, &no_resolve));
        let payload = file.child(snowplow_syslang::PathSegment::Deref);
        assert!(Predicate::DataLenGt {
            path: payload.clone(),
            len: 4
        }
        .eval(&call, &state, &no_resolve));
        assert!(!Predicate::DataLenGt {
            path: payload,
            len: 100
        }
        .eval(&call, &state, &no_resolve));
    }

    #[test]
    fn state_predicates() {
        let (_, call) = open_call(0);
        let mut state = KernelState::new();
        let p = Predicate::StateCounterGe {
            var: StateVar(2),
            value: 1,
        };
        assert!(!p.eval(&call, &state, &no_resolve));
        state.inc(StateVar(2));
        assert!(p.eval(&call, &state, &no_resolve));
        assert!(!Predicate::Poisoned.eval(&call, &state, &no_resolve));
        state.poison();
        assert!(Predicate::Poisoned.eval(&call, &state, &no_resolve));
    }

    #[test]
    fn res_valid_uses_resolver_and_kind() {
        let reg = builtin::linux_sim();
        let read = reg.syscall_by_name("read").unwrap();
        let call = Call {
            def: read,
            args: vec![
                Arg::Res {
                    source: snowplow_prog::ResSource::Ref(0),
                },
                Arg::null(),
                Arg::int(1),
            ],
        };
        let mut state = KernelState::new();
        let fd_kind = ResourceId(0);
        let h = state.produce_resource(fd_kind);
        let p = Predicate::ResValid {
            path: ArgPath::arg(0),
            kind: fd_kind,
        };
        assert!(p.eval(&call, &state, &|_| Some(h)));
        assert!(!p.eval(&call, &state, &no_resolve));
        state.kill_resource(h);
        assert!(!p.eval(&call, &state, &|_| Some(h)));
    }
}
