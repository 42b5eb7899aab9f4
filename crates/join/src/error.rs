use std::error::Error;
use std::fmt;

use triejax_exec::CancelReason;
use triejax_store::StoreError;

use crate::stats::EngineStats;

/// Errors raised while executing a join.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JoinError {
    /// The catalog holds no relation with this name.
    MissingRelation {
        /// Name requested by the query atom.
        name: String,
    },
    /// A catalog relation's arity differs from its atom's arity.
    ArityMismatch {
        /// Relation name.
        name: String,
        /// Arity declared by the atom.
        atom_arity: usize,
        /// Arity of the stored relation.
        relation_arity: usize,
    },
    /// The compiled plan asks for something this engine cannot execute
    /// (e.g. a projected head, which the full-join engines do not emit).
    Plan {
        /// What the engine cannot do.
        detail: String,
    },
    /// The run was cancelled before completing — a configured budget
    /// tripped (deadline, row limit, intermediate-result limit) or an
    /// external [`triejax_exec::CancelToken`] fired. The rows delivered
    /// to the sink before cancellation are an exact prefix of the full
    /// result stream; for a [`CancelReason::RowLimit`] trip the prefix is
    /// exactly `min(total, limit)` rows long.
    Cancelled {
        /// Which budget tripped (first trip wins).
        reason: CancelReason,
        /// Work accounted up to the cancellation point, with the access
        /// tally snapshotted to the concrete counting representation
        /// (boxed: stats are much larger than the other variants).
        /// `results` counts rows *emitted by workers*, which can exceed
        /// the rows actually delivered once the budget cut the stream.
        partial: Box<EngineStats>,
    },
    /// A trie preloaded from a store file failed the check of its first
    /// touch (see `triejax-store`). The entry is never served, and every
    /// query that needs it fails with this same error.
    Store {
        /// The relation the trie indexes.
        relation: String,
        /// The attribute permutation the trie is stored under.
        perm: Vec<usize>,
        /// What the check found.
        error: StoreError,
    },
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::MissingRelation { name } => {
                write!(f, "catalog has no relation named {name}")
            }
            JoinError::ArityMismatch {
                name,
                atom_arity,
                relation_arity,
            } => write!(
                f,
                "relation {name} has arity {relation_arity} but the atom expects {atom_arity}"
            ),
            JoinError::Plan { detail } => write!(f, "plan not executable: {detail}"),
            JoinError::Cancelled { reason, .. } => {
                write!(f, "query cancelled: {reason}")
            }
            JoinError::Store {
                relation,
                perm,
                error,
            } => write!(f, "stored trie of {relation} in order {perm:?}: {error}"),
        }
    }
}

impl Error for JoinError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JoinError::Store { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = JoinError::MissingRelation { name: "G".into() };
        assert!(e.to_string().contains('G'));
        let e = JoinError::ArityMismatch {
            name: "G".into(),
            atom_arity: 2,
            relation_arity: 3,
        };
        assert!(e.to_string().contains('2') && e.to_string().contains('3'));
        let e = JoinError::Plan {
            detail: "projected head".into(),
        };
        assert!(e.to_string().contains("projected head"));
        let mut partial = EngineStats::new();
        partial.results = 42;
        let e = JoinError::Cancelled {
            reason: CancelReason::Deadline,
            partial: Box::new(partial),
        };
        assert!(e.to_string().contains("cancelled"));
        assert!(e.to_string().contains("deadline"));
        let e = JoinError::Store {
            relation: "G".into(),
            perm: vec![1, 0],
            error: StoreError::BadMagic,
        };
        assert!(e.to_string().contains("[1, 0]") && e.to_string().contains("magic"));
        assert!(e.source().is_some());
    }

    #[test]
    fn cancelled_carries_partial_stats() {
        let mut partial = EngineStats::new();
        partial.results = 7;
        partial.shards = 3;
        let e = JoinError::Cancelled {
            reason: CancelReason::RowLimit,
            partial: Box::new(partial),
        };
        match e {
            JoinError::Cancelled { reason, partial } => {
                assert_eq!(reason, CancelReason::RowLimit);
                assert_eq!(partial.results, 7);
                assert_eq!(partial.shards, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
