//! Relations and columnar trie indexes for the TrieJax reproduction.
//!
//! This crate provides the storage substrate described in Section 3.2 of the
//! TrieJax paper: relations (sets of fixed-arity tuples over `u32` values)
//! and their *trie* representation in the flat, EmptyHeaded-style physical
//! layout — one sorted value array per trie level plus a cumulative
//! child-range array linking consecutive levels (paper Figure 6).
//!
//! The three core types are:
//!
//! * [`Relation`] — a sorted, deduplicated set of tuples.
//! * [`Trie`] — the columnar index built from a relation, with optional
//!   simulated memory addresses assigned through an [`AddressSpace`] so that
//!   cycle-level simulators can replay each word access.
//! * [`TrieCursor`] — a LeapFrog-TrieJoin style cursor with `open`, `up`,
//!   `next` and `seek` (lowest-upper-bound) operations, instrumented through
//!   the [`Tally`] trait: pass a [`Counting`] (alias of [`AccessCounter`])
//!   to count every memory touch, or [`NoTally`] to compile the
//!   instrumentation away entirely.
//!
//! # Example
//!
//! ```
//! use triejax_relation::{Relation, Trie};
//!
//! let rel = Relation::from_tuples(2, vec![vec![1, 2], vec![1, 1], vec![2, 5]])?;
//! let trie = Trie::build(&rel);
//! assert_eq!(trie.level(0).values(), &[1, 2]);
//! assert_eq!(trie.tuple_count(), 3);
//! # Ok::<(), triejax_relation::RelationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod cursor;
pub mod delta;
mod error;
mod hash;
mod join_cursor;
mod layout;
mod merge;
mod relation;
mod trie;

pub use access::{AccessCounter, AccessKind, Counting, NoTally, Tally};
pub use cursor::{seek_in, TrieCursor};
pub use delta::RelationDelta;
pub use error::{RelationError, TrieLayoutError};
pub use hash::lane_hash;
pub use join_cursor::JoinCursor;
pub use layout::{AddressSpace, ArraySpan, WORD_BYTES};
pub use merge::{MergeCursor, MergedView};
pub use relation::Relation;
pub use trie::{Trie, TrieLevel};

/// The value domain of every attribute: graph vertex identifiers.
pub type Value = u32;

/// A simulated physical memory address (byte granular).
pub type Addr = u64;
