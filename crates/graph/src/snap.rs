//! Reader/writer for the SNAP edge-list text format.
//!
//! SNAP files are whitespace-separated `src dst` pairs with `#` comment
//! lines. Node ids are arbitrary (sparse) integers; the reader densifies
//! them to `0..n` in first-appearance order, which preserves every pattern
//! count.
//!
//! Use this to run the harness on the *real* Table-2 datasets: download the
//! files from <https://snap.stanford.edu/data> and load them with
//! [`read_snap`].
//!
//! # Grammar
//!
//! [`read_snap`] reads bytes in one pass and never decodes UTF-8.
//!
//! - *Lines* end at `\n`; the last line may lack one. Lines are numbered
//!   from 1, counting comment and blank lines.
//! - *Separators* are the ASCII whitespace bytes: space, `\t`, `\r` and
//!   form feed (`\x0c`). A CRLF line therefore parses like its LF form.
//!   No other byte separates: `\x0b`, NBSP and the other Unicode spaces
//!   are token bytes.
//! - On line 1 only, any number of leading UTF-8 byte-order marks
//!   (`EF BB BF`) are dropped.
//! - A line with no token, or whose first token starts with `#`, is a
//!   comment. Its bytes are not read further, so they need not be UTF-8.
//! - Every other line is an *edge*: exactly two ids, then optionally a
//!   token starting with `#` that opens an inline comment to the end of
//!   the line (its bytes are not read either). Any other third token is
//!   [`SnapError::BadLine`]: a weight column or two lines glued together
//!   would otherwise load a graph the file does not describe.
//! - An *id* is an optional `+` followed by one or more ASCII digits whose
//!   value fits in a `u64`. Anything else is [`SnapError::BadLine`]: a
//!   `-`, a second sign, a `#` glued to the digits (`1 2#x`) or any
//!   non-ASCII byte.
//! - Ids are densified to `0..n` in first-appearance order, `src` before
//!   `dst` within a line. Dense id `u32::MAX` is never handed out: the
//!   edge whose node would take it is [`SnapError::TooManyNodes`].
//!
//! Self-loops and repeated edges are accepted and dropped by
//! [`Graph::from_edges`]'s rules; their nodes still take ids.

use std::collections::hash_map::RandomState;
use std::error::Error;
use std::fmt;
use std::hash::BuildHasher;
use std::io::{BufRead, BufReader, Read};

use crate::graph::edge_key;
use crate::Graph;

/// Errors produced while parsing a SNAP edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// A data line did not contain exactly two integers (a third
    /// whitespace-separated token is tolerated only when it opens an
    /// inline `#` comment).
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// The input names more than `u32::MAX` distinct nodes, which the
    /// densified id space cannot represent. Truncating instead would
    /// silently alias unrelated nodes and corrupt every pattern count.
    TooManyNodes {
        /// 1-based line number of the edge that overflowed the id space.
        line: usize,
    },
    /// The underlying reader failed.
    Io {
        /// Stringified IO error (kept string-typed so the error is `Clone`).
        message: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadLine { line } => write!(f, "malformed edge at line {line}"),
            SnapError::TooManyNodes { line } => write!(
                f,
                "more distinct nodes than the u32 id space can hold (line {line})"
            ),
            SnapError::Io { message } => write!(f, "io error: {message}"),
        }
    }
}

impl Error for SnapError {}

/// Reads a SNAP edge list, densifying node identifiers. The module
/// documentation gives the grammar.
///
/// A mutable reference to any [`Read`] can be passed; it is buffered here.
///
/// # Errors
///
/// Returns [`SnapError::BadLine`] on malformed input,
/// [`SnapError::TooManyNodes`] when the ids overflow the `u32` id space,
/// or [`SnapError::Io`] if reading fails.
///
/// # Example
///
/// ```
/// use triejax_graph::snap::read_snap;
///
/// let text = "# comment\n10 20\n20 30\n";
/// let g = read_snap(text.as_bytes())?;
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.num_nodes(), 3); // ids densified to 0..3
/// # Ok::<(), triejax_graph::snap::SnapError>(())
/// ```
pub fn read_snap<R: Read>(reader: R) -> Result<Graph, SnapError> {
    read_with(reader, IdTable::new())
}

/// The UTF-8 byte-order mark.
const BOM: &[u8] = b"\xEF\xBB\xBF";

/// [`read_snap`] with the id table given, so a test can start it near
/// the end of the id space.
fn read_with<R: Read>(reader: R, mut ids: IdTable) -> Result<Graph, SnapError> {
    let mut reader = BufReader::new(reader);
    let mut line = Vec::new();
    let mut keys = Vec::new();
    let mut number = 0;
    loop {
        line.clear();
        let read = reader
            .read_until(b'\n', &mut line)
            .map_err(|e| SnapError::Io {
                message: e.to_string(),
            })?;
        if read == 0 {
            break;
        }
        number += 1;
        let mut bytes = line.as_slice();
        if number == 1 {
            while let Some(rest) = bytes.strip_prefix(BOM) {
                bytes = rest;
            }
        }
        let (a, b) = match parse_line(bytes) {
            Line::Comment => continue,
            Line::Bad => return Err(SnapError::BadLine { line: number }),
            Line::Edge(a, b) => (a, b),
        };
        let too_many = || SnapError::TooManyNodes { line: number };
        let a = ids.densify(a).ok_or_else(too_many)?;
        let b = ids.densify(b).ok_or_else(too_many)?;
        if a != b {
            keys.push(edge_key(a, b));
        }
    }
    Ok(Graph::from_keys(ids.len(), keys))
}

/// One line of a SNAP file, classified.
enum Line {
    /// Blank or `#`: nothing to load.
    Comment,
    /// Two raw ids.
    Edge(u64, u64),
    /// Anything else.
    Bad,
}

/// Classifies one line (its `\n` may still be attached: it is whitespace).
fn parse_line(line: &[u8]) -> Line {
    let mut rest = line.trim_ascii_start();
    if rest.first().is_none_or(|&byte| byte == b'#') {
        return Line::Comment;
    }
    let Some(a) = parse_id(&mut rest) else {
        return Line::Bad;
    };
    rest = rest.trim_ascii_start();
    let Some(b) = parse_id(&mut rest) else {
        return Line::Bad;
    };
    match rest.trim_ascii_start().first() {
        None | Some(b'#') => Line::Edge(a, b),
        Some(_) => Line::Bad,
    }
}

/// Parses the id at the front of `rest`, `+`? digit+ up to ASCII
/// whitespace or the end of the line, and advances `rest` past it; `None`
/// on any other byte or on `u64` overflow.
fn parse_id(rest: &mut &[u8]) -> Option<u64> {
    let token = rest.strip_prefix(b"+").unwrap_or(rest);
    let mut value = 0u64;
    let mut len = 0;
    for &byte in token {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
        len += 1;
    }
    let after = &token[len..];
    let ends_the_token = after.first().is_none_or(u8::is_ascii_whitespace);
    if len == 0 || !ends_the_token {
        return None;
    }
    *rest = after;
    Some(value)
}

/// Densifies raw ids: an open-addressing `u64 → u32` map with linear
/// probing, kept at most half full by doubling.
///
/// A slot holds a dense id plus one (0 marks a free slot, so a grown
/// table starts zeroed), and the raw ids sit in id order in `raws`; a
/// probe that finds an id compares against `raws`. At 4 bytes a slot
/// the table is a quarter of a `(u64, u32)` slot array: a 60 k-node
/// graph probes 512 KiB of slots. Id `u32::MAX` is never handed out,
/// because its slot would hold `u32::MAX + 1`.
///
/// The slot of a key is the top bits of its product with a random odd
/// multiplier (multiply-shift hashing), drawn per table from the standard
/// library's randomly keyed hasher: the ids come from untrusted text, and
/// a fixed multiplier would let a crafted file pile every id into one
/// probe run.
struct IdTable {
    /// Dense id plus one per slot; 0 is free.
    slots: Vec<u32>,
    /// `raws[i]` is the raw id of dense id `base + i`.
    raws: Vec<u64>,
    /// The dense id of `raws[0]`: 0, except in a unit test that starts a
    /// table at the end of the id space.
    base: u32,
    multiplier: u64,
    /// `64 - log2(slots.len())`.
    shift: u32,
}

impl IdTable {
    /// Slots of a fresh table; a fixed size, never one read from the input.
    const INITIAL_SLOTS: usize = 1024;

    fn new() -> IdTable {
        IdTable {
            slots: vec![0; Self::INITIAL_SLOTS],
            raws: Vec::new(),
            base: 0,
            multiplier: RandomState::new().hash_one(0u64) | 1,
            shift: 64 - Self::INITIAL_SLOTS.trailing_zeros(),
        }
    }

    /// Ids handed out so far, which is also the next id to hand out.
    fn len(&self) -> u32 {
        self.base + self.raws.len() as u32
    }

    /// The slot at which `raw`'s probe run starts.
    fn home(&self, raw: u64) -> usize {
        (raw.wrapping_mul(self.multiplier) >> self.shift) as usize
    }

    /// The dense id of `raw`, handing out the next one if `raw` is new;
    /// `None` if that would be `u32::MAX`.
    fn densify(&mut self, raw: u64) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(raw);
        while let Some(id) = self.slots[slot].checked_sub(1) {
            if self.raws[(id - self.base) as usize] == raw {
                return Some(id);
            }
            slot = (slot + 1) & mask;
        }
        let id = self.len();
        if id == u32::MAX {
            return None;
        }
        self.slots[slot] = id + 1;
        self.raws.push(raw);
        if self.raws.len() * 2 > self.slots.len() {
            self.grow();
        }
        Some(id)
    }

    /// Doubles the slots and re-places every id.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (&raw, id) in self.raws.iter().zip(self.base..) {
            let mut slot = self.home(raw);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// Writes a graph in SNAP format (one `src\tdst` line per edge, with a
    /// header comment): the oracle the reader is checked against.
    fn write_snap<W: Write>(graph: &Graph, mut writer: W) -> Result<(), SnapError> {
        let io = |e: std::io::Error| SnapError::Io {
            message: e.to_string(),
        };
        writeln!(
            writer,
            "# Nodes: {} Edges: {}",
            graph.num_nodes(),
            graph.num_edges()
        )
        .map_err(io)?;
        for &(a, b) in graph.edges() {
            writeln!(writer, "{a}\t{b}").map_err(io)?;
        }
        Ok(())
    }

    #[test]
    fn parses_comments_and_whitespace() {
        let text = "# header\n# more\n1 2\n3\t4\n  5   6  \n";
        let g = read_snap(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn densifies_sparse_ids() {
        let g = read_snap("1000000 5\n5 1000000\n".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.edges(), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(
            read_snap("1\n".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 1 }
        );
        assert_eq!(
            read_snap("1 2\nx y\n".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 2 }
        );
    }

    #[test]
    fn round_trips_through_write() {
        let g = crate::erdos_renyi(30, 100, 3);
        let mut buf = Vec::new();
        write_snap(&g, &mut buf).unwrap();
        let back = read_snap(buf.as_slice()).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        // Ids are densified in file order, so compare canonicalized forms.
        assert_eq!(back.touched_nodes(), g.touched_nodes());
    }

    #[test]
    fn empty_input_is_an_empty_graph() {
        let g = read_snap("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn rejects_trailing_garbage_but_allows_inline_comments() {
        assert_eq!(
            read_snap("1 2 3\n".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 1 },
            "a third integer column is corruption, not an edge"
        );
        assert_eq!(
            read_snap("1 2\n3 4 junk\n".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 2 }
        );
        let g = read_snap("1 2 # weight omitted\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn strips_a_leading_byte_order_mark() {
        let g = read_snap("\u{feff}1 2\n2 3\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_nodes(), 3);
    }

    #[test]
    fn crlf_line_endings_parse() {
        let g = read_snap("# header\r\n1 2\r\n2 3\r\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn negative_and_overflowing_ids_are_malformed() {
        assert_eq!(
            read_snap("-1 2\n".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 1 }
        );
        // One digit past u64::MAX.
        assert_eq!(
            read_snap("18446744073709551616 2\n".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 1 }
        );
    }

    #[test]
    fn io_failures_surface_as_io_errors() {
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        match read_snap(Failing).unwrap_err() {
            SnapError::Io { message } => assert!(message.contains("disk on fire")),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn the_node_that_would_take_id_u32_max_is_too_many() {
        let mut ids = IdTable::new();
        ids.base = u32::MAX - 1; // the last id a node can take
        assert_eq!(ids.densify(80), Some(u32::MAX - 1));
        assert_eq!(ids.densify(90), None);
        assert_eq!(
            ids.densify(80),
            Some(u32::MAX - 1),
            "known ids still resolve"
        );

        let mut ids = IdTable::new();
        ids.base = u32::MAX - 2;
        let g = read_with("1 2\n2 1\n".as_bytes(), ids).unwrap();
        assert_eq!(g.num_nodes(), u32::MAX, "no wrap to 0");
        assert_eq!(
            g.edges(),
            &[(u32::MAX - 2, u32::MAX - 1), (u32::MAX - 1, u32::MAX - 2)]
        );
        let mut ids = IdTable::new();
        ids.base = u32::MAX - 2;
        assert_eq!(
            read_with("# two nodes fit\n1 2\n2 3\n".as_bytes(), ids).unwrap_err(),
            SnapError::TooManyNodes { line: 3 }
        );
    }

    #[test]
    fn the_id_table_grows_past_its_initial_slots() {
        let mut ids = IdTable::new();
        let raws: Vec<u64> = (0..5000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) << 20)
            .collect();
        for (id, &raw) in (0..).zip(&raws) {
            assert_eq!(ids.densify(raw), Some(id));
        }
        assert!(ids.slots.len() >= 2 * raws.len());
        for (id, &raw) in (0..).zip(&raws) {
            assert_eq!(ids.densify(raw), Some(id));
        }
    }

    // The tests below pin where the byte grammar differs from, or keeps, a
    // `str`-based reader's behaviour (`lines()`, `trim()`,
    // `split_whitespace()`, `u64::from_str`).

    #[test]
    fn a_non_utf8_byte_in_a_comment_is_skipped() {
        let g = read_snap(&b"# caf\xe9\n  #\xff\xfe\n1 2 # \xc3(\n"[..]).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn a_non_utf8_byte_in_a_data_line_is_a_bad_line() {
        for text in [&b"1 2\n3\xff 4\n"[..], b"1 2\n3 4\xff\n", b"1 2\n\xff\n"] {
            assert_eq!(
                read_snap(text).unwrap_err(),
                SnapError::BadLine { line: 2 },
                "{text:?}"
            );
        }
    }

    #[test]
    fn nbsp_and_vertical_tab_do_not_separate() {
        for text in ["1\u{a0}2\n", "1\x0b2\n", "1 2\u{a0}\n", "\x0b1 2\n"] {
            assert_eq!(
                read_snap(text.as_bytes()).unwrap_err(),
                SnapError::BadLine { line: 1 },
                "{text:?}"
            );
        }
        // Form feed and a lone carriage return are ASCII whitespace.
        let g = read_snap("1\x0c2\n3\r4\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn a_leading_plus_is_accepted() {
        let g = read_snap("+1 2\n1 +002\n".as_bytes()).unwrap();
        assert_eq!(
            (g.num_nodes(), g.num_edges()),
            (2, 1),
            "+1, 1 and 002 alias"
        );
        for text in ["+ 1\n", "++1 2\n", "1 +\n", "-0 1\n", "1 2+\n"] {
            assert_eq!(
                read_snap(text.as_bytes()).unwrap_err(),
                SnapError::BadLine { line: 1 },
                "{text:?}"
            );
        }
    }

    #[test]
    fn repeated_leading_byte_order_marks_on_line_one_are_stripped() {
        let g = read_snap("\u{feff}\u{feff}\u{feff}1 2\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
        let g = read_snap("\u{feff}# header\n1 2\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(
            read_snap("1 2\n\u{feff}2 3\n".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 2 },
            "only line 1 may carry a mark"
        );
        assert_eq!(
            read_snap(" \u{feff}1 2\n".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 1 },
            "only before any other byte"
        );
    }

    #[test]
    fn a_hash_glued_to_an_id_is_a_bad_line() {
        assert_eq!(
            read_snap("1 2#x\n".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 1 }
        );
        assert_eq!(
            read_snap("1 #2\n".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 1 }
        );
        assert_eq!(read_snap("1 2 #x\n".as_bytes()).unwrap().num_edges(), 1);
    }

    #[test]
    fn a_last_line_without_a_newline_parses() {
        let g = read_snap("1 2\n2 3".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        let g = read_snap("1 2\r\n2 3\r".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(
            read_snap("1 2\n2".as_bytes()).unwrap_err(),
            SnapError::BadLine { line: 2 }
        );
    }

    #[test]
    fn error_displays_are_informative() {
        assert!(SnapError::BadLine { line: 7 }.to_string().contains('7'));
        assert!(SnapError::TooManyNodes { line: 9 }
            .to_string()
            .contains("u32"));
    }
}
