//! The text boundaries never panic: `parse_query` on arbitrary text and on
//! every single-character edit of the paper patterns returns a typed
//! `QueryError` or a plan that a one-worker session both `run()`s and
//! `stream()`s, and `read_snap` on arbitrary bytes returns a typed
//! `SnapError` or a graph. On edge-list text `read_snap` loads what a
//! `str`-based reader loads, and a file in the layout of a SNAP download
//! loads with the counts its header states.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use triejax_graph::snap::{read_snap, SnapError};
use triejax_join::{Catalog, CollectSink, Session};
use triejax_query::{parse_query, patterns::Pattern, CompiledQuery};
use triejax_relation::Relation;

/// A one-worker session over a small graph `G` dense in short cycles, so
/// most well-formed queries have rows.
fn session() -> Session {
    let mut edges = vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (1, 4)];
    edges.extend([(4, 1), (3, 0), (0, 3)]);
    let mut catalog = Catalog::new();
    catalog.insert("G", Relation::from_pairs(edges));
    Session::new(catalog).with_pool(1)
}

/// Parses and compiles `text`; when both succeed, serves the plan through
/// `run()` and `stream()`, which must agree row for row whenever the run
/// succeeds. Errors are fine; a panic fails the test.
fn serve(session: &Session, text: &str) {
    let Ok(query) = parse_query(text) else {
        return;
    };
    let Ok(plan) = CompiledQuery::compile(&query) else {
        return;
    };
    let mut sink = CollectSink::new();
    let ran = session.query(&plan).run(&mut sink);
    let streamed: Vec<_> = session.query(&plan).stream().collect();
    if ran.is_ok() {
        assert_eq!(streamed, sink.tuples(), "{text:?}");
    }
}

/// Characters the paper patterns are written in, plus a few that are not.
const ALPHABET: &[char] = &[
    'q', 'G', 'R', 'x', 'y', 'z', 'w', '(', ')', ',', '.', ':', '-', '=', ' ', '\n', '#', '_', '0',
    '9', 'é',
];

/// Every single-character deletion, replacement and insertion (over
/// [`ALPHABET`]) of every paper pattern's datalog text.
#[test]
fn every_single_character_edit_of_the_paper_patterns_is_served_or_rejected() {
    let session = session();
    let mut served = 0;
    for pattern in Pattern::PAPER {
        let text: Vec<char> = pattern.query().to_datalog().chars().collect();
        for at in 0..=text.len() {
            let mut edits = Vec::new();
            if at < text.len() {
                let mut deleted = text.clone();
                deleted.remove(at);
                edits.push(deleted);
            }
            for &c in ALPHABET {
                let mut inserted = text.clone();
                inserted.insert(at, c);
                edits.push(inserted);
                if at < text.len() && text[at] != c {
                    let mut replaced = text.clone();
                    replaced[at] = c;
                    edits.push(replaced);
                }
            }
            for edit in edits {
                let edit: String = edit.into_iter().collect();
                served += usize::from(parse_query(&edit).is_ok());
                serve(&session, &edit);
            }
        }
    }
    assert!(served > 100, "edits that still parse reach the engines");
}

/// The `str`-based SNAP reader `read_snap` replaced, kept as an oracle:
/// `(num_nodes, sorted loop-free edges)` or the first error.
fn reference_read_snap(text: &str) -> Result<(u32, Vec<(u32, u32)>), SnapError> {
    let mut ids: HashMap<u64, u32> = HashMap::new();
    let mut edges = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let line = if i == 0 {
            line.trim_start_matches('\u{feff}')
        } else {
            line
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = SnapError::BadLine { line: i + 1 };
        let mut it = line.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(bad);
        };
        if it.next().is_some_and(|rest| !rest.starts_with('#')) {
            return Err(bad);
        }
        let (Ok(a), Ok(b)) = (a.parse::<u64>(), b.parse::<u64>()) else {
            return Err(bad);
        };
        let mut densify = |raw: u64| {
            let next = ids.len() as u32;
            *ids.entry(raw).or_insert(next)
        };
        let (a, b) = (densify(a), densify(b));
        if a != b {
            edges.insert((a, b));
        }
    }
    Ok((ids.len() as u32, edges.into_iter().collect()))
}

/// An id token. Most are small, so edges repeat and loop; `+` and leading
/// zeros alias them; the rest are `u64::MAX`, one past it and negative.
fn snap_id(pick: u8) -> &'static str {
    const SMALL: [&str; 5] = ["0", "1", "2", "3", "17"];
    match pick {
        0 => "18446744073709551615",
        1 => "18446744073709551616",
        2 => "-1",
        3 => "+2",
        4 => "003",
        _ => SMALL[usize::from(pick) % SMALL.len()],
    }
}

/// Separators over which `read_snap` and the `str` reader agree.
const SNAP_SEPARATORS: &[&str] = &[" ", "\t", "  ", " \t ", "\x0c", "\r"];

/// One line of a generated SNAP text, without its ending.
fn snap_line(kind: u8, a: &str, b: &str, sep: &str) -> String {
    match kind {
        0 => String::new(),
        1 => sep.to_string(),
        2 => format!("# Nodes: {a} Edges: {b}"),
        3 => format!("{sep}#{a}{sep}{b}"),
        4 => format!("{sep}{a}{sep}{b}{sep}"),
        5 => format!("{a}{sep}{b}{sep}# inline {a}"),
        6 => format!("{a}{sep}{b}{sep}{a}"),
        7 => a.to_string(),
        8 => format!("{a}{sep}{b}#"),
        _ => format!("{a}{sep}{b}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `read_snap` equals the `str`-based reference on SNAP-shaped text:
    /// separators, CRLF, blank and whitespace-only lines, comments and
    /// inline comments, duplicate edges, self-loops, byte-order marks and
    /// ids up to one past `u64::MAX`.
    #[test]
    fn snap_text_loads_as_the_str_reader_loads_it(
        boms in 0usize..3,
        last_newline in any::<bool>(),
        lines in prop::collection::vec(
            (0u8..32, 0u8..40, 0u8..40, 0usize..SNAP_SEPARATORS.len(), any::<bool>()),
            0..10,
        ),
    ) {
        let mut text = "\u{feff}".repeat(boms);
        for (i, &(kind, a, b, sep, crlf)) in lines.iter().enumerate() {
            text += &snap_line(kind, snap_id(a), snap_id(b), SNAP_SEPARATORS[sep]);
            if last_newline || i + 1 < lines.len() {
                text += if crlf { "\r\n" } else { "\n" };
            }
        }
        let loaded = read_snap(text.as_bytes()).map(|g| (g.num_nodes(), g.edges().to_vec()));
        prop_assert_eq!(loaded, reference_read_snap(&text), "{:?}", text);
    }

    /// Arbitrary text over the query alphabet.
    #[test]
    fn arbitrary_text_is_served_or_rejected(
        chars in prop::collection::vec(0usize..ALPHABET.len(), 0..48),
    ) {
        let text: String = chars.into_iter().map(|i| ALPHABET[i]).collect();
        serve(&session(), &text);
    }

    /// Arbitrary bytes, biased towards what an edge list is made of.
    #[test]
    fn arbitrary_bytes_load_or_fail_typed(
        raw in prop::collection::vec((0u8..4, any::<u8>()), 0..200),
    ) {
        const EDGE_BYTES: &[u8] = b"0123456789 \t\r\n#-+";
        let bytes: Vec<u8> = raw
            .into_iter()
            .map(|(kind, b)| match kind {
                0 => b,
                _ => EDGE_BYTES[usize::from(b) % EDGE_BYTES.len()],
            })
            .collect();
        if let Ok(graph) = read_snap(bytes.as_slice()) {
            prop_assert!(graph.num_edges() <= bytes.len());
        }
    }
}

/// A file in the layout of a SNAP download (its `# Directed graph`,
/// `# Nodes: N Edges: M` and `# FromNodeId\tToNodeId` header, CRLF
/// endings, tab-separated sparse ids) loads with the counts the header
/// states.
#[test]
fn a_snap_download_layout_loads_with_its_header_counts() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/snap-sample.txt");
    let bytes = std::fs::read(path).expect("the fixture is checked in");
    assert!(
        bytes.windows(2).any(|w| w == b"\r\n"),
        "the fixture keeps its CRLF endings"
    );
    let graph = read_snap(bytes.as_slice()).expect("the fixture loads");
    let text = String::from_utf8(bytes).expect("the fixture is ASCII");
    let counts = text
        .lines()
        .find_map(|line| line.strip_prefix("# Nodes: "))
        .and_then(|rest| rest.split_once(" Edges: "))
        .expect("a SNAP header states its counts");
    assert_eq!(graph.num_nodes().to_string(), counts.0.trim());
    assert_eq!(graph.num_edges().to_string(), counts.1.trim());
    assert_eq!((graph.num_nodes(), graph.num_edges()), (12, 20));
}
