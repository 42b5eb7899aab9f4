//! The text boundaries never panic: `parse_query` on arbitrary text and on
//! every single-character edit of the paper patterns returns a typed
//! `QueryError` or a plan that a one-worker session both `run()`s and
//! `stream()`s, and `read_snap` on arbitrary bytes returns a typed
//! `SnapError` or a graph.

use proptest::prelude::*;
use triejax_graph::snap::read_snap;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

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
