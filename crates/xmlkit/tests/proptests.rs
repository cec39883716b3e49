//! Property-based tests of the XML stack: serializer/parser round trips,
//! SAX stream invariants, STX identity behaviour on arbitrary trees, and
//! the tree walk of STX against its event-stream path.

use dip_xmlkit::node::{Document, Element, XmlNode};
use dip_xmlkit::sax::{build, events};
use dip_xmlkit::stx::{Action, Match, Rule, Stylesheet};
use dip_xmlkit::{parse, write_compact, write_pretty};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_.-]{0,8}"
}

/// Text that is not whitespace-only (the parser drops whitespace runs
/// between elements by design).
fn arb_text() -> impl Strategy<Value = String> {
    "[ -~]{1,20}".prop_filter("not whitespace-only", |s| !s.trim().is_empty())
}

fn arb_element(depth: u32) -> BoxedStrategy<Element> {
    let leaf = (
        arb_name(),
        prop::collection::vec((arb_name(), "[ -~]{0,10}"), 0..3),
    )
        .prop_map(|(name, attrs)| {
            let mut e = Element::new(name);
            for (n, v) in attrs {
                // attribute names must be unique per element
                if e.attribute(&n).is_none() {
                    e.attrs.push((n, v));
                }
            }
            e
        });
    if depth == 0 {
        return leaf.boxed();
    }
    (
        leaf,
        prop::collection::vec(
            prop_oneof![
                arb_element(depth - 1).prop_map(XmlNode::Element),
                arb_text().prop_map(XmlNode::Text),
            ],
            0..4,
        ),
    )
        .prop_map(|(mut e, children)| {
            // merge adjacent text nodes the way the parser would
            for c in children {
                match c {
                    XmlNode::Text(t) => {
                        if let Some(XmlNode::Text(prev)) = e.children.last_mut() {
                            prev.push_str(&t);
                        } else {
                            e.children.push(XmlNode::Text(t));
                        }
                    }
                    el => e.children.push(el),
                }
            }
            e
        })
        .boxed()
}

/// Strip text nodes that the parser would not preserve (whitespace-only
/// runs between elements).
fn normalize(e: &Element) -> Element {
    let mut out = Element::new(e.name.clone());
    out.attrs = e.attrs.clone();
    for c in &e.children {
        match c {
            XmlNode::Element(child) => out.children.push(XmlNode::Element(normalize(child))),
            XmlNode::Text(t) => {
                if !t.trim().is_empty() {
                    out.children.push(XmlNode::Text(t.clone()));
                }
            }
        }
    }
    out
}

/// Names from a three-letter alphabet, so that random rules match often.
fn small_name() -> impl Strategy<Value = String> {
    "[abc]"
}

fn attr_name() -> impl Strategy<Value = String> {
    "[xy]"
}

/// Text runs that hit the vocabulary map (also after trimming), miss it,
/// or are empty or whitespace-only.
fn small_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("HIGH".to_string()),
        Just(" LOW ".to_string()),
        Just(String::new()),
        Just("  ".to_string()),
        "[ab ]{1,3}",
    ]
}

/// Trees straight from the data model: adjacent, empty and whitespace-only
/// text nodes and repeated attribute names all occur.
fn small_element(depth: u32) -> BoxedStrategy<Element> {
    let leaf = (
        small_name(),
        prop::collection::vec((attr_name(), small_text()), 0..3),
    )
        .prop_map(|(name, attrs)| Element {
            name,
            attrs,
            children: Vec::new(),
        });
    if depth == 0 {
        return leaf.boxed();
    }
    (
        leaf,
        prop::collection::vec(
            prop_oneof![
                small_element(depth - 1).prop_map(XmlNode::Element),
                small_text().prop_map(XmlNode::Text),
            ],
            0..4,
        ),
    )
        .prop_map(|(mut e, children)| {
            e.children = children;
            e
        })
        .boxed()
}

fn arb_action() -> impl Strategy<Value = Action> {
    let vocab: HashMap<String, String> = [("HIGH", "1"), ("LOW", "3"), ("a", "A"), ("", "E")]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    prop_oneof![
        3 => small_name().prop_map(Action::Rename),
        1 => Just(Action::Drop),
        2 => Just(Action::Unwrap),
        2 => Just(Action::MapText(vocab)),
        1 => (attr_name(), attr_name()).prop_map(|(from, to)| Action::RenameAttr { from, to }),
        1 => attr_name().prop_map(Action::DropAttr),
        1 => (attr_name(), small_text()).prop_map(|(name, value)| Action::SetAttr { name, value }),
        1 => Just(Action::AttrsToElements),
    ]
}

fn arb_stylesheet() -> impl Strategy<Value = Stylesheet> {
    let matcher = prop_oneof![
        small_name().prop_map(Match::Name),
        prop::collection::vec(small_name(), 0..3).prop_map(Match::PathSuffix),
    ];
    prop::collection::vec((matcher, prop::collection::vec(arb_action(), 0..4)), 0..5).prop_map(
        |rules| {
            let rules = rules
                .into_iter()
                .map(|(matcher, actions)| Rule { matcher, actions })
                .collect();
            Stylesheet::new("diff", rules)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// write → parse round-trips any generated tree (modulo dropped
    /// whitespace-only text).
    #[test]
    fn compact_roundtrip(root in arb_element(3)) {
        let doc = Document::new(normalize(&root));
        let text = write_compact(&doc);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, doc);
    }

    /// The pretty printer parses back to the same tree.
    #[test]
    fn pretty_roundtrip(root in arb_element(3)) {
        let doc = Document::new(normalize(&root));
        let text = write_pretty(&doc);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, doc);
    }

    /// SAX events ↔ tree is lossless and the event stream is balanced.
    #[test]
    fn sax_roundtrip(root in arb_element(3)) {
        let doc = Document::new(normalize(&root));
        let evs = events(&doc);
        // balanced: equal numbers of start and end events
        let starts = evs.iter().filter(|e| matches!(e, dip_xmlkit::sax::SaxEvent::StartElement { .. })).count();
        let ends = evs.iter().filter(|e| matches!(e, dip_xmlkit::sax::SaxEvent::EndElement { .. })).count();
        prop_assert_eq!(starts, ends);
        prop_assert_eq!(build(evs).unwrap(), doc);
    }

    /// The identity stylesheet is the identity function.
    #[test]
    fn stx_identity(root in arb_element(3)) {
        let doc = Document::new(normalize(&root));
        let out = Stylesheet::identity("id").transform(&doc).unwrap();
        prop_assert_eq!(out, doc);
    }

    /// Renaming a name to itself is also the identity.
    #[test]
    fn stx_self_rename(root in arb_element(3)) {
        let doc = Document::new(normalize(&root));
        let name = doc.root.name.clone();
        let sheet = Stylesheet::new("r", vec![Rule::for_name(name.clone()).rename(name).build()]);
        let out = sheet.transform(&doc).unwrap();
        prop_assert_eq!(out, doc);
    }

    /// A rename rule never changes the number of nodes, and a drop rule
    /// never increases it.
    #[test]
    fn stx_rules_preserve_or_shrink(root in arb_element(3), target in arb_name()) {
        let doc = Document::new(normalize(&root));
        let before = doc.root.subtree_size();
        let rename = Stylesheet::new("rn", vec![Rule::for_name(target.clone()).rename("renamed_x").build()]);
        let renamed = rename.transform(&doc).unwrap();
        prop_assert_eq!(renamed.root.subtree_size(), before);
        if doc.root.name != target {
            let drop = Stylesheet::new("dr", vec![Rule::for_name(target).drop().build()]);
            let dropped = drop.transform(&doc).unwrap();
            prop_assert!(dropped.root.subtree_size() <= before);
        }
    }

    /// Parsing arbitrary bytes never panics (it may error).
    #[test]
    fn parser_never_panics(input in "[ -~<>&;]{0,60}") {
        let _ = parse(&input);
    }
}

proptest! {
    // cheap cases; enough of them to reach the rare top-level errors
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The tree walk and the event-stream path agree on random
    /// stylesheets: the same document, or the same error (an unwrapped
    /// root can leave text, several elements or nothing at the top).
    #[test]
    fn stx_tree_walk_matches_event_stream(root in small_element(3), sheet in arb_stylesheet()) {
        let doc = Document::new(root);
        let walked = sheet.transform(&doc).map_err(|e| e.to_string());
        let streamed = sheet
            .transform_events(&events(&doc))
            .and_then(build)
            .map_err(|e| e.to_string());
        prop_assert_eq!(walked, streamed, "{:?}\n{:?}", doc, sheet);
    }
}
