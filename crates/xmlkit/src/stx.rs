//! STX-like streaming XML transformations.
//!
//! The paper's schema translations (P01: XSD_Beijing → XSD_Seoul, P02:
//! MDM → Europe, P08/P09/P10: source schemas → CDB schema) are specified as
//! STX stylesheets — *streaming* transformations over a SAX event stream
//! (Becker, "Streaming Transformations for XML", 2003). This module
//! implements the subset those translations need: template rules matched on
//! the current element path, with rename / drop / unwrap / attribute and
//! text-vocabulary actions, executed in a single pass with O(depth) state.
//!
//! [`Stylesheet::transform`] walks the input tree once and appends straight
//! into the output tree: names on the match path are borrowed from the
//! input, vocabulary maps are used by reference, and every output string
//! is allocated once. [`Stylesheet::transform_events`] drives the same rule
//! core over a SAX event stream. The `stx_transform` trace span covers the
//! whole transform, tree in to tree out, so the time is xmlkit self time
//! rather than self time of the caller (the MTM `translate` step or a
//! federated procedure body).

use crate::error::{XmlError, XmlResult};
use crate::node::{Document, Element, XmlNode};
use crate::sax::{SaxEvent, TopLevel};
use std::collections::HashMap;

/// How a rule selects elements.
#[derive(Debug, Clone)]
pub enum Match {
    /// Any element with this name.
    Name(String),
    /// An element whose path of (original) names ends with this suffix,
    /// e.g. `["order", "state"]` matches `<state>` directly under `<order>`.
    PathSuffix(Vec<String>),
}

impl Match {
    fn matches(&self, path: &[&str]) -> bool {
        match self {
            Match::Name(n) => path.last() == Some(&n.as_str()),
            Match::PathSuffix(suffix) => {
                path.len() >= suffix.len()
                    && path[path.len() - suffix.len()..]
                        .iter()
                        .zip(suffix)
                        .all(|(p, s)| p == s)
            }
        }
    }
}

/// What to do with a matched element.
#[derive(Debug, Clone)]
pub enum Action {
    /// Emit the element under a different name.
    Rename(String),
    /// Drop the element and its entire subtree.
    Drop,
    /// Drop the element's own tags but keep (and keep transforming) its
    /// children — flattens one level of structure.
    Unwrap,
    /// Replace text content through a vocabulary map (the semantic
    /// heterogeneity mapping, e.g. priority-flag vocabularies); unmapped
    /// values pass through unchanged.
    MapText(HashMap<String, String>),
    /// Rename an attribute.
    RenameAttr { from: String, to: String },
    /// Remove an attribute.
    DropAttr(String),
    /// Add or overwrite an attribute with a constant value.
    SetAttr { name: String, value: String },
    /// Turn every attribute into a leading child element
    /// (`<o id="1"/>` → `<o><id>1</id></o>`).
    AttrsToElements,
}

/// A template rule: first matching rule wins, all its actions apply.
#[derive(Debug, Clone)]
pub struct Rule {
    pub matcher: Match,
    pub actions: Vec<Action>,
}

impl Rule {
    pub fn for_name(name: impl Into<String>) -> RuleBuilder {
        RuleBuilder {
            matcher: Match::Name(name.into()),
            actions: Vec::new(),
        }
    }

    pub fn for_path(suffix: &[&str]) -> RuleBuilder {
        RuleBuilder {
            matcher: Match::PathSuffix(suffix.iter().map(|s| s.to_string()).collect()),
            actions: Vec::new(),
        }
    }
}

/// Fluent rule construction.
pub struct RuleBuilder {
    matcher: Match,
    actions: Vec<Action>,
}

impl RuleBuilder {
    pub fn rename(mut self, to: impl Into<String>) -> RuleBuilder {
        self.actions.push(Action::Rename(to.into()));
        self
    }
    pub fn drop(mut self) -> RuleBuilder {
        self.actions.push(Action::Drop);
        self
    }
    pub fn unwrap_element(mut self) -> RuleBuilder {
        self.actions.push(Action::Unwrap);
        self
    }
    pub fn map_text(mut self, pairs: &[(&str, &str)]) -> RuleBuilder {
        let map = pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        self.actions.push(Action::MapText(map));
        self
    }
    pub fn rename_attr(mut self, from: impl Into<String>, to: impl Into<String>) -> RuleBuilder {
        self.actions.push(Action::RenameAttr {
            from: from.into(),
            to: to.into(),
        });
        self
    }
    pub fn drop_attr(mut self, name: impl Into<String>) -> RuleBuilder {
        self.actions.push(Action::DropAttr(name.into()));
        self
    }
    pub fn set_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> RuleBuilder {
        self.actions.push(Action::SetAttr {
            name: name.into(),
            value: value.into(),
        });
        self
    }
    pub fn attrs_to_elements(mut self) -> RuleBuilder {
        self.actions.push(Action::AttrsToElements);
        self
    }
    pub fn build(self) -> Rule {
        Rule {
            matcher: self.matcher,
            actions: self.actions,
        }
    }
}

/// A named stylesheet: an ordered list of template rules.
#[derive(Debug, Clone)]
pub struct Stylesheet {
    pub name: String,
    pub rules: Vec<Rule>,
}

/// What the first matching rule makes of one element that is not dropped.
/// Everything is borrowed from the input and the stylesheet.
struct Opened<'a> {
    /// Output name; `None` when unwrapped.
    name: Option<&'a str>,
    /// Output attributes, in order.
    attrs: Vec<(&'a str, &'a str)>,
    /// Emit the attributes as leading child elements instead.
    attrs_to_elements: bool,
    /// Active text map for direct text children.
    text_map: Option<&'a HashMap<String, String>>,
}

impl<'a> Opened<'a> {
    /// Apply the actions of the first rule matching `path` (whose last
    /// entry is this element's name) in order; `None` if the element and
    /// its subtree are dropped.
    fn new(
        sheet: &'a Stylesheet,
        path: &[&'a str],
        attrs: &'a [(String, String)],
    ) -> Option<Opened<'a>> {
        let mut out = Opened {
            name: path.last().copied(),
            attrs: attrs
                .iter()
                .map(|(n, v)| (n.as_str(), v.as_str()))
                .collect(),
            attrs_to_elements: false,
            text_map: None,
        };
        let Some(rule) = sheet.rules.iter().find(|r| r.matcher.matches(path)) else {
            return Some(out);
        };
        let mut dropped = false;
        for action in &rule.actions {
            match action {
                Action::Drop => dropped = true,
                Action::Unwrap => out.name = None,
                Action::Rename(to) => {
                    if out.name.is_some() {
                        out.name = Some(to);
                    }
                }
                Action::MapText(m) => out.text_map = Some(m),
                Action::RenameAttr { from, to } => {
                    for (n, _) in out.attrs.iter_mut().filter(|(n, _)| n == from) {
                        *n = to;
                    }
                }
                Action::DropAttr(a) => out.attrs.retain(|(n, _)| n != a),
                Action::SetAttr { name, value } => {
                    match out.attrs.iter_mut().find(|(n, _)| n == name) {
                        Some((_, v)) => *v = value,
                        None => out.attrs.push((name, value)),
                    }
                }
                Action::AttrsToElements => out.attrs_to_elements = true,
            }
        }
        (!dropped).then_some(out)
    }

    /// The output attribute list (empty when they become elements).
    fn owned_attrs(&self) -> Vec<(String, String)> {
        if self.attrs_to_elements {
            return Vec::new();
        }
        self.attrs
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect()
    }

    /// A text child, through the vocabulary map if one is active.
    fn map_text<'t>(&self, text: &'t str) -> &'t str
    where
        'a: 't,
    {
        self.text_map
            .and_then(|m| m.get(text.trim()))
            .map_or(text, String::as_str)
    }
}

/// Append a text run, merging it into a preceding one.
fn push_text(children: &mut Vec<XmlNode>, text: &str) {
    match children.last_mut() {
        Some(XmlNode::Text(prev)) => prev.push_str(text),
        _ => children.push(XmlNode::Text(text.to_string())),
    }
}

impl Stylesheet {
    pub fn new(name: impl Into<String>, rules: Vec<Rule>) -> Stylesheet {
        Stylesheet {
            name: name.into(),
            rules,
        }
    }

    /// The identity stylesheet.
    pub fn identity(name: impl Into<String>) -> Stylesheet {
        Stylesheet::new(name, Vec::new())
    }

    /// Transform a whole document in one walk over its tree. Gives the
    /// same document (or error) as rebuilding the output of
    /// [`Stylesheet::transform_events`] over the document's events.
    pub fn transform(&self, doc: &Document) -> XmlResult<Document> {
        let _span = dip_trace::span_cat(
            dip_trace::Layer::Xmlkit,
            "stx_transform",
            dip_trace::Category::Processing,
        );
        // An unwrapped root leaves its children at the top level.
        let mut nodes = Vec::with_capacity(1);
        self.walk(&doc.root, &mut Vec::new(), &mut nodes);
        let mut top = TopLevel::default();
        for node in nodes {
            top.push(node)?;
        }
        top.finish()
    }

    /// Transform `e` and append the result to `out`, the children of the
    /// nearest emitted ancestor.
    fn walk<'a>(&'a self, e: &'a Element, path: &mut Vec<&'a str>, out: &mut Vec<XmlNode>) {
        path.push(&e.name);
        if let Some(opened) = Opened::new(self, path, &e.attrs) {
            match opened.name {
                Some(name) => {
                    let mut el = Element {
                        name: name.to_string(),
                        attrs: opened.owned_attrs(),
                        children: Vec::with_capacity(e.children.len()),
                    };
                    if opened.attrs_to_elements {
                        for (n, v) in &opened.attrs {
                            el.children.push(XmlNode::Element(Element::leaf(*n, *v)));
                        }
                    }
                    self.walk_children(e, &opened, path, &mut el.children);
                    out.push(XmlNode::Element(el));
                }
                None => self.walk_children(e, &opened, path, out),
            }
        }
        path.pop();
    }

    fn walk_children<'a>(
        &'a self,
        e: &'a Element,
        opened: &Opened<'a>,
        path: &mut Vec<&'a str>,
        out: &mut Vec<XmlNode>,
    ) {
        for c in &e.children {
            match c {
                XmlNode::Element(child) => self.walk(child, path, out),
                XmlNode::Text(t) => push_text(out, opened.map_text(t)),
            }
        }
    }

    /// Transform a SAX event stream in one pass, with the rule logic of
    /// [`Stylesheet::transform`].
    pub fn transform_events(&self, input: &[SaxEvent]) -> XmlResult<Vec<SaxEvent>> {
        let _span = dip_trace::span_cat(
            dip_trace::Layer::Xmlkit,
            "stx_transform",
            dip_trace::Category::Processing,
        );
        let mut out = Vec::with_capacity(input.len());
        let mut path: Vec<&str> = Vec::new();
        // One entry per open element that is not dropped.
        let mut frames: Vec<Opened> = Vec::new();
        // While dropping a subtree: depth below the dropped element.
        let mut drop_depth: Option<usize> = None;

        for ev in input {
            match ev {
                SaxEvent::StartElement { name, attrs } => {
                    path.push(name);
                    if let Some(d) = drop_depth.as_mut() {
                        *d += 1;
                        continue;
                    }
                    let Some(opened) = Opened::new(self, &path, attrs) else {
                        drop_depth = Some(0);
                        continue;
                    };
                    if let Some(n) = opened.name {
                        out.push(SaxEvent::StartElement {
                            name: n.to_string(),
                            attrs: opened.owned_attrs(),
                        });
                        if opened.attrs_to_elements {
                            for (an, av) in &opened.attrs {
                                out.push(SaxEvent::StartElement {
                                    name: an.to_string(),
                                    attrs: vec![],
                                });
                                out.push(SaxEvent::Text(av.to_string()));
                                out.push(SaxEvent::EndElement {
                                    name: an.to_string(),
                                });
                            }
                        }
                    }
                    frames.push(opened);
                }
                SaxEvent::Text(t) => {
                    if drop_depth.is_some() {
                        continue;
                    }
                    let mapped = frames.last().map_or(t.as_str(), |f| f.map_text(t));
                    out.push(SaxEvent::Text(mapped.to_string()));
                }
                SaxEvent::EndElement { .. } => {
                    path.pop();
                    match drop_depth.as_mut() {
                        Some(0) => {
                            drop_depth = None; // the dropped element itself closed
                        }
                        Some(d) => {
                            *d -= 1;
                        }
                        None => {
                            let frame = frames.pop().ok_or_else(|| {
                                XmlError::Transform("unbalanced input stream".into())
                            })?;
                            if let Some(n) = frame.name {
                                out.push(SaxEvent::EndElement {
                                    name: n.to_string(),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::writer::write_compact;

    #[test]
    fn rename_and_map_text() {
        // the P01-style Beijing → Seoul translation shape
        let sheet = Stylesheet::new(
            "beijing_to_seoul",
            vec![
                Rule::for_name("bj_customer").rename("customer").build(),
                Rule::for_name("bj_priority")
                    .rename("prio")
                    .map_text(&[("HIGH", "1"), ("MED", "2"), ("LOW", "3")])
                    .build(),
            ],
        );
        let doc = parse("<bj_customer><bj_priority>HIGH</bj_priority></bj_customer>").unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(
            write_compact(&out),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><customer><prio>1</prio></customer>"
        );
    }

    #[test]
    fn unmapped_text_passes_through() {
        let sheet = Stylesheet::new(
            "s",
            vec![Rule::for_name("p").map_text(&[("A", "B")]).build()],
        );
        let doc = parse("<p>UNKNOWN</p>").unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.text_content(), "UNKNOWN");
    }

    #[test]
    fn drop_removes_subtree() {
        let sheet = Stylesheet::new("s", vec![Rule::for_name("internal").drop().build()]);
        let doc = parse(
            "<msg><keep>1</keep><internal><deep><deeper/></deep></internal><keep>2</keep></msg>",
        )
        .unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.elements().count(), 2);
        assert!(out.root.first("internal").is_none());
    }

    #[test]
    fn unwrap_flattens_one_level() {
        let sheet = Stylesheet::new(
            "s",
            vec![Rule::for_name("wrapper").unwrap_element().build()],
        );
        let doc = parse("<msg><wrapper><a>1</a><b>2</b></wrapper></msg>").unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.child_text("a").as_deref(), Some("1"));
        assert_eq!(out.root.child_text("b").as_deref(), Some("2"));
    }

    #[test]
    fn path_suffix_scopes_rule() {
        // rename <state> only under <order>, not under <customer>
        let sheet = Stylesheet::new(
            "s",
            vec![Rule::for_path(&["order", "state"]).rename("ostate").build()],
        );
        let doc =
            parse("<m><order><state>O</state></order><customer><state>C</state></customer></m>")
                .unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert!(out.root.first("order").unwrap().first("ostate").is_some());
        assert!(out.root.first("customer").unwrap().first("state").is_some());
    }

    #[test]
    fn attribute_actions() {
        let sheet = Stylesheet::new(
            "s",
            vec![Rule::for_name("o")
                .rename_attr("id", "okey")
                .drop_attr("junk")
                .set_attr("src", "mdm")
                .build()],
        );
        let doc = parse(r#"<o id="5" junk="x"/>"#).unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.attribute("okey"), Some("5"));
        assert_eq!(out.root.attribute("junk"), None);
        assert_eq!(out.root.attribute("src"), Some("mdm"));
    }

    #[test]
    fn attrs_to_elements() {
        let sheet = Stylesheet::new("s", vec![Rule::for_name("row").attrs_to_elements().build()]);
        let doc = parse(r#"<t><row a="1" b="x"/></t>"#).unwrap();
        let out = sheet.transform(&doc).unwrap();
        let row = out.root.first("row").unwrap();
        assert!(row.attrs.is_empty());
        assert_eq!(row.child_text("a").as_deref(), Some("1"));
        assert_eq!(row.child_text("b").as_deref(), Some("x"));
    }

    #[test]
    fn first_matching_rule_wins() {
        let sheet = Stylesheet::new(
            "s",
            vec![
                Rule::for_name("x").rename("first").build(),
                Rule::for_name("x").rename("second").build(),
            ],
        );
        let doc = parse("<x/>").unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.name, "first");
    }

    #[test]
    fn identity_is_lossless() {
        let doc = parse(r#"<a q="1"><b>t</b><c><d/></c></a>"#).unwrap();
        let out = Stylesheet::identity("id").transform(&doc).unwrap();
        assert_eq!(out, doc);
    }

    #[test]
    fn nested_drop_of_same_name() {
        let sheet = Stylesheet::new("s", vec![Rule::for_name("kill").drop().build()]);
        let doc = parse("<m><kill><kill/></kill><ok/></m>").unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.elements().count(), 1);
    }
}
