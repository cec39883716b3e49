//! SAX-style event streams over XML trees.
//!
//! STX — the transformation language the paper uses for schema translations
//! — is defined over a stream of events rather than a tree. [`events`]
//! linearizes a tree into events and [`build`] folds events back into a
//! tree, so transformations can run in a genuinely streaming fashion.

use crate::error::{XmlError, XmlResult};
use crate::node::{Document, Element, XmlNode};

/// One SAX event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaxEvent {
    StartElement {
        name: String,
        attrs: Vec<(String, String)>,
    },
    Text(String),
    EndElement {
        name: String,
    },
}

/// Linearize a document into events (depth-first).
pub fn events(doc: &Document) -> Vec<SaxEvent> {
    let mut out = Vec::with_capacity(doc.root.subtree_size() * 2);
    emit(&doc.root, &mut out);
    out
}

fn emit(e: &Element, out: &mut Vec<SaxEvent>) {
    out.push(SaxEvent::StartElement {
        name: e.name.clone(),
        attrs: e.attrs.clone(),
    });
    for c in &e.children {
        match c {
            XmlNode::Element(child) => emit(child, out),
            XmlNode::Text(t) => out.push(SaxEvent::Text(t.clone())),
        }
    }
    out.push(SaxEvent::EndElement {
        name: e.name.clone(),
    });
}

/// The top level of a document being built: exactly one root element,
/// with nothing but whitespace around it.
#[derive(Default)]
pub(crate) struct TopLevel {
    root: Option<Element>,
}

impl TopLevel {
    pub(crate) fn push(&mut self, node: XmlNode) -> XmlResult<()> {
        match node {
            XmlNode::Text(t) if t.trim().is_empty() => Ok(()),
            XmlNode::Text(_) => Err(XmlError::Transform("text outside root element".into())),
            XmlNode::Element(_) if self.root.is_some() => {
                Err(XmlError::Transform("multiple root elements".into()))
            }
            XmlNode::Element(e) => {
                self.root = Some(e);
                Ok(())
            }
        }
    }

    pub(crate) fn finish(self) -> XmlResult<Document> {
        self.root
            .map(Document::new)
            .ok_or_else(|| XmlError::Transform("empty event stream".into()))
    }
}

/// Fold an event stream back into a document. The stream must be
/// well-formed: one root element, balanced start/end tags.
pub fn build(events: impl IntoIterator<Item = SaxEvent>) -> XmlResult<Document> {
    let mut stack: Vec<Element> = Vec::new();
    let mut top = TopLevel::default();
    for ev in events {
        match ev {
            SaxEvent::StartElement { name, attrs } => {
                stack.push(Element {
                    name,
                    attrs,
                    children: Vec::new(),
                });
            }
            SaxEvent::Text(t) => match stack.last_mut() {
                Some(open) => {
                    if let Some(XmlNode::Text(prev)) = open.children.last_mut() {
                        prev.push_str(&t);
                    } else {
                        open.children.push(XmlNode::Text(t));
                    }
                }
                None => top.push(XmlNode::Text(t))?,
            },
            SaxEvent::EndElement { name } => {
                let done = stack
                    .pop()
                    .ok_or_else(|| XmlError::Transform("unbalanced end event".into()))?;
                if done.name != name {
                    return Err(XmlError::Transform(format!(
                        "end event {name} does not match open element {}",
                        done.name
                    )));
                }
                match stack.last_mut() {
                    Some(parent) => parent.children.push(XmlNode::Element(done)),
                    None => top.push(XmlNode::Element(done))?,
                }
            }
        }
    }
    if !stack.is_empty() {
        return Err(XmlError::Transform(
            "unclosed elements at end of stream".into(),
        ));
    }
    top.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn roundtrip_events() {
        let doc = parse(r#"<a x="1"><b>hi</b><c/></a>"#).unwrap();
        let evs = events(&doc);
        assert_eq!(evs.len(), 7); // a, b, "hi", /b, c, /c, /a
        let rebuilt = build(evs).unwrap();
        assert_eq!(rebuilt, doc);
    }

    #[test]
    fn build_rejects_imbalance() {
        let bad = vec![SaxEvent::StartElement {
            name: "a".into(),
            attrs: vec![],
        }];
        assert!(build(bad).is_err());
        let bad = vec![
            SaxEvent::StartElement {
                name: "a".into(),
                attrs: vec![],
            },
            SaxEvent::EndElement { name: "b".into() },
        ];
        assert!(build(bad).is_err());
    }

    #[test]
    fn build_rejects_two_roots() {
        let bad = vec![
            SaxEvent::StartElement {
                name: "a".into(),
                attrs: vec![],
            },
            SaxEvent::EndElement { name: "a".into() },
            SaxEvent::StartElement {
                name: "b".into(),
                attrs: vec![],
            },
            SaxEvent::EndElement { name: "b".into() },
        ];
        assert!(build(bad).is_err());
    }
}
