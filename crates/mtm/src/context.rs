//! Execution context: the per-instance variable store.

use crate::message::MtmMessage;
use std::collections::HashMap;
use std::sync::Arc;

/// The variable bindings of one running process instance (`msg1`, `msg2`, …
/// in the paper's process figures).
///
/// Bound messages are immutable and shared: cloning the store for a FORK
/// branch, or handing a variable to a sub-process, copies no message.
#[derive(Debug, Default, Clone)]
pub struct VarStore {
    vars: HashMap<String, Arc<MtmMessage>>,
}

impl VarStore {
    pub fn new() -> VarStore {
        VarStore {
            vars: HashMap::new(),
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: impl Into<MtmMessage>) {
        self.set_shared(name, Arc::new(value.into()));
    }

    /// Bind a message another store (or variable) may also hold.
    pub fn set_shared(&mut self, name: impl Into<String>, value: Arc<MtmMessage>) {
        self.vars.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<&MtmMessage> {
        self.vars.get(name).map(Arc::as_ref)
    }

    /// A shared handle on a bound message, without copying it.
    pub fn share(&self, name: &str) -> Option<Arc<MtmMessage>> {
        self.vars.get(name).cloned()
    }

    /// Unbind a message. It is moved out when this store was its only
    /// holder and copied only when it is still shared.
    pub fn take(&mut self, name: &str) -> Option<MtmMessage> {
        self.vars.remove(name).map(Arc::unwrap_or_clone)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    pub fn names(&self) -> Vec<&str> {
        self.vars.keys().map(String::as_str).collect()
    }

    /// Merge another store into this one (used when joining FORK branches;
    /// later branches win on conflicts, which static validation forbids
    /// anyway).
    pub fn merge(&mut self, other: VarStore) {
        self.vars.extend(other.vars);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_relstore::value::Value;

    #[test]
    fn set_get_take_merge() {
        let mut v = VarStore::new();
        v.set("a", Value::Int(1));
        assert!(v.contains("a"));
        assert!(v.get("a").is_some());
        let mut w = VarStore::new();
        w.set("b", Value::Int(2));
        v.merge(w);
        assert!(v.contains("b"));
        assert!(v.take("a").is_some());
        assert!(!v.contains("a"));
    }

    #[test]
    fn clones_share_messages_until_taken() {
        use dip_xmlkit::node::{Document, Element};
        fn name_ptr(m: &MtmMessage) -> *const u8 {
            match m {
                MtmMessage::Xml(doc) => doc.root.name.as_ptr(),
                _ => std::ptr::null(),
            }
        }
        let mut v = VarStore::new();
        v.set("d", Document::new(Element::new("root")));
        let original = v.get("d").map(name_ptr);
        let mut branch = v.clone();
        assert_eq!(branch.get("d").map(name_ptr), original);
        // still held by `v`: taking it from the branch copies
        let copied = branch.take("d");
        assert!(copied.is_some());
        assert_ne!(copied.as_ref().map(name_ptr), original);
        // now `v` is the only holder: taking it moves
        assert_eq!(v.take("d").as_ref().map(name_ptr), original);
    }
}
