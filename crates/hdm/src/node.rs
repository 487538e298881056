//! HDM nodes.

use std::fmt;

/// A node of an HDM schema.
///
/// Nodes are identified by name within a schema and represent extensional concepts:
/// their extent is a bag of scalar values. In the encoding of the relational model a
/// table `t` becomes a node `⟨⟨t⟩⟩` whose extent is the bag of primary-key values, and
/// each column `c` becomes an edge between `⟨⟨t⟩⟩` and a node holding the column's
/// values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Node {
    /// The node's name, unique within its schema.
    pub name: String,
}

impl Node {
    /// Create a node with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Node { name: name.into() }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨⟨{}⟩⟩", self.name)
    }
}

impl From<&str> for Node {
    fn from(name: &str) -> Self {
        Node::new(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_display_uses_scheme_brackets() {
        assert_eq!(Node::new("protein").to_string(), "⟨⟨protein⟩⟩");
    }

    #[test]
    fn nodes_compare_by_name() {
        assert_eq!(Node::new("a"), Node::from("a"));
        assert!(Node::new("a") < Node::new("b"));
    }
}
