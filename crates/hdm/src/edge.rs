//! HDM hyperedges.

use std::fmt;

/// A reference to a participant of a hyperedge: either a node or another edge.
///
/// HDM edges are *nested* hyperedges — an edge may connect not only nodes but also
/// other edges, which is how higher-level constructs such as relational columns over
/// multi-attribute keys are encoded.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HdmRef {
    /// Reference to a node by name.
    Node(String),
    /// Reference to an edge by its identity (see [`Edge::identity`]).
    Edge(String),
}

impl HdmRef {
    /// Reference a node by name.
    pub fn node(name: impl Into<String>) -> Self {
        HdmRef::Node(name.into())
    }

    /// Reference an edge by its identity string.
    pub fn edge(identity: impl Into<String>) -> Self {
        HdmRef::Edge(identity.into())
    }

    /// The referenced name/identity, independent of whether it is a node or an edge.
    pub fn name(&self) -> &str {
        match self {
            HdmRef::Node(n) | HdmRef::Edge(n) => n,
        }
    }
}

impl fmt::Display for HdmRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdmRef::Node(n) => write!(f, "{n}"),
            HdmRef::Edge(e) => write!(f, "edge:{e}"),
        }
    }
}

/// A hyperedge of an HDM schema.
///
/// An edge may be named or anonymous and connects one or more participants (nodes or
/// other edges). Its extent is a bag of tuples whose arity equals the number of
/// participants.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Optional edge name. Anonymous edges are identified purely by their participants.
    pub name: Option<String>,
    /// The participants, in order; the extent tuples follow this order.
    pub participants: Vec<HdmRef>,
}

impl Edge {
    /// Create a new edge.
    pub fn new(name: Option<&str>, participants: Vec<HdmRef>) -> Self {
        Edge {
            name: name.map(|s| s.to_string()),
            participants,
        }
    }

    /// Create a named binary edge between two nodes — the most common shape produced
    /// by the relational wrapper (table node ↔ column value node).
    pub fn binary(name: impl Into<String>, from: impl Into<String>, to: impl Into<String>) -> Self {
        Edge {
            name: Some(name.into()),
            participants: vec![HdmRef::Node(from.into()), HdmRef::Node(to.into())],
        }
    }

    /// A canonical identity string for the edge, used as its key within a schema.
    ///
    /// Named edges are identified by `name(p1,…,pn)`; anonymous edges by `_(p1,…,pn)`.
    pub fn identity(&self) -> String {
        let parts: Vec<&str> = self.participants.iter().map(|p| p.name()).collect();
        format!(
            "{}({})",
            self.name.as_deref().unwrap_or("_"),
            parts.join(",")
        )
    }

    /// The arity of the edge (number of participants).
    pub fn arity(&self) -> usize {
        self.participants.len()
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨⟨{}⟩⟩", self.identity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_of_named_edge() {
        let e = Edge::binary("accession", "protein", "string");
        assert_eq!(e.identity(), "accession(protein,string)");
        assert_eq!(e.arity(), 2);
    }

    #[test]
    fn identity_of_anonymous_edge() {
        let e = Edge::new(None, vec![HdmRef::node("a"), HdmRef::node("b")]);
        assert_eq!(e.identity(), "_(a,b)");
    }

    #[test]
    fn edges_may_reference_edges() {
        let e = Edge::new(
            Some("nested"),
            vec![
                HdmRef::edge("accession(protein,string)"),
                HdmRef::node("score"),
            ],
        );
        assert_eq!(e.participants[0].name(), "accession(protein,string)");
        assert_eq!(e.arity(), 2);
    }

    #[test]
    fn display_uses_scheme_brackets() {
        let e = Edge::binary("c", "a", "b");
        assert_eq!(e.to_string(), "⟨⟨c(a,b)⟩⟩");
    }
}
