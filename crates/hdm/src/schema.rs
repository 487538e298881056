//! HDM schemas: named collections of nodes, edges and constraints.

use crate::constraint::Constraint;
use crate::edge::{Edge, HdmRef};
use crate::error::HdmError;
use crate::node::Node;
use std::collections::BTreeMap;

/// An HDM schema: a set of nodes, a set of hyperedges over them, and constraints.
///
/// Element collections are kept in `BTreeMap`s so that iteration order (and therefore
/// serialisation, display and derived schema construction) is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdmSchema {
    /// Schema name (unique within a repository).
    pub name: String,
    nodes: BTreeMap<String, Node>,
    edges: BTreeMap<String, Edge>,
    constraints: Vec<Constraint>,
}

impl HdmSchema {
    /// Create an empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        HdmSchema {
            name: name.into(),
            nodes: BTreeMap::new(),
            edges: BTreeMap::new(),
            constraints: Vec::new(),
        }
    }

    /// Add a node; fails if a node with the same name exists.
    pub fn add_node(&mut self, node: Node) -> Result<(), HdmError> {
        if self.nodes.contains_key(&node.name) {
            return Err(HdmError::DuplicateNode(node.name));
        }
        self.nodes.insert(node.name.clone(), node);
        Ok(())
    }

    /// Add an edge; all participants must already exist and the identity must be fresh.
    pub fn add_edge(&mut self, edge: Edge) -> Result<(), HdmError> {
        if edge.participants.is_empty() {
            return Err(HdmError::EmptyEdge(edge.identity()));
        }
        for p in &edge.participants {
            match p {
                HdmRef::Node(n) => {
                    if !self.nodes.contains_key(n) {
                        return Err(HdmError::UnknownNode(n.clone()));
                    }
                }
                HdmRef::Edge(e) => {
                    if !self.edges.contains_key(e) {
                        return Err(HdmError::UnknownEdge(e.clone()));
                    }
                }
            }
        }
        let id = edge.identity();
        if self.edges.contains_key(&id) {
            return Err(HdmError::DuplicateEdge(id));
        }
        self.edges.insert(id, edge);
        Ok(())
    }

    /// Add a constraint; referenced elements must exist.
    pub fn add_constraint(&mut self, constraint: Constraint) -> Result<(), HdmError> {
        for el in constraint.referenced_elements() {
            if !self.contains_element(el) {
                return Err(HdmError::DanglingConstraint {
                    constraint: constraint.kind().to_string(),
                    element: el.to_string(),
                });
            }
        }
        self.constraints.push(constraint);
        Ok(())
    }

    /// Remove a node. Fails if any edge still references it.
    pub fn remove_node(&mut self, name: &str) -> Result<Node, HdmError> {
        if let Some(edge) = self.edges.values().find(|e| {
            e.participants
                .iter()
                .any(|p| matches!(p, HdmRef::Node(n) if n == name))
        }) {
            return Err(HdmError::NodeInUse {
                node: name.to_string(),
                edge: edge.identity(),
            });
        }
        self.constraints
            .retain(|c| !c.referenced_elements().contains(&name));
        self.nodes
            .remove(name)
            .ok_or_else(|| HdmError::UnknownNode(name.to_string()))
    }

    /// Remove an edge by identity. Fails if another edge still references it.
    pub fn remove_edge(&mut self, identity: &str) -> Result<Edge, HdmError> {
        if let Some(referrer) = self.edges.values().find(|e| {
            e.identity() != identity
                && e.participants
                    .iter()
                    .any(|p| matches!(p, HdmRef::Edge(x) if x == identity))
        }) {
            return Err(HdmError::EdgeInUse {
                edge: identity.to_string(),
                referrer: referrer.identity(),
            });
        }
        self.constraints
            .retain(|c| !c.referenced_elements().contains(&identity));
        self.edges
            .remove(identity)
            .ok_or_else(|| HdmError::UnknownEdge(identity.to_string()))
    }

    /// Whether a node with the given name exists.
    pub fn has_node(&self, name: &str) -> bool {
        self.nodes.contains_key(name)
    }

    /// Whether an edge with the given identity exists.
    pub fn has_edge(&self, identity: &str) -> bool {
        self.edges.contains_key(identity)
    }

    /// Whether a node or edge with the given name/identity exists.
    pub fn contains_element(&self, name: &str) -> bool {
        self.has_node(name) || self.has_edge(name)
    }

    /// Iterate over nodes in name order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// Iterate over edges in identity order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.values()
    }

    /// The schema's constraints, in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Look up an edge by identity.
    pub fn edge(&self, identity: &str) -> Option<&Edge> {
        self.edges.get(identity)
    }

    /// Number of nodes plus edges.
    pub fn element_count(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }

    /// Validate internal consistency: every edge participant and every constraint
    /// reference must resolve to an existing element.
    pub fn validate(&self) -> Result<(), HdmError> {
        for e in self.edges.values() {
            if e.participants.is_empty() {
                return Err(HdmError::EmptyEdge(e.identity()));
            }
            for p in &e.participants {
                match p {
                    HdmRef::Node(n) if !self.has_node(n) => {
                        return Err(HdmError::UnknownNode(n.clone()))
                    }
                    HdmRef::Edge(x) if !self.has_edge(x) => {
                        return Err(HdmError::UnknownEdge(x.clone()))
                    }
                    _ => {}
                }
            }
        }
        for c in &self.constraints {
            for el in c.referenced_elements() {
                if !self.contains_element(el) {
                    return Err(HdmError::DanglingConstraint {
                        constraint: c.kind().to_string(),
                        element: el.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Merge another schema's elements into this one, skipping elements that already
    /// exist. Used when lowering several higher-level constructs onto one HDM graph.
    pub fn absorb(&mut self, other: &HdmSchema) {
        for n in other.nodes.values() {
            self.nodes
                .entry(n.name.clone())
                .or_insert_with(|| n.clone());
        }
        for e in other.edges.values() {
            self.edges.entry(e.identity()).or_insert_with(|| e.clone());
        }
        for c in &other.constraints {
            if !self.constraints.contains(c) {
                self.constraints.push(c.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HdmSchema {
        let mut s = HdmSchema::new("s");
        s.add_node(Node::new("protein")).unwrap();
        s.add_node(Node::new("string")).unwrap();
        s.add_edge(Edge::binary("accession", "protein", "string"))
            .unwrap();
        s
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut s = sample();
        assert_eq!(
            s.add_node(Node::new("protein")),
            Err(HdmError::DuplicateNode("protein".into()))
        );
    }

    #[test]
    fn edge_requires_existing_participants() {
        let mut s = sample();
        let err = s
            .add_edge(Edge::binary("organism", "protein", "missing"))
            .unwrap_err();
        assert_eq!(err, HdmError::UnknownNode("missing".into()));
    }

    #[test]
    fn cannot_remove_node_in_use() {
        let mut s = sample();
        let err = s.remove_node("protein").unwrap_err();
        assert!(matches!(err, HdmError::NodeInUse { .. }));
        s.remove_edge("accession(protein,string)").unwrap();
        assert!(s.remove_node("protein").is_ok());
    }

    #[test]
    fn constraint_references_validated() {
        let mut s = sample();
        assert!(s
            .add_constraint(Constraint::Unique {
                edge: "accession(protein,string)".into(),
                position: 0,
            })
            .is_ok());
        assert!(s
            .add_constraint(Constraint::Inclusion {
                sub: "nope".into(),
                sup: "protein".into(),
            })
            .is_err());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn removing_node_drops_its_constraints() {
        let mut s = sample();
        s.add_node(Node::new("organism")).unwrap();
        s.add_constraint(Constraint::Exclusion {
            left: "organism".into(),
            right: "protein".into(),
        })
        .unwrap();
        s.remove_node("organism").unwrap();
        assert!(s.constraints().is_empty());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn absorb_is_idempotent() {
        let mut a = sample();
        let b = sample();
        let before = a.element_count();
        a.absorb(&b);
        assert_eq!(a.element_count(), before);
    }

    #[test]
    fn nested_edge_allowed() {
        let mut s = sample();
        s.add_node(Node::new("score")).unwrap();
        s.add_edge(Edge::new(
            Some("scored"),
            vec![
                HdmRef::edge("accession(protein,string)"),
                HdmRef::node("score"),
            ],
        ))
        .unwrap();
        assert!(s.validate().is_ok());
        assert_eq!(s.element_count(), 5);
    }
}
