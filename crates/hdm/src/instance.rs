//! In-memory HDM instances (extents).

use crate::error::HdmError;
use crate::schema::HdmSchema;
use crate::value::{HdmTuple, HdmValue};
use std::collections::BTreeMap;

/// An instance of an HDM schema: a bag of tuples per node/edge.
///
/// Node extents hold 1-tuples; edge extents hold tuples whose arity equals the edge's
/// number of participants. Bags are represented as `Vec`s — duplicates are meaningful
/// (the integration layer uses bag-union semantics by default, as in the paper).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HdmInstance {
    extents: BTreeMap<String, Vec<HdmTuple>>,
}

impl HdmInstance {
    /// Create an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a tuple into the extent of the given element (node name or edge identity).
    pub fn insert(&mut self, element: impl Into<String>, tuple: HdmTuple) {
        self.extents.entry(element.into()).or_default().push(tuple);
    }

    /// Insert a scalar into a node extent (wraps it into a 1-tuple).
    pub fn insert_scalar(&mut self, element: impl Into<String>, value: HdmValue) {
        self.insert(element, vec![value]);
    }

    /// The extent of an element; empty if the element has no tuples.
    pub fn extent(&self, element: &str) -> &[HdmTuple] {
        self.extents.get(element).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of tuples stored for an element.
    pub fn cardinality(&self, element: &str) -> usize {
        self.extent(element).len()
    }

    /// All populated element names.
    pub fn elements(&self) -> impl Iterator<Item = &str> {
        self.extents.keys().map(String::as_str)
    }

    /// Total number of tuples across all extents.
    pub fn total_tuples(&self) -> usize {
        self.extents.values().map(Vec::len).sum()
    }

    /// Check this instance against a schema: every populated element must exist in the
    /// schema and edge extents must have the correct arity. Node extents must be
    /// 1-tuples.
    pub fn validate_against(&self, schema: &HdmSchema) -> Result<(), HdmError> {
        for (element, tuples) in &self.extents {
            if schema.has_node(element) {
                if let Some(bad) = tuples.iter().find(|t| t.len() != 1) {
                    return Err(HdmError::ArityMismatch {
                        element: element.clone(),
                        expected: 1,
                        found: bad.len(),
                    });
                }
            } else if let Some(edge) = schema.edge(element) {
                let arity = edge.arity();
                if let Some(bad) = tuples.iter().find(|t| t.len() != arity) {
                    return Err(HdmError::ArityMismatch {
                        element: element.clone(),
                        expected: arity,
                        found: bad.len(),
                    });
                }
            } else {
                return Err(HdmError::UnknownNode(element.clone()));
            }
        }
        self.check_constraints(schema)
    }

    fn check_constraints(&self, schema: &HdmSchema) -> Result<(), HdmError> {
        use crate::constraint::Constraint;
        for c in schema.constraints() {
            match c {
                Constraint::Inclusion { sub, sup } => {
                    let sup_set: std::collections::BTreeSet<&HdmTuple> =
                        self.extent(sup).iter().collect();
                    if let Some(missing) = self.extent(sub).iter().find(|t| !sup_set.contains(*t)) {
                        return Err(HdmError::ConstraintViolation {
                            constraint: c.to_string(),
                            detail: format!("tuple {missing:?} of `{sub}` not in `{sup}`"),
                        });
                    }
                }
                Constraint::Exclusion { left, right } => {
                    let right_set: std::collections::BTreeSet<&HdmTuple> =
                        self.extent(right).iter().collect();
                    if let Some(shared) = self.extent(left).iter().find(|t| right_set.contains(*t))
                    {
                        return Err(HdmError::ConstraintViolation {
                            constraint: c.to_string(),
                            detail: format!("tuple {shared:?} appears in both extents"),
                        });
                    }
                }
                Constraint::Unique { edge, position } => {
                    let mut seen = std::collections::BTreeSet::new();
                    for t in self.extent(edge) {
                        if let Some(v) = t.get(*position) {
                            if !seen.insert(v.clone()) {
                                return Err(HdmError::ConstraintViolation {
                                    constraint: c.to_string(),
                                    detail: format!("value {v} repeated at position {position}"),
                                });
                            }
                        }
                    }
                }
                // Union / Mandatory / Reflexive are advisory at the instance level in
                // this implementation: the integration layer materialises unions
                // explicitly through transformation queries.
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::edge::Edge;
    use crate::node::Node;

    fn schema() -> HdmSchema {
        let mut s = HdmSchema::new("s");
        s.add_node(Node::new("protein")).unwrap();
        s.add_node(Node::new("string")).unwrap();
        s.add_edge(Edge::binary("accession", "protein", "string"))
            .unwrap();
        s
    }

    #[test]
    fn extent_round_trip() {
        let mut inst = HdmInstance::new();
        inst.insert_scalar("protein", HdmValue::Int(1));
        inst.insert(
            "accession(protein,string)",
            vec![HdmValue::Int(1), HdmValue::str("P01234")],
        );
        assert_eq!(inst.cardinality("protein"), 1);
        assert_eq!(inst.cardinality("accession(protein,string)"), 1);
        assert_eq!(inst.total_tuples(), 2);
        assert!(inst.validate_against(&schema()).is_ok());
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut inst = HdmInstance::new();
        inst.insert("accession(protein,string)", vec![HdmValue::Int(1)]);
        let err = inst.validate_against(&schema()).unwrap_err();
        assert!(matches!(err, HdmError::ArityMismatch { expected: 2, .. }));
    }

    #[test]
    fn unknown_element_detected() {
        let mut inst = HdmInstance::new();
        inst.insert_scalar("nope", HdmValue::Int(1));
        assert!(matches!(
            inst.validate_against(&schema()),
            Err(HdmError::UnknownNode(_))
        ));
    }

    #[test]
    fn duplicates_are_preserved_as_a_bag() {
        let mut inst = HdmInstance::new();
        inst.insert_scalar("protein", HdmValue::Int(1));
        inst.insert_scalar("protein", HdmValue::Int(1));
        assert_eq!(inst.cardinality("protein"), 2);
    }

    #[test]
    fn inclusion_constraint_checked() {
        let mut s = schema();
        s.add_node(Node::new("reviewed_protein")).unwrap();
        s.add_constraint(Constraint::Inclusion {
            sub: "reviewed_protein".into(),
            sup: "protein".into(),
        })
        .unwrap();
        let mut inst = HdmInstance::new();
        inst.insert_scalar("protein", HdmValue::Int(1));
        inst.insert_scalar("reviewed_protein", HdmValue::Int(2));
        assert!(matches!(
            inst.validate_against(&s),
            Err(HdmError::ConstraintViolation { .. })
        ));
        inst.insert_scalar("protein", HdmValue::Int(2));
        assert!(inst.validate_against(&s).is_ok());
    }

    #[test]
    fn unique_constraint_checked() {
        let mut s = schema();
        s.add_constraint(Constraint::Unique {
            edge: "accession(protein,string)".into(),
            position: 0,
        })
        .unwrap();
        let mut inst = HdmInstance::new();
        inst.insert(
            "accession(protein,string)",
            vec![HdmValue::Int(1), HdmValue::str("a")],
        );
        inst.insert(
            "accession(protein,string)",
            vec![HdmValue::Int(1), HdmValue::str("b")],
        );
        assert!(matches!(
            inst.validate_against(&s),
            Err(HdmError::ConstraintViolation { .. })
        ));
    }
}
