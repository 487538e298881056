//! Pathways: sequences of primitive transformations between schemas.

use crate::error::AutomedError;
use crate::schema::Schema;
use crate::transformation::{Provenance, Transformation};
use std::fmt;

/// A pathway `S1 → S2`: an ordered sequence of primitive transformations that, applied
/// to schema `S1`, produce schema `S2`.
///
/// A key property (inherited from the paper's substrate) is that pathways are
/// *automatically reversible*: [`Pathway::reverse`] derives `S2 → S1` by reversing the
/// step order and replacing each step by its dual ([`Transformation::reverse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Pathway {
    /// Name of the schema the pathway starts from.
    pub source: String,
    /// Name of the schema the pathway produces.
    pub target: String,
    steps: Vec<Transformation>,
}

impl Pathway {
    /// An empty pathway between two schemas.
    pub fn new(source: impl Into<String>, target: impl Into<String>) -> Self {
        Pathway {
            source: source.into(),
            target: target.into(),
            steps: Vec::new(),
        }
    }

    /// Build a pathway from a vector of steps.
    pub fn with_steps(
        source: impl Into<String>,
        target: impl Into<String>,
        steps: Vec<Transformation>,
    ) -> Self {
        Pathway {
            source: source.into(),
            target: target.into(),
            steps,
        }
    }

    /// Append a step.
    pub fn push(&mut self, step: Transformation) {
        self.steps.push(step);
    }

    /// Append several steps.
    pub fn extend_steps<I: IntoIterator<Item = Transformation>>(&mut self, steps: I) {
        self.steps.extend(steps);
    }

    /// The steps, in order.
    pub fn steps(&self) -> &[Transformation] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the pathway has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The automatically derived reverse pathway `target → source`.
    pub fn reverse(&self) -> Pathway {
        Pathway {
            source: self.target.clone(),
            target: self.source.clone(),
            steps: self
                .steps
                .iter()
                .rev()
                .map(Transformation::reverse)
                .collect(),
        }
    }

    /// Apply the pathway to a schema, producing the target schema (named after
    /// [`Pathway::target`]).
    pub fn apply_to(&self, schema: &Schema) -> Result<Schema, AutomedError> {
        let mut result = schema.renamed_schema(self.target.clone());
        for step in &self.steps {
            step.apply(&mut result)
                .map_err(|e| AutomedError::InvalidTransformation {
                    detail: format!("step `{step}` failed: {e}"),
                })?;
        }
        Ok(result)
    }

    /// Compose this pathway with a following one (`self.target` must equal
    /// `next.source`).
    pub fn compose(&self, next: &Pathway) -> Result<Pathway, AutomedError> {
        if self.target != next.source {
            return Err(AutomedError::InvalidTransformation {
                detail: format!(
                    "cannot compose pathway to `{}` with pathway from `{}`",
                    self.target, next.source
                ),
            });
        }
        let mut steps = self.steps.clone();
        steps.extend(next.steps.iter().cloned());
        Ok(Pathway {
            source: self.source.clone(),
            target: next.target.clone(),
            steps,
        })
    }

    /// Number of manually-defined steps (the paper's raw effort measure).
    pub fn manual_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|t| t.provenance() == Provenance::Manual)
            .count()
    }

    /// Number of *non-trivial* steps (query part not `Range Void Any`, not `id`) — the
    /// effort measure used for the classical-integration counts in the case study.
    pub fn nontrivial_count(&self) -> usize {
        self.steps.iter().filter(|t| !t.is_trivial()).count()
    }

    /// Number of manually-defined, non-trivial steps.
    pub fn manual_nontrivial_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|t| t.provenance() == Provenance::Manual && !t.is_trivial())
            .count()
    }

    /// Iterate over the `add` steps (useful for building GAV view definitions).
    pub fn add_steps(&self) -> impl Iterator<Item = &Transformation> {
        self.steps
            .iter()
            .filter(|t| matches!(t, Transformation::Add { .. }))
    }
}

impl fmt::Display for Pathway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pathway {} -> {} ({} steps):",
            self.source,
            self.target,
            self.len()
        )?;
        for step in &self.steps {
            writeln!(f, "  {step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::SchemaObject;
    use iql::ast::SchemeRef;
    use iql::parse;

    fn pedro_schema() -> Schema {
        Schema::from_objects(
            "pedro",
            [
                SchemaObject::table("protein"),
                SchemaObject::column("protein", "accession_num"),
                SchemaObject::column("protein", "organism"),
            ],
        )
        .unwrap()
    }

    /// A miniature `ES1 → I` pathway in the paper's shape: adds followed by deletes
    /// followed by contracts.
    fn to_intersection() -> Pathway {
        let mut p = Pathway::new("pedro", "I");
        p.push(Transformation::add(
            SchemaObject::table("UProtein"),
            parse("[{'PEDRO', k} | k <- <<protein>>]").unwrap(),
        ));
        p.push(Transformation::add(
            SchemaObject::column("UProtein", "accession_num"),
            parse("[{'PEDRO', k, x} | {k, x} <- <<protein, accession_num>>]").unwrap(),
        ));
        p.push(Transformation::delete(
            SchemaObject::table("protein"),
            parse("[k | {s, k} <- <<UProtein>>; s = 'PEDRO']").unwrap(),
        ));
        p.push(Transformation::delete(
            SchemaObject::column("protein", "accession_num"),
            parse("[{k, x} | {s, k, x} <- <<UProtein, accession_num>>; s = 'PEDRO']").unwrap(),
        ));
        p.push(Transformation::contract_void_any(SchemaObject::column(
            "protein", "organism",
        )));
        p
    }

    #[test]
    fn apply_produces_intersection_schema() {
        let i = to_intersection().apply_to(&pedro_schema()).unwrap();
        assert_eq!(i.name, "I");
        assert_eq!(i.len(), 2);
        assert!(i.contains(&SchemeRef::table("UProtein")));
        assert!(i.contains(&SchemeRef::column("UProtein", "accession_num")));
        assert!(!i.contains(&SchemeRef::table("protein")));
    }

    #[test]
    fn reverse_is_an_involution_and_restores_schema() {
        let p = to_intersection();
        assert_eq!(p.reverse().reverse(), p);

        let i = p.apply_to(&pedro_schema()).unwrap();
        let back = p.reverse().apply_to(&i).unwrap();
        assert_eq!(back.name, "pedro");
        assert!(back.syntactically_identical(&pedro_schema()));
    }

    #[test]
    fn reverse_swaps_endpoints_and_duals() {
        let r = to_intersection().reverse();
        assert_eq!(r.source, "I");
        assert_eq!(r.target, "pedro");
        assert_eq!(r.steps()[0].kind(), "extend"); // was the final contract
        assert_eq!(r.steps().last().unwrap().kind(), "delete"); // was the first add
    }

    #[test]
    fn effort_counts() {
        let p = to_intersection();
        assert_eq!(p.len(), 5);
        assert_eq!(p.manual_count(), 4); // the contract_void_any is tool-generated
        assert_eq!(p.nontrivial_count(), 4);
        assert_eq!(p.manual_nontrivial_count(), 4);
    }

    #[test]
    fn composition_checks_endpoints() {
        let p = to_intersection();
        let mut q = Pathway::new("I", "G");
        q.push(Transformation::add(
            SchemaObject::column("UProtein", "description"),
            parse("Range Void Any").unwrap(),
        ));
        let composed = p.compose(&q).unwrap();
        assert_eq!(composed.source, "pedro");
        assert_eq!(composed.target, "G");
        assert_eq!(composed.len(), 6);
        assert!(p.compose(&Pathway::new("other", "G")).is_err());
    }

    #[test]
    fn apply_failure_reports_offending_step() {
        let mut p = Pathway::new("pedro", "bad");
        p.push(Transformation::contract_void_any(SchemaObject::table(
            "nonexistent",
        )));
        let err = p.apply_to(&pedro_schema()).unwrap_err();
        match err {
            AutomedError::InvalidTransformation { detail } => {
                assert!(detail.contains("nonexistent"))
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn add_steps_iterator() {
        let p = to_intersection();
        assert_eq!(p.add_steps().count(), 2);
    }
}
