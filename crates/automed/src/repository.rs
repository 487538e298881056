//! The Schemas & Transformations Repository (STR).

use crate::error::AutomedError;
use crate::pathway::Pathway;
use crate::schema::Schema;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The repository of all source, intermediate and integrated schemas and of the
/// pathways between them.
///
/// Pathways are stored in the direction they were defined; because every pathway is
/// automatically reversible, [`Repository::pathway_between`] searches the schema graph
/// treating each stored pathway as a bidirectional edge and returns a composed pathway
/// (reversing stored segments as needed).
#[derive(Debug, Clone, Default)]
pub struct Repository {
    schemas: BTreeMap<String, Schema>,
    pathways: Vec<Pathway>,
    /// Names of schemas that are data source schemas (produced by wrappers).
    source_schemas: BTreeSet<String>,
}

impl Repository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a schema. Fails if a schema with the same name exists.
    pub fn add_schema(&mut self, schema: Schema) -> Result<(), AutomedError> {
        if self.schemas.contains_key(&schema.name) {
            return Err(AutomedError::DuplicateSchema(schema.name));
        }
        self.schemas.insert(schema.name.clone(), schema);
        Ok(())
    }

    /// Register a schema produced by wrapping a data source.
    pub fn add_source_schema(&mut self, schema: Schema) -> Result<(), AutomedError> {
        let name = schema.name.clone();
        self.add_schema(schema)?;
        self.source_schemas.insert(name);
        Ok(())
    }

    /// Register a schema, replacing any existing schema of the same name. Used when an
    /// integration iteration re-derives the global schema.
    pub fn put_schema(&mut self, schema: Schema) {
        self.schemas.insert(schema.name.clone(), schema);
    }

    /// Remove a schema and every pathway that touches it.
    pub fn remove_schema(&mut self, name: &str) -> Result<Schema, AutomedError> {
        let schema = self
            .schemas
            .remove(name)
            .ok_or_else(|| AutomedError::UnknownSchema(name.to_string()))?;
        self.pathways
            .retain(|p| p.source != name && p.target != name);
        self.source_schemas.remove(name);
        Ok(schema)
    }

    /// Look up a schema by name.
    pub fn schema(&self, name: &str) -> Result<&Schema, AutomedError> {
        self.schemas
            .get(name)
            .ok_or_else(|| AutomedError::UnknownSchema(name.to_string()))
    }

    /// Whether a schema with this name is registered.
    pub fn has_schema(&self, name: &str) -> bool {
        self.schemas.contains_key(name)
    }

    /// Iterate over all schemas in name order.
    pub fn schemas(&self) -> impl Iterator<Item = &Schema> {
        self.schemas.values()
    }

    /// Names of the registered data source schemas.
    pub fn source_schema_names(&self) -> impl Iterator<Item = &str> {
        self.source_schemas.iter().map(String::as_str)
    }

    /// Whether the named schema is a data source schema.
    pub fn is_source_schema(&self, name: &str) -> bool {
        self.source_schemas.contains(name)
    }

    /// Register a pathway. Both endpoints must already be registered; the pathway is
    /// checked by applying it to its source schema and comparing the result with the
    /// registered target schema (objects must match).
    pub fn add_pathway(&mut self, pathway: Pathway) -> Result<(), AutomedError> {
        let source = self.schema(&pathway.source)?.clone();
        let target = self.schema(&pathway.target)?;
        let produced = pathway.apply_to(&source)?;
        if !produced.syntactically_identical(target) {
            return Err(AutomedError::InvalidTransformation {
                detail: format!(
                    "pathway {} -> {} does not produce the registered target schema",
                    pathway.source, pathway.target
                ),
            });
        }
        self.pathways.push(pathway);
        Ok(())
    }

    /// Register a pathway without verifying that it reproduces the registered target
    /// schema. Used for pathways whose target is defined *by* the pathway (the normal
    /// case during integration: the target is registered as the application result).
    pub fn add_pathway_unchecked(&mut self, pathway: Pathway) {
        self.pathways.push(pathway);
    }

    /// Apply a pathway to its (registered) source schema, register the result, and
    /// store the pathway. Returns the produced schema.
    pub fn derive_schema(&mut self, pathway: Pathway) -> Result<Schema, AutomedError> {
        let source = self.schema(&pathway.source)?.clone();
        let produced = pathway.apply_to(&source)?;
        if self.has_schema(&produced.name) {
            return Err(AutomedError::DuplicateSchema(produced.name));
        }
        self.schemas.insert(produced.name.clone(), produced.clone());
        self.pathways.push(pathway);
        Ok(produced)
    }

    /// All stored pathways.
    pub fn pathways(&self) -> &[Pathway] {
        &self.pathways
    }

    /// Pathways that start or end at the named schema.
    pub fn pathways_touching<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Pathway> {
        self.pathways
            .iter()
            .filter(move |p| p.source == name || p.target == name)
    }

    /// Find a (possibly composed, possibly reversed) pathway from `from` to `to` by
    /// breadth-first search over the schema graph. Returns an empty pathway when
    /// `from == to`.
    pub fn pathway_between(&self, from: &str, to: &str) -> Result<Pathway, AutomedError> {
        if !self.has_schema(from) {
            return Err(AutomedError::UnknownSchema(from.to_string()));
        }
        if !self.has_schema(to) {
            return Err(AutomedError::UnknownSchema(to.to_string()));
        }
        if from == to {
            return Ok(Pathway::new(from, to));
        }
        // BFS over schemas; edges are stored pathways (usable in either direction).
        let mut queue = VecDeque::new();
        let mut visited = BTreeSet::new();
        let mut predecessor: BTreeMap<String, Pathway> = BTreeMap::new();
        visited.insert(from.to_string());
        queue.push_back(from.to_string());
        while let Some(current) = queue.pop_front() {
            for p in &self.pathways {
                let step = if p.source == current {
                    Some(p.clone())
                } else if p.target == current {
                    Some(p.reverse())
                } else {
                    None
                };
                let Some(step) = step else { continue };
                let next = step.target.clone();
                if visited.contains(&next) {
                    continue;
                }
                visited.insert(next.clone());
                predecessor.insert(next.clone(), step);
                if next == to {
                    // Reconstruct by walking predecessors backwards.
                    let mut segments = Vec::new();
                    let mut cursor = to.to_string();
                    while cursor != from {
                        let seg = predecessor
                            .get(&cursor)
                            .expect("predecessor recorded during BFS")
                            .clone();
                        cursor = seg.source.clone();
                        segments.push(seg);
                    }
                    segments.reverse();
                    let mut composed = Pathway::new(from, from);
                    for seg in segments {
                        composed = if composed.is_empty() && composed.target == seg.source {
                            seg
                        } else {
                            composed.compose(&seg)?
                        };
                    }
                    return Ok(composed);
                }
                queue.push_back(next);
            }
        }
        Err(AutomedError::NoPathway {
            from: from.to_string(),
            to: to.to_string(),
        })
    }

    /// Number of registered schemas.
    pub fn schema_count(&self) -> usize {
        self.schemas.len()
    }

    /// Number of registered pathways.
    pub fn pathway_count(&self) -> usize {
        self.pathways.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::SchemaObject;
    use crate::transformation::Transformation;
    use iql::ast::SchemeRef;
    use iql::parse;

    fn repo_with_chain() -> Repository {
        // pedro --(add UProtein)--> mid --(add UProtein.accession_num)--> global
        let mut repo = Repository::new();
        let pedro = Schema::from_objects(
            "pedro",
            [
                SchemaObject::table("protein"),
                SchemaObject::column("protein", "accession_num"),
            ],
        )
        .unwrap();
        repo.add_source_schema(pedro).unwrap();

        let mut p1 = Pathway::new("pedro", "mid");
        p1.push(Transformation::add(
            SchemaObject::table("UProtein"),
            parse("[{'PEDRO', k} | k <- <<protein>>]").unwrap(),
        ));
        repo.derive_schema(p1).unwrap();

        let mut p2 = Pathway::new("mid", "global");
        p2.push(Transformation::add(
            SchemaObject::column("UProtein", "accession_num"),
            parse("[{'PEDRO', k, x} | {k, x} <- <<protein, accession_num>>]").unwrap(),
        ));
        repo.derive_schema(p2).unwrap();
        repo
    }

    #[test]
    fn derive_schema_registers_result_and_pathway() {
        let repo = repo_with_chain();
        assert_eq!(repo.schema_count(), 3);
        assert_eq!(repo.pathway_count(), 2);
        assert!(repo
            .schema("global")
            .unwrap()
            .contains(&SchemeRef::column("UProtein", "accession_num")));
        assert!(repo.is_source_schema("pedro"));
        assert!(!repo.is_source_schema("global"));
    }

    #[test]
    fn pathway_between_composes_segments() {
        let repo = repo_with_chain();
        let p = repo.pathway_between("pedro", "global").unwrap();
        assert_eq!(p.source, "pedro");
        assert_eq!(p.target, "global");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn pathway_between_uses_automatic_reversal() {
        let repo = repo_with_chain();
        let p = repo.pathway_between("global", "pedro").unwrap();
        assert_eq!(p.source, "global");
        assert_eq!(p.target, "pedro");
        assert_eq!(p.len(), 2);
        assert!(p.steps().iter().all(|t| t.kind() == "delete"));
    }

    #[test]
    fn pathway_between_same_schema_is_empty() {
        let repo = repo_with_chain();
        let p = repo.pathway_between("pedro", "pedro").unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn missing_pathway_reported() {
        let mut repo = repo_with_chain();
        repo.add_schema(Schema::new("island")).unwrap();
        assert!(matches!(
            repo.pathway_between("pedro", "island"),
            Err(AutomedError::NoPathway { .. })
        ));
        assert!(matches!(
            repo.pathway_between("pedro", "nowhere"),
            Err(AutomedError::UnknownSchema(_))
        ));
    }

    #[test]
    fn add_pathway_verifies_target() {
        let mut repo = repo_with_chain();
        // A pathway claiming to go pedro -> global but producing something else.
        let mut bogus = Pathway::new("pedro", "global");
        bogus.push(Transformation::add(
            SchemaObject::table("Wrong"),
            parse("Range Void Any").unwrap(),
        ));
        assert!(matches!(
            repo.add_pathway(bogus),
            Err(AutomedError::InvalidTransformation { .. })
        ));
    }

    #[test]
    fn remove_schema_drops_its_pathways() {
        let mut repo = repo_with_chain();
        repo.remove_schema("mid").unwrap();
        assert_eq!(repo.schema_count(), 2);
        assert_eq!(repo.pathway_count(), 0);
        assert!(matches!(
            repo.pathway_between("pedro", "global"),
            Err(AutomedError::NoPathway { .. })
        ));
    }

    #[test]
    fn duplicate_schema_rejected_put_replaces() {
        let mut repo = repo_with_chain();
        assert!(matches!(
            repo.add_schema(Schema::new("pedro")),
            Err(AutomedError::DuplicateSchema(_))
        ));
        repo.put_schema(Schema::new("global"));
        assert!(repo.schema("global").unwrap().is_empty());
    }
}
