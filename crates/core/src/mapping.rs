//! Mapping specifications and the per-intersection mappings table.
//!
//! A mapping specification is the machine-readable record of the decisions a data
//! integrator makes in workflow step 4: which new (intersection-schema) objects to
//! create, and for each of them, the IQL query over each participating source that
//! contributes to its extent. The Intersection Schema Tool maintains a *mappings
//! table* per intersection schema showing exactly these correspondences, in both the
//! forward and the reverse direction.

use crate::error::CoreError;
use automed::{ConstructKind, SchemaObject, SchemeRef};
use iql::ast::Expr;
use iql::pretty;

/// One source's contribution to an intersection-schema object.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceContribution {
    /// The name of the extensional (source) schema the query ranges over.
    pub source: String,
    /// The forward transformation query (extent of the new object contributed by this
    /// source).
    pub query: Expr,
    /// The source schema objects whose semantics are *covered* by this contribution —
    /// these are the objects the pathway will `delete` (they become derivable from the
    /// intersection schema) and that redundancy removal may drop from the global
    /// schema.
    pub covers: Vec<SchemeRef>,
    /// Optional user-supplied reverse query. When absent, the tool derives the reverse
    /// query automatically if the forward query is invertible, falling back to
    /// `Range Void Any` otherwise.
    pub reverse_override: Option<Expr>,
}

impl SourceContribution {
    /// Build a contribution from an already-parsed query.
    pub fn new<I, S>(source: impl Into<String>, query: Expr, covers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SourceContribution {
            source: source.into(),
            query,
            covers: covers
                .into_iter()
                .map(|s| parse_scheme_key(&s.into()))
                .collect(),
            reverse_override: None,
        }
    }

    /// Build a contribution by parsing the forward query from IQL surface syntax.
    ///
    /// `covers` lists the covered source objects as scheme keys (e.g. `"protein"`,
    /// `"protein,accession_num"`).
    pub fn parsed<I, S>(
        source: impl Into<String>,
        query: &str,
        covers: I,
    ) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Ok(SourceContribution::new(source, iql::parse(query)?, covers))
    }

    /// Attach a user-supplied reverse query (overrides automatic generation).
    pub fn with_reverse(mut self, reverse: Expr) -> Self {
        self.reverse_override = Some(reverse);
        self
    }
}

/// The definition of one intersection-schema object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectMapping {
    /// The new object to create in the intersection schema.
    pub target: SchemaObject,
    /// Contributions, one per participating source (or derived over the integrated
    /// schema itself when `source` names no registered source).
    pub contributions: Vec<SourceContribution>,
    /// A contribution defined over the current global schema rather than a source
    /// (used for derived concepts such as join tables).
    pub derived_query: Option<Expr>,
}

impl ObjectMapping {
    /// A mapping creating a table-like object.
    pub fn table(name: impl Into<String>) -> Self {
        ObjectMapping {
            target: SchemaObject::table(name),
            contributions: Vec::new(),
            derived_query: None,
        }
    }

    /// A mapping creating a column-like object.
    pub fn column(table: impl Into<String>, column: impl Into<String>) -> Self {
        ObjectMapping {
            target: SchemaObject::column(table, column),
            contributions: Vec::new(),
            derived_query: None,
        }
    }

    /// A mapping creating an object of arbitrary construct kind.
    pub fn object(scheme: SchemeRef, construct: ConstructKind) -> Self {
        ObjectMapping {
            target: SchemaObject::generic(scheme, "sql", construct),
            contributions: Vec::new(),
            derived_query: None,
        }
    }

    /// Add a source contribution (builder style).
    pub fn with_contribution(mut self, contribution: SourceContribution) -> Self {
        self.contributions.push(contribution);
        self
    }

    /// Define the object by a query over the integrated schema itself (builder style).
    pub fn with_derived_query(mut self, query: Expr) -> Self {
        self.derived_query = Some(query);
        self
    }

    /// Parse and set a derived query.
    pub fn with_derived_query_str(self, query: &str) -> Result<Self, CoreError> {
        let parsed = iql::parse(query)?;
        Ok(self.with_derived_query(parsed))
    }

    /// Names of the sources participating in this mapping.
    pub fn sources(&self) -> Vec<&str> {
        self.contributions
            .iter()
            .map(|c| c.source.as_str())
            .collect()
    }

    /// Number of manually-defined transformations this mapping represents: one `add`
    /// per source contribution plus one for a derived query, plus any user-supplied
    /// reverse queries.
    pub fn manual_transformation_count(&self) -> usize {
        self.contributions.len()
            + usize::from(self.derived_query.is_some())
            + self
                .contributions
                .iter()
                .filter(|c| c.reverse_override.is_some())
                .count()
    }
}

/// A complete intersection-schema specification: a named set of object mappings
/// (workflow steps 3–5 for one iteration).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntersectionSpec {
    /// Name of the intersection schema to create (e.g. `"I1"`).
    pub name: String,
    /// The object mappings.
    pub mappings: Vec<ObjectMapping>,
}

impl IntersectionSpec {
    /// An empty specification.
    pub fn new(name: impl Into<String>) -> Self {
        IntersectionSpec {
            name: name.into(),
            mappings: Vec::new(),
        }
    }

    /// Add a mapping (builder style).
    pub fn with_mapping(mut self, mapping: ObjectMapping) -> Self {
        self.mappings.push(mapping);
        self
    }

    /// Add a mapping in place.
    pub fn push(&mut self, mapping: ObjectMapping) {
        self.mappings.push(mapping);
    }

    /// The distinct source schemas participating in this intersection, in first-use
    /// order.
    pub fn participating_sources(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for m in &self.mappings {
            for c in &m.contributions {
                if !out.contains(&c.source) {
                    out.push(c.source.clone());
                }
            }
        }
        out
    }

    /// Total number of manually-defined transformations in this specification — the
    /// paper's per-iteration effort figure.
    pub fn manual_transformation_count(&self) -> usize {
        self.mappings
            .iter()
            .map(ObjectMapping::manual_transformation_count)
            .sum()
    }

    /// Basic consistency checks: non-empty, every mapping has at least one
    /// contribution or a derived query, and no duplicate target objects.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.mappings.is_empty() {
            return Err(CoreError::InvalidSpec(format!(
                "intersection `{}` defines no mappings",
                self.name
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in &self.mappings {
            if m.contributions.is_empty() && m.derived_query.is_none() {
                return Err(CoreError::InvalidSpec(format!(
                    "mapping for {} has neither contributions nor a derived query",
                    m.target.scheme
                )));
            }
            if !seen.insert(m.target.key()) {
                return Err(CoreError::InvalidSpec(format!(
                    "duplicate mapping target {}",
                    m.target.scheme
                )));
            }
        }
        Ok(())
    }
}

/// One row of the mappings table the tool displays: an intersection-schema object, one
/// participating source, and the forward/reverse queries relating them.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingRow {
    /// The intersection-schema object.
    pub target: String,
    /// The participating source (or `"(derived)"`).
    pub source: String,
    /// The forward query, pretty-printed.
    pub forward: String,
    /// The reverse query, pretty-printed (`Range Void Any` when not derivable).
    pub reverse: String,
    /// Whether the reverse query was generated automatically by the tool.
    pub reverse_auto_generated: bool,
}

/// The mappings table for one intersection schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MappingTable {
    /// The rows, in definition order.
    pub rows: Vec<MappingRow>,
}

impl MappingTable {
    /// Build the table shown to the user from a specification, deriving reverse
    /// queries the same way the pathway builder does.
    pub fn from_spec(spec: &IntersectionSpec) -> MappingTable {
        let mut rows = Vec::new();
        for m in &spec.mappings {
            for c in &m.contributions {
                let (reverse, auto) = match &c.reverse_override {
                    Some(r) => (r.clone(), false),
                    None => {
                        let base = c.covers.first();
                        let derived = base.map(|b| {
                            automed::qp::lav::reverse_query_or_void_any(
                                &m.target.scheme,
                                &c.query,
                                b,
                            )
                        });
                        (derived.unwrap_or_else(Expr::range_void_any), true)
                    }
                };
                rows.push(MappingRow {
                    target: m.target.scheme.to_string(),
                    source: c.source.clone(),
                    forward: pretty::print(&c.query),
                    reverse: pretty::print(&reverse),
                    reverse_auto_generated: auto,
                });
            }
            if let Some(d) = &m.derived_query {
                rows.push(MappingRow {
                    target: m.target.scheme.to_string(),
                    source: "(derived)".into(),
                    forward: pretty::print(d),
                    reverse: pretty::print(&Expr::range_void_any()),
                    reverse_auto_generated: true,
                });
            }
        }
        MappingTable { rows }
    }

    /// Render the table as fixed-width text (what the CLI example prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<38} {:<12} {:<60} {}\n",
            "target object", "source", "forward query", "reverse query"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<38} {:<12} {:<60} {}{}\n",
                row.target,
                row.source,
                truncate(&row.forward, 58),
                truncate(&row.reverse, 48),
                if row.reverse_auto_generated {
                    "  (auto)"
                } else {
                    ""
                }
            ));
        }
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let prefix: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{prefix}…")
    }
}

/// Parse a scheme key like `"protein,accession_num"` into a [`SchemeRef`].
pub fn parse_scheme_key(key: &str) -> SchemeRef {
    SchemeRef::new(key.split(',').map(|p| p.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uprotein_spec() -> IntersectionSpec {
        IntersectionSpec::new("I1")
            .with_mapping(
                ObjectMapping::table("UProtein")
                    .with_contribution(
                        SourceContribution::parsed(
                            "pedro",
                            "[{'PEDRO', k} | k <- <<protein>>]",
                            ["protein"],
                        )
                        .unwrap(),
                    )
                    .with_contribution(
                        SourceContribution::parsed(
                            "gpmdb",
                            "[{'gpmDB', k} | k <- <<proseq>>]",
                            ["proseq"],
                        )
                        .unwrap(),
                    ),
            )
            .with_mapping(
                ObjectMapping::column("UProtein", "accession_num")
                    .with_contribution(
                        SourceContribution::parsed(
                            "pedro",
                            "[{'PEDRO', k, x} | {k, x} <- <<protein, accession_num>>]",
                            ["protein,accession_num"],
                        )
                        .unwrap(),
                    )
                    .with_contribution(
                        SourceContribution::parsed(
                            "gpmdb",
                            "[{'gpmDB', k, x} | {k, x} <- <<proseq, label>>]",
                            ["proseq,label"],
                        )
                        .unwrap(),
                    ),
            )
    }

    #[test]
    fn spec_accounting() {
        let spec = uprotein_spec();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.participating_sources(), vec!["pedro", "gpmdb"]);
        assert_eq!(spec.manual_transformation_count(), 4);
    }

    #[test]
    fn derived_and_reverse_overrides_count_as_manual() {
        let spec = IntersectionSpec::new("I2").with_mapping(
            ObjectMapping::table("uPeptideHitToProteinHit_mm")
                .with_derived_query_str(
                    "[{k1, k2} | {k1, x} <- <<UPeptideHit, dbsearch>>; {k2, y} <- <<UProteinHit, dbsearch>>; x = y]",
                )
                .unwrap(),
        );
        assert_eq!(spec.manual_transformation_count(), 1);
        let with_reverse = IntersectionSpec::new("I3").with_mapping(
            ObjectMapping::table("U").with_contribution(
                SourceContribution::parsed("pedro", "[k | k <- <<protein>>]", ["protein"])
                    .unwrap()
                    .with_reverse(iql::parse("[k | k <- <<U>>]").unwrap()),
            ),
        );
        assert_eq!(with_reverse.manual_transformation_count(), 2);
    }

    #[test]
    fn validation_catches_problems() {
        assert!(IntersectionSpec::new("empty").validate().is_err());
        let no_contrib = IntersectionSpec::new("x").with_mapping(ObjectMapping::table("U"));
        assert!(no_contrib.validate().is_err());
        let dup = IntersectionSpec::new("d")
            .with_mapping(ObjectMapping::table("U").with_contribution(
                SourceContribution::parsed("pedro", "[k | k <- <<protein>>]", ["protein"]).unwrap(),
            ))
            .with_mapping(ObjectMapping::table("U").with_contribution(
                SourceContribution::parsed("gpmdb", "[k | k <- <<proseq>>]", ["proseq"]).unwrap(),
            ));
        assert!(dup.validate().is_err());
    }

    #[test]
    fn mappings_table_derives_reverse_queries() {
        let table = MappingTable::from_spec(&uprotein_spec());
        assert_eq!(table.rows.len(), 4);
        // Forward queries are invertible, so the auto-generated reverse is not Range Void Any.
        assert!(table.rows.iter().all(|r| r.reverse_auto_generated));
        assert!(table
            .rows
            .iter()
            .all(|r| !r.reverse.contains("Range Void Any")));
        let rendered = table.render();
        assert!(rendered.contains("UProtein"));
        assert!(rendered.contains("pedro"));
        assert!(rendered.contains("(auto)"));
    }

    #[test]
    fn scheme_key_parsing() {
        assert_eq!(parse_scheme_key("protein").parts, vec!["protein"]);
        assert_eq!(
            parse_scheme_key("protein, accession_num").parts,
            vec!["protein", "accession_num"]
        );
    }
}
