//! The Model Definitions Repository (MDR).
//!
//! The MDR records how the constructs of each higher-level modelling language are
//! defined in terms of the HDM. This is what lets a single set of primitive
//! transformations (`add`, `delete`, `rename`, …) operate uniformly over relational,
//! XML-like or other schemas: a transformation is always stated on an *irreducible*
//! construct of its modelling language, and the MDR says what that construct means at
//! the HDM level.
//!
//! Two languages are registered by default:
//!
//! * `sql` — tables (`⟨⟨t⟩⟩`, one HDM node) and columns (`⟨⟨t, c⟩⟩`, a value node plus
//!   a binary edge to the table node);
//! * `xml` — elements (a node) and attributes (a value node plus an edge), showing
//!   that the machinery is not relational-specific.

use crate::error::AutomedError;
use crate::object::{ConstructKind, SchemaObject};
use crate::schema::Schema;
use hdm::{Edge, HdmSchema, Node};
use std::collections::BTreeMap;

/// How a construct kind is encoded in the HDM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HdmEncoding {
    /// The construct becomes a single HDM node named after the scheme's last part
    /// (qualified by its parents).
    NodeOnly,
    /// The construct becomes a value node plus a binary edge from its parent's node to
    /// the value node.
    NodeAndEdge,
}

/// The definition of one construct of a modelling language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructDefinition {
    /// The construct kind being defined.
    pub kind: ConstructKind,
    /// How it is encoded in the HDM.
    pub encoding: HdmEncoding,
    /// Expected number of scheme parts (1 for top-level constructs, 2 for nested ones).
    pub scheme_arity: usize,
}

/// A modelling-language definition: a set of construct definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanguageDefinition {
    /// Language name (e.g. `"sql"`).
    pub name: String,
    constructs: BTreeMap<String, ConstructDefinition>,
}

impl LanguageDefinition {
    /// An empty language definition.
    pub fn new(name: impl Into<String>) -> Self {
        LanguageDefinition {
            name: name.into(),
            constructs: BTreeMap::new(),
        }
    }

    /// Define a construct.
    pub fn define(&mut self, name: impl Into<String>, definition: ConstructDefinition) {
        self.constructs.insert(name.into(), definition);
    }

    /// Look up a construct definition by name.
    pub fn construct(&self, name: &str) -> Option<&ConstructDefinition> {
        self.constructs.get(name)
    }

    /// Find the definition matching a construct kind.
    pub fn definition_for(&self, kind: ConstructKind) -> Option<&ConstructDefinition> {
        self.constructs.values().find(|d| d.kind == kind)
    }

    /// Number of constructs defined.
    pub fn construct_count(&self) -> usize {
        self.constructs.len()
    }
}

/// The Model Definitions Repository: named language definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelDefinitions {
    languages: BTreeMap<String, LanguageDefinition>,
}

impl Default for ModelDefinitions {
    fn default() -> Self {
        let mut mdr = ModelDefinitions {
            languages: BTreeMap::new(),
        };
        // Relational language.
        let mut sql = LanguageDefinition::new("sql");
        sql.define(
            "table",
            ConstructDefinition {
                kind: ConstructKind::Table,
                encoding: HdmEncoding::NodeOnly,
                scheme_arity: 1,
            },
        );
        sql.define(
            "column",
            ConstructDefinition {
                kind: ConstructKind::Column,
                encoding: HdmEncoding::NodeAndEdge,
                scheme_arity: 2,
            },
        );
        mdr.register(sql);
        // Simple XML-ish tree language.
        let mut xml = LanguageDefinition::new("xml");
        xml.define(
            "element",
            ConstructDefinition {
                kind: ConstructKind::Element,
                encoding: HdmEncoding::NodeOnly,
                scheme_arity: 1,
            },
        );
        xml.define(
            "attribute",
            ConstructDefinition {
                kind: ConstructKind::Attribute,
                encoding: HdmEncoding::NodeAndEdge,
                scheme_arity: 2,
            },
        );
        mdr.register(xml);
        mdr
    }
}

impl ModelDefinitions {
    /// The default MDR with the `sql` and `xml` languages registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a language definition.
    pub fn register(&mut self, language: LanguageDefinition) {
        self.languages.insert(language.name.clone(), language);
    }

    /// Look up a language definition.
    pub fn language(&self, name: &str) -> Option<&LanguageDefinition> {
        self.languages.get(name)
    }

    /// Names of all registered languages.
    pub fn language_names(&self) -> impl Iterator<Item = &str> {
        self.languages.keys().map(String::as_str)
    }

    /// Lower a schema to an HDM schema using the registered language definitions.
    ///
    /// Objects whose language is unknown, or whose construct kind is not defined for
    /// their language, cause an error — mirroring AutoMed's requirement that every
    /// construct be defined in the MDR before it can be transformed.
    pub fn lower_to_hdm(&self, schema: &Schema) -> Result<HdmSchema, AutomedError> {
        let mut hdm = HdmSchema::new(schema.name.clone());
        // Two passes: nodes first so that edges always find their endpoints.
        for object in schema.objects() {
            let def = self.definition(object)?;
            if def.encoding == HdmEncoding::NodeOnly {
                let name = object.scheme.key();
                if !hdm.has_node(&name) {
                    let _ = hdm.add_node(Node::new(name));
                }
            }
        }
        for object in schema.objects() {
            let def = self.definition(object)?;
            if def.encoding == HdmEncoding::NodeAndEdge {
                let parent = object
                    .parent_scheme()
                    .map(|s| s.key())
                    .unwrap_or_else(|| object.scheme.key());
                if !hdm.has_node(&parent) {
                    let _ = hdm.add_node(Node::new(parent.clone()));
                }
                let value_node = format!("{}:value", object.scheme.key());
                if !hdm.has_node(&value_node) {
                    let _ = hdm.add_node(Node::new(value_node.clone()));
                }
                let edge_name = object
                    .scheme
                    .parts
                    .last()
                    .cloned()
                    .unwrap_or_else(|| object.scheme.key());
                let _ = hdm.add_edge(Edge::binary(edge_name, parent, value_node));
            }
        }
        Ok(hdm)
    }

    fn definition(&self, object: &SchemaObject) -> Result<&ConstructDefinition, AutomedError> {
        let lang =
            self.language(&object.language)
                .ok_or_else(|| AutomedError::UnknownConstruct {
                    language: object.language.clone(),
                    construct: object.construct.to_string(),
                })?;
        lang.definition_for(object.construct)
            .ok_or_else(|| AutomedError::UnknownConstruct {
                language: object.language.clone(),
                construct: object.construct.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iql::ast::SchemeRef;

    #[test]
    fn default_mdr_has_sql_and_xml() {
        let mdr = ModelDefinitions::new();
        assert!(mdr.language("sql").is_some());
        assert!(mdr.language("xml").is_some());
        assert_eq!(mdr.language("sql").unwrap().construct_count(), 2);
        assert_eq!(mdr.language_names().count(), 2);
    }

    #[test]
    fn lowering_a_relational_schema() {
        let mdr = ModelDefinitions::new();
        let schema = Schema::from_objects(
            "pedro",
            [
                SchemaObject::table("protein"),
                SchemaObject::column("protein", "accession_num"),
            ],
        )
        .unwrap();
        let hdm = mdr.lower_to_hdm(&schema).unwrap();
        assert!(hdm.has_node("protein"));
        assert!(hdm.has_node("protein,accession_num:value"));
        assert!(hdm.has_edge("accession_num(protein,protein,accession_num:value)"));
        assert!(hdm.validate().is_ok());
    }

    #[test]
    fn lowering_an_xml_schema() {
        let mdr = ModelDefinitions::new();
        let schema = Schema::from_objects(
            "doc",
            [
                SchemaObject::generic(
                    SchemeRef::table("experiment"),
                    "xml",
                    ConstructKind::Element,
                ),
                SchemaObject::generic(
                    SchemeRef::column("experiment", "date"),
                    "xml",
                    ConstructKind::Attribute,
                ),
            ],
        )
        .unwrap();
        let hdm = mdr.lower_to_hdm(&schema).unwrap();
        assert!(hdm.has_node("experiment"));
        assert!(hdm.validate().is_ok());
    }

    #[test]
    fn unknown_language_rejected() {
        let mdr = ModelDefinitions::new();
        let schema = Schema::from_objects(
            "s",
            [SchemaObject::generic(
                SchemeRef::table("thing"),
                "owl",
                ConstructKind::Generic,
            )],
        )
        .unwrap();
        assert!(matches!(
            mdr.lower_to_hdm(&schema),
            Err(AutomedError::UnknownConstruct { .. })
        ));
    }

    #[test]
    fn custom_language_registration() {
        let mut mdr = ModelDefinitions::new();
        let mut rdf = LanguageDefinition::new("rdf");
        rdf.define(
            "class",
            ConstructDefinition {
                kind: ConstructKind::Generic,
                encoding: HdmEncoding::NodeOnly,
                scheme_arity: 1,
            },
        );
        mdr.register(rdf);
        assert!(mdr.language("rdf").is_some());
        let schema = Schema::from_objects(
            "onto",
            [SchemaObject::generic(
                SchemeRef::table("Protein"),
                "rdf",
                ConstructKind::Generic,
            )],
        )
        .unwrap();
        assert!(mdr.lower_to_hdm(&schema).is_ok());
    }
}
