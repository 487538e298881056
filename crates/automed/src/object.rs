//! Schema objects.

use iql::ast::SchemeRef;
use std::fmt;

/// The construct kind of a schema object within its modelling language.
///
/// The reproduction primarily uses the relational modelling language (`Table`,
/// `Column`); `Element` and `Attribute` cover the simple XML-ish tree language defined
/// in the MDR to demonstrate that the machinery is not relational-specific, and
/// `Generic` covers constructs of user-defined languages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConstructKind {
    /// A relational table (extent: bag of key values).
    Table,
    /// A relational column (extent: bag of `{key, value}` pairs).
    Column,
    /// An XML-ish element node.
    Element,
    /// An XML-ish attribute.
    Attribute,
    /// A construct of some other modelling language.
    Generic,
}

impl fmt::Display for ConstructKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstructKind::Table => write!(f, "table"),
            ConstructKind::Column => write!(f, "column"),
            ConstructKind::Element => write!(f, "element"),
            ConstructKind::Attribute => write!(f, "attribute"),
            ConstructKind::Generic => write!(f, "construct"),
        }
    }
}

/// A schema object: a scheme plus its modelling-language classification.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchemaObject {
    /// The scheme identifying the object, e.g. `⟨⟨protein, accession_num⟩⟩`.
    pub scheme: SchemeRef,
    /// The modelling language the object belongs to, e.g. `"sql"`.
    pub language: String,
    /// The construct kind within that language.
    pub construct: ConstructKind,
}

impl SchemaObject {
    /// A relational table object.
    pub fn table(name: impl Into<String>) -> Self {
        SchemaObject {
            scheme: SchemeRef::table(name),
            language: "sql".into(),
            construct: ConstructKind::Table,
        }
    }

    /// A relational column object.
    pub fn column(table: impl Into<String>, column: impl Into<String>) -> Self {
        SchemaObject {
            scheme: SchemeRef::column(table, column),
            language: "sql".into(),
            construct: ConstructKind::Column,
        }
    }

    /// An object of an arbitrary language/construct.
    pub fn generic(
        scheme: SchemeRef,
        language: impl Into<String>,
        construct: ConstructKind,
    ) -> Self {
        SchemaObject {
            scheme,
            language: language.into(),
            construct,
        }
    }

    /// The canonical string key of the object's scheme.
    pub fn key(&self) -> String {
        self.scheme.key()
    }

    /// For a column-like object, the scheme of the table-like object it belongs to.
    pub fn parent_scheme(&self) -> Option<SchemeRef> {
        if self.scheme.parts.len() >= 2 {
            Some(SchemeRef::new(
                self.scheme.parts[..self.scheme.parts.len() - 1]
                    .iter()
                    .cloned(),
            ))
        } else {
            None
        }
    }

    /// A copy of the object with every scheme part prefixed (provenance tagging used
    /// when federating schemas).
    pub fn prefixed(&self, prefix: &str) -> SchemaObject {
        SchemaObject {
            scheme: self.scheme.prefixed(prefix),
            language: self.language.clone(),
            construct: self.construct,
        }
    }

    /// A copy of the object with a different scheme (used by `rename`).
    pub fn renamed(&self, scheme: SchemeRef) -> SchemaObject {
        SchemaObject {
            scheme,
            language: self.language.clone(),
            construct: self.construct,
        }
    }
}

impl fmt::Display for SchemaObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {}", self.language, self.construct, self.scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_language_and_kind() {
        let t = SchemaObject::table("protein");
        assert_eq!(t.construct, ConstructKind::Table);
        assert_eq!(t.language, "sql");
        assert_eq!(t.key(), "protein");
        let c = SchemaObject::column("protein", "accession_num");
        assert_eq!(c.construct, ConstructKind::Column);
        assert_eq!(c.key(), "protein,accession_num");
    }

    #[test]
    fn parent_scheme_of_column() {
        let c = SchemaObject::column("protein", "accession_num");
        assert_eq!(c.parent_scheme(), Some(SchemeRef::table("protein")));
        assert_eq!(SchemaObject::table("protein").parent_scheme(), None);
    }

    #[test]
    fn prefixing_and_renaming() {
        let c = SchemaObject::column("protein", "accession_num");
        let p = c.prefixed("PEDRO");
        assert_eq!(p.scheme.parts, vec!["PEDRO_protein", "PEDRO_accession_num"]);
        let r = c.renamed(SchemeRef::column("uprotein", "accession_num"));
        assert_eq!(r.key(), "uprotein,accession_num");
        assert_eq!(r.construct, ConstructKind::Column);
    }

    #[test]
    fn display_is_informative() {
        let c = SchemaObject::column("protein", "organism");
        let s = c.to_string();
        assert!(s.contains("sql") && s.contains("column") && s.contains("organism"));
    }
}
