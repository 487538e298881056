//! Schemas: named sets of schema objects.

use crate::error::AutomedError;
use crate::object::SchemaObject;
use iql::ast::SchemeRef;
use std::collections::BTreeMap;
use std::fmt;

/// A schema in the repository: a named set of [`SchemaObject`]s keyed by scheme.
///
/// Schemas are *value types*: pathway application produces new schemas rather than
/// mutating shared state, which keeps the repository's history of source, intermediate
/// and integrated schemas intact (as the STR does in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// The schema's name, unique within a repository.
    pub name: String,
    objects: BTreeMap<String, SchemaObject>,
}

impl Schema {
    /// An empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        Schema {
            name: name.into(),
            objects: BTreeMap::new(),
        }
    }

    /// Build a schema from an iterator of objects. Duplicate schemes are rejected.
    pub fn from_objects<I>(name: impl Into<String>, objects: I) -> Result<Self, AutomedError>
    where
        I: IntoIterator<Item = SchemaObject>,
    {
        let mut schema = Schema::new(name);
        for o in objects {
            schema.add_object(o)?;
        }
        Ok(schema)
    }

    /// Add an object; fails if an object with the same scheme is already present.
    pub fn add_object(&mut self, object: SchemaObject) -> Result<(), AutomedError> {
        let key = object.key();
        if self.objects.contains_key(&key) {
            return Err(AutomedError::DuplicateObject {
                schema: self.name.clone(),
                scheme: object.scheme,
            });
        }
        self.objects.insert(key, object);
        Ok(())
    }

    /// Remove an object by scheme; fails if it is not present.
    pub fn remove_object(&mut self, scheme: &SchemeRef) -> Result<SchemaObject, AutomedError> {
        self.objects
            .remove(&scheme.key())
            .ok_or_else(|| AutomedError::UnknownObject {
                schema: self.name.clone(),
                scheme: scheme.clone(),
            })
    }

    /// Rename an object, keeping its language and construct kind.
    pub fn rename_object(&mut self, from: &SchemeRef, to: SchemeRef) -> Result<(), AutomedError> {
        let obj = self.remove_object(from)?;
        self.add_object(obj.renamed(to))
    }

    /// Whether the schema contains an object with this scheme.
    pub fn contains(&self, scheme: &SchemeRef) -> bool {
        self.objects.contains_key(&scheme.key())
    }

    /// Look up an object by scheme.
    pub fn object(&self, scheme: &SchemeRef) -> Option<&SchemaObject> {
        self.objects.get(&scheme.key())
    }

    /// Iterate over objects in scheme order.
    pub fn objects(&self) -> impl Iterator<Item = &SchemaObject> {
        self.objects.values()
    }

    /// All schemes in the schema, in order.
    pub fn schemes(&self) -> impl Iterator<Item = &SchemeRef> {
        self.objects.values().map(|o| &o.scheme)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the schema has no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// A copy of this schema under a different name.
    pub fn renamed_schema(&self, name: impl Into<String>) -> Schema {
        Schema {
            name: name.into(),
            objects: self.objects.clone(),
        }
    }

    /// A copy with every object's scheme prefixed by `prefix_` (provenance tagging).
    pub fn prefixed(&self, name: impl Into<String>, prefix: &str) -> Schema {
        Schema {
            name: name.into(),
            objects: self
                .objects
                .values()
                .map(|o| {
                    let p = o.prefixed(prefix);
                    (p.key(), p)
                })
                .collect(),
        }
    }

    /// Whether two schemas contain syntactically identical sets of objects (the
    /// precondition for `ident` in the paper). Names may differ.
    pub fn syntactically_identical(&self, other: &Schema) -> bool {
        self.objects == other.objects
    }

    /// The objects present in `self` but not in `other` (by scheme).
    pub fn objects_not_in(&self, other: &Schema) -> Vec<&SchemaObject> {
        self.objects
            .values()
            .filter(|o| !other.objects.contains_key(&o.key()))
            .collect()
    }

    /// Set-union of two schemas' objects under a new name. Objects present in both are
    /// kept once.
    pub fn union(name: impl Into<String>, left: &Schema, right: &Schema) -> Schema {
        let mut objects = left.objects.clone();
        for (k, v) in &right.objects {
            objects.entry(k.clone()).or_insert_with(|| v.clone());
        }
        Schema {
            name: name.into(),
            objects,
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema {} ({} objects):", self.name, self.len())?;
        for o in self.objects() {
            writeln!(f, "  {o}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pedro_fragment() -> Schema {
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

    #[test]
    fn add_remove_rename() {
        let mut s = pedro_fragment();
        assert_eq!(s.len(), 3);
        assert!(s.contains(&SchemeRef::column("protein", "organism")));
        assert!(matches!(
            s.add_object(SchemaObject::table("protein")),
            Err(AutomedError::DuplicateObject { .. })
        ));
        s.rename_object(
            &SchemeRef::column("protein", "organism"),
            SchemeRef::column("protein", "species"),
        )
        .unwrap();
        assert!(s.contains(&SchemeRef::column("protein", "species")));
        assert!(!s.contains(&SchemeRef::column("protein", "organism")));
        s.remove_object(&SchemeRef::column("protein", "species"))
            .unwrap();
        assert_eq!(s.len(), 2);
        assert!(matches!(
            s.remove_object(&SchemeRef::table("nope")),
            Err(AutomedError::UnknownObject { .. })
        ));
    }

    #[test]
    fn syntactic_identity_ignores_schema_name() {
        let a = pedro_fragment();
        let b = a.renamed_schema("copy");
        assert!(a.syntactically_identical(&b));
        let mut c = b.clone();
        c.remove_object(&SchemeRef::table("protein")).unwrap();
        assert!(!a.syntactically_identical(&c));
    }

    #[test]
    fn union_and_difference_of_objects() {
        let a = pedro_fragment();
        let mut b = Schema::new("other");
        b.add_object(SchemaObject::table("peptidehit")).unwrap();
        b.add_object(SchemaObject::column("protein", "accession_num"))
            .unwrap();
        let u = Schema::union("u", &a, &b);
        assert_eq!(u.len(), 4);
        let only_a = a.objects_not_in(&b);
        assert_eq!(only_a.len(), 2);
        let only_b = b.objects_not_in(&a);
        assert_eq!(only_b.len(), 1);
        assert_eq!(only_b[0].key(), "peptidehit");
    }

    #[test]
    fn prefixed_schema_tags_all_objects() {
        let p = pedro_fragment().prefixed("fed_pedro", "PEDRO");
        assert!(p.contains(&SchemeRef::column("PEDRO_protein", "PEDRO_accession_num")));
        assert_eq!(p.len(), 3);
        assert_eq!(p.name, "fed_pedro");
    }

    #[test]
    fn display_lists_objects() {
        let text = pedro_fragment().to_string();
        assert!(text.contains("protein"));
        assert!(text.contains("3 objects"));
    }
}
