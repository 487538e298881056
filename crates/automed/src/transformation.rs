//! Primitive schema transformations.
//!
//! Every transformation is accompanied by an IQL query (or a `Range q_l q_u` bound)
//! that relates the extent of the added/removed object to the rest of the schema —
//! this is what makes pathways *bidirectional* (Both-As-View): the `add`/`extend` steps
//! act as GAV mappings and the `delete`/`contract` steps as LAV mappings.
//!
//! Transformations also record their [`Provenance`]: whether they were defined
//! manually by the integrator or generated automatically by a tool. The paper's
//! evaluation metric — the number of manually-defined, non-trivial transformations —
//! is computed from exactly these two attributes (see
//! [`Transformation::is_trivial`] and [`Transformation::provenance`]).

use crate::error::AutomedError;
use crate::object::SchemaObject;
use crate::schema::Schema;
use iql::ast::{Expr, SchemeRef};
use iql::pretty;
use std::fmt;

/// Who authored a transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Defined by the data integrator / domain expert (counts towards integration
    /// effort).
    Manual,
    /// Generated automatically by a tool (does not count towards integration effort).
    ToolGenerated,
}

/// A primitive schema transformation.
#[derive(Debug, Clone, PartialEq)]
pub enum Transformation {
    /// `add(o, q)` — add object `o`, whose extent equals the result of `q` over the
    /// rest of the schema.
    Add {
        /// The added object.
        object: SchemaObject,
        /// Defining query over the pre-existing objects.
        query: Expr,
        /// Authorship.
        provenance: Provenance,
    },
    /// `delete(o, q)` — remove object `o`; `q` states how its extent could be restored
    /// from the remaining objects.
    Delete {
        /// The removed object.
        object: SchemaObject,
        /// Restoring query over the remaining objects.
        query: Expr,
        /// Authorship.
        provenance: Provenance,
    },
    /// `extend(o, Range q_l q_u)` — add object `o` whose extent is not precisely
    /// derivable; `q_l`/`q_u` bound it from below and above.
    Extend {
        /// The added object.
        object: SchemaObject,
        /// A `Range` expression bounding the extent.
        query: Expr,
        /// Authorship.
        provenance: Provenance,
    },
    /// `contract(o, Range q_l q_u)` — remove object `o` whose extent is not precisely
    /// derivable from what remains.
    Contract {
        /// The removed object.
        object: SchemaObject,
        /// A `Range` expression bounding the extent.
        query: Expr,
        /// Authorship.
        provenance: Provenance,
    },
    /// `rename(o, o')` — rename an object.
    Rename {
        /// Scheme before renaming.
        from: SchemeRef,
        /// Scheme after renaming.
        to: SchemeRef,
        /// Authorship.
        provenance: Provenance,
    },
    /// `id(S:c, S':c)` — assert that object `c` of schema `S` and object `c` of schema
    /// `S'` are the same object. Generated by the `ident` macro-transformation.
    Id {
        /// Name of the left schema.
        left_schema: String,
        /// Name of the right schema.
        right_schema: String,
        /// The shared scheme.
        scheme: SchemeRef,
        /// Authorship.
        provenance: Provenance,
    },
}

impl Transformation {
    /// Convenience constructor for a manual `add`.
    pub fn add(object: SchemaObject, query: Expr) -> Self {
        Transformation::Add {
            object,
            query,
            provenance: Provenance::Manual,
        }
    }

    /// Convenience constructor for a manual `delete`.
    pub fn delete(object: SchemaObject, query: Expr) -> Self {
        Transformation::Delete {
            object,
            query,
            provenance: Provenance::Manual,
        }
    }

    /// Convenience constructor for an `extend` with the trivial `Range Void Any` bound.
    pub fn extend_void_any(object: SchemaObject) -> Self {
        Transformation::Extend {
            object,
            query: Expr::range_void_any(),
            provenance: Provenance::ToolGenerated,
        }
    }

    /// Convenience constructor for a `contract` with the trivial `Range Void Any` bound.
    pub fn contract_void_any(object: SchemaObject) -> Self {
        Transformation::Contract {
            object,
            query: Expr::range_void_any(),
            provenance: Provenance::ToolGenerated,
        }
    }

    /// The transformation's authorship.
    pub fn provenance(&self) -> Provenance {
        match self {
            Transformation::Add { provenance, .. }
            | Transformation::Delete { provenance, .. }
            | Transformation::Extend { provenance, .. }
            | Transformation::Contract { provenance, .. }
            | Transformation::Rename { provenance, .. }
            | Transformation::Id { provenance, .. } => *provenance,
        }
    }

    /// Return a copy with the given provenance.
    pub fn with_provenance(mut self, p: Provenance) -> Self {
        match &mut self {
            Transformation::Add { provenance, .. }
            | Transformation::Delete { provenance, .. }
            | Transformation::Extend { provenance, .. }
            | Transformation::Contract { provenance, .. }
            | Transformation::Rename { provenance, .. }
            | Transformation::Id { provenance, .. } => *provenance = p,
        }
        self
    }

    /// The transformation's query, if it has one.
    pub fn query(&self) -> Option<&Expr> {
        match self {
            Transformation::Add { query, .. }
            | Transformation::Delete { query, .. }
            | Transformation::Extend { query, .. }
            | Transformation::Contract { query, .. } => Some(query),
            Transformation::Rename { .. } | Transformation::Id { .. } => None,
        }
    }

    /// The scheme of the object the transformation is *about* (the added/removed
    /// object, the rename source, or the shared `id` scheme).
    pub fn subject_scheme(&self) -> &SchemeRef {
        match self {
            Transformation::Add { object, .. }
            | Transformation::Delete { object, .. }
            | Transformation::Extend { object, .. }
            | Transformation::Contract { object, .. } => &object.scheme,
            Transformation::Rename { from, .. } => from,
            Transformation::Id { scheme, .. } => scheme,
        }
    }

    /// The paper's triviality test: a transformation is *trivial* when its query part
    /// is just `Range Void Any` (it conveys no semantic mapping information), and `id`
    /// steps are likewise trivial. Trivial transformations are excluded from the
    /// integration-effort counts in the case study.
    pub fn is_trivial(&self) -> bool {
        match self {
            Transformation::Extend { query, .. } | Transformation::Contract { query, .. } => {
                query.is_range_void_any()
            }
            Transformation::Id { .. } => true,
            Transformation::Rename { .. } => false,
            Transformation::Add { .. } | Transformation::Delete { .. } => false,
        }
    }

    /// Short keyword naming the primitive (`add`, `delete`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            Transformation::Add { .. } => "add",
            Transformation::Delete { .. } => "delete",
            Transformation::Extend { .. } => "extend",
            Transformation::Contract { .. } => "contract",
            Transformation::Rename { .. } => "rename",
            Transformation::Id { .. } => "id",
        }
    }

    /// The automatic reversal rule: `add ↔ delete` with the same arguments,
    /// `extend ↔ contract` with the same arguments, `rename`/`id` with the arguments
    /// swapped. Reversal preserves provenance.
    pub fn reverse(&self) -> Transformation {
        match self.clone() {
            Transformation::Add {
                object,
                query,
                provenance,
            } => Transformation::Delete {
                object,
                query,
                provenance,
            },
            Transformation::Delete {
                object,
                query,
                provenance,
            } => Transformation::Add {
                object,
                query,
                provenance,
            },
            Transformation::Extend {
                object,
                query,
                provenance,
            } => Transformation::Contract {
                object,
                query,
                provenance,
            },
            Transformation::Contract {
                object,
                query,
                provenance,
            } => Transformation::Extend {
                object,
                query,
                provenance,
            },
            Transformation::Rename {
                from,
                to,
                provenance,
            } => Transformation::Rename {
                from: to,
                to: from,
                provenance,
            },
            Transformation::Id {
                left_schema,
                right_schema,
                scheme,
                provenance,
            } => Transformation::Id {
                left_schema: right_schema,
                right_schema: left_schema,
                scheme,
                provenance,
            },
        }
    }

    /// Apply the transformation to a schema in place.
    pub fn apply(&self, schema: &mut Schema) -> Result<(), AutomedError> {
        match self {
            Transformation::Add { object, .. } | Transformation::Extend { object, .. } => {
                schema.add_object(object.clone())
            }
            Transformation::Delete { object, .. } | Transformation::Contract { object, .. } => {
                schema.remove_object(&object.scheme).map(|_| ())
            }
            Transformation::Rename { from, to, .. } => schema.rename_object(from, to.clone()),
            // `id` operates across two schemas and does not alter either of them.
            Transformation::Id { .. } => Ok(()),
        }
    }
}

impl fmt::Display for Transformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transformation::Add { object, query, .. } => {
                write!(f, "add {} {}", object.scheme, pretty::print(query))
            }
            Transformation::Delete { object, query, .. } => {
                write!(f, "delete {} {}", object.scheme, pretty::print(query))
            }
            Transformation::Extend { object, query, .. } => {
                write!(f, "extend {} {}", object.scheme, pretty::print(query))
            }
            Transformation::Contract { object, query, .. } => {
                write!(f, "contract {} {}", object.scheme, pretty::print(query))
            }
            Transformation::Rename { from, to, .. } => write!(f, "rename {from} {to}"),
            Transformation::Id {
                left_schema,
                right_schema,
                scheme,
                ..
            } => write!(f, "id {left_schema}:{scheme} {right_schema}:{scheme}"),
        }
    }
}

/// Generate the `id` steps of an `ident` macro-transformation between two
/// syntactically identical schemas: one `id(S:c, S':c)` per shared object.
///
/// Fails when the schemas differ, reporting an example of a differing object.
pub fn ident(left: &Schema, right: &Schema) -> Result<Vec<Transformation>, AutomedError> {
    if !left.syntactically_identical(right) {
        let missing_in_right = left.objects_not_in(right);
        let missing_in_left = right.objects_not_in(left);
        let detail = match (missing_in_right.first(), missing_in_left.first()) {
            (Some(o), _) => format!("{} present only in `{}`", o.scheme, left.name),
            (_, Some(o)) => format!("{} present only in `{}`", o.scheme, right.name),
            _ => "objects differ".to_string(),
        };
        return Err(AutomedError::NotUnionCompatible {
            left: left.name.clone(),
            right: right.name.clone(),
            detail,
        });
    }
    Ok(left
        .objects()
        .map(|o| Transformation::Id {
            left_schema: left.name.clone(),
            right_schema: right.name.clone(),
            scheme: o.scheme.clone(),
            provenance: Provenance::ToolGenerated,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iql::parse;

    fn uprotein_add() -> Transformation {
        Transformation::add(
            SchemaObject::table("UProtein"),
            parse("[{'PEDRO', k} | k <- <<protein>>]").unwrap(),
        )
    }

    #[test]
    fn reversal_swaps_primitives_and_is_an_involution() {
        let add = uprotein_add();
        let rev = add.reverse();
        assert_eq!(rev.kind(), "delete");
        assert_eq!(rev.reverse(), add);

        let contract = Transformation::contract_void_any(SchemaObject::table("x"));
        assert_eq!(contract.reverse().kind(), "extend");
        assert_eq!(contract.reverse().reverse(), contract);

        let rename = Transformation::Rename {
            from: SchemeRef::table("a"),
            to: SchemeRef::table("b"),
            provenance: Provenance::Manual,
        };
        assert_eq!(rename.reverse().reverse(), rename);
        if let Transformation::Rename { from, to, .. } = rename.reverse() {
            assert_eq!(from, SchemeRef::table("b"));
            assert_eq!(to, SchemeRef::table("a"));
        }
    }

    #[test]
    fn triviality_classification() {
        assert!(!uprotein_add().is_trivial());
        assert!(Transformation::contract_void_any(SchemaObject::table("x")).is_trivial());
        assert!(Transformation::extend_void_any(SchemaObject::table("x")).is_trivial());
        let bounded_extend = Transformation::Extend {
            object: SchemaObject::table("x"),
            query: parse("Range [k | k <- <<protein>>] Any").unwrap(),
            provenance: Provenance::Manual,
        };
        assert!(!bounded_extend.is_trivial());
        let id = Transformation::Id {
            left_schema: "a".into(),
            right_schema: "b".into(),
            scheme: SchemeRef::table("x"),
            provenance: Provenance::ToolGenerated,
        };
        assert!(id.is_trivial());
    }

    #[test]
    fn apply_add_delete_rename() {
        let mut s = Schema::new("s");
        uprotein_add().apply(&mut s).unwrap();
        assert!(s.contains(&SchemeRef::table("UProtein")));
        Transformation::Rename {
            from: SchemeRef::table("UProtein"),
            to: SchemeRef::table("UniProtein"),
            provenance: Provenance::Manual,
        }
        .apply(&mut s)
        .unwrap();
        assert!(s.contains(&SchemeRef::table("UniProtein")));
        Transformation::delete(SchemaObject::table("UniProtein"), Expr::range_void_any())
            .apply(&mut s)
            .unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn apply_errors_on_missing_or_duplicate_objects() {
        let mut s = Schema::new("s");
        assert!(Transformation::contract_void_any(SchemaObject::table("x"))
            .apply(&mut s)
            .is_err());
        uprotein_add().apply(&mut s).unwrap();
        assert!(uprotein_add().apply(&mut s).is_err());
    }

    #[test]
    fn ident_requires_syntactic_identity() {
        let a = Schema::from_objects(
            "us1",
            [
                SchemaObject::table("UProtein"),
                SchemaObject::column("UProtein", "accession_num"),
            ],
        )
        .unwrap();
        let b = a.renamed_schema("us2");
        let ids = ident(&a, &b).unwrap();
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|t| t.is_trivial() && t.kind() == "id"));

        let mut c = b.clone();
        c.add_object(SchemaObject::table("Extra")).unwrap();
        assert!(matches!(
            ident(&a, &c),
            Err(AutomedError::NotUnionCompatible { .. })
        ));
    }

    #[test]
    fn provenance_defaults_and_override() {
        assert_eq!(uprotein_add().provenance(), Provenance::Manual);
        assert_eq!(
            Transformation::contract_void_any(SchemaObject::table("x")).provenance(),
            Provenance::ToolGenerated
        );
        let t = uprotein_add().with_provenance(Provenance::ToolGenerated);
        assert_eq!(t.provenance(), Provenance::ToolGenerated);
    }

    #[test]
    fn display_includes_query_text() {
        let text = uprotein_add().to_string();
        assert!(text.starts_with("add <<UProtein>>"));
        assert!(text.contains("<<protein>>"));
    }
}
