//! HDM constraints.

use std::fmt;

/// A constraint over the extents of HDM schema elements.
///
/// The HDM constraint language is deliberately small; higher-level modelling languages
/// compile their own integrity notions (primary keys, foreign keys, cardinalities)
/// into combinations of these primitives.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Constraint {
    /// The extent of `sub` is contained (as a set) in the extent of `sup`.
    Inclusion { sub: String, sup: String },
    /// The extents of `left` and `right` are disjoint.
    Exclusion { left: String, right: String },
    /// The extent of `whole` equals the union of the extents of `parts`.
    Union { whole: String, parts: Vec<String> },
    /// Every value of node `node` participates in position `position` of edge `edge`.
    Mandatory {
        edge: String,
        node: String,
        position: usize,
    },
    /// Each value appears at most once in position `position` of edge `edge`.
    Unique { edge: String, position: usize },
    /// The binary edge `edge` is reflexive over its node.
    Reflexive { edge: String },
}

impl Constraint {
    /// A short keyword naming the constraint kind, used in error messages and displays.
    pub fn kind(&self) -> &'static str {
        match self {
            Constraint::Inclusion { .. } => "inclusion",
            Constraint::Exclusion { .. } => "exclusion",
            Constraint::Union { .. } => "union",
            Constraint::Mandatory { .. } => "mandatory",
            Constraint::Unique { .. } => "unique",
            Constraint::Reflexive { .. } => "reflexive",
        }
    }

    /// The names of all schema elements (nodes or edge identities) this constraint
    /// refers to. Used by schema validation to detect dangling constraints.
    pub fn referenced_elements(&self) -> Vec<&str> {
        match self {
            Constraint::Inclusion { sub, sup } => vec![sub, sup],
            Constraint::Exclusion { left, right } => vec![left, right],
            Constraint::Union { whole, parts } => {
                let mut v: Vec<&str> = vec![whole];
                v.extend(parts.iter().map(|s| s.as_str()));
                v
            }
            Constraint::Mandatory { edge, node, .. } => vec![edge, node],
            Constraint::Unique { edge, .. } => vec![edge],
            Constraint::Reflexive { edge } => vec![edge],
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Inclusion { sub, sup } => write!(f, "{sub} ⊆ {sup}"),
            Constraint::Exclusion { left, right } => write!(f, "{left} ∩ {right} = ∅"),
            Constraint::Union { whole, parts } => {
                write!(f, "{whole} = {}", parts.join(" ∪ "))
            }
            Constraint::Mandatory {
                edge,
                node,
                position,
            } => write!(f, "mandatory({node} in {edge}[{position}])"),
            Constraint::Unique { edge, position } => write!(f, "unique({edge}[{position}])"),
            Constraint::Reflexive { edge } => write!(f, "reflexive({edge})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_elements_cover_all_variants() {
        let c = Constraint::Union {
            whole: "protein".into(),
            parts: vec!["pedro_protein".into(), "gpmdb_proseq".into()],
        };
        assert_eq!(
            c.referenced_elements(),
            vec!["protein", "pedro_protein", "gpmdb_proseq"]
        );
        assert_eq!(c.kind(), "union");

        let m = Constraint::Mandatory {
            edge: "accession(protein,string)".into(),
            node: "protein".into(),
            position: 0,
        };
        assert_eq!(m.referenced_elements().len(), 2);
    }

    #[test]
    fn display_formats() {
        let c = Constraint::Inclusion {
            sub: "a".into(),
            sup: "b".into(),
        };
        assert_eq!(c.to_string(), "a ⊆ b");
        let u = Constraint::Unique {
            edge: "e".into(),
            position: 1,
        };
        assert_eq!(u.to_string(), "unique(e[1])");
    }
}
