//! Query processing over integrated (virtual) schemas.
//!
//! The paper's substrate reformulates queries posed on a global schema into queries on
//! the data sources by exploiting the queries carried by the transformation pathways:
//!
//! * the `add`/`extend` steps act as **GAV** view definitions (global object defined
//!   by a query over "earlier" objects) — [`gav`] performs view unfolding;
//! * the `delete`/`contract` steps act as **LAV** view definitions (source object
//!   described by a query over the integrated schema) — [`lav`] performs view
//!   inversion / rewriting for the simple view shapes the tool generates;
//! * a pathway mixes both kinds of step, so walking a pathway and applying the
//!   appropriate rule at each step gives **BAV** reformulation — [`bav`];
//! * [`evaluator`] puts it together: a [`evaluator::VirtualExtents`] provider resolves
//!   global-schema scheme references by evaluating their contributions against the
//!   registered sources (bag-union semantics across sources, as in the paper), so any
//!   IQL query over the global schema can be answered end-to-end.

pub mod bav;
pub mod evaluator;
pub mod gav;
pub mod lav;

use iql::ast::Expr;

/// One contribution to the extent of a virtual (integrated-schema) object: an IQL
/// query plus the source schema it is stated over.
///
/// `source = None` means the query is stated over the integrated schema itself (it
/// references other virtual objects), which is how derived concepts such as the
/// `⟨⟨uPeptideHitToProteinHit_mm⟩⟩` join of the case study are defined.
#[derive(Debug, Clone, PartialEq)]
pub struct Contribution {
    /// The data source schema the query ranges over, or `None` for the integrated
    /// schema itself.
    pub source: Option<String>,
    /// The defining query.
    pub query: Expr,
}

impl Contribution {
    /// A contribution stated over a named source schema.
    pub fn from_source(source: impl Into<String>, query: Expr) -> Self {
        Contribution {
            source: Some(source.into()),
            query,
        }
    }

    /// A contribution stated over the integrated schema itself.
    pub fn derived(query: Expr) -> Self {
        Contribution {
            source: None,
            query,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iql::parse;

    #[test]
    fn contribution_constructors() {
        let c = Contribution::from_source("pedro", parse("[k | k <- <<protein>>]").unwrap());
        assert_eq!(c.source.as_deref(), Some("pedro"));
        let d = Contribution::derived(parse("[k | k <- <<uprotein>>]").unwrap());
        assert!(d.source.is_none());
    }
}
