//! The iterative, query-driven integration workflow (§2.3).
//!
//! An [`IntegrationSession`] wraps a [`Dataspace`] and drives the six-step workflow:
//!
//! 1. identify the extensional schemas (sources) to integrate;
//! 2. create the federated schema — data services are available immediately;
//! 3. select a pair (or, as in the case study, a group) of extensional schemas;
//! 4. identify the mappings between them and the new intersection schema;
//! 5. generate the intersection schema and re-derive the global schema, optionally
//!    dropping redundant objects;
//! 6. test the new schemas by running queries.
//!
//! The session additionally tracks a prioritised list of *target queries* (the
//! query-driven aspect of the case study): after every iteration it records which of
//! them have become answerable, yielding the pay-as-you-go curve.

use crate::dataspace::Dataspace;
use crate::error::CoreError;
use crate::mapping::IntersectionSpec;
use crate::metrics::{IterationEffort, PayAsYouGoPoint};
use iql::value::Value;
use iql::Params;
use relational::Database;

/// A named priority query driving the integration: parameterised query text
/// (`?name` placeholders) plus the default bindings the workflow tests it
/// under. One `PriorityQuery` is one query *shape* — the session prepares the
/// text once and can re-execute it under [`PriorityQuery::params`] or any
/// caller-supplied binding set, sharing one cached plan across all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityQuery {
    /// Short name (e.g. `"Q1"`).
    pub name: String,
    /// Human-readable description (the paper's query list in §3).
    pub description: String,
    /// The parameterised IQL text of the query over the (eventual) global
    /// schema; parameters are `?name` placeholders.
    pub iql: String,
    /// The default parameter bindings (the paper's example parameter values);
    /// empty for queries that take no parameters.
    pub params: Params,
    /// Priority rank; lower is more important.
    pub priority: usize,
}

/// The outcome of one workflow iteration.
#[derive(Debug, Clone)]
pub struct IterationOutcome {
    /// Effort record for the iteration.
    pub effort: IterationEffort,
    /// Pay-as-you-go point after the iteration.
    pub progress: PayAsYouGoPoint,
    /// Queries that became answerable in this iteration (not answerable before).
    pub newly_answerable: Vec<String>,
}

/// A stateful integration session following the paper's workflow.
#[derive(Debug)]
pub struct IntegrationSession {
    dataspace: Dataspace,
    queries: Vec<PriorityQuery>,
    history: Vec<IterationOutcome>,
}

impl IntegrationSession {
    /// Start a session over an empty dataspace.
    pub fn new() -> Self {
        IntegrationSession {
            dataspace: Dataspace::new(),
            queries: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Start a session over a pre-configured dataspace.
    pub fn with_dataspace(dataspace: Dataspace) -> Self {
        IntegrationSession {
            dataspace,
            queries: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Step 1: register a data source.
    pub fn add_source(&mut self, database: Database) -> Result<(), CoreError> {
        self.dataspace.add_source(database).map(|_| ())
    }

    /// Register the prioritised target queries that drive the integration.
    pub fn set_priority_queries(&mut self, queries: Vec<PriorityQuery>) {
        self.queries = queries;
        self.queries.sort_by_key(|q| q.priority);
    }

    /// The registered priority queries (sorted by priority).
    pub fn priority_queries(&self) -> &[PriorityQuery] {
        &self.queries
    }

    /// Step 2: build the federated schema and record the zero-effort starting point.
    pub fn federate(&mut self) -> Result<IterationOutcome, CoreError> {
        self.dataspace.federate()?;
        let effort = self
            .dataspace
            .effort_report()
            .iterations
            .last()
            .cloned()
            .expect("federate() records an iteration");
        let outcome = self.record_progress(effort, &[]);
        self.history.push(outcome.clone());
        Ok(outcome)
    }

    /// Steps 3–6: run one intersection-schema iteration and test the target queries.
    pub fn iterate(&mut self, spec: IntersectionSpec) -> Result<IterationOutcome, CoreError> {
        let previously_answerable: Vec<String> = self.answerable_queries();
        let effort = self.dataspace.integrate(spec)?;
        let outcome = self.record_progress(effort, &previously_answerable);
        self.history.push(outcome.clone());
        Ok(outcome)
    }

    fn answerable_queries(&self) -> Vec<String> {
        self.queries
            .iter()
            .filter(|q| self.dataspace.can_answer_with(&q.iql, &q.params))
            .map(|q| q.name.clone())
            .collect()
    }

    fn record_progress(
        &self,
        effort: IterationEffort,
        previously_answerable: &[String],
    ) -> IterationOutcome {
        let answerable = self.answerable_queries();
        let newly: Vec<String> = answerable
            .iter()
            .filter(|q| !previously_answerable.contains(q))
            .cloned()
            .collect();
        IterationOutcome {
            progress: PayAsYouGoPoint {
                iteration: effort.iteration,
                label: effort.label.clone(),
                cumulative_manual: effort.cumulative_manual,
                answerable_queries: answerable,
            },
            newly_answerable: newly,
            effort,
        }
    }

    /// Step 6 on demand: run one of the registered priority queries by name,
    /// under its default parameter bindings.
    pub fn run_priority_query(&self, name: &str) -> Result<Value, CoreError> {
        let q = self.find_query(name)?;
        self.dataspace.prepare(&q.iql)?.execute_value(&q.params)
    }

    /// Run a registered priority query under caller-supplied bindings — the
    /// pay-as-you-go re-run with fresh parameters. The prepared text and its
    /// cached plan are shared with every other execution of the same query.
    pub fn run_priority_query_with(&self, name: &str, params: &Params) -> Result<Value, CoreError> {
        let q = self.find_query(name)?;
        self.dataspace.prepare(&q.iql)?.execute_value(params)
    }

    fn find_query(&self, name: &str) -> Result<&PriorityQuery, CoreError> {
        self.queries
            .iter()
            .find(|q| q.name == name)
            .ok_or_else(|| CoreError::Query(format!("no priority query named `{name}`")))
    }

    /// The pay-as-you-go curve recorded so far (one point per completed iteration).
    pub fn pay_as_you_go_curve(&self) -> Vec<PayAsYouGoPoint> {
        self.history.iter().map(|o| o.progress.clone()).collect()
    }

    /// The full iteration history.
    pub fn history(&self) -> &[IterationOutcome] {
        &self.history
    }

    /// The underlying dataspace (read access).
    pub fn dataspace(&self) -> &Dataspace {
        &self.dataspace
    }

    /// Whether all registered priority queries are answerable (each under its
    /// default bindings).
    pub fn all_queries_answerable(&self) -> bool {
        self.queries
            .iter()
            .all(|q| self.dataspace.can_answer_with(&q.iql, &q.params))
    }

    /// Render the pay-as-you-go curve as a fixed-width table.
    pub fn render_curve(&self) -> String {
        let mut out =
            String::from("iter  label                cumulative-manual  answerable-queries\n");
        for p in self.pay_as_you_go_curve() {
            out.push_str(&format!(
                "{:<5} {:<20} {:<18} {}/{} {:?}\n",
                p.iteration,
                p.label,
                p.cumulative_manual,
                p.answerable_count(),
                self.queries.len(),
                p.answerable_queries
            ));
        }
        out
    }
}

impl Default for IntegrationSession {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ObjectMapping, SourceContribution};
    use relational::schema::{DataType, RelColumn, RelSchema, RelTable};

    fn source(name: &str, table: &str, col: &str, rows: &[(i64, &str)]) -> Database {
        let mut s = RelSchema::new(name);
        s.add_table(
            RelTable::new(table)
                .with_column(RelColumn::new("id", DataType::Int))
                .with_column(RelColumn::new(col, DataType::Text))
                .with_primary_key(["id"]),
        )
        .unwrap();
        let mut db = Database::new(s);
        for (k, v) in rows {
            db.insert(table, vec![(*k).into(), (*v).into()]).unwrap();
        }
        db
    }

    fn session() -> IntegrationSession {
        // Keep redundant objects so that federated-schema queries (Q2) stay answerable
        // after the covered source objects are integrated.
        let ds = Dataspace::with_config(crate::dataspace::DataspaceConfig {
            drop_redundant: false,
            ..Default::default()
        });
        let mut s = IntegrationSession::with_dataspace(ds);
        s.add_source(source(
            "pedro",
            "protein",
            "accession_num",
            &[(1, "ACC1"), (2, "ACC2")],
        ))
        .unwrap();
        s.add_source(source("gpmdb", "proseq", "label", &[(9, "ACC2")]))
            .unwrap();
        s.set_priority_queries(vec![
            PriorityQuery {
                name: "Q1".into(),
                description: "protein identifications for an accession number".into(),
                iql: "[{s, k} | {s, k, x} <- <<UProtein, accession_num>>; x = ?accession]".into(),
                params: Params::new().with("accession", "ACC2"),
                priority: 1,
            },
            PriorityQuery {
                name: "Q2".into(),
                description: "all accession values in pedro (federated)".into(),
                iql: "[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]".into(),
                params: Params::new(),
                priority: 2,
            },
        ]);
        s
    }

    fn spec() -> IntersectionSpec {
        IntersectionSpec::new("I1").with_mapping(
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
    fn federation_supports_some_queries_immediately() {
        let mut s = session();
        let outcome = s.federate().unwrap();
        assert_eq!(outcome.effort.cumulative_manual, 0);
        // Q2 only needs the federated schema; Q1 needs the intersection.
        assert_eq!(outcome.progress.answerable_queries, vec!["Q2".to_string()]);
        assert_eq!(outcome.newly_answerable, vec!["Q2".to_string()]);
        assert!(!s.all_queries_answerable());
    }

    #[test]
    fn iteration_makes_priority_query_answerable() {
        let mut s = session();
        s.federate().unwrap();
        let outcome = s.iterate(spec()).unwrap();
        assert_eq!(outcome.newly_answerable, vec!["Q1".to_string()]);
        assert_eq!(outcome.progress.answerable_count(), 2);
        assert!(s.all_queries_answerable());
        // Running Q1 returns the identifications from both sources for ACC2.
        let v = s.run_priority_query("Q1").unwrap();
        assert_eq!(v.expect_bag().unwrap().len(), 2);
        // The same prepared shape re-executes under a fresh binding.
        let v = s
            .run_priority_query_with("Q1", &Params::new().with("accession", "ACC1"))
            .unwrap();
        assert_eq!(v.expect_bag().unwrap().len(), 1);
    }

    #[test]
    fn curve_is_monotone_in_effort_and_coverage() {
        let mut s = session();
        s.federate().unwrap();
        s.iterate(spec()).unwrap();
        let curve = s.pay_as_you_go_curve();
        assert_eq!(curve.len(), 2);
        assert!(curve[0].cumulative_manual <= curve[1].cumulative_manual);
        assert!(curve[0].answerable_count() <= curve[1].answerable_count());
        let text = s.render_curve();
        assert!(text.contains("federation"));
        assert!(text.contains("I1"));
    }

    #[test]
    fn unknown_priority_query_reported() {
        let s = session();
        assert!(matches!(
            s.run_priority_query("Q99"),
            Err(CoreError::Query(_))
        ));
    }
}
