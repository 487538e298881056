//! End-to-end case-study drivers.
//!
//! [`run_case_study`] performs the full query-driven intersection-schema integration
//! on synthetic data (the paper's §3), evaluating each priority query as soon as it
//! becomes answerable, and [`compare_methodologies`] produces the head-to-head effort
//! comparison against the reconstructed classical integration (the paper's headline
//! 26-vs-95 result).

use crate::classical_integration::{run_classical_integration, ClassicalRun};
use crate::intersection_integration::all_iterations;
use crate::queries::priority_queries;
use crate::sources::{generate_gpmdb, generate_pedro, generate_pepseeker, CaseStudyScale};
use dataspace_core::dataspace::{Dataspace, DataspaceConfig};
use dataspace_core::error::CoreError;
use dataspace_core::metrics::{MethodologyComparison, PayAsYouGoPoint};
use dataspace_core::workflow::{IntegrationSession, IterationOutcome};

/// The answer to one priority query in the final global schema.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// Query name (`Q1`…`Q7`).
    pub name: String,
    /// Description from the paper's priority list.
    pub description: String,
    /// Whether the query was answerable at the end of the integration.
    pub answerable: bool,
    /// Number of result tuples (0 when not answerable).
    pub result_count: usize,
    /// The iteration after which the query first became answerable (0 = federation).
    pub answerable_after_iteration: Option<usize>,
}

/// The full outcome of the intersection-schema case study.
#[derive(Debug)]
pub struct CaseStudyRun {
    /// The integration session (dataspace, history, curve).
    pub session: IntegrationSession,
    /// Iteration outcomes, in order (federation first).
    pub outcomes: Vec<IterationOutcome>,
    /// The final answers to the seven priority queries.
    pub answers: Vec<QueryAnswer>,
    /// Total manually-defined transformations.
    pub total_manual_transformations: usize,
    /// Per-iteration manual transformation counts (excluding the federation step).
    pub per_iteration_manual: Vec<usize>,
}

/// Run the query-driven intersection-schema integration at the given data scale.
pub fn run_case_study(scale: &CaseStudyScale) -> Result<CaseStudyRun, CoreError> {
    // Keep covered source objects in the global schema so that federated-schema
    // queries (Q7) remain answerable throughout; this mirrors the paper's option of
    // not dropping redundant objects.
    let dataspace = Dataspace::with_config(DataspaceConfig {
        drop_redundant: false,
        ..Default::default()
    });
    let mut session = IntegrationSession::with_dataspace(dataspace);
    session.add_source(generate_pedro(scale))?;
    session.add_source(generate_gpmdb(scale))?;
    session.add_source(generate_pepseeker(scale))?;
    session.set_priority_queries(priority_queries());

    let mut outcomes = Vec::new();
    outcomes.push(session.federate()?);
    for (_query, spec) in all_iterations()? {
        outcomes.push(session.iterate(spec)?);
    }

    // Final answers: the seven priority queries are independent, so they go
    // through the batched entry point in one call (the pay-as-you-go re-run
    // shape the prepared API is built for), each executed under its default
    // parameter bindings. A per-item error simply means the query is not
    // answerable yet.
    let queries = priority_queries();
    let batch: Vec<(&str, &iql::Params)> = queries
        .iter()
        .map(|q| (q.iql.as_str(), &q.params))
        .collect();
    let results = session.dataspace().query_all_bound(&batch);
    let mut answers = Vec::new();
    for (q, result) in queries.into_iter().zip(results) {
        let (answerable, result_count) = match result {
            Ok(bag) => (true, bag.len()),
            Err(_) => (false, 0),
        };
        let answerable_after_iteration = outcomes
            .iter()
            .position(|o| o.progress.answerable_queries.contains(&q.name));
        answers.push(QueryAnswer {
            name: q.name,
            description: q.description,
            answerable,
            result_count,
            answerable_after_iteration,
        });
    }

    let per_iteration_manual: Vec<usize> = outcomes
        .iter()
        .skip(1)
        .map(|o| o.effort.manual_transformations)
        .collect();
    let total_manual_transformations = per_iteration_manual.iter().sum();

    Ok(CaseStudyRun {
        session,
        outcomes,
        answers,
        total_manual_transformations,
        per_iteration_manual,
    })
}

/// Run both methodologies and produce the paper's effort comparison.
pub fn compare_methodologies(
    scale: &CaseStudyScale,
) -> Result<(CaseStudyRun, ClassicalRun, MethodologyComparison), CoreError> {
    let intersection = run_case_study(scale)?;
    let classical = run_classical_integration()?;
    let comparison = MethodologyComparison {
        intersection_manual: intersection.total_manual_transformations,
        intersection_breakdown: intersection.per_iteration_manual.clone(),
        classical_nontrivial: classical.total_nontrivial,
        classical_breakdown: classical
            .stages
            .iter()
            .map(|s| s.nontrivial_total)
            .collect(),
        queries_supported: intersection.answers.iter().filter(|a| a.answerable).count(),
    };
    Ok((intersection, classical, comparison))
}

/// Render the Table-1-style report: one row per priority query with its answer size
/// and the iteration at which it became answerable.
pub fn render_table1(run: &CaseStudyRun) -> String {
    let mut out = String::from("query  answerable-after-iteration  result-tuples  description\n");
    for a in &run.answers {
        out.push_str(&format!(
            "{:<6} {:<28} {:<14} {}\n",
            a.name,
            a.answerable_after_iteration
                .map(|i| i.to_string())
                .unwrap_or_else(|| "never".into()),
            a.result_count,
            a.description
        ));
    }
    out
}

/// Render the pay-as-you-go curve of a case-study run.
pub fn render_curve(points: &[PayAsYouGoPoint], total_queries: usize) -> String {
    let mut out = String::from("iteration  cumulative-manual  answerable\n");
    for p in points {
        out.push_str(&format!(
            "{:<10} {:<18} {}/{}\n",
            format!("{} ({})", p.iteration, p.label),
            p.cumulative_manual,
            p.answerable_count(),
            total_queries
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical_integration::PAPER_TOTAL_NONTRIVIAL;
    use crate::intersection_integration::{PAPER_ITERATION_COUNTS, PAPER_TOTAL_MANUAL};

    #[test]
    fn case_study_reproduces_the_paper_effort_counts() {
        let run = run_case_study(&CaseStudyScale::tiny()).unwrap();
        assert_eq!(run.per_iteration_manual, PAPER_ITERATION_COUNTS);
        assert_eq!(run.total_manual_transformations, PAPER_TOTAL_MANUAL);
    }

    #[test]
    fn all_seven_queries_become_answerable() {
        let run = run_case_study(&CaseStudyScale::tiny()).unwrap();
        for a in &run.answers {
            assert!(a.answerable, "{} not answerable", a.name);
        }
        // Q7 needs only the federation (iteration 0); Q1 needs iteration 1.
        let q7 = run.answers.iter().find(|a| a.name == "Q7").unwrap();
        assert_eq!(q7.answerable_after_iteration, Some(0));
        let q1 = run.answers.iter().find(|a| a.name == "Q1").unwrap();
        assert_eq!(q1.answerable_after_iteration, Some(1));
        let q4 = run.answers.iter().find(|a| a.name == "Q4").unwrap();
        assert!(q4.answerable_after_iteration >= Some(4));
    }

    #[test]
    fn organism_and_ion_queries_return_data() {
        let run = run_case_study(&CaseStudyScale::tiny()).unwrap();
        let q3 = run.answers.iter().find(|a| a.name == "Q3").unwrap();
        assert!(q3.result_count > 0, "Q3 returned no tuples");
        let q7 = run.answers.iter().find(|a| a.name == "Q7").unwrap();
        assert!(q7.result_count > 0, "Q7 returned no tuples");
    }

    #[test]
    fn comparison_matches_the_paper_headline() {
        let (_run, classical, cmp) = compare_methodologies(&CaseStudyScale::tiny()).unwrap();
        assert_eq!(cmp.intersection_manual, PAPER_TOTAL_MANUAL);
        assert_eq!(cmp.classical_nontrivial, PAPER_TOTAL_NONTRIVIAL);
        assert!(cmp.effort_ratio() > 3.0 && cmp.effort_ratio() < 4.0);
        assert_eq!(classical.stages.len(), 3);
        assert_eq!(cmp.queries_supported, 7);
    }

    #[test]
    fn reports_render() {
        let run = run_case_study(&CaseStudyScale::tiny()).unwrap();
        let table1 = render_table1(&run);
        assert!(table1.contains("Q1"));
        assert!(table1.contains("Q7"));
        let curve = render_curve(&run.session.pay_as_you_go_curve(), 7);
        assert!(curve.contains("federation"));
        assert!(run.session.render_curve().contains("I4_hits"));
    }
}
