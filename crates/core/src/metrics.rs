//! Integration-effort accounting.
//!
//! The paper's quantitative evaluation is about *integrator effort*: how many
//! transformations had to be manually defined to support a set of priority queries,
//! under the intersection-schema methodology versus the classical up-front one. This
//! module holds the records produced by the workflow ([`IterationEffort`],
//! [`EffortReport`]), the pay-as-you-go curve points ([`PayAsYouGoPoint`]) and the
//! head-to-head comparison ([`MethodologyComparison`]).

/// Effort spent in one iteration of the integration workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationEffort {
    /// Iteration number (0 = the initial federation, which costs nothing).
    pub iteration: usize,
    /// Human-readable label (intersection-schema name, or `"federation"`).
    pub label: String,
    /// Manually-defined transformations in this iteration.
    pub manual_transformations: usize,
    /// Tool-generated transformations in this iteration.
    pub auto_transformations: usize,
    /// Cumulative manually-defined transformations up to and including this iteration.
    pub cumulative_manual: usize,
    /// Size (number of objects) of the global schema after this iteration.
    pub global_schema_size: usize,
}

/// The complete effort history of an integration session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffortReport {
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationEffort>,
}

impl EffortReport {
    /// Total manually-defined transformations across all iterations.
    pub fn total_manual(&self) -> usize {
        self.iterations
            .iter()
            .map(|i| i.manual_transformations)
            .sum()
    }

    /// Total tool-generated transformations across all iterations.
    pub fn total_auto(&self) -> usize {
        self.iterations.iter().map(|i| i.auto_transformations).sum()
    }

    /// Render the report as a fixed-width table.
    pub fn render(&self) -> String {
        let mut out =
            String::from("iter  label                       manual  auto  cumulative  |G|\n");
        for i in &self.iterations {
            out.push_str(&format!(
                "{:<5} {:<27} {:<7} {:<5} {:<11} {}\n",
                i.iteration,
                i.label,
                i.manual_transformations,
                i.auto_transformations,
                i.cumulative_manual,
                i.global_schema_size
            ));
        }
        out.push_str(&format!(
            "total manual = {}, total tool-generated = {}\n",
            self.total_manual(),
            self.total_auto()
        ));
        out
    }
}

/// One point of the pay-as-you-go curve: after a given amount of cumulative manual
/// effort, how many of the priority queries are answerable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayAsYouGoPoint {
    /// Iteration number.
    pub iteration: usize,
    /// Label of the iteration.
    pub label: String,
    /// Cumulative manually-defined transformations.
    pub cumulative_manual: usize,
    /// Names of the priority queries answerable at this point.
    pub answerable_queries: Vec<String>,
}

impl PayAsYouGoPoint {
    /// Number of answerable queries at this point.
    pub fn answerable_count(&self) -> usize {
        self.answerable_queries.len()
    }
}

/// The head-to-head comparison of the two methodologies for the same query workload —
/// the paper's headline numbers (26 manually-defined transformations for the
/// intersection-schema integration vs 95 non-trivial transformations for the classical
/// iSpider integration).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodologyComparison {
    /// Manually-defined transformations under the intersection-schema methodology.
    pub intersection_manual: usize,
    /// Per-iteration breakdown of the intersection-schema effort.
    pub intersection_breakdown: Vec<usize>,
    /// Non-trivial transformations under the classical methodology.
    pub classical_nontrivial: usize,
    /// Per-stage breakdown of the classical effort (e.g. GS1/GS2/GS3 stages).
    pub classical_breakdown: Vec<usize>,
    /// Number of priority queries supported by both integrations.
    pub queries_supported: usize,
}

impl MethodologyComparison {
    /// Effort ratio classical / intersection (how many times more transformations the
    /// classical methodology required).
    pub fn effort_ratio(&self) -> f64 {
        if self.intersection_manual == 0 {
            f64::INFINITY
        } else {
            self.classical_nontrivial as f64 / self.intersection_manual as f64
        }
    }

    /// Render as the summary table printed by the benchmark harness.
    pub fn render(&self) -> String {
        format!(
            "methodology comparison ({} priority queries)\n\
             intersection-schema (query-driven): {} manually-defined transformations {:?}\n\
             classical (up-front):               {} non-trivial transformations {:?}\n\
             effort ratio (classical / intersection): {:.2}x\n",
            self.queries_supported,
            self.intersection_manual,
            self.intersection_breakdown,
            self.classical_nontrivial,
            self.classical_breakdown,
            self.effort_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_report_totals_and_rendering() {
        let report = EffortReport {
            iterations: vec![
                IterationEffort {
                    iteration: 0,
                    label: "federation".into(),
                    manual_transformations: 0,
                    auto_transformations: 0,
                    cumulative_manual: 0,
                    global_schema_size: 40,
                },
                IterationEffort {
                    iteration: 1,
                    label: "I1".into(),
                    manual_transformations: 6,
                    auto_transformations: 11,
                    cumulative_manual: 6,
                    global_schema_size: 38,
                },
            ],
        };
        assert_eq!(report.total_manual(), 6);
        assert_eq!(report.total_auto(), 11);
        let text = report.render();
        assert!(text.contains("federation"));
        assert!(text.contains("total manual = 6"));
    }

    #[test]
    fn comparison_ratio_matches_paper_shape() {
        let cmp = MethodologyComparison {
            intersection_manual: 26,
            intersection_breakdown: vec![6, 1, 1, 15, 0, 3, 0],
            classical_nontrivial: 95,
            classical_breakdown: vec![19 + 35, 41, 0],
            queries_supported: 7,
        };
        assert!((cmp.effort_ratio() - 95.0 / 26.0).abs() < 1e-9);
        let text = cmp.render();
        assert!(text.contains("26"));
        assert!(text.contains("95"));
        assert!(text.contains("3.65"));
    }

    #[test]
    fn zero_effort_ratio_is_infinite() {
        let cmp = MethodologyComparison {
            intersection_manual: 0,
            intersection_breakdown: vec![],
            classical_nontrivial: 10,
            classical_breakdown: vec![10],
            queries_supported: 0,
        };
        assert!(cmp.effort_ratio().is_infinite());
    }

    #[test]
    fn pay_as_you_go_point_counts() {
        let p = PayAsYouGoPoint {
            iteration: 1,
            label: "I1".into(),
            cumulative_manual: 6,
            answerable_queries: vec!["Q1".into(), "Q2".into()],
        };
        assert_eq!(p.answerable_count(), 2);
    }
}
