//! The combined schema matcher.

use crate::instance::ExtentProfile;
use crate::name::name_similarity;
use automed::wrapper::SourceRegistry;
use automed::Schema;
use iql::ast::SchemeRef;

/// Matcher configuration.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Minimum combined score for a suggestion to be reported.
    pub threshold: f64,
    /// Weight of the name-based score (the instance-based score gets `1 - weight` when
    /// instance evidence is available).
    pub name_weight: f64,
    /// Maximum number of extent tuples sampled per object for instance matching.
    pub sample_limit: usize,
    /// Only suggest correspondences between objects of the same construct kind.
    pub same_construct_only: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            threshold: 0.55,
            name_weight: 0.6,
            sample_limit: 200,
            same_construct_only: true,
        }
    }
}

/// A suggested correspondence between an object of the left schema and an object of
/// the right schema.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchSuggestion {
    /// Scheme in the left schema.
    pub left: SchemeRef,
    /// Scheme in the right schema.
    pub right: SchemeRef,
    /// Name-based similarity component.
    pub name_score: f64,
    /// Instance-based similarity component (`None` when no extents were available).
    pub instance_score: Option<f64>,
    /// The combined score used for ranking and thresholding.
    pub combined: f64,
}

/// Precision/recall of a suggestion list against a ground-truth set of pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchQuality {
    /// Fraction of suggestions that are correct.
    pub precision: f64,
    /// Fraction of ground-truth correspondences that were suggested.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

/// The schema matcher: scores all object pairs of two schemas.
#[derive(Debug, Clone, Default)]
pub struct Matcher {
    config: MatchConfig,
}

impl Matcher {
    /// A matcher with the default configuration.
    pub fn new() -> Self {
        Matcher {
            config: MatchConfig::default(),
        }
    }

    /// A matcher with a custom configuration.
    pub fn with_config(config: MatchConfig) -> Self {
        Matcher { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// Suggest correspondences using names only.
    pub fn match_names(&self, left: &Schema, right: &Schema) -> Vec<MatchSuggestion> {
        self.match_internal(left, right, None)
    }

    /// Suggest correspondences using names and instance evidence sampled from the
    /// registered sources (the source for each schema is looked up by the schema's
    /// name).
    pub fn match_with_instances(
        &self,
        left: &Schema,
        right: &Schema,
        registry: &SourceRegistry,
    ) -> Vec<MatchSuggestion> {
        self.match_internal(left, right, Some(registry))
    }

    fn match_internal(
        &self,
        left: &Schema,
        right: &Schema,
        registry: Option<&SourceRegistry>,
    ) -> Vec<MatchSuggestion> {
        let mut suggestions = Vec::new();
        for lo in left.objects() {
            for ro in right.objects() {
                if self.config.same_construct_only && lo.construct != ro.construct {
                    continue;
                }
                let name_score =
                    name_similarity(&display_name(&lo.scheme), &display_name(&ro.scheme));
                let instance_score = registry.and_then(|reg| {
                    let lbag = reg.extent(&left.name, &lo.scheme).ok()?;
                    let rbag = reg.extent(&right.name, &ro.scheme).ok()?;
                    let lp = ExtentProfile::from_bag(&lbag, self.config.sample_limit);
                    let rp = ExtentProfile::from_bag(&rbag, self.config.sample_limit);
                    Some(lp.similarity(&rp))
                });
                let combined = match instance_score {
                    Some(inst) => {
                        self.config.name_weight * name_score
                            + (1.0 - self.config.name_weight) * inst
                    }
                    None => name_score,
                };
                if combined >= self.config.threshold {
                    suggestions.push(MatchSuggestion {
                        left: lo.scheme.clone(),
                        right: ro.scheme.clone(),
                        name_score,
                        instance_score,
                        combined,
                    });
                }
            }
        }
        suggestions.sort_by(|a, b| {
            b.combined
                .partial_cmp(&a.combined)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.left.key().cmp(&b.left.key()))
                .then_with(|| a.right.key().cmp(&b.right.key()))
        });
        suggestions
    }

    /// Keep only the best suggestion for each left-hand object (a simple stable
    /// one-to-one filter).
    pub fn best_per_left(suggestions: &[MatchSuggestion]) -> Vec<MatchSuggestion> {
        let mut seen_left = std::collections::BTreeSet::new();
        let mut seen_right = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for s in suggestions {
            if seen_left.contains(&s.left.key()) || seen_right.contains(&s.right.key()) {
                continue;
            }
            seen_left.insert(s.left.key());
            seen_right.insert(s.right.key());
            out.push(s.clone());
        }
        out
    }

    /// Evaluate suggestions against a ground truth of `(left, right)` scheme pairs.
    pub fn evaluate(
        suggestions: &[MatchSuggestion],
        ground_truth: &[(SchemeRef, SchemeRef)],
    ) -> MatchQuality {
        let truth: std::collections::BTreeSet<(String, String)> = ground_truth
            .iter()
            .map(|(l, r)| (l.key(), r.key()))
            .collect();
        let proposed: std::collections::BTreeSet<(String, String)> = suggestions
            .iter()
            .map(|s| (s.left.key(), s.right.key()))
            .collect();
        let correct = proposed.intersection(&truth).count() as f64;
        let precision = if proposed.is_empty() {
            0.0
        } else {
            correct / proposed.len() as f64
        };
        let recall = if truth.is_empty() {
            0.0
        } else {
            correct / truth.len() as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        MatchQuality {
            precision,
            recall,
            f1,
        }
    }
}

/// Human-facing name of a scheme used for name matching: the last part for columns
/// (the column name), the only part for tables, with the parent appended for context.
fn display_name(scheme: &SchemeRef) -> String {
    scheme.parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use automed::SchemaObject;

    fn pedro() -> Schema {
        Schema::from_objects(
            "pedro",
            [
                SchemaObject::table("protein"),
                SchemaObject::column("protein", "accession_num"),
                SchemaObject::column("protein", "organism"),
                SchemaObject::table("peptidehit"),
                SchemaObject::column("peptidehit", "sequence"),
                SchemaObject::column("peptidehit", "score"),
            ],
        )
        .unwrap()
    }

    fn pepseeker() -> Schema {
        Schema::from_objects(
            "pepseeker",
            [
                SchemaObject::table("proteinhit"),
                SchemaObject::column("proteinhit", "proteinid"),
                SchemaObject::table("peptidehit"),
                SchemaObject::column("peptidehit", "pepseq"),
                SchemaObject::column("peptidehit", "score"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn name_matching_finds_expected_correspondences() {
        let m = Matcher::new();
        let suggestions = m.match_names(&pedro(), &pepseeker());
        assert!(!suggestions.is_empty());
        let has = |l: &SchemeRef, r: &SchemeRef| {
            suggestions.iter().any(|s| &s.left == l && &s.right == r)
        };
        assert!(has(
            &SchemeRef::table("peptidehit"),
            &SchemeRef::table("peptidehit")
        ));
        assert!(has(
            &SchemeRef::column("peptidehit", "score"),
            &SchemeRef::column("peptidehit", "score")
        ));
        // The synonym table bridges sequence ↔ pepseq.
        assert!(has(
            &SchemeRef::column("peptidehit", "sequence"),
            &SchemeRef::column("peptidehit", "pepseq")
        ));
    }

    #[test]
    fn suggestions_are_ranked_by_score() {
        let m = Matcher::new();
        let suggestions = m.match_names(&pedro(), &pepseeker());
        for pair in suggestions.windows(2) {
            assert!(pair[0].combined >= pair[1].combined);
        }
    }

    #[test]
    fn construct_kinds_are_not_mixed_by_default() {
        let m = Matcher::new();
        let suggestions = m.match_names(&pedro(), &pepseeker());
        assert!(suggestions
            .iter()
            .all(|s| (s.left.parts.len() == 1) == (s.right.parts.len() == 1)));
    }

    #[test]
    fn best_per_left_is_one_to_one() {
        let m = Matcher::new();
        let all = m.match_names(&pedro(), &pepseeker());
        let best = Matcher::best_per_left(&all);
        let lefts: std::collections::BTreeSet<String> = best.iter().map(|s| s.left.key()).collect();
        let rights: std::collections::BTreeSet<String> =
            best.iter().map(|s| s.right.key()).collect();
        assert_eq!(lefts.len(), best.len());
        assert_eq!(rights.len(), best.len());
    }

    #[test]
    fn evaluation_against_ground_truth() {
        let m = Matcher::new();
        let all = m.match_names(&pedro(), &pepseeker());
        let best = Matcher::best_per_left(&all);
        let truth = vec![
            (
                SchemeRef::table("peptidehit"),
                SchemeRef::table("peptidehit"),
            ),
            (
                SchemeRef::column("peptidehit", "sequence"),
                SchemeRef::column("peptidehit", "pepseq"),
            ),
            (
                SchemeRef::column("peptidehit", "score"),
                SchemeRef::column("peptidehit", "score"),
            ),
            (SchemeRef::table("protein"), SchemeRef::table("proteinhit")),
        ];
        let q = Matcher::evaluate(&best, &truth);
        assert!(q.recall >= 0.5, "recall {}", q.recall);
        assert!(q.precision > 0.0);
        assert!(q.f1 > 0.0);
    }

    #[test]
    fn threshold_controls_suggestion_volume() {
        let strict = Matcher::with_config(MatchConfig {
            threshold: 0.95,
            ..MatchConfig::default()
        });
        let lax = Matcher::with_config(MatchConfig {
            threshold: 0.3,
            ..MatchConfig::default()
        });
        let s = strict.match_names(&pedro(), &pepseeker());
        let l = lax.match_names(&pedro(), &pepseeker());
        assert!(s.len() < l.len());
    }
}
