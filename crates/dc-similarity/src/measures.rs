//! Pairwise similarity measures over [`Record`]s.
//!
//! Table 1 of the paper associates each dataset with a similarity (or
//! distance) measure: Jaccard for Cora, cosine trigram similarity for
//! MusicBrainz, Euclidean distance for Amazon Access and 3D Road Network, and
//! Levenshtein + Jaccard for the Febrl synthetic dataset.  Each of those is
//! implemented here behind the [`SimilarityMeasure`] trait; all return values
//! lie in `[0, 1]`, with `1` meaning identical.

use crate::profile::{ProfiledRecord, TextProfile};
use crate::text;
use dc_types::Record;

/// A symmetric pairwise similarity in `[0, 1]`.
///
/// [`SimilarityMeasure::similarity`] is the plain entry point.  Graphs call
/// the thresholded [`SimilarityMeasure::check_edge`] instead, over records
/// paired with their stored [`TextProfile`]s; it may skip the exact
/// computation when a cheap [`SimilarityMeasure::upper_bound`] already falls
/// below the threshold, and otherwise returns the exact value, bit-identical
/// to `similarity`.
pub trait SimilarityMeasure: Send + Sync + CloneMeasure {
    /// Similarity between two records; must be symmetric and in `[0, 1]`.
    fn similarity(&self, a: &Record, b: &Record) -> f64;

    /// Human-readable name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Whether the measure reads record text.  Graphs keep a
    /// [`TextProfile`] per record exactly for the measures that do.
    fn reads_text(&self) -> bool {
        false
    }

    /// The similarity kernel over profiled records; equal to `similarity`
    /// on the same records, bit for bit.  Textual measures read the
    /// profiles; the default ignores them.
    fn profiled_similarity(&self, a: ProfiledRecord<'_>, b: ProfiledRecord<'_>) -> f64 {
        self.similarity(a.record, b.record)
    }

    /// A cheap upper bound on the similarity, or `None` when the measure has
    /// none (the trivial bound 1).  A bound must never be below the exact
    /// `f64` value.
    fn upper_bound(&self, _a: ProfiledRecord<'_>, _b: ProfiledRecord<'_>) -> Option<f64> {
        None
    }

    /// Evaluate a pair against an edge threshold: [`EdgeCheck::Screened`]
    /// when the upper bound proves the pair cannot become an edge, the exact
    /// similarity otherwise.
    fn check_edge(
        &self,
        a: ProfiledRecord<'_>,
        b: ProfiledRecord<'_>,
        threshold: f64,
    ) -> EdgeCheck {
        match self.upper_bound(a, b) {
            Some(bound) if !is_edge(bound, threshold) => EdgeCheck::Screened,
            _ => EdgeCheck::Exact(self.profiled_similarity(a, b)),
        }
    }

    /// The edge weight of a pair: its exact similarity when that reaches
    /// `threshold` and is positive, `None` otherwise.
    fn edge_similarity(
        &self,
        a: ProfiledRecord<'_>,
        b: ProfiledRecord<'_>,
        threshold: f64,
    ) -> Option<f64> {
        self.check_edge(a, b, threshold).edge(threshold)
    }
}

/// The edge rule every graph applies: a pair is stored when its similarity
/// reaches the threshold and is positive.
fn is_edge(sim: f64, threshold: f64) -> bool {
    sim >= threshold && sim > 0.0
}

/// How a thresholded pair evaluation ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeCheck {
    /// An upper bound fell below the threshold; no exact value was computed.
    Screened,
    /// The exact similarity, bit-identical to `similarity`.
    Exact(f64),
}

impl EdgeCheck {
    /// The stored edge weight, if the pair is an edge under `threshold`.
    pub fn edge(self, threshold: f64) -> Option<f64> {
        match self {
            EdgeCheck::Exact(sim) if is_edge(sim, threshold) => Some(sim),
            _ => None,
        }
    }
}

/// Exact vs screened pair evaluations of one graph update, recorded to
/// telemetry once per update (`similarity.pairs_exact`,
/// `similarity.pairs_screened`) rather than once per pair.
#[derive(Debug, Default)]
pub struct ScreenTally {
    /// Pairs whose exact similarity was computed.
    exact: u64,
    /// Pairs rejected by an upper bound.
    screened: u64,
}

impl ScreenTally {
    /// Count one evaluation and return its edge weight under `threshold`.
    pub fn edge(&mut self, check: EdgeCheck, threshold: f64) -> Option<f64> {
        match check {
            EdgeCheck::Screened => self.screened += 1,
            EdgeCheck::Exact(_) => self.exact += 1,
        }
        check.edge(threshold)
    }

    /// Add the counts to the telemetry counters.
    pub fn record(&self) {
        let reg = dc_telemetry::registry();
        reg.add("similarity.pairs_exact", self.exact);
        reg.add("similarity.pairs_screened", self.screened);
    }
}

/// `similarity` through the kernel: profile both records if the measure
/// reads text, then run `profiled_similarity`.
fn profile_both(m: &dyn SimilarityMeasure, a: &Record, b: &Record) -> f64 {
    let profiles = m
        .reads_text()
        .then(|| (TextProfile::of(a), TextProfile::of(b)));
    let (pa, pb) = profiles.as_ref().map(|(pa, pb)| (pa, pb)).unzip();
    m.profiled_similarity(ProfiledRecord::new(a, pa), ProfiledRecord::new(b, pb))
}

/// Defines an object-safe clone helper trait (`$helper::$method`) for a
/// boxed `dyn $object_trait`, blanket-implements it for every `Clone`
/// implementor, and makes `Box<dyn $object_trait>` itself `Clone`.  The
/// object trait must list `$helper` as a supertrait.
macro_rules! clone_boxed_trait {
    ($(#[$meta:meta])* $helper:ident :: $method:ident for $object_trait:ident) => {
        $(#[$meta])*
        pub trait $helper {
            /// Clone `self` into a new boxed trait object.
            fn $method(&self) -> Box<dyn $object_trait>;
        }

        impl<T: $object_trait + Clone + 'static> $helper for T {
            fn $method(&self) -> Box<dyn $object_trait> {
                Box::new(self.clone())
            }
        }

        impl Clone for Box<dyn $object_trait> {
            fn clone(&self) -> Self {
                self.$method()
            }
        }
    };
}
pub(crate) use clone_boxed_trait;

clone_boxed_trait! {
    /// Object-safe cloning for boxed measures, blanket-implemented for every
    /// `Clone` measure, so `Box<dyn SimilarityMeasure>` (and with it
    /// [`crate::GraphConfig`] / [`crate::SimilarityGraph`]) is `Clone`.
    CloneMeasure::clone_measure for SimilarityMeasure
}

/// Jaccard similarity over the records' lowercase token sets (Cora).
#[derive(Debug, Clone, Copy, Default)]
pub struct JaccardSimilarity;

impl SimilarityMeasure for JaccardSimilarity {
    fn similarity(&self, a: &Record, b: &Record) -> f64 {
        profile_both(self, a, b)
    }

    fn name(&self) -> &'static str {
        "jaccard"
    }

    fn reads_text(&self) -> bool {
        true
    }

    fn profiled_similarity(&self, a: ProfiledRecord<'_>, b: ProfiledRecord<'_>) -> f64 {
        let (ta, tb) = (a.text(), b.text());
        if ta.tokens().len() == 0 && tb.tokens().len() == 0 {
            // Two records without any text are only "identical" if neither has
            // a numeric payload either; otherwise they carry no evidence.
            return 0.0;
        }
        text::jaccard(ta.tokens(), tb.tokens())
    }
}

/// Cosine similarity over character trigram bags (MusicBrainz).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrigramCosine;

impl SimilarityMeasure for TrigramCosine {
    fn similarity(&self, a: &Record, b: &Record) -> f64 {
        profile_both(self, a, b)
    }

    fn name(&self) -> &'static str {
        "trigram-cosine"
    }

    fn reads_text(&self) -> bool {
        true
    }

    fn profiled_similarity(&self, a: ProfiledRecord<'_>, b: ProfiledRecord<'_>) -> f64 {
        let (fa, fb) = (a.text(), b.text());
        if fa.text().is_empty() && fb.text().is_empty() {
            return 0.0;
        }
        text::cosine_of_bags(&text::trigrams(fa.text()), &text::trigrams(fb.text()))
    }
}

/// Normalized Levenshtein similarity over the concatenated text (Febrl).
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizedLevenshtein;

impl SimilarityMeasure for NormalizedLevenshtein {
    fn similarity(&self, a: &Record, b: &Record) -> f64 {
        profile_both(self, a, b)
    }

    fn name(&self) -> &'static str {
        "normalized-levenshtein"
    }

    fn reads_text(&self) -> bool {
        true
    }

    fn profiled_similarity(&self, a: ProfiledRecord<'_>, b: ProfiledRecord<'_>) -> f64 {
        let (fa, fb) = (a.text(), b.text());
        if fa.text().is_empty() && fb.text().is_empty() {
            return 0.0;
        }
        text::normalized_levenshtein_similarity(fa.text(), fb.text())
    }

    /// `1 − |la − lb| / max(la, lb)`: the distance is at least the length
    /// difference, and every step of the exact formula is monotone.
    fn upper_bound(&self, a: ProfiledRecord<'_>, b: ProfiledRecord<'_>) -> Option<f64> {
        let (la, lb) = (a.text().char_count(), b.text().char_count());
        let max_len = la.max(lb);
        if max_len == 0 {
            return Some(0.0);
        }
        Some(1.0 - la.abs_diff(lb) as f64 / max_len as f64)
    }
}

/// Similarity derived from Euclidean distance between the records' numeric
/// feature vectors (Amazon Access, 3D Road Network):
/// `sim(a, b) = exp(−‖a − b‖ / scale)`.
///
/// The `scale` parameter controls how fast similarity decays with distance;
/// it should be chosen on the order of the typical intra-cluster distance of
/// the dataset (the generators in `dc-datagen` report a suitable value).
#[derive(Debug, Clone, Copy)]
pub struct EuclideanSimilarity {
    /// Distance at which similarity has decayed to `1/e`.
    pub scale: f64,
}

impl EuclideanSimilarity {
    /// Create a Euclidean similarity with the given decay scale.
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        EuclideanSimilarity { scale }
    }

    /// Euclidean distance between two vectors, treating missing trailing
    /// dimensions as zero.
    pub fn distance(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().max(b.len());
        let mut sum = 0.0;
        for i in 0..n {
            let x = a.get(i).copied().unwrap_or(0.0);
            let y = b.get(i).copied().unwrap_or(0.0);
            let d = x - y;
            sum += d * d;
        }
        sum.sqrt()
    }
}

impl Default for EuclideanSimilarity {
    fn default() -> Self {
        EuclideanSimilarity { scale: 1.0 }
    }
}

impl SimilarityMeasure for EuclideanSimilarity {
    fn similarity(&self, a: &Record, b: &Record) -> f64 {
        if a.vector().is_empty() && b.vector().is_empty() {
            return 0.0;
        }
        (-Self::distance(a.vector(), b.vector()) / self.scale).exp()
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }
}

/// Weighted combination of several measures (the synthetic Febrl dataset uses
/// "Levenshtein and Jaccard" in Table 1).
///
/// Weights are normalized internally, so `CompositeMeasure::new(vec![(m1, 1.0),
/// (m2, 1.0)])` averages the two components.
#[derive(Clone)]
pub struct CompositeMeasure {
    components: Vec<(Box<dyn SimilarityMeasure>, f64)>,
    total: f64,
    /// Every weight is `≥ 0`, so component bounds bound the combination.
    screenable: bool,
}

impl CompositeMeasure {
    /// Create a composite from `(measure, weight)` pairs.  Panics if no
    /// component is given or all weights are zero.
    pub fn new(components: Vec<(Box<dyn SimilarityMeasure>, f64)>) -> Self {
        assert!(
            !components.is_empty(),
            "composite needs at least one component"
        );
        let total: f64 = components.iter().map(|(_, w)| *w).sum();
        assert!(
            total > 0.0,
            "composite weights must sum to a positive value"
        );
        let screenable = components.iter().all(|(_, w)| *w >= 0.0);
        CompositeMeasure {
            components,
            total,
            screenable,
        }
    }

    /// The standard Febrl-style combination: 50% normalized Levenshtein, 50%
    /// token Jaccard.
    pub fn febrl_default() -> Self {
        CompositeMeasure::new(vec![
            (Box::new(NormalizedLevenshtein), 0.5),
            (Box::new(JaccardSimilarity), 0.5),
        ])
    }

    /// `Σ wᵢ·valueᵢ / total`, summed in declared order.
    fn combine(&self, values: impl Iterator<Item = f64>) -> f64 {
        self.components
            .iter()
            .zip(values)
            .map(|((_, w), v)| w * v)
            .sum::<f64>()
            / self.total
    }
}

impl SimilarityMeasure for CompositeMeasure {
    fn similarity(&self, a: &Record, b: &Record) -> f64 {
        profile_both(self, a, b)
    }

    fn name(&self) -> &'static str {
        "composite"
    }

    fn reads_text(&self) -> bool {
        self.components.iter().any(|(m, _)| m.reads_text())
    }

    fn profiled_similarity(&self, a: ProfiledRecord<'_>, b: ProfiledRecord<'_>) -> f64 {
        self.combine(
            self.components
                .iter()
                .map(|(m, _)| m.profiled_similarity(a, b)),
        )
    }

    /// Computes the components without a cheap bound first, then the
    /// bounded ones, and stops as soon as the combination with each
    /// not-yet-computed component at its bound falls below the threshold.
    /// With non-negative weights every step of [`CompositeMeasure::combine`]
    /// is monotone in each value (IEEE addition, multiplication by `w ≥ 0`,
    /// division by `total > 0`), so that combination bounds the exact one,
    /// and a pair that is not screened gets the exact value bit for bit.
    fn check_edge(
        &self,
        a: ProfiledRecord<'_>,
        b: ProfiledRecord<'_>,
        threshold: f64,
    ) -> EdgeCheck {
        if !self.screenable {
            return EdgeCheck::Exact(self.profiled_similarity(a, b));
        }
        // (bound, then exact value; whether the component has a cheap
        // bound).  Components without one start at the trivial bound 1.
        let mut values: Vec<(f64, bool)> = self
            .components
            .iter()
            .map(|(m, _)| {
                m.upper_bound(a, b)
                    .map_or((1.0, false), |bound| (bound, true))
            })
            .collect();
        let passes =
            |values: &[(f64, bool)]| is_edge(self.combine(values.iter().map(|v| v.0)), threshold);
        if values.iter().any(|v| v.1) && !passes(&values) {
            return EdgeCheck::Screened;
        }
        let mut pending = values.len();
        for bounded in [false, true] {
            for i in 0..values.len() {
                if values[i].1 != bounded {
                    continue;
                }
                values[i].0 = self.components[i].0.profiled_similarity(a, b);
                pending -= 1;
                if pending > 0 && !passes(&values) {
                    return EdgeCheck::Screened;
                }
            }
        }
        EdgeCheck::Exact(self.combine(values.into_iter().map(|v| v.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_types::RecordBuilder;

    fn textual(s: &str) -> Record {
        RecordBuilder::new().text("text", s).build()
    }

    fn numeric(v: Vec<f64>) -> Record {
        RecordBuilder::new().vector(v).build()
    }

    #[test]
    fn jaccard_measure_matches_token_overlap() {
        let m = JaccardSimilarity;
        let a = textual("dynamic clustering systems");
        let b = textual("dynamic clustering methods");
        let s = m.similarity(&a, &b);
        assert!((s - 0.5).abs() < 1e-12, "got {s}");
        assert_eq!(m.similarity(&a, &a), 1.0);
        assert_eq!(m.similarity(&textual(""), &textual("")), 0.0);
        assert_eq!(m.name(), "jaccard");
    }

    #[test]
    fn trigram_cosine_rewards_shared_substrings() {
        let m = TrigramCosine;
        let a = textual("the beatles abbey road");
        let b = textual("the beatles abbey roas");
        let c = textual("completely different band");
        assert!(m.similarity(&a, &b) > 0.8);
        assert!(m.similarity(&a, &c) < m.similarity(&a, &b));
        assert!((m.similarity(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_levenshtein_measure() {
        let m = NormalizedLevenshtein;
        let a = textual("jonathan smith");
        let b = textual("jonathon smith");
        assert!(m.similarity(&a, &b) > 0.9);
        assert_eq!(m.similarity(&a, &a), 1.0);
    }

    #[test]
    fn euclidean_similarity_decays_with_distance() {
        let m = EuclideanSimilarity::new(1.0);
        let a = numeric(vec![0.0, 0.0]);
        let b = numeric(vec![0.0, 0.0]);
        let c = numeric(vec![3.0, 4.0]);
        assert!((m.similarity(&a, &b) - 1.0).abs() < 1e-12);
        assert!((m.similarity(&a, &c) - (-5.0f64).exp()).abs() < 1e-12);
        // Larger scale ⇒ slower decay ⇒ higher similarity.
        let wide = EuclideanSimilarity::new(10.0);
        assert!(wide.similarity(&a, &c) > m.similarity(&a, &c));
    }

    #[test]
    fn euclidean_distance_handles_length_mismatch() {
        assert!((EuclideanSimilarity::distance(&[1.0, 2.0], &[1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(EuclideanSimilarity::distance(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn euclidean_rejects_non_positive_scale() {
        EuclideanSimilarity::new(0.0);
    }

    #[test]
    fn composite_averages_components() {
        let m = CompositeMeasure::febrl_default();
        let a = textual("maria garcia");
        let b = textual("maria garcia");
        assert!((m.similarity(&a, &b) - 1.0).abs() < 1e-12);
        let lev = NormalizedLevenshtein.similarity(&a, &textual("mario garcia"));
        let jac = JaccardSimilarity.similarity(&a, &textual("mario garcia"));
        let combo = m.similarity(&a, &textual("mario garcia"));
        assert!((combo - 0.5 * (lev + jac)).abs() < 1e-12);
        assert_eq!(m.name(), "composite");
    }

    #[test]
    #[should_panic]
    fn composite_rejects_empty_component_list() {
        CompositeMeasure::new(vec![]);
    }

    #[test]
    fn all_measures_are_symmetric_on_samples() {
        let measures: Vec<Box<dyn SimilarityMeasure>> = vec![
            Box::new(JaccardSimilarity),
            Box::new(TrigramCosine),
            Box::new(NormalizedLevenshtein),
            Box::new(EuclideanSimilarity::new(2.0)),
        ];
        let records = vec![
            textual("alpha beta gamma"),
            textual("alpha delta"),
            numeric(vec![1.0, 2.0, 3.0]),
            numeric(vec![1.5, 2.5, 2.0]),
        ];
        for m in &measures {
            for a in &records {
                for b in &records {
                    let s1 = m.similarity(a, b);
                    let s2 = m.similarity(b, a);
                    assert!((s1 - s2).abs() < 1e-12, "{} not symmetric", m.name());
                    assert!((0.0..=1.0 + 1e-12).contains(&s1));
                }
            }
        }
    }
}
