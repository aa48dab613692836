//! Correctly-rounded floating-point summation.
//!
//! [`ExactSum`] keeps a running sum as a Shewchuk expansion: a short list of
//! non-overlapping partials whose exact real sum *is* the sum of every value
//! added so far, with no rounding error at all (Shewchuk, "Adaptive
//! Precision Floating-Point Arithmetic and Fast Robust Geometric
//! Predicates", 1997).  [`ExactSum::value`] rounds that exact sum to the
//! nearest `f64`, ties to even — the algorithm of Python's `math.fsum`.
//!
//! Because the result is the correctly-rounded value of an exact real
//! number, it does not depend on the order in which values were added.
//! That is what lets an objective maintain a sum locally — subtract the
//! terms a change replaces, add the new ones — and still agree bit for bit
//! with a from-scratch sum over the changed state.  Inputs must be finite.

/// An exact running sum of `f64` values.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    /// Non-overlapping partials in increasing magnitude; their exact sum is
    /// the exact sum of every added value.
    partials: Vec<f64>,
}

impl ExactSum {
    /// An empty sum (value 0).
    pub fn new() -> Self {
        ExactSum::default()
    }

    /// Add `x` exactly.
    pub fn add(&mut self, x: f64) {
        let mut x = x;
        let mut kept = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            // Two-sum: `hi + lo == x + y` exactly.
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        self.partials.truncate(kept);
        if x != 0.0 {
            self.partials.push(x);
        }
    }

    /// The exact sum rounded to the nearest `f64` (ties to even).
    pub fn value(&self) -> f64 {
        let p = &self.partials;
        let Some(mut n) = p.len().checked_sub(1) else {
            return 0.0;
        };
        let mut hi = p[n];
        let mut lo = 0.0;
        // Sum from the top down until the running sum becomes inexact.
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = p[n];
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        // Half-way cases: the rounding of `hi + lo` went to even, but the
        // partials below push the exact sum off the midpoint, so the tie
        // must be broken towards them.
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

impl Extend<f64> for ExactSum {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for x in values {
            self.add(x);
        }
    }
}

/// The correctly-rounded sum of `values` (0 for none): bit-identical under
/// any permutation of the input.
pub fn exact_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = ExactSum::new();
    sum.extend(values);
    sum.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input_sums_to_zero() {
        assert_eq!(exact_sum([]).to_bits(), 0.0f64.to_bits());
        assert_eq!(ExactSum::new().value().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn catastrophic_cancellation_keeps_the_small_term() {
        let values = [1e100, 1.0, -1e100, 1e-100, 1e50, -1.0, -1e50];
        assert_eq!(exact_sum(values), 1e-100);
        let naive: f64 = values.iter().sum();
        assert_ne!(naive, 1e-100, "the naive sum loses the small term");
    }

    #[test]
    fn half_way_ties_are_broken_by_the_lower_partials() {
        // 1 + 2^-53 is exactly half-way between 1 and the next double; the
        // 2^-106 below it pushes the exact sum above the midpoint.
        let values = [1.0, 2f64.powi(-53), 2f64.powi(-106)];
        assert_eq!(exact_sum(values), 1.0 + f64::EPSILON);
        // Without the push the tie goes to even.
        assert_eq!(exact_sum([1.0, 2f64.powi(-53)]), 1.0);
    }

    #[test]
    fn removing_what_was_added_restores_the_sum() {
        let mut sum = ExactSum::new();
        sum.extend([0.1, 0.2, 0.3]);
        let before = sum.value();
        sum.add(0.7);
        sum.add(-0.7);
        assert_eq!(sum.value().to_bits(), before.to_bits());
        assert_eq!(before, exact_sum([0.3, 0.2, 0.1]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The result does not depend on the order of the inputs.
        #[test]
        fn any_permutation_sums_to_the_same_bits(
            values in proptest::collection::vec(-1e6f64..1e6, 0..24),
            scales in proptest::collection::vec(-40i32..40, 24),
            keys in proptest::collection::vec(0u32..1000, 24),
        ) {
            let scaled: Vec<f64> = values
                .iter()
                .zip(&scales)
                .map(|(v, &e)| v * 2f64.powi(e))
                .collect();
            let expected = exact_sum(scaled.iter().copied());
            let mut reversed = scaled.clone();
            reversed.reverse();
            prop_assert_eq!(exact_sum(reversed).to_bits(), expected.to_bits());
            // An arbitrary permutation: order the values by random keys.
            let mut shuffled: Vec<(u32, f64)> =
                keys.iter().copied().zip(scaled.iter().copied()).collect();
            shuffled.sort_by_key(|&(key, _)| key);
            let shuffled = shuffled.into_iter().map(|(_, v)| v);
            prop_assert_eq!(exact_sum(shuffled).to_bits(), expected.to_bits());
            let mut sorted = scaled.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            prop_assert_eq!(exact_sum(sorted).to_bits(), expected.to_bits());
        }

        /// Where the naive left-to-right sum is exact — small integers and
        /// dyadic fractions with a short common denominator — both agree.
        #[test]
        fn agrees_with_the_naive_sum_where_that_is_exact(
            ints in proptest::collection::vec(-1_000_000i64..1_000_000, 0..32),
            eighths in proptest::collection::vec(-4096i64..4096, 0..32),
        ) {
            let whole: Vec<f64> = ints.iter().map(|&i| i as f64).collect();
            prop_assert_eq!(exact_sum(whole.iter().copied()), whole.iter().sum::<f64>());
            let dyadic: Vec<f64> = eighths.iter().map(|&i| i as f64 / 8.0).collect();
            prop_assert_eq!(exact_sum(dyadic.iter().copied()), dyadic.iter().sum::<f64>());
        }
    }
}
