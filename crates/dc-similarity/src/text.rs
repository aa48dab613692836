//! Low-level text utilities: tokenization, character n-grams, and edit
//! distance.  These back the textual similarity measures of [`crate::measures`].

use std::collections::BTreeSet;

/// Split a string into lowercase alphanumeric tokens.
///
/// Punctuation and other non-alphanumeric characters act as separators, so
/// `"MacQueen, J. (1967)"` tokenizes to `["macqueen", "j", "1967"]`.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// The set of distinct lowercase tokens of a string.
pub fn token_set(text: &str) -> BTreeSet<String> {
    tokenize(text).into_iter().collect()
}

/// The multiset of character n-grams of a string (as a sorted vector of
/// grams, with duplicates preserved so cosine similarity can use counts).
///
/// The string is lowercased and padded with `#` on both sides, the standard
/// trick that lets grams capture word boundaries.  Strings shorter than `n`
/// yield a single padded gram.
pub fn char_ngrams(text: &str, n: usize) -> Vec<String> {
    assert!(n >= 1, "n-gram size must be at least 1");
    let padded: Vec<char> = std::iter::repeat_n('#', n - 1)
        .chain(text.to_lowercase().chars())
        .chain(std::iter::repeat_n('#', n - 1))
        .collect();
    if padded.len() < n {
        return vec![padded.iter().collect()];
    }
    padded
        .windows(n)
        .map(|w| w.iter().collect::<String>())
        .collect()
}

/// Character trigrams (`n = 3`), the unit used by the MusicBrainz-style
/// cosine trigram similarity of the paper.
pub fn trigrams(text: &str) -> Vec<String> {
    char_ngrams(text, 3)
}

/// Levenshtein edit distance between two strings (unit costs).
///
/// Runs in `O(|a| · |b|)` time and `O(min(|a|, |b|))` space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        return edit_distance(a.as_bytes(), b.as_bytes());
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    edit_distance(&a, &b)
}

/// Levenshtein edit distance between two symbol sequences (unit costs).
///
/// The common prefix and suffix are stripped first (they never change the
/// distance); the rest runs the single-row dynamic programme with the
/// shorter sequence in the inner dimension.
fn edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    // row[j] = distance between the processed prefix of `long` and short[..j].
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, lc) in long.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let above = row[j + 1];
            let cost = usize::from(lc != sc);
            row[j + 1] = (above + 1).min(row[j] + 1).min(diag + cost);
            diag = above;
        }
    }
    row[short.len()]
}

/// Normalized Levenshtein similarity in `[0, 1]`:
/// `1 − d(a, b) / max(|a|, |b|)`, with two empty strings defined as similarity 1.
///
/// This is the simple length-normalized variant; the paper cites the
/// Yujian–Bo normalized metric, which orders pairs identically for the
/// record-linkage workloads used here.
pub fn normalized_levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaccard similarity of two sets, each given as an ascending,
/// duplicate-free sequence (a `&BTreeSet`, or a profile's tokens).
pub fn jaccard<T: Ord>(
    a: impl IntoIterator<Item = T, IntoIter = impl ExactSizeIterator<Item = T>>,
    b: impl IntoIterator<Item = T, IntoIter = impl ExactSizeIterator<Item = T>>,
) -> f64 {
    let (mut a, mut b) = (a.into_iter(), b.into_iter());
    let (na, nb) = (a.len(), b.len());
    if na == 0 && nb == 0 {
        return 1.0;
    }
    if na == 0 || nb == 0 {
        return 0.0;
    }
    // Merge-intersect the two ascending sequences.
    let (mut x, mut y) = (a.next(), b.next());
    let mut inter = 0;
    while let (Some(u), Some(v)) = (&x, &y) {
        match u.cmp(v) {
            std::cmp::Ordering::Less => x = a.next(),
            std::cmp::Ordering::Greater => y = b.next(),
            std::cmp::Ordering::Equal => {
                inter += 1;
                x = a.next();
                y = b.next();
            }
        }
    }
    let union = na + nb - inter;
    inter as f64 / union as f64
}

/// Cosine similarity between two bags (multisets) of items given as sorted
/// gram vectors.
pub fn cosine_of_bags(a: &[String], b: &[String]) -> f64 {
    use std::collections::BTreeMap;
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let mut ca: BTreeMap<&str, f64> = BTreeMap::new();
    for g in a {
        *ca.entry(g.as_str()).or_insert(0.0) += 1.0;
    }
    let mut cb: BTreeMap<&str, f64> = BTreeMap::new();
    for g in b {
        *cb.entry(g.as_str()).or_insert(0.0) += 1.0;
    }
    let dot: f64 = ca
        .iter()
        .filter_map(|(g, &x)| cb.get(g).map(|&y| x * y))
        .sum();
    let na: f64 = ca.values().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = cb.values().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_on_non_alphanumerics_and_lowercases() {
        assert_eq!(
            tokenize("MacQueen, J. (1967) K-Means!"),
            vec!["macqueen", "j", "1967", "k", "means"]
        );
        assert!(tokenize("  ,;!  ").is_empty());
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn token_set_deduplicates() {
        let s = token_set("a b a B");
        assert_eq!(s.len(), 2);
        assert!(s.contains("a") && s.contains("b"));
    }

    #[test]
    fn trigrams_include_boundary_padding() {
        let g = trigrams("ab");
        // "##a", "#ab", "ab#", "b##"
        assert_eq!(g.len(), 4);
        assert_eq!(g[0], "##a");
        assert_eq!(g[3], "b##");
    }

    #[test]
    fn ngrams_handle_short_strings() {
        // An empty string still yields boundary-only grams.
        assert_eq!(
            char_ngrams("", 3),
            vec!["###".to_string(), "###".to_string()]
        );
        assert_eq!(char_ngrams("a", 1), vec!["a".to_string()]);
        assert_eq!(char_ngrams("a", 3), vec!["##a", "#a#", "a##"]);
    }

    #[test]
    #[should_panic]
    fn ngrams_reject_zero_n() {
        char_ngrams("abc", 0);
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("straße", "strasse"), 2);
        assert_eq!(edit_distance(&[1, 2, 3], &[1, 3]), 1);
    }

    #[test]
    fn normalized_levenshtein_bounds() {
        assert_eq!(normalized_levenshtein_similarity("", ""), 1.0);
        assert_eq!(normalized_levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(normalized_levenshtein_similarity("abc", "xyz"), 0.0);
        let s = normalized_levenshtein_similarity("kitten", "sitting");
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn jaccard_known_values() {
        let a: BTreeSet<_> = ["a", "b", "c"].into_iter().collect();
        let b: BTreeSet<_> = ["b", "c", "d"].into_iter().collect();
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        let empty: BTreeSet<&str> = BTreeSet::new();
        assert_eq!(jaccard(&a, &empty), 0.0);
        assert_eq!(jaccard(&empty, &empty), 1.0);
        assert_eq!(jaccard(&a, &a), 1.0);
    }

    #[test]
    fn cosine_of_bags_known_values() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["x".to_string(), "y".to_string()];
        assert!((cosine_of_bags(&a, &b) - 1.0).abs() < 1e-12);
        let c = vec!["z".to_string()];
        assert_eq!(cosine_of_bags(&a, &c), 0.0);
        assert_eq!(cosine_of_bags(&[], &[]), 1.0);
        assert_eq!(cosine_of_bags(&a, &[]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn levenshtein_is_symmetric_and_bounded(a in ".{0,24}", b in ".{0,24}") {
            let d1 = levenshtein(&a, &b);
            let d2 = levenshtein(&b, &a);
            prop_assert_eq!(d1, d2);
            prop_assert!(d1 <= a.chars().count().max(b.chars().count()));
        }

        #[test]
        fn edit_distance_matches_the_full_matrix(a in "[a-c]{0,12}", b in "[a-c]{0,12}") {
            let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            let mut d = vec![vec![0usize; b.len() + 1]; a.len() + 1];
            for (i, row) in d.iter_mut().enumerate() {
                row[0] = i;
            }
            for (j, cell) in d[0].iter_mut().enumerate() {
                *cell = j;
            }
            for i in 1..=a.len() {
                for j in 1..=b.len() {
                    let cost = usize::from(a[i - 1] != b[j - 1]);
                    d[i][j] = (d[i - 1][j] + 1).min(d[i][j - 1] + 1).min(d[i - 1][j - 1] + cost);
                }
            }
            prop_assert_eq!(edit_distance(&a, &b), d[a.len()][b.len()]);
        }

        #[test]
        fn levenshtein_identity(a in ".{0,24}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        #[test]
        fn levenshtein_triangle_inequality(a in "[a-c]{0,10}", b in "[a-c]{0,10}", c in "[a-c]{0,10}") {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn normalized_similarity_in_unit_interval(a in ".{0,24}", b in ".{0,24}") {
            let s = normalized_levenshtein_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn jaccard_in_unit_interval(a in proptest::collection::btree_set("[a-e]{1,3}", 0..8),
                                    b in proptest::collection::btree_set("[a-e]{1,3}", 0..8)) {
            let s = jaccard(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((jaccard(&b, &a) - s).abs() < 1e-12);
        }

        #[test]
        fn cosine_in_unit_interval(a in "[a-d]{0,16}", b in "[a-d]{0,16}") {
            let s = cosine_of_bags(&trigrams(&a), &trigrams(&b));
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&s));
        }
    }
}
