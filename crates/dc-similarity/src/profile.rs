//! Per-record text profiles: what the textual measures read, computed once.
//!
//! Every textual measure starts from the same two derived forms of a record —
//! its lowercased text ([`Record::full_text`]) and the set of its distinct
//! tokens.  Rebuilding both for each candidate pair made them the dominant
//! cost of a similarity computation, so a [`crate::SimilarityGraph`] whose
//! measure [reads text](crate::SimilarityMeasure::reads_text) builds one
//! [`TextProfile`] per record when the record enters the graph and drops it
//! when the record leaves.  The measures' kernels read profiles through a
//! [`ProfiledRecord`]; a record without a stored profile is profiled on the
//! spot, so there is one kernel per measure and one answer.

use crate::text;
use dc_types::Record;
use std::borrow::Cow;

/// A record's lowercased text and its sorted distinct tokens, stored in one
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextProfile {
    /// The text, followed by every token back to back.
    buf: Box<str>,
    /// Byte length of the text prefix of `buf`.
    text_len: usize,
    /// Characters in the text.
    text_chars: usize,
    /// Byte offset in `buf` where each token ends, ascending.
    token_ends: Box<[usize]>,
}

impl TextProfile {
    /// Profile one record: `full_text` and its distinct tokens in `str`
    /// order (the order of `text::token_set`).
    pub fn of(record: &Record) -> Self {
        let text = record.full_text();
        let tokens = text::token_set(&text);
        let mut buf =
            String::with_capacity(text.len() + tokens.iter().map(String::len).sum::<usize>());
        buf.push_str(&text);
        let token_ends = tokens
            .iter()
            .map(|t| {
                buf.push_str(t);
                buf.len()
            })
            .collect();
        TextProfile {
            text_len: text.len(),
            text_chars: text.chars().count(),
            buf: buf.into_boxed_str(),
            token_ends,
        }
    }

    /// The record's lowercased text ([`Record::full_text`]).
    pub fn text(&self) -> &str {
        &self.buf[..self.text_len]
    }

    /// Number of characters in [`TextProfile::text`].
    pub fn char_count(&self) -> usize {
        self.text_chars
    }

    /// The distinct tokens, ascending.
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.token_ends.len()).map(move |i| {
            let start = i
                .checked_sub(1)
                .map_or(self.text_len, |j| self.token_ends[j]);
            &self.buf[start..self.token_ends[i]]
        })
    }
}

/// One side of a pair handed to a measure: the record and, when the owning
/// graph keeps one, its text profile.
#[derive(Debug, Clone, Copy)]
pub struct ProfiledRecord<'a> {
    /// The record itself.
    pub record: &'a Record,
    /// Its stored profile, if any.
    pub profile: Option<&'a TextProfile>,
}

impl<'a> ProfiledRecord<'a> {
    /// Pair a record with its stored profile (`None` when none is kept).
    pub fn new(record: &'a Record, profile: Option<&'a TextProfile>) -> Self {
        ProfiledRecord { record, profile }
    }

    /// The record's text profile: the stored one, or one built now.
    pub fn text(&self) -> Cow<'a, TextProfile> {
        match self.profile {
            Some(p) => Cow::Borrowed(p),
            None => Cow::Owned(TextProfile::of(self.record)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_types::RecordBuilder;

    #[test]
    fn profile_holds_full_text_and_sorted_distinct_tokens() {
        let r = RecordBuilder::new()
            .text("b", "Smith, John")
            .text("a", "JOHN Street")
            .build();
        let p = TextProfile::of(&r);
        assert_eq!(p.text(), r.full_text());
        assert_eq!(p.char_count(), r.full_text().chars().count());
        let tokens: Vec<&str> = p.tokens().collect();
        let expected: Vec<String> = text::token_set(&r.full_text()).into_iter().collect();
        assert_eq!(tokens, expected);
        assert_eq!(p.tokens().len(), 3);
    }

    #[test]
    fn empty_and_unicode_profiles() {
        let empty = TextProfile::of(&RecordBuilder::new().vector(vec![1.0]).build());
        assert_eq!(empty.text(), "");
        assert_eq!(empty.tokens().count(), 0);
        let r = RecordBuilder::new().text("t", "Ünïcode ßtraße").build();
        let p = TextProfile::of(&r);
        assert_eq!(p.char_count(), r.full_text().chars().count());
        assert_eq!(p.tokens().collect::<Vec<_>>(), vec!["ßtraße", "ünïcode"]);
    }

    #[test]
    fn unprofiled_side_is_profiled_on_demand() {
        let r = RecordBuilder::new().text("t", "alpha beta").build();
        let stored = TextProfile::of(&r);
        let with = ProfiledRecord::new(&r, Some(&stored));
        let without = ProfiledRecord::new(&r, None);
        assert!(matches!(with.text(), Cow::Borrowed(_)));
        assert_eq!(*without.text(), stored);
    }
}
