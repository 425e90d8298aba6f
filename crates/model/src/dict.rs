//! Global dictionary encoding of terms.
//!
//! Every term in a dataset is interned into a dense [`TermId`] (`u32`).
//! All relational tables downstream (VP, ExtVP, triples table, …) hold ids
//! only, which keeps them two fixed-width columns wide — the property the
//! paper relies on when it argues semi-join reductions of VP tables are
//! cheap to precompute (§5.2).

use rustc_hash::FxHashMap;

use crate::term::Term;

/// A dense dictionary id for a term.
///
/// `u32` bounds a single dataset at ~4.3 billion distinct terms, far above
/// the laptop-scale datasets this reproduction targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional term ↔ id dictionary.
///
/// Ids are handed out densely in insertion order, so `terms[id]` decoding is
/// a plain vector index. Both directions hold the same shared-string
/// [`Term`], so each term's text is stored once and a decoded clone is a
/// reference-count bump.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Term>,
    ids: FxHashMap<Term, TermId>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Interns a term, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, term: &Term) -> TermId {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("dictionary overflow"));
        self.terms.push(term.clone());
        self.ids.insert(term.clone(), id);
        id
    }

    /// Looks up the id of a term without interning it.
    pub fn id(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Decodes an id back to its term.
    ///
    /// # Panics
    /// Panics if the id was not produced by this dictionary.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Decodes an id if it is valid for this dictionary.
    pub fn get(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id.index())
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("a"));
        let b = d.intern(&Term::iri("b"));
        let a2 = d.intern(&Term::iri("a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_roundtrip() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://x/1"),
            Term::literal("plain"),
            Term::lang_literal("hi", "en"),
            Term::integer(7),
            Term::blank("n0"),
        ];
        let ids: Vec<_> = terms.iter().map(|t| d.intern(t)).collect();
        for (id, term) in ids.iter().zip(&terms) {
            assert_eq!(d.term(*id), term);
            assert_eq!(d.id(term), Some(*id));
        }
    }

    #[test]
    fn ids_are_dense() {
        let mut d = Dictionary::new();
        for i in 0..100 {
            let id = d.intern(&Term::integer(i));
            assert_eq!(id.index(), i as usize);
        }
    }

    #[test]
    fn unknown_lookups() {
        let d = Dictionary::new();
        assert_eq!(d.id(&Term::iri("missing")), None);
        assert_eq!(d.get(TermId(0)), None);
        assert!(d.is_empty());
    }

    #[test]
    fn decoded_terms_share_one_allocation() {
        use std::sync::Arc;
        let mut d = Dictionary::new();
        let iri = d.intern(&Term::iri("http://x/1"));
        let lit = d.intern(&Term::lang_literal("chat", "fr"));
        // Decoding clones a term; the clone must point at the same text.
        match (d.term(iri), &d.term(iri).clone()) {
            (Term::Iri(a), Term::Iri(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("{other:?}"),
        }
        match (d.term(lit), &d.term(lit).clone()) {
            (
                Term::Literal {
                    lexical: a,
                    lang: Some(la),
                    ..
                },
                Term::Literal {
                    lexical: b,
                    lang: Some(lb),
                    ..
                },
            ) => assert!(Arc::ptr_eq(a, b) && Arc::ptr_eq(la, lb)),
            other => panic!("{other:?}"),
        }
        // The id → term and term → id sides hold one allocation per term.
        for (key, &id) in &d.ids {
            match (key, d.term(id)) {
                (Term::Iri(a), Term::Iri(b)) => assert!(Arc::ptr_eq(a, b)),
                (Term::Literal { lexical: a, .. }, Term::Literal { lexical: b, .. }) => {
                    assert!(Arc::ptr_eq(a, b))
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn iter_in_id_order() {
        let mut d = Dictionary::new();
        d.intern(&Term::iri("a"));
        d.intern(&Term::iri("b"));
        let collected: Vec<_> = d.iter().map(|(id, t)| (id.0, t.clone())).collect();
        assert_eq!(collected, vec![(0, Term::iri("a")), (1, Term::iri("b"))]);
    }
}
