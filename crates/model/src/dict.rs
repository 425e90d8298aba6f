//! Global dictionary encoding of terms.
//!
//! Every term in a dataset is interned into a dense [`TermId`] (`u32`).
//! All relational tables downstream (VP, ExtVP, triples table, …) hold ids
//! only, which keeps them two fixed-width columns wide — the property the
//! paper relies on when it argues semi-join reductions of VP tables are
//! cheap to precompute (§5.2).

use std::hash::{Hash, Hasher};

use rustc_hash::FxHasher;

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
/// a plain vector index and a decoded clone is a reference-count bump of
/// the shared-string [`Term`]. The term → id direction holds no second
/// copy: it is a flat open-addressing index of `(tag, id + 1)` slots over
/// `terms`, where the tag is the upper half of the term's Fx hash (and
/// picks the home slot), `0` in the id half marks an empty slot, probing
/// is linear, and the table doubles before it is half full.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Term>,
    index: Vec<[u32; 2]>,
}

/// Upper 32 bits of the term's Fx hash.
fn tag(term: &Term) -> u32 {
    let mut h = FxHasher::default();
    term.hash(&mut h);
    (h.finish() >> 32) as u32
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Builds a dictionary whose ids are the positions of `terms`, sizing
    /// the index once. `Err(i)` means `terms[i]` repeats an earlier term.
    pub fn from_terms(terms: Vec<Term>) -> Result<Dictionary, usize> {
        assert!(u32::try_from(terms.len()).is_ok(), "dictionary overflow");
        let mut dict = Dictionary {
            index: vec![[0; 2]; slots_for(terms.len())],
            terms,
        };
        for i in 0..dict.terms.len() {
            let t = tag(&dict.terms[i]);
            match dict.probe(&dict.terms[i], t) {
                Ok(_) => return Err(i),
                Err(slot) => dict.index[slot] = [t, i as u32 + 1],
            }
        }
        Ok(dict)
    }

    /// Interns a term, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, term: &Term) -> TermId {
        let t = tag(term);
        let slot = match self.probe(term, t) {
            Ok(id) => return id,
            Err(_) if (self.terms.len() + 1) * 2 > self.index.len() => {
                self.grow();
                self.probe(term, t).expect_err("term is absent")
            }
            Err(slot) => slot,
        };
        // Slots store `id + 1`, so the last id must leave room for that.
        let next = u32::try_from(self.terms.len() + 1).expect("dictionary overflow");
        self.terms.push(term.clone());
        self.index[slot] = [t, next];
        TermId(next - 1)
    }

    /// Looks up the id of a term without interning it.
    pub fn id(&self, term: &Term) -> Option<TermId> {
        self.probe(term, tag(term)).ok()
    }

    /// Finds `term` (whose tag is `t`): `Ok(id)` if present, else
    /// `Err(slot)` with the empty slot where it would go. An empty index
    /// answers `Err(0)`, which callers never write to: they grow first.
    fn probe(&self, term: &Term, t: u32) -> Result<TermId, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut slot = t as usize & mask;
        loop {
            match self.index[slot] {
                [_, 0] => return Err(slot),
                [st, id] if st == t && self.terms[id as usize - 1] == *term => {
                    return Ok(TermId(id - 1));
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the index and re-places every slot by its stored tag (no
    /// term is re-hashed).
    fn grow(&mut self) {
        let old = std::mem::replace(
            &mut self.index,
            vec![[0; 2]; slots_for(self.terms.len() + 1)],
        );
        let mask = self.index.len() - 1;
        for entry in old.into_iter().filter(|e| e[1] != 0) {
            let mut slot = entry[0] as usize & mask;
            while self.index[slot][1] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = entry;
        }
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

/// Index size for `n` terms: a power of two at least twice `n` (so the
/// table is at most half full), and at least 16.
fn slots_for(n: usize) -> usize {
    (n * 2).next_power_of_two().max(16)
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
        // The term → id side holds no copy: the dictionary's own reference
        // is the only one left once the callers' terms are dropped.
        for (_, term) in d.iter() {
            match term {
                Term::Iri(a) | Term::Literal { lexical: a, .. } => {
                    assert_eq!(Arc::strong_count(a), 1, "{term}")
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn index_survives_growth() {
        let mut d = Dictionary::new();
        for i in 0..5000 {
            assert_eq!(d.intern(&Term::integer(i)).index(), i as usize);
        }
        for i in 0..5000 {
            assert_eq!(d.id(&Term::integer(i)), Some(TermId(i as u32)));
            assert_eq!(d.intern(&Term::integer(i)), TermId(i as u32));
        }
        assert_eq!(d.id(&Term::integer(5000)), None);
        assert_eq!(d.len(), 5000);
    }

    #[test]
    fn from_terms_numbers_by_position_and_rejects_repeats() {
        let terms: Vec<Term> = (0..100).map(Term::integer).collect();
        let mut d = Dictionary::from_terms(terms.clone()).unwrap();
        for (i, term) in terms.iter().enumerate() {
            assert_eq!(d.id(term), Some(TermId(i as u32)));
        }
        assert_eq!(d.intern(&Term::iri("new")), TermId(100));
        assert!(Dictionary::from_terms(Vec::new()).unwrap().is_empty());

        let mut repeated = terms;
        repeated[1] = repeated[0].clone();
        assert_eq!(Dictionary::from_terms(repeated).unwrap_err(), 1);
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
