//! RDF terms and decoded triples.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::ModelError;

/// The `xsd:integer` datatype IRI, used by the generator and by ORDER BY
/// comparisons.
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
/// The `xsd:decimal` datatype IRI.
pub const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";

/// An RDF term: IRI, blank node, or literal.
///
/// Literals carry an optional language tag or datatype IRI (mutually
/// exclusive per the RDF 1.1 data model; a plain literal has neither).
///
/// Payloads are shared strings: cloning a term (decoding a result cell,
/// interning into a dictionary) bumps reference counts and never copies
/// the text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference such as `http://example.org/alice`.
    Iri(Arc<str>),
    /// A blank node with its local label (without the `_:` prefix).
    BlankNode(Arc<str>),
    /// A literal with optional language tag or datatype.
    Literal {
        /// The lexical form.
        lexical: Arc<str>,
        /// Language tag (e.g. `en`), exclusive with `datatype`.
        lang: Option<Arc<str>>,
        /// Datatype IRI, exclusive with `lang`.
        datatype: Option<Arc<str>>,
    },
}

impl Term {
    /// Creates an IRI term.
    pub fn iri(value: impl Into<Arc<str>>) -> Term {
        Term::Iri(value.into())
    }

    /// Creates a blank node term.
    pub fn blank(label: impl Into<Arc<str>>) -> Term {
        Term::BlankNode(label.into())
    }

    /// Creates a plain (untyped, untagged) literal.
    pub fn literal(lexical: impl Into<Arc<str>>) -> Term {
        Term::Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: None,
        }
    }

    /// Creates a typed literal.
    pub fn typed_literal(lexical: impl Into<Arc<str>>, datatype: impl Into<Arc<str>>) -> Term {
        Term::Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: Some(datatype.into()),
        }
    }

    /// Creates a language-tagged literal.
    pub fn lang_literal(lexical: impl Into<Arc<str>>, lang: impl Into<Arc<str>>) -> Term {
        Term::Literal {
            lexical: lexical.into(),
            lang: Some(lang.into()),
            datatype: None,
        }
    }

    /// Creates an `xsd:integer` literal.
    pub fn integer(value: i64) -> Term {
        Term::typed_literal(value.to_string(), XSD_INTEGER)
    }

    /// Returns true if this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// Returns true if this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// Returns true if this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    /// Returns the numeric value of this term if it is a literal whose
    /// lexical form parses as a number (used for FILTER arithmetic and
    /// ORDER BY).
    pub fn numeric_value(&self) -> Option<f64> {
        match self {
            Term::Literal { lexical, .. } => lexical.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    /// The SPARQL value-ordering used by ORDER BY: blank nodes < IRIs <
    /// literals; numeric literals compare numerically, everything else
    /// lexicographically.
    pub fn value_cmp(&self, other: &Term) -> Ordering {
        fn rank(t: &Term) -> u8 {
            match t {
                Term::BlankNode(_) => 0,
                Term::Iri(_) => 1,
                Term::Literal { .. } => 2,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => {}
            o => return o,
        }
        if let (Some(a), Some(b)) = (self.numeric_value(), other.numeric_value()) {
            if let Some(o) = a.partial_cmp(&b) {
                if o != Ordering::Equal {
                    return o;
                }
            }
        }
        self.cmp(other)
    }

    /// Parses one term in N-Triples syntax (`<iri>`, `_:label`, or a quoted
    /// literal with optional `@lang` / `^^<datatype>` suffix).
    pub fn parse_ntriples(s: &str) -> Result<Term, ModelError> {
        let s = s.trim();
        if let Some(rest) = s.strip_prefix('<') {
            let iri = rest
                .strip_suffix('>')
                .ok_or_else(|| ModelError::InvalidTerm(s.to_string()))?;
            return Ok(Term::iri(iri));
        }
        if let Some(label) = s.strip_prefix("_:") {
            if label.is_empty() {
                return Err(ModelError::InvalidTerm(s.to_string()));
            }
            return Ok(Term::blank(label));
        }
        if let Some(rest) = s.strip_prefix('"') {
            // Find the closing quote, honouring backslash escapes.
            let bytes = rest.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => break,
                    _ => i += 1,
                }
            }
            if i >= bytes.len() {
                return Err(ModelError::InvalidTerm(s.to_string()));
            }
            let lexical = unescape(&rest[..i]);
            let suffix = rest[i + 1..].trim();
            if suffix.is_empty() {
                return Ok(Term::literal(lexical));
            }
            if let Some(lang) = suffix.strip_prefix('@') {
                return Ok(Term::lang_literal(lexical, lang));
            }
            if let Some(dt) = suffix.strip_prefix("^^<").and_then(|d| d.strip_suffix('>')) {
                return Ok(Term::typed_literal(lexical, dt));
            }
            return Err(ModelError::InvalidTerm(s.to_string()));
        }
        Err(ModelError::InvalidTerm(s.to_string()))
    }
}

fn escape(s: &str) -> Cow<'_, str> {
    if !s.contains(['"', '\\', '\n', '\r', '\t']) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    Cow::Owned(out)
}

fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('\\') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    Cow::Owned(out)
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write!(f, "<{iri}>"),
            Term::BlankNode(label) => write!(f, "_:{label}"),
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => {
                write!(f, "\"{}\"", escape(lexical))?;
                if let Some(lang) = lang {
                    write!(f, "@{lang}")?;
                } else if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                }
                Ok(())
            }
        }
    }
}

/// A decoded RDF triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Triple {
    /// Subject term (IRI or blank node in valid RDF).
    pub s: Term,
    /// Predicate term (IRI in valid RDF).
    pub p: Term,
    /// Object term.
    pub o: Term,
}

impl Triple {
    /// Creates a triple from its three components.
    pub fn new(s: Term, p: Term, o: Term) -> Triple {
        Triple { s, p, o }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_iri() {
        let t = Term::parse_ntriples("<http://example.org/a>").unwrap();
        assert_eq!(t, Term::iri("http://example.org/a"));
        assert_eq!(t.to_string(), "<http://example.org/a>");
    }

    #[test]
    fn parse_blank() {
        let t = Term::parse_ntriples("_:b1").unwrap();
        assert_eq!(t, Term::blank("b1"));
        assert_eq!(t.to_string(), "_:b1");
    }

    #[test]
    fn parse_plain_literal() {
        let t = Term::parse_ntriples("\"hello\"").unwrap();
        assert_eq!(t, Term::literal("hello"));
    }

    #[test]
    fn parse_lang_literal() {
        let t = Term::parse_ntriples("\"bonjour\"@fr").unwrap();
        assert_eq!(t, Term::lang_literal("bonjour", "fr"));
        assert_eq!(t.to_string(), "\"bonjour\"@fr");
    }

    #[test]
    fn parse_typed_literal() {
        let s = format!("\"42\"^^<{XSD_INTEGER}>");
        let t = Term::parse_ntriples(&s).unwrap();
        assert_eq!(t, Term::integer(42));
        assert_eq!(t.to_string(), s);
    }

    #[test]
    fn parse_escaped_literal() {
        let t = Term::parse_ntriples(r#""a\"b\nc""#).unwrap();
        assert_eq!(t, Term::literal("a\"b\nc"));
        let rendered = t.to_string();
        let back = Term::parse_ntriples(&rendered).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn reject_garbage() {
        assert!(Term::parse_ntriples("nonsense").is_err());
        assert!(Term::parse_ntriples("<unterminated").is_err());
        assert!(Term::parse_ntriples("\"unterminated").is_err());
        assert!(Term::parse_ntriples("_:").is_err());
    }

    #[test]
    fn numeric_value_and_ordering() {
        let two = Term::integer(2);
        let ten = Term::integer(10);
        assert_eq!(two.numeric_value(), Some(2.0));
        assert_eq!(two.value_cmp(&ten), Ordering::Less);
        // Lexicographic string ordering would say "10" < "2"; value order must not.
        assert_eq!(ten.value_cmp(&two), Ordering::Greater);
        // IRIs sort before literals.
        assert_eq!(
            Term::iri("z").value_cmp(&Term::literal("a")),
            Ordering::Less
        );
    }

    #[test]
    fn triple_display() {
        let t = Triple::new(Term::iri("s"), Term::iri("p"), Term::literal("o"));
        assert_eq!(t.to_string(), "<s> <p> \"o\" .");
    }
}
