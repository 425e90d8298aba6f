//! FILTER expressions and their evaluation.
//!
//! Evaluation follows SPARQL's error-propagation model: a type error (e.g.
//! comparing a number with an IRI) yields [`EvalError`], and a FILTER whose
//! condition errors removes the solution (the effective boolean value of an
//! error is "drop").

use s2rdf_model::Term;

/// A FILTER (or ORDER BY key) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expression {
    /// A variable reference.
    Var(String),
    /// A constant term.
    Const(Term),
    /// Logical conjunction with SPARQL error semantics.
    And(Box<Expression>, Box<Expression>),
    /// Logical disjunction with SPARQL error semantics.
    Or(Box<Expression>, Box<Expression>),
    /// Logical negation.
    Not(Box<Expression>),
    /// `=` on values (numeric when both operands are numeric).
    Eq(Box<Expression>, Box<Expression>),
    /// `!=`.
    Ne(Box<Expression>, Box<Expression>),
    /// `<`.
    Lt(Box<Expression>, Box<Expression>),
    /// `<=`.
    Le(Box<Expression>, Box<Expression>),
    /// `>`.
    Gt(Box<Expression>, Box<Expression>),
    /// `>=`.
    Ge(Box<Expression>, Box<Expression>),
    /// Numeric addition.
    Add(Box<Expression>, Box<Expression>),
    /// Numeric subtraction.
    Sub(Box<Expression>, Box<Expression>),
    /// Numeric multiplication.
    Mul(Box<Expression>, Box<Expression>),
    /// Numeric division.
    Div(Box<Expression>, Box<Expression>),
    /// `BOUND(?v)`.
    Bound(String),
    /// `isIRI(e)`.
    IsIri(Box<Expression>),
    /// `isLiteral(e)`.
    IsLiteral(Box<Expression>),
    /// `isBlank(e)`.
    IsBlank(Box<Expression>),
    /// `STR(e)`: the lexical form / IRI string.
    Str(Box<Expression>),
    /// `LANG(e)`: the language tag of a literal ("" if none).
    Lang(Box<Expression>),
}

/// Evaluation result values.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An RDF term.
    Term(Term),
    /// A boolean produced by a comparison or logical operator.
    Bool(bool),
    /// A number produced by arithmetic.
    Number(f64),
    /// A plain string produced by STR()/LANG().
    String(String),
}

/// Evaluation error (SPARQL type error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError(pub String);

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expression error: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

fn err(msg: impl Into<String>) -> EvalError {
    EvalError(msg.into())
}

impl Value {
    /// The SPARQL effective boolean value.
    pub fn ebv(&self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Number(n) => Ok(*n != 0.0 && !n.is_nan()),
            Value::String(s) => Ok(!s.is_empty()),
            Value::Term(Term::Literal {
                lexical,
                datatype,
                lang,
            }) => {
                if lang.is_none() && datatype.is_none() {
                    return Ok(!lexical.is_empty());
                }
                if let Ok(n) = lexical.trim().parse::<f64>() {
                    return Ok(n != 0.0 && !n.is_nan());
                }
                match datatype.as_deref() {
                    Some("http://www.w3.org/2001/XMLSchema#boolean") => Ok(&**lexical == "true"),
                    Some("http://www.w3.org/2001/XMLSchema#string") | None => {
                        Ok(!lexical.is_empty())
                    }
                    _ => Err(err("no effective boolean value")),
                }
            }
            Value::Term(_) => Err(err("EBV of non-literal term")),
        }
    }

    fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Term(t) => t.numeric_value(),
            _ => None,
        }
    }

    fn as_string(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            Value::Term(Term::Literal { lexical, .. }) => Some(lexical),
            Value::Term(Term::Iri(i)) => Some(i),
            _ => None,
        }
    }
}

impl Expression {
    /// Evaluates the expression against a variable binding.
    ///
    /// `lookup` returns the term bound to a variable, or `None` if unbound
    /// (e.g. under OPTIONAL).
    pub fn eval<'a, F>(&self, lookup: &F) -> Result<Value, EvalError>
    where
        F: Fn(&str) -> Option<&'a Term>,
    {
        match self {
            Expression::Var(v) => lookup(v)
                .map(|t| Value::Term(t.clone()))
                .ok_or_else(|| err(format!("unbound variable ?{v}"))),
            Expression::Const(t) => Ok(Value::Term(t.clone())),
            Expression::And(a, b) => {
                // SPARQL: false && error = false; error && true = error.
                let av = a.eval(lookup).and_then(|v| v.ebv());
                let bv = b.eval(lookup).and_then(|v| v.ebv());
                match (av, bv) {
                    (Ok(false), _) | (_, Ok(false)) => Ok(Value::Bool(false)),
                    (Ok(true), Ok(true)) => Ok(Value::Bool(true)),
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
            Expression::Or(a, b) => {
                let av = a.eval(lookup).and_then(|v| v.ebv());
                let bv = b.eval(lookup).and_then(|v| v.ebv());
                match (av, bv) {
                    (Ok(true), _) | (_, Ok(true)) => Ok(Value::Bool(true)),
                    (Ok(false), Ok(false)) => Ok(Value::Bool(false)),
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
            Expression::Not(e) => Ok(Value::Bool(!e.eval(lookup)?.ebv()?)),
            Expression::Eq(a, b) => compare(a, b, lookup, |o| o == std::cmp::Ordering::Equal),
            Expression::Ne(a, b) => compare(a, b, lookup, |o| o != std::cmp::Ordering::Equal),
            Expression::Lt(a, b) => compare(a, b, lookup, |o| o == std::cmp::Ordering::Less),
            Expression::Le(a, b) => compare(a, b, lookup, |o| o != std::cmp::Ordering::Greater),
            Expression::Gt(a, b) => compare(a, b, lookup, |o| o == std::cmp::Ordering::Greater),
            Expression::Ge(a, b) => compare(a, b, lookup, |o| o != std::cmp::Ordering::Less),
            Expression::Add(a, b) => arith(a, b, lookup, |x, y| x + y),
            Expression::Sub(a, b) => arith(a, b, lookup, |x, y| x - y),
            Expression::Mul(a, b) => arith(a, b, lookup, |x, y| x * y),
            Expression::Div(a, b) => {
                let l = a.eval(lookup)?;
                let r = b.eval(lookup)?;
                let (x, y) = numeric_pair(&l, &r)?;
                if y == 0.0 {
                    return Err(err("division by zero"));
                }
                Ok(Value::Number(x / y))
            }
            Expression::Bound(v) => Ok(Value::Bool(lookup(v).is_some())),
            Expression::IsIri(e) => Ok(Value::Bool(matches!(
                e.eval(lookup)?,
                Value::Term(Term::Iri(_))
            ))),
            Expression::IsLiteral(e) => Ok(Value::Bool(matches!(
                e.eval(lookup)?,
                Value::Term(Term::Literal { .. })
            ))),
            Expression::IsBlank(e) => Ok(Value::Bool(matches!(
                e.eval(lookup)?,
                Value::Term(Term::BlankNode(_))
            ))),
            Expression::Str(e) => {
                let v = e.eval(lookup)?;
                v.as_string()
                    .map(|s| Value::String(s.to_string()))
                    .ok_or_else(|| err("STR() of non-stringable value"))
            }
            Expression::Lang(e) => match e.eval(lookup)? {
                Value::Term(Term::Literal { lang, .. }) => Ok(Value::String(
                    lang.as_deref().unwrap_or_default().to_string(),
                )),
                _ => Err(err("LANG() of non-literal")),
            },
        }
    }

    /// The variables this expression references.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expression::Var(v) | Expression::Bound(v) => {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
            Expression::Const(_) => {}
            Expression::And(a, b)
            | Expression::Or(a, b)
            | Expression::Eq(a, b)
            | Expression::Ne(a, b)
            | Expression::Lt(a, b)
            | Expression::Le(a, b)
            | Expression::Gt(a, b)
            | Expression::Ge(a, b)
            | Expression::Add(a, b)
            | Expression::Sub(a, b)
            | Expression::Mul(a, b)
            | Expression::Div(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expression::Not(e)
            | Expression::IsIri(e)
            | Expression::IsLiteral(e)
            | Expression::IsBlank(e)
            | Expression::Str(e)
            | Expression::Lang(e) => e.collect_vars(out),
        }
    }
}

fn numeric_pair(l: &Value, r: &Value) -> Result<(f64, f64), EvalError> {
    match (l.as_number(), r.as_number()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(err("non-numeric operand")),
    }
}

fn arith<'a, F>(
    a: &Expression,
    b: &Expression,
    lookup: &F,
    op: impl Fn(f64, f64) -> f64,
) -> Result<Value, EvalError>
where
    F: Fn(&str) -> Option<&'a Term>,
{
    let l = a.eval(lookup)?;
    let r = b.eval(lookup)?;
    let (x, y) = numeric_pair(&l, &r)?;
    Ok(Value::Number(op(x, y)))
}

fn compare<'a, F>(
    a: &Expression,
    b: &Expression,
    lookup: &F,
    accept: impl Fn(std::cmp::Ordering) -> bool,
) -> Result<Value, EvalError>
where
    F: Fn(&str) -> Option<&'a Term>,
{
    let l = a.eval(lookup)?;
    let r = b.eval(lookup)?;
    // Numeric comparison when both sides are numeric.
    if let (Some(x), Some(y)) = (l.as_number(), r.as_number()) {
        let ord = x.partial_cmp(&y).ok_or_else(|| err("NaN comparison"))?;
        return Ok(Value::Bool(accept(ord)));
    }
    // String comparison when both sides are stringable.
    if let (Some(x), Some(y)) = (l.as_string(), r.as_string()) {
        return Ok(Value::Bool(accept(x.cmp(y))));
    }
    // Term equality for the remaining cases.
    match (&l, &r) {
        (Value::Term(x), Value::Term(y)) => Ok(Value::Bool(accept(x.value_cmp(y)))),
        (Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(accept(x.cmp(y)))),
        _ => Err(err("incomparable values")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup_none(_: &str) -> Option<&'static Term> {
        None
    }

    fn e_var(v: &str) -> Expression {
        Expression::Var(v.to_string())
    }

    fn e_int(n: i64) -> Expression {
        Expression::Const(Term::integer(n))
    }

    #[test]
    fn numeric_comparison() {
        let lt = Expression::Lt(Box::new(e_int(2)), Box::new(e_int(10)));
        assert_eq!(lt.eval(&lookup_none).unwrap(), Value::Bool(true));
        // "10" < "2" lexicographically, but numeric compare must win.
        let gt = Expression::Gt(Box::new(e_int(10)), Box::new(e_int(2)));
        assert_eq!(gt.eval(&lookup_none).unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic() {
        let expr = Expression::Add(
            Box::new(Expression::Mul(Box::new(e_int(3)), Box::new(e_int(4)))),
            Box::new(e_int(1)),
        );
        assert_eq!(expr.eval(&lookup_none).unwrap(), Value::Number(13.0));
        let div0 = Expression::Div(Box::new(e_int(1)), Box::new(e_int(0)));
        assert!(div0.eval(&lookup_none).is_err());
    }

    #[test]
    fn unbound_variable_errors_but_bound_tests_it() {
        let term = Term::iri("x");
        let lookup = |v: &str| (v == "a").then_some(&term);
        assert!(e_var("missing").eval(&lookup).is_err());
        assert_eq!(
            Expression::Bound("a".to_string()).eval(&lookup).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expression::Bound("b".to_string()).eval(&lookup).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn and_or_error_semantics() {
        let f = Expression::Const(Term::typed_literal(
            "false",
            "http://www.w3.org/2001/XMLSchema#boolean",
        ));
        let errish = e_var("unbound");
        // false && error = false
        let and = Expression::And(Box::new(f.clone()), Box::new(errish.clone()));
        assert_eq!(and.eval(&lookup_none).unwrap(), Value::Bool(false));
        // error || true = true
        let t = Expression::Const(Term::typed_literal(
            "true",
            "http://www.w3.org/2001/XMLSchema#boolean",
        ));
        let or = Expression::Or(Box::new(errish.clone()), Box::new(t));
        assert_eq!(or.eval(&lookup_none).unwrap(), Value::Bool(true));
        // error && true = error
        let and_err = Expression::And(Box::new(errish), Box::new(f));
        assert_eq!(and_err.eval(&lookup_none).unwrap(), Value::Bool(false));
    }

    #[test]
    fn string_functions() {
        let term = Term::lang_literal("chat", "fr");
        let lookup = |v: &str| (v == "x").then_some(&term);
        let lang = Expression::Lang(Box::new(e_var("x")));
        assert_eq!(lang.eval(&lookup).unwrap(), Value::String("fr".into()));
        let s = Expression::Str(Box::new(e_var("x")));
        assert_eq!(s.eval(&lookup).unwrap(), Value::String("chat".into()));
    }

    #[test]
    fn type_predicates() {
        let iri = Term::iri("i");
        let lookup = |v: &str| (v == "x").then_some(&iri);
        assert_eq!(
            Expression::IsIri(Box::new(e_var("x")))
                .eval(&lookup)
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expression::IsLiteral(Box::new(e_var("x")))
                .eval(&lookup)
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn vars_collection() {
        let expr = Expression::And(
            Box::new(Expression::Lt(Box::new(e_var("a")), Box::new(e_int(5)))),
            Box::new(Expression::Bound("b".to_string())),
        );
        assert_eq!(expr.vars(), vec!["a", "b"]);
    }
}
