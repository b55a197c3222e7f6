//! The declarative textual query front-end.
//!
//! A hand-written lexer and recursive-descent parser (no dependencies) for
//! a small `FIND … WHERE …` language over the catalog's relations, plus the
//! rewriter that turns the parsed [`Query`] into an executable
//! [`QuerySpec`]. Errors carry byte spans and render caret-style
//! ([`ParseError`]).
//!
//! # Grammar
//!
//! ```text
//! query     := FIND source WHERE condition
//! source    := IDENT                          -- plain relation
//!            | '(' IDENT WHERE condition ')'  -- pre-kNN filtered relation
//! condition := and_cond (OR and_cond)*
//! and_cond  := unary (AND unary)*
//! unary     := NOT unary | atom
//! atom      := TRUE | FALSE
//!            | KNN '(' k ',' x ',' y ')'
//!            | INSIDE '(' RECT '(' x1 ',' y1 ',' x2 ',' y2 ')' ')'
//!            | INSIDE '(' CIRCLE '(' x ',' y ',' r ')' ')'
//!            | ID IN '(' n (',' n)* ')'
//!            | ID BETWEEN n AND n
//!            | ID '<=' n | ID '>=' n | ID '=' n
//!            | '(' condition ')'
//! ```
//!
//! Keywords are case-insensitive; relation names are case-sensitive.
//!
//! # Cost
//!
//! A textual read should pay for its answer, not for its text. The lexer
//! yields one borrowed token at a time: identifiers are slices of the
//! text, keywords match with `eq_ignore_ascii_case`, and numbers parse
//! straight from the slice (`_` separators are stripped into a copy only
//! when one is present). The parser keeps just the current token, builds a
//! [`Cond::And`] / [`Cond::Or`] list only for two or more items, and
//! formats error messages only on the error path. [`parse_query`] moves
//! the relation name from the AST into the [`QuerySpec`], so a plain
//! `FIND Rel WHERE KNN(k, x, y)` allocates exactly once: that name.
//!
//! Lexical errors come first: when the parser stops on a syntax error, the
//! rest of the text is lexed and its first lexical error, if any, is the
//! one reported — the error a whole-text lexing pass would have found. A
//! character the lexer does not accept is reported with a span covering
//! the whole character, so every error span lies on char boundaries.
//!
//! # Filter placement
//!
//! The placement of a relational filter relative to the kNN predicates is
//! **semantics-bearing** (Section 3 of the paper), so the language makes it
//! explicit:
//!
//! * a condition inside the *source* parentheses is a **pre-kNN** filter —
//!   the kNN predicates see only matching points ("the k nearest
//!   *matching* sites");
//! * a non-kNN condition in the main `WHERE` clause is a **post-kNN**
//!   residual — it prunes the finished kNN result rows.
//!
//! `KNN` predicates must be top-level conjuncts of the main `WHERE` clause
//! (not under `OR` or `NOT`, and never in the source filter): a
//! disjunctive or negated kNN predicate has no well-defined pushdown, so
//! the rewriter refuses it with a spanned error. One `KNN` conjunct
//! produces a [`QuerySpec::KnnSelect`], two produce a
//! [`QuerySpec::TwoSelects`] (the conceptual intersection of Figure 16);
//! filters wrap the result as [`QuerySpec::Filtered`].

use std::borrow::Cow;

use twoknn_geometry::{Point, Predicate, Rect};

use crate::error::ParseError;
use crate::plan::executor::{QueryFilters, QuerySpec};
use crate::select::KnnSelectQuery;
use crate::selects2::TwoSelectsQuery;

/// A byte span `[start, end)` into the query text.
pub type Span = (usize, usize);

/// A parsed (but not yet rewritten) textual query.
#[derive(Debug, Clone)]
pub struct Query {
    /// The relation named in the `FIND` source.
    pub relation: String,
    /// The pre-kNN filter of a parenthesized source, if any.
    pub source_filter: Option<Cond>,
    /// The main `WHERE` condition (kNN predicates still embedded).
    pub condition: Cond,
    /// Byte span of the main condition (for rewriter diagnostics).
    pub condition_span: Span,
}

impl PartialEq for Query {
    fn eq(&self, other: &Self) -> bool {
        // Spans are positions, not meaning: two queries are equal when
        // their relation and conditions are — which is what the
        // parse → print → parse round-trip preserves.
        self.relation == other.relation
            && self.source_filter == other.source_filter
            && self.condition == other.condition
    }
}

/// A condition-tree node of the query language.
#[derive(Debug, Clone)]
pub enum Cond {
    /// `TRUE`.
    True,
    /// `FALSE`.
    False,
    /// `KNN(k, x, y)`: among the `k` nearest to the focal point `(x, y)`.
    Knn {
        /// Number of neighbors.
        k: usize,
        /// Focal x coordinate.
        x: f64,
        /// Focal y coordinate.
        y: f64,
        /// Span of the whole `KNN(...)` atom, for rewriter diagnostics.
        span: Span,
    },
    /// `INSIDE(RECT(x1, y1, x2, y2))`: closed containment in a rectangle.
    InRect {
        /// Lower-left x.
        x1: f64,
        /// Lower-left y.
        y1: f64,
        /// Upper-right x.
        x2: f64,
        /// Upper-right y.
        y2: f64,
    },
    /// `INSIDE(CIRCLE(x, y, r))`: within distance `r` of `(x, y)`.
    InCircle {
        /// Center x.
        x: f64,
        /// Center y.
        y: f64,
        /// Radius.
        r: f64,
    },
    /// `ID IN (a, b, …)`.
    IdIn(Vec<u64>),
    /// `ID BETWEEN lo AND hi` (inclusive; also produced by `ID <=`, `ID >=`
    /// and `ID =`).
    IdBetween {
        /// Lowest matching id.
        lo: u64,
        /// Highest matching id.
        hi: u64,
    },
    /// Conjunction of two or more conditions.
    And(Vec<Cond>),
    /// Disjunction of two or more conditions.
    Or(Vec<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl PartialEq for Cond {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Cond::True, Cond::True) | (Cond::False, Cond::False) => true,
            (
                Cond::Knn { k, x, y, .. },
                Cond::Knn {
                    k: k2,
                    x: x2,
                    y: y2,
                    ..
                },
            ) => k == k2 && x == x2 && y == y2,
            (
                Cond::InRect { x1, y1, x2, y2 },
                Cond::InRect {
                    x1: a,
                    y1: b,
                    x2: c,
                    y2: d,
                },
            ) => x1 == a && y1 == b && x2 == c && y2 == d,
            (Cond::InCircle { x, y, r }, Cond::InCircle { x: a, y: b, r: c }) => {
                x == a && y == b && r == c
            }
            (Cond::IdIn(a), Cond::IdIn(b)) => a == b,
            (Cond::IdBetween { lo, hi }, Cond::IdBetween { lo: a, hi: b }) => lo == a && hi == b,
            (Cond::And(a), Cond::And(b)) | (Cond::Or(a), Cond::Or(b)) => a == b,
            (Cond::Not(a), Cond::Not(b)) => a == b,
            _ => false,
        }
    }
}

impl std::fmt::Display for Cond {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cond::True => write!(f, "TRUE"),
            Cond::False => write!(f, "FALSE"),
            Cond::Knn { k, x, y, .. } => write!(f, "KNN({k}, {x}, {y})"),
            Cond::InRect { x1, y1, x2, y2 } => {
                write!(f, "INSIDE(RECT({x1}, {y1}, {x2}, {y2}))")
            }
            Cond::InCircle { x, y, r } => write!(f, "INSIDE(CIRCLE({x}, {y}, {r}))"),
            Cond::IdIn(ids) => {
                write!(f, "ID IN (")?;
                for (i, id) in ids.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{id}")?;
                }
                write!(f, ")")
            }
            Cond::IdBetween { lo, hi } => write!(f, "ID BETWEEN {lo} AND {hi}"),
            Cond::And(items) | Cond::Or(items) => {
                let sep = if matches!(self, Cond::And(_)) {
                    " AND "
                } else {
                    " OR "
                };
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, "{sep}")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Cond::Not(inner) => write!(f, "(NOT {inner})"),
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.source_filter {
            Some(filter) => write!(
                f,
                "FIND ({} WHERE {}) WHERE {}",
                self.relation, filter, self.condition
            ),
            None => write!(f, "FIND {} WHERE {}", self.relation, self.condition),
        }
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Number(f64),
    LParen,
    RParen,
    Comma,
    Le,
    Ge,
    Eq,
    Find,
    Where,
    And,
    Or,
    Not,
    Knn,
    Inside,
    Rect,
    Circle,
    Id,
    In,
    Between,
    True,
    False,
    Eof,
}

impl Tok<'_> {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(name) => format!("identifier `{name}`"),
            Tok::Number(n) => format!("number `{n}`"),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Le => "`<=`".into(),
            Tok::Ge => "`>=`".into(),
            Tok::Eq => "`=`".into(),
            Tok::Eof => "end of query".into(),
            keyword => format!("`{keyword:?}`").to_uppercase(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Token<'a> {
    tok: Tok<'a>,
    span: Span,
}

/// The keyword `word` spells, in any case. Keywords are bucketed by
/// length, so most identifiers are compared against none of them.
fn keyword(word: &str) -> Option<Tok<'static>> {
    let candidates: &[(&str, Tok<'static>)] = match word.len() {
        2 => &[("OR", Tok::Or), ("ID", Tok::Id), ("IN", Tok::In)],
        3 => &[("AND", Tok::And), ("NOT", Tok::Not), ("KNN", Tok::Knn)],
        4 => &[
            ("FIND", Tok::Find),
            ("RECT", Tok::Rect),
            ("TRUE", Tok::True),
        ],
        5 => &[("WHERE", Tok::Where), ("FALSE", Tok::False)],
        6 => &[("INSIDE", Tok::Inside), ("CIRCLE", Tok::Circle)],
        7 => &[("BETWEEN", Tok::Between)],
        _ => &[],
    };
    candidates
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(word))
        .map(|&(_, tok)| tok)
}

/// A number literal without its `_` digit separators — borrowed unless it
/// has one.
fn digits(raw: &str) -> Cow<'_, str> {
    if raw.contains('_') {
        Cow::Owned(raw.replace('_', ""))
    } else {
        Cow::Borrowed(raw)
    }
}

/// A [`ParseError`] over `text` — the only place the front end copies the
/// query text.
fn error(text: &str, span: Span, message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
        query: text.to_string(),
        start: span.0,
        end: span.1,
    }
}

/// Yields one borrowed token at a time. `pos` only moves past a token that
/// lexed, so after an error the next call reports the same error again.
struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn next_token(&mut self) -> Result<Token<'a>, ParseError> {
        let text = self.text;
        let bytes = text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
        let start = self.pos;
        let Some(&b) = bytes.get(start) else {
            return Ok(Token {
                tok: Tok::Eof,
                span: (text.len(), text.len()),
            });
        };
        let run = |from: usize, more: fn(u8) -> bool| {
            from + bytes[from..].iter().take_while(|&&c| more(c)).count()
        };
        let (tok, end) = match b {
            b'(' => (Tok::LParen, start + 1),
            b')' => (Tok::RParen, start + 1),
            b',' => (Tok::Comma, start + 1),
            b'=' => (Tok::Eq, start + 1),
            b'<' | b'>' => {
                if bytes.get(start + 1) != Some(&b'=') {
                    let message = format!("expected `{}=`", b as char);
                    return Err(error(text, (start, start + 1), message));
                }
                (if b == b'<' { Tok::Le } else { Tok::Ge }, start + 2)
            }
            b'-' | b'0'..=b'9' | b'.' => {
                let end = run(start + 1, |c| c.is_ascii_digit() || c == b'.' || c == b'_');
                let raw = &text[start..end];
                let value = digits(raw)
                    .parse()
                    .map_err(|_| error(text, (start, end), format!("`{raw}` is not a number")))?;
                (Tok::Number(value), end)
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let end = run(start + 1, |c| c.is_ascii_alphanumeric() || c == b'_');
                let word = &text[start..end];
                (keyword(word).unwrap_or(Tok::Ident(word)), end)
            }
            _ => {
                // The lexer only steps over ASCII, so `start` is a char
                // boundary and the error covers the whole character.
                let ch = text[start..].chars().next().expect("a character");
                let span = (start, start + ch.len_utf8());
                return Err(error(text, span, format!("unexpected character `{ch}`")));
            }
        };
        self.pos = end;
        Ok(Token {
            tok,
            span: (start, end),
        })
    }

    /// The first lexical error from here to the end of the text, if any.
    fn first_error(&mut self) -> Option<ParseError> {
        loop {
            match self.next_token() {
                Ok(Token { tok: Tok::Eof, .. }) => return None,
                Ok(_) => {}
                Err(err) => return Some(err),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next, not yet consumed token.
    token: Token<'a>,
    /// Where the last consumed token ends.
    prev_end: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Result<Self, ParseError> {
        let mut lexer = Lexer { text, pos: 0 };
        let token = lexer.next_token()?;
        Ok(Parser {
            lexer,
            token,
            prev_end: 0,
        })
    }

    fn peek(&self) -> Tok<'a> {
        self.token.tok
    }

    /// Consumes the current token and lexes the next one.
    fn bump(&mut self) -> Result<Token<'a>, ParseError> {
        let token = self.token;
        self.token = self.lexer.next_token()?;
        self.prev_end = token.span.1;
        Ok(token)
    }

    fn err(&self, span: Span, message: impl Into<String>) -> ParseError {
        error(self.lexer.text, span, message)
    }

    /// "expected `what`, found <the current token>".
    fn unexpected(&self, what: &str) -> ParseError {
        let found = self.token.tok.describe();
        self.err(self.token.span, format!("expected {what}, found {found}"))
    }

    fn expect(&mut self, want: Tok<'_>, what: &str) -> Result<Token<'a>, ParseError> {
        if self.peek() == want {
            self.bump()
        } else {
            Err(self.unexpected(what))
        }
    }

    fn number(&mut self, what: &str) -> Result<f64, ParseError> {
        match self.peek() {
            Tok::Number(value) => {
                self.bump()?;
                Ok(value)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// A non-negative integer literal, parsed from the raw text so 64-bit
    /// ids survive exactly.
    fn integer(&mut self, what: &str) -> Result<u64, ParseError> {
        let span = self.token.span;
        if !matches!(self.peek(), Tok::Number(_)) {
            return Err(self.unexpected(what));
        }
        let raw = digits(&self.lexer.text[span.0..span.1]);
        let value = raw.parse().map_err(|_| {
            self.err(
                span,
                format!("{what} must be a non-negative integer, found `{raw}`"),
            )
        })?;
        self.bump()?;
        Ok(value)
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect(Tok::Find, "`FIND`")?;
        let (relation, source_filter) = self.source()?;
        self.expect(Tok::Where, "`WHERE`")?;
        let start = self.token.span.0;
        let condition = self.condition()?;
        let end = self.prev_end;
        if self.peek() != Tok::Eof {
            return Err(self.unexpected("end of query"));
        }
        Ok(Query {
            relation: relation.to_string(),
            source_filter,
            condition,
            condition_span: (start, end),
        })
    }

    fn source(&mut self) -> Result<(&'a str, Option<Cond>), ParseError> {
        match self.peek() {
            Tok::Ident(name) => {
                self.bump()?;
                Ok((name, None))
            }
            Tok::LParen => {
                self.bump()?;
                let Tok::Ident(name) = self.peek() else {
                    return Err(self.unexpected("a relation name"));
                };
                self.bump()?;
                self.expect(Tok::Where, "`WHERE`")?;
                let filter = self.condition()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok((name, Some(filter)))
            }
            _ => Err(self.unexpected("a relation name or `(relation WHERE …)`")),
        }
    }

    /// `item (sep item)*`: the lone item, or `join` of two or more.
    fn list(
        &mut self,
        sep: Tok<'static>,
        item: fn(&mut Self) -> Result<Cond, ParseError>,
        join: fn(Vec<Cond>) -> Cond,
    ) -> Result<Cond, ParseError> {
        let first = item(self)?;
        if self.peek() != sep {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.peek() == sep {
            self.bump()?;
            items.push(item(self)?);
        }
        Ok(join(items))
    }

    fn condition(&mut self) -> Result<Cond, ParseError> {
        self.list(Tok::Or, Self::and_cond, Cond::Or)
    }

    fn and_cond(&mut self) -> Result<Cond, ParseError> {
        self.list(Tok::And, Self::unary, Cond::And)
    }

    fn unary(&mut self) -> Result<Cond, ParseError> {
        if self.peek() == Tok::Not {
            self.bump()?;
            return Ok(Cond::Not(Box::new(self.unary()?)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Cond, ParseError> {
        match self.peek() {
            Tok::True => {
                self.bump()?;
                Ok(Cond::True)
            }
            Tok::False => {
                self.bump()?;
                Ok(Cond::False)
            }
            Tok::LParen => {
                self.bump()?;
                let inner = self.condition()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Tok::Knn => {
                let start = self.bump()?.span.0;
                self.expect(Tok::LParen, "`(`")?;
                let k_span = self.token.span;
                let k = self.integer("KNN's k")?;
                if k == 0 {
                    return Err(self.err(k_span, "KNN's k must be at least 1"));
                }
                self.expect(Tok::Comma, "`,`")?;
                let x = self.number("the focal x coordinate")?;
                self.expect(Tok::Comma, "`,`")?;
                let y = self.number("the focal y coordinate")?;
                let end = self.expect(Tok::RParen, "`)`")?.span.1;
                Ok(Cond::Knn {
                    k: k as usize,
                    x,
                    y,
                    span: (start, end),
                })
            }
            Tok::Inside => {
                self.bump()?;
                self.expect(Tok::LParen, "`(`")?;
                let cond = match self.peek() {
                    Tok::Rect => {
                        self.bump()?;
                        self.expect(Tok::LParen, "`(`")?;
                        let x1 = self.number("a rectangle coordinate")?;
                        self.expect(Tok::Comma, "`,`")?;
                        let y1 = self.number("a rectangle coordinate")?;
                        self.expect(Tok::Comma, "`,`")?;
                        let x2 = self.number("a rectangle coordinate")?;
                        self.expect(Tok::Comma, "`,`")?;
                        let y2 = self.number("a rectangle coordinate")?;
                        self.expect(Tok::RParen, "`)`")?;
                        Cond::InRect { x1, y1, x2, y2 }
                    }
                    Tok::Circle => {
                        self.bump()?;
                        self.expect(Tok::LParen, "`(`")?;
                        let x = self.number("the circle center x")?;
                        self.expect(Tok::Comma, "`,`")?;
                        let y = self.number("the circle center y")?;
                        self.expect(Tok::Comma, "`,`")?;
                        let r = self.number("the circle radius")?;
                        self.expect(Tok::RParen, "`)`")?;
                        Cond::InCircle { x, y, r }
                    }
                    _ => return Err(self.unexpected("`RECT` or `CIRCLE`")),
                };
                self.expect(Tok::RParen, "`)`")?;
                Ok(cond)
            }
            Tok::Id => {
                self.bump()?;
                match self.peek() {
                    Tok::In => {
                        self.bump()?;
                        self.expect(Tok::LParen, "`(`")?;
                        let mut ids = vec![self.integer("an id")?];
                        while self.peek() == Tok::Comma {
                            self.bump()?;
                            ids.push(self.integer("an id")?);
                        }
                        self.expect(Tok::RParen, "`)`")?;
                        ids.sort_unstable();
                        ids.dedup();
                        Ok(Cond::IdIn(ids))
                    }
                    Tok::Between => {
                        self.bump()?;
                        let lo = self.integer("the lower id bound")?;
                        self.expect(Tok::And, "`AND`")?;
                        let hi = self.integer("the upper id bound")?;
                        Ok(Cond::IdBetween { lo, hi })
                    }
                    Tok::Le => {
                        self.bump()?;
                        let hi = self.integer("an id bound")?;
                        Ok(Cond::IdBetween { lo: 0, hi })
                    }
                    Tok::Ge => {
                        self.bump()?;
                        let lo = self.integer("an id bound")?;
                        Ok(Cond::IdBetween { lo, hi: u64::MAX })
                    }
                    Tok::Eq => {
                        self.bump()?;
                        let id = self.integer("an id")?;
                        Ok(Cond::IdIn(vec![id]))
                    }
                    _ => Err(self.unexpected("`IN`, `BETWEEN`, `<=`, `>=` or `=` after `ID`")),
                }
            }
            _ => Err(self.unexpected("a predicate")),
        }
    }
}

/// Parses query text into a [`Query`] AST (syntax only — see
/// [`Query::to_spec`] / [`parse_query`] for the rewrite to a
/// [`QuerySpec`]).
pub fn parse(text: &str) -> Result<Query, ParseError> {
    let mut parser = Parser::new(text)?;
    // The first lexical error anywhere in the text wins over a syntax
    // error: the lexer only ran as far as the parser read.
    parser
        .query()
        .map_err(|err| parser.lexer.first_error().unwrap_or(err))
}

/// Parses and rewrites query text into an executable [`QuerySpec`] — what
/// [`Database::query`](crate::plan::Database::query) runs. The relation
/// name moves from the AST into the spec.
pub fn parse_query(text: &str) -> Result<QuerySpec, ParseError> {
    let query = parse(text)?;
    lower(
        query.relation,
        query.source_filter.as_ref(),
        &query.condition,
        query.condition_span,
        text,
    )
}

// ---------------------------------------------------------------------
// Rewriter
// ---------------------------------------------------------------------

/// The first `KNN` atom anywhere inside `cond`, if any.
fn find_knn(cond: &Cond) -> Option<Span> {
    match cond {
        Cond::Knn { span, .. } => Some(*span),
        Cond::And(items) | Cond::Or(items) => items.iter().find_map(find_knn),
        Cond::Not(inner) => find_knn(inner),
        _ => None,
    }
}

/// Calls `visit` on each top-level conjunct of a condition, in order,
/// flattening nested `AND`s.
fn for_each_conjunct<'c>(cond: &'c Cond, visit: &mut impl FnMut(&'c Cond)) {
    match cond {
        Cond::And(items) => {
            for item in items {
                for_each_conjunct(item, visit);
            }
        }
        other => visit(other),
    }
}

/// Converts a kNN-free condition tree into a [`Predicate`].
fn to_predicate(cond: &Cond) -> Predicate {
    match cond {
        Cond::True => Predicate::True,
        Cond::False => Predicate::False,
        Cond::Knn { .. } => unreachable!("kNN atoms are extracted before predicate conversion"),
        // Kept as written: an inverted rectangle contains no point, where
        // `Rect::new` would debug-assert on it.
        Cond::InRect { x1, y1, x2, y2 } => Predicate::InRect(Rect {
            min_x: *x1,
            min_y: *y1,
            max_x: *x2,
            max_y: *y2,
        }),
        Cond::InCircle { x, y, r } => Predicate::InCircle {
            center: Point::anonymous(*x, *y),
            radius: *r,
        },
        Cond::IdIn(ids) => Predicate::id_in(ids.clone()),
        Cond::IdBetween { lo, hi } => Predicate::IdRange { lo: *lo, hi: *hi },
        Cond::And(items) => Predicate::And(items.iter().map(to_predicate).collect()),
        Cond::Or(items) => Predicate::Or(items.iter().map(to_predicate).collect()),
        Cond::Not(inner) => Predicate::Not(Box::new(to_predicate(inner))),
    }
}

/// `acc AND next`, or `next` alone when there is nothing to AND onto.
fn and_onto(acc: Option<Predicate>, next: Predicate) -> Predicate {
    match acc {
        Some(acc) => acc.and(next),
        None => next,
    }
}

/// The rewrite behind [`Query::to_spec`] and [`parse_query`], over a
/// query's parts: `relation` is moved into the spec.
fn lower(
    relation: String,
    source_filter: Option<&Cond>,
    condition: &Cond,
    condition_span: Span,
    text: &str,
) -> Result<QuerySpec, ParseError> {
    if let Some(span) = source_filter.and_then(find_knn) {
        return Err(error(
            text,
            span,
            "a KNN predicate cannot appear in the source filter; write it in the main WHERE \
             clause",
        ));
    }
    let mut knns: [Option<(usize, Point)>; 2] = [None, None];
    let mut third: Option<Span> = None;
    let mut misplaced: Option<Span> = None;
    let mut residual: Option<Predicate> = None;
    for_each_conjunct(condition, &mut |item| {
        if misplaced.is_some() {
            return;
        }
        match item {
            Cond::Knn { k, x, y, span } => match knns.iter_mut().find(|slot| slot.is_none()) {
                Some(slot) => *slot = Some((*k, Point::anonymous(*x, *y))),
                None => third = third.or(Some(*span)),
            },
            other => match find_knn(other) {
                Some(span) => misplaced = Some(span),
                None => residual = Some(and_onto(residual.take(), to_predicate(other))),
            },
        }
    });
    if let Some(span) = misplaced {
        return Err(error(
            text,
            span,
            "a KNN predicate must be a top-level conjunct of the WHERE clause — under OR or \
             NOT its pushdown is not well-defined",
        ));
    }
    if let Some(span) = third {
        return Err(error(
            text,
            span,
            "at most two KNN predicates are supported",
        ));
    }
    let mut filters = QueryFilters::none();
    if let Some(filter) = source_filter {
        let predicate = to_predicate(filter);
        if !matches!(predicate, Predicate::True) {
            filters = filters.pre(relation.as_str(), predicate);
        }
    }
    if let Some(predicate) = residual {
        if !matches!(predicate, Predicate::True) {
            filters = filters.post(relation.as_str(), predicate);
        }
    }
    let spec = match knns {
        [Some((k, focal)), None] => QuerySpec::KnnSelect {
            relation,
            query: KnnSelectQuery::new(k, focal),
        },
        [Some((k1, f1)), Some((k2, f2))] => QuerySpec::TwoSelects {
            relation,
            query: TwoSelectsQuery::new(k1, f1, k2, f2),
        },
        _ => {
            return Err(error(
                text,
                condition_span,
                "the WHERE clause needs at least one KNN predicate",
            ))
        }
    };
    Ok(spec.with_filters(filters))
}

impl Query {
    /// Rewrites the parsed query into an executable [`QuerySpec`]:
    /// extracts the top-level `KNN` conjuncts (one → kNN-select, two →
    /// two-kNN-selects), turns the source filter into a **pre**-kNN
    /// predicate and the remaining `WHERE` residue into a **post**-kNN
    /// predicate, and wraps the shape in [`QuerySpec::Filtered`] when any
    /// filter is non-trivial.
    ///
    /// `text` is the source the query was parsed from, kept only for the
    /// caret rendering of rewrite errors (kNN under `OR`/`NOT`, kNN in
    /// the source filter, zero or too many kNN predicates).
    pub fn to_spec(&self, text: &str) -> Result<QuerySpec, ParseError> {
        lower(
            self.relation.clone(),
            self.source_filter.as_ref(),
            &self.condition,
            self.condition_span,
            text,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile, Database};
    use twoknn_index::GridIndex;

    #[test]
    fn parses_a_single_select_with_filters() {
        let text = "FIND (Sites WHERE INSIDE(RECT(0, 0, 50, 50))) \
                    WHERE KNN(4, 10, 10) AND ID <= 100";
        let spec = parse_query(text).unwrap();
        match spec {
            QuerySpec::Filtered { spec, filters } => {
                match *spec {
                    QuerySpec::KnnSelect { relation, query } => {
                        assert_eq!(relation, "Sites");
                        assert_eq!(query.k, 4);
                        assert_eq!((query.focal.x, query.focal.y), (10.0, 10.0));
                    }
                    other => panic!("expected a kNN-select, got {other:?}"),
                }
                assert!(matches!(filters.pre["Sites"], Predicate::InRect(_)));
                assert_eq!(filters.post["Sites"], Predicate::IdRange { lo: 0, hi: 100 });
            }
            other => panic!("expected a filtered spec, got {other:?}"),
        }
    }

    #[test]
    fn two_knn_conjuncts_become_two_selects() {
        let spec = parse_query("FIND Hotels WHERE KNN(5, 0, 0) AND KNN(9, 30, 40)").unwrap();
        match spec {
            QuerySpec::TwoSelects { relation, query } => {
                assert_eq!(relation, "Hotels");
                assert_eq!((query.k1, query.k2), (5, 9));
                assert_eq!((query.f2.x, query.f2.y), (30.0, 40.0));
            }
            other => panic!("expected two-selects, got {other:?}"),
        }
    }

    #[test]
    fn keywords_are_case_insensitive_and_ids_are_exact() {
        let spec =
            parse_query("find Sites where knn(2, 1, 1) and id in (18446744073709551615)").unwrap();
        match spec {
            QuerySpec::Filtered { filters, .. } => {
                assert_eq!(filters.post["Sites"], Predicate::id_in(vec![u64::MAX]));
            }
            other => panic!("expected a filtered spec, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_the_offending_span() {
        let err = parse("FIND Sites WHERE KNN(5, 10 20)").unwrap_err();
        assert_eq!(&err.query[err.start..err.end], "20");
        assert!(err.message.contains("expected `,`"), "{}", err.message);

        let err = parse("FIND Sites WHERE KNN(0, 1, 2)").unwrap_err();
        assert_eq!(&err.query[err.start..err.end], "0");
        assert!(err.message.contains("at least 1"));

        let err = parse("FIND WHERE KNN(1, 0, 0)").unwrap_err();
        assert!(err.message.contains("relation name"), "{}", err.message);

        let err = parse("FIND Sites WHERE ID ! 3").unwrap_err();
        assert!(
            err.message.contains("unexpected character"),
            "{}",
            err.message
        );

        // The caret rendering shows the span under the query line.
        let rendered = parse("FIND Sites WHERE KNN(5, 10 20)")
            .unwrap_err()
            .to_string();
        assert!(rendered.lines().count() == 3 && rendered.ends_with("^^"));
    }

    #[test]
    fn rewriter_refuses_misplaced_knn_predicates() {
        let err = parse_query("FIND Sites WHERE KNN(3, 0, 0) OR TRUE").unwrap_err();
        assert!(
            err.message.contains("top-level conjunct"),
            "{}",
            err.message
        );
        assert_eq!(&err.query[err.start..err.end], "KNN(3, 0, 0)");

        let err = parse_query("FIND Sites WHERE NOT KNN(3, 0, 0)").unwrap_err();
        assert!(err.message.contains("top-level conjunct"));

        let err = parse_query("FIND (Sites WHERE KNN(2, 1, 1)) WHERE KNN(3, 0, 0)").unwrap_err();
        assert!(err.message.contains("source filter"), "{}", err.message);

        let err = parse_query("FIND Sites WHERE TRUE").unwrap_err();
        assert!(err.message.contains("at least one KNN"), "{}", err.message);

        let err = parse_query("FIND Sites WHERE KNN(1, 0, 0) AND KNN(1, 1, 1) AND KNN(1, 2, 2)")
            .unwrap_err();
        assert!(err.message.contains("at most two"), "{}", err.message);
        assert_eq!(&err.query[err.start..err.end], "KNN(1, 2, 2)");
    }

    #[test]
    fn logical_bridge_builds_a_valid_algebra() {
        // The lowered spec prints EXPLAIN's `logical:` line: the source
        // filter at the select's leaf, the residue around the result.
        let text = "FIND (Sites WHERE ID <= 10) WHERE KNN(3, 1, 2) AND ID >= 4";
        let spec = parse(text).unwrap().to_spec(text).unwrap();
        assert_eq!(
            spec.to_string(),
            "filter[ID BETWEEN 4 AND 18446744073709551615](σ[k=3, f=(1, 2)](filter[ID BETWEEN 0 \
             AND 10](Sites)))"
        );
    }

    // ------------------------------------------------------------------
    // Seeded parse → print → parse round-trip
    // ------------------------------------------------------------------

    /// A tiny deterministic generator (xorshift64) — no external
    /// property-testing dependency, same failures on every run.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A coordinate on a quarter-unit lattice: exactly representable,
        /// so printing and reparsing reproduce the same bits.
        fn coord(&mut self) -> f64 {
            self.below(4001) as f64 * 0.25 - 500.0
        }
    }

    fn gen_leaf(rng: &mut Rng) -> Cond {
        match rng.below(6) {
            0 => Cond::True,
            1 => Cond::False,
            2 => {
                let (x1, y1) = (rng.coord(), rng.coord());
                Cond::InRect {
                    x1,
                    y1,
                    x2: x1 + rng.below(100) as f64,
                    y2: y1 + rng.below(100) as f64,
                }
            }
            3 => Cond::InCircle {
                x: rng.coord(),
                y: rng.coord(),
                r: rng.below(200) as f64 * 0.5,
            },
            4 => {
                let mut ids: Vec<u64> = (0..1 + rng.below(4)).map(|_| rng.below(10_000)).collect();
                ids.sort_unstable();
                ids.dedup();
                Cond::IdIn(ids)
            }
            _ => {
                let lo = rng.below(5_000);
                Cond::IdBetween {
                    lo,
                    hi: lo + rng.below(5_000),
                }
            }
        }
    }

    fn gen_cond(rng: &mut Rng, depth: u32) -> Cond {
        if depth == 0 {
            return gen_leaf(rng);
        }
        match rng.below(4) {
            0 => Cond::And(
                (0..2 + rng.below(2))
                    .map(|_| gen_cond(rng, depth - 1))
                    .collect(),
            ),
            1 => Cond::Or(
                (0..2 + rng.below(2))
                    .map(|_| gen_cond(rng, depth - 1))
                    .collect(),
            ),
            2 => Cond::Not(Box::new(gen_cond(rng, depth - 1))),
            _ => gen_leaf(rng),
        }
    }

    fn gen_query(rng: &mut Rng) -> Query {
        let relations = ["Sites", "Vehicles", "Hotels", "R_2"];
        let relation = relations[rng.below(4) as usize].to_string();
        let mut items: Vec<Cond> = (0..1 + rng.below(2))
            .map(|_| Cond::Knn {
                k: 1 + rng.below(20) as usize,
                x: rng.coord(),
                y: rng.coord(),
                span: (0, 0),
            })
            .collect();
        for _ in 0..rng.below(3) {
            items.push(gen_cond(rng, 2));
        }
        let condition = if items.len() == 1 {
            items.pop().expect("one item")
        } else {
            Cond::And(items)
        };
        let source_filter = (rng.below(2) == 0).then(|| gen_cond(rng, 1));
        Query {
            relation,
            source_filter,
            condition,
            condition_span: (0, 0),
        }
    }

    #[test]
    fn every_generated_query_lowers_to_a_valid_algebra() {
        // `compile` is the validator: every generated spec must compile
        // under the strategy the planner picks for it.
        let mut db = Database::new();
        for (i, name) in ["Sites", "Vehicles", "Hotels", "R_2"]
            .into_iter()
            .enumerate()
        {
            let points = (0..64)
                .map(|j| Point::new(j, (j * 37 % 101) as f64 - 50.0, (j * 11 + i as u64) as f64))
                .collect();
            db.register(name, GridIndex::build(points, 4).unwrap());
        }
        let mut rng = Rng(0x2545F4914F6CDD1D);
        for i in 0..200 {
            let query = gen_query(&mut rng);
            let spec = query.to_spec(&query.to_string()).unwrap();
            let compiled = db
                .plan(&spec)
                .and_then(|strategy| compile(&db.snapshot(), &spec, strategy));
            assert!(
                compiled.is_ok(),
                "iteration {i}: `{query}`: {:?}",
                compiled.err()
            );
        }
    }

    #[test]
    fn seeded_parse_print_parse_round_trip() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        for i in 0..200 {
            let query = gen_query(&mut rng);
            let text = query.to_string();
            let reparsed = parse(&text).unwrap_or_else(|e| panic!("iteration {i}:\n{e}"));
            // AST round-trip (span-insensitive equality) and a stable print.
            assert_eq!(reparsed, query, "iteration {i}: `{text}`");
            assert_eq!(reparsed.to_string(), text, "iteration {i}");
            // The rewrite to an executable spec agrees on both sides.
            assert_eq!(
                reparsed.to_spec(&text).unwrap(),
                query.to_spec(&text).unwrap(),
                "iteration {i}: `{text}`"
            );
        }
    }
}
