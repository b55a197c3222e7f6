//! Errors reported by the query-processing layer.

/// A syntax error produced by the textual query parser, carrying the byte
/// span of the offending token in the original query string.
///
/// The [`std::fmt::Display`] impl renders the error caret-style under the
/// query line, so `eprintln!("{err}")` shows exactly where parsing stopped:
///
/// ```text
/// parse error at byte 27: expected `)`
///   FIND Sites WHERE KNN(5, 10 20)
///                              ^^
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser expected or rejected.
    pub message: String,
    /// The query text being parsed (kept for caret rendering).
    pub query: String,
    /// Byte offset where the offending token starts.
    pub start: usize,
    /// Byte offset one past the offending token (`start == end` at EOF).
    pub end: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "parse error at byte {}: {}", self.start, self.message)?;
        writeln!(f, "  {}", self.query)?;
        // The span fields are public: round them out onto char boundaries
        // within the text before slicing it.
        let len = self.query.len();
        let on_boundary = |i: &usize| self.query.is_char_boundary(*i);
        let start = (0..=self.start.min(len))
            .rev()
            .find(on_boundary)
            .unwrap_or(0);
        let end = (self.end.clamp(start, len)..=len)
            .find(on_boundary)
            .unwrap_or(len);
        let pad = self.query[..start].chars().count();
        let width = self.query[start..end].chars().count().max(1);
        write!(f, "  {}{}", " ".repeat(pad), "^".repeat(width))
    }
}

impl std::error::Error for ParseError {}

/// Errors produced while building, validating or executing query plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A filter placement was refused because it would change the query's
    /// result: [`crate::plan::compile`] reports it for a pre-kNN filter on
    /// the inner relation of a kNN-join, where filtering changes every outer
    /// point's neighborhood (the Figure 2 argument, Section 3 of the paper).
    InvalidTransformation {
        /// Human-readable explanation of why the transformation is invalid.
        reason: String,
    },
    /// The plan references a relation that was not supplied to the executor.
    UnknownRelation {
        /// Name of the missing relation.
        name: String,
    },
    /// The plan's shape does not match any supported two-predicate query.
    UnsupportedPlanShape {
        /// Human-readable description of the offending shape.
        description: String,
    },
    /// A continuous-query call referenced a subscription id that was never
    /// issued or has been unsubscribed.
    UnknownSubscription {
        /// The raw subscription id.
        id: u64,
    },
    /// A textual query failed to parse.
    Parse(ParseError),
    /// An ingest batch upserts a point with a NaN or infinite coordinate;
    /// the whole batch is refused.
    NonFiniteCoordinate {
        /// The id of the offending point.
        id: u64,
    },
    /// A durable store could not append an ingest batch to its write-ahead
    /// log. Nothing of the batch was published, and the log was cut back to
    /// where it stood before the append. A log that cannot promise what it
    /// holds any more — the cut failed, or an `fsync` failed with earlier
    /// batches unsynced — refuses every later batch with the same error.
    WalAppend {
        /// The kind of the I/O error.
        kind: std::io::ErrorKind,
        /// The I/O error's message.
        message: String,
    },
}

impl From<ParseError> for QueryError {
    fn from(err: ParseError) -> Self {
        QueryError::Parse(err)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::InvalidTransformation { reason } => {
                write!(f, "invalid plan transformation: {reason}")
            }
            QueryError::UnknownRelation { name } => write!(f, "unknown relation `{name}`"),
            QueryError::UnsupportedPlanShape { description } => {
                write!(f, "unsupported plan shape: {description}")
            }
            QueryError::UnknownSubscription { id } => {
                write!(f, "unknown subscription `sub#{id}`")
            }
            QueryError::Parse(err) => write!(f, "{err}"),
            QueryError::NonFiniteCoordinate { id } => {
                write!(f, "point {id} has a non-finite coordinate")
            }
            QueryError::WalAppend { kind, message } => {
                write!(
                    f,
                    "the batch was not applied: WAL append failed ({kind}): {message}"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Parse(err) => Some(err),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(QueryError::InvalidTransformation { reason: "x".into() }
            .to_string()
            .contains("invalid"));
        assert!(QueryError::UnknownRelation {
            name: "Hotels".into()
        }
        .to_string()
        .contains("Hotels"));
        assert!(QueryError::UnsupportedPlanShape {
            description: "three joins".into()
        }
        .to_string()
        .contains("three joins"));
        assert!(QueryError::UnknownSubscription { id: 9 }
            .to_string()
            .contains("sub#9"));
    }

    #[test]
    fn parse_error_renders_a_caret_under_the_span() {
        let err = ParseError {
            message: "expected `)`".into(),
            query: "FIND Sites WHERE KNN(5, 10 20)".into(),
            start: 27,
            end: 29,
        };
        let rendered = err.to_string();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("byte 27"));
        assert!(lines[0].contains("expected `)`"));
        assert_eq!(lines[1], "  FIND Sites WHERE KNN(5, 10 20)");
        assert_eq!(lines[2], &format!("  {}^^", " ".repeat(27)));

        // At EOF the span is empty but the caret still renders.
        let eof = ParseError {
            message: "unexpected end of query".into(),
            query: "FIND".into(),
            start: 4,
            end: 4,
        };
        assert!(eof.to_string().ends_with('^'));

        // Folds into QueryError with the same rendering and a source chain.
        let wrapped: QueryError = err.clone().into();
        assert_eq!(wrapped.to_string(), err.to_string());
        assert!(std::error::Error::source(&wrapped).is_some());
    }

    #[test]
    fn parse_error_spans_off_char_boundaries_render_without_panicking() {
        // `é` is bytes 6..8: spans inside it, reversed or past the end are
        // rounded out onto the text's char boundaries.
        let at = |start: usize, end: usize| ParseError {
            message: "m".into(),
            query: "FIND Vé".into(),
            start,
            end,
        };
        assert!(at(7, 7).to_string().ends_with("  FIND Vé\n        ^"));
        assert!(at(6, 7).to_string().ends_with("\n        ^"));
        assert!(at(2, 7).to_string().ends_with("\n    ^^^^^"));
        assert!(at(7, 3).to_string().ends_with("\n        ^"));
        assert!(at(40, 50).to_string().ends_with("\n         ^"));
    }
}
