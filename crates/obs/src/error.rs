use std::fmt;

/// Errors of the JSON codec ([`crate::json`]) and the documents built
/// on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// A document is malformed JSON or has the wrong shape.
    Parse {
        /// What went wrong, with enough context to locate the offender.
        message: String,
    },
    /// A document nests arrays/objects deeper than
    /// [`json::MAX_DEPTH`](crate::json::MAX_DEPTH). Kept apart from
    /// [`Parse`](ObsError::Parse) because no writer in the workspace can
    /// produce it: it marks hostile input, never a truncated write.
    TooDeep {
        /// The nesting limit.
        limit: usize,
        /// Byte offset of the first bracket past the limit.
        offset: usize,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Parse { message } => write!(f, "{message}"),
            ObsError::TooDeep { limit, offset } => write!(
                f,
                "JSON nests deeper than {limit} levels (at byte {offset})"
            ),
        }
    }
}

impl std::error::Error for ObsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ObsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = ObsError::Parse {
            message: "unexpected `]`".into(),
        };
        assert!(e.to_string().contains("unexpected `]`"));
    }

    #[test]
    fn too_deep_display_names_the_limit_and_the_offset() {
        let e = ObsError::TooDeep {
            limit: 128,
            offset: 4096,
        };
        assert_eq!(
            e.to_string(),
            "JSON nests deeper than 128 levels (at byte 4096)"
        );
    }
}
