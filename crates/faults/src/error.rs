use std::error::Error;
use std::fmt;

/// Errors produced by the fault-injection layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// A plan parameter was out of range (rates must be probabilities,
    /// magnitudes finite and non-negative, durations non-zero).
    InvalidParameter {
        /// Name of the offending field.
        name: &'static str,
        /// Its value.
        value: f64,
    },
    /// A fault-plan JSON document could not be parsed.
    Parse {
        /// Human-readable description of the first problem found.
        message: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidParameter { name, value } => {
                write!(f, "fault-plan parameter {name} has invalid value {value}")
            }
            FaultError::Parse { message } => write!(f, "fault-plan parse error: {message}"),
        }
    }
}

impl Error for FaultError {}

impl From<hp_obs::ObsError> for FaultError {
    fn from(e: hp_obs::ObsError) -> Self {
        FaultError::Parse {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let samples = vec![
            FaultError::InvalidParameter {
                name: "sensor_dropout_rate",
                value: 2.0,
            },
            FaultError::Parse {
                message: "unexpected token".into(),
            },
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
    }
}
