//! Error type for the interpretation methods.

use openapi_linalg::LinalgError;
use std::fmt;

/// Why an interpretation attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpretError {
    /// OpenAPI exhausted its iteration budget without finding a consistent
    /// system for every contrast class (probability-0 for interior points,
    /// but reachable for boundary points, degraded APIs, or non-PLM
    /// targets — the diagnostics say which contrasts kept failing).
    BudgetExhausted {
        /// Iterations performed (the `m` of Algorithm 1).
        iterations: usize,
        /// Final hypercube edge length when the budget ran out.
        final_edge: f64,
        /// Contrast classes `c'` still lacking a consistent system.
        unsatisfied: Vec<usize>,
        /// Prediction queries issued, `x⁰`'s probe included (as
        /// [`crate::openapi::OpenApiResult::queries`] counts them).
        queries: usize,
    },
    /// The target class is out of range for the model.
    ClassOutOfRange {
        /// Requested class.
        class: usize,
        /// Number of classes the model reports.
        num_classes: usize,
    },
    /// The model must have at least two classes to define decision features.
    TooFewClasses {
        /// Number of classes the model reports.
        num_classes: usize,
    },
    /// The instance dimensionality disagrees with the API.
    DimensionMismatch {
        /// Expected dimensionality (API's `dim()`).
        expected: usize,
        /// Found instance length.
        found: usize,
    },
    /// An instance feature is NaN or infinite: no hypercube around it holds
    /// a finite sample, so no query could make progress.
    NonFiniteInstance {
        /// Index of the first non-finite feature.
        index: usize,
    },
    /// A linear-algebra failure that sampling retries could not clear.
    Numerical(LinalgError),
}

impl fmt::Display for InterpretError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpretError::BudgetExhausted { iterations, final_edge, unsatisfied, queries } => write!(
                f,
                "no consistent system after {iterations} iterations and {queries} queries (edge {final_edge:.3e}; contrasts still failing: {unsatisfied:?})"
            ),
            InterpretError::ClassOutOfRange { class, num_classes } => {
                write!(f, "class {class} out of range ({num_classes} classes)")
            }
            InterpretError::TooFewClasses { num_classes } => {
                write!(f, "need at least 2 classes, model has {num_classes}")
            }
            InterpretError::DimensionMismatch { expected, found } => {
                write!(f, "instance has dimension {found}, API expects {expected}")
            }
            InterpretError::NonFiniteInstance { index } => {
                write!(f, "instance feature {index} is not finite")
            }
            InterpretError::Numerical(e) => write!(f, "numerical failure: {e}"),
        }
    }
}

impl std::error::Error for InterpretError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InterpretError::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for InterpretError {
    fn from(e: LinalgError) -> Self {
        InterpretError::Numerical(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_facts() {
        let e = InterpretError::BudgetExhausted {
            iterations: 100,
            final_edge: 7.8e-31,
            unsatisfied: vec![3, 7],
            queries: 1601,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("1601"));
        assert!(s.contains('3') && s.contains('7'));

        assert!(InterpretError::ClassOutOfRange {
            class: 5,
            num_classes: 3
        }
        .to_string()
        .contains("5"));
        assert!(InterpretError::NonFiniteInstance { index: 17 }
            .to_string()
            .contains("17"));
    }

    #[test]
    fn linalg_errors_convert_and_chain() {
        let src = LinalgError::Singular {
            pivot: 1,
            magnitude: 0.0,
        };
        let e: InterpretError = src.clone().into();
        assert_eq!(e, InterpretError::Numerical(src));
        assert!(std::error::Error::source(&e).is_some());
    }
}
