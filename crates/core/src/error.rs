//! Error type aggregating the substrate failures an experiment can hit.

use carbon_logic::LogicError;
use carbon_spice::SpiceError;

/// Errors from running a paper experiment.
#[derive(Debug)]
pub enum CoreError {
    /// A device model could not be built.
    Device(String),
    /// The circuit simulator failed.
    Circuit(SpiceError),
    /// Logic-level analysis failed.
    Logic(LogicError),
    /// A figure of merit could not be extracted from simulated data.
    Extract(String),
    /// The experiment observed a cooperative-cancellation request (an
    /// explicit cancel or an expired deadline on the installed
    /// [`carbon_runtime::cancel::CancelToken`]) at one of its own
    /// checkpoints and stopped early.
    Cancelled {
        /// Which experiment was running when the checkpoint fired.
        experiment: &'static str,
    },
}

impl CoreError {
    /// Whether the experiment stopped for a cancellation: at one of its
    /// own checkpoints, or in a solve of its circuit or logic analysis.
    pub fn is_cancelled(&self) -> bool {
        matches!(
            self,
            Self::Cancelled { .. }
                | Self::Circuit(SpiceError::Cancelled { .. })
                | Self::Logic(LogicError::Simulation(SpiceError::Cancelled { .. }))
        )
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Device(msg) => write!(f, "device model failed: {msg}"),
            Self::Circuit(e) => write!(f, "circuit simulation failed: {e}"),
            Self::Logic(e) => write!(f, "logic analysis failed: {e}"),
            Self::Extract(msg) => write!(f, "extraction failed: {msg}"),
            Self::Cancelled { experiment } => {
                write!(
                    f,
                    "{experiment} cancelled (deadline exceeded or job cancelled)"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Circuit(e) => Some(e),
            Self::Logic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpiceError> for CoreError {
    fn from(e: SpiceError) -> Self {
        Self::Circuit(e)
    }
}

impl From<LogicError> for CoreError {
    fn from(e: LogicError) -> Self {
        Self::Logic(e)
    }
}

impl From<carbon_fab::CampaignCancelled> for CoreError {
    fn from(_: carbon_fab::CampaignCancelled) -> Self {
        Self::Cancelled {
            experiment: "§V adaptive campaign",
        }
    }
}

impl From<carbon_devices::metrics::ExtractError> for CoreError {
    fn from(e: carbon_devices::metrics::ExtractError) -> Self {
        Self::Extract(e.to_string())
    }
}

impl From<Box<dyn std::error::Error + Send + Sync>> for CoreError {
    fn from(e: Box<dyn std::error::Error + Send + Sync>) -> Self {
        Self::Device(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = SpiceError::UnknownNode { name: "x".into() }.into();
        assert!(e.to_string().contains("circuit"));
        assert!(std::error::Error::source(&e).is_some());
        let e: CoreError = LogicError::InvalidParameter { reason: "r".into() }.into();
        assert!(e.to_string().contains("logic"));
        let e = CoreError::Extract("no crossing".into());
        assert!(e.to_string().contains("no crossing"));
    }

    #[test]
    fn cancellation_is_recognised_however_it_is_wrapped() {
        let solve = || SpiceError::Cancelled {
            analysis: "dc newton solve",
        };
        let cancelled = [
            CoreError::Cancelled { experiment: "fig5" },
            CoreError::from(carbon_fab::CampaignCancelled),
            CoreError::Circuit(solve()),
            CoreError::Logic(LogicError::Simulation(solve())),
        ];
        for e in &cancelled {
            assert!(e.is_cancelled(), "{e}");
            assert!(e.to_string().contains("cancelled"), "{e}");
        }
        let failed = [
            CoreError::Circuit(SpiceError::UnknownNode { name: "x".into() }),
            CoreError::Logic(LogicError::InvalidParameter { reason: "r".into() }),
            CoreError::Extract("no crossing".into()),
        ];
        assert!(failed.iter().all(|e| !e.is_cancelled()));
    }
}
