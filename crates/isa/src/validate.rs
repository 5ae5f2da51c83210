//! Static validation of service installation against the accelerator's
//! resources.
//!
//! Service installation (§3.1) loads a model's weights and instructions
//! into on-chip buffers; installation must fail cleanly when a service
//! does not fit. This module checks a workload against the §5 SRAM
//! split (20 MB activation / 50 MB weight / 32 KB instruction / 5 MB
//! SIMD registers). Compiled programs are checked against the geometry
//! and the instruction buffer by `equinox_check::resources`.

use crate::models::ModelSpec;
use equinox_arith::Encoding;

/// The on-chip capacity limits a service installs against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferBudget {
    /// Weight buffer capacity, bytes.
    pub weight_bytes: u64,
    /// Activation buffer capacity, bytes.
    pub activation_bytes: u64,
    /// Instruction buffer capacity, bytes.
    pub instruction_bytes: u64,
}

impl BufferBudget {
    /// The paper's SRAM split (§5).
    pub fn paper_default() -> Self {
        BufferBudget {
            weight_bytes: 50 << 20,
            activation_bytes: 20 << 20,
            instruction_bytes: 32 << 10,
        }
    }
}

impl Default for BufferBudget {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Reasons an installation is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The model's weights exceed the weight buffer.
    WeightsDontFit {
        /// Required bytes.
        required: u64,
        /// Available bytes.
        available: u64,
    },
    /// One batch's live activations exceed the activation buffer.
    ActivationsDontFit {
        /// Required bytes.
        required: u64,
        /// Available bytes.
        available: u64,
    },
}

impl ValidationError {
    /// The stable diagnostic code for this error, shared with the
    /// `equinox-check` analyzer's `EQXnnnn` code space so validation
    /// failures and analyzer findings are pinned the same way.
    pub fn code(&self) -> &'static str {
        match self {
            ValidationError::WeightsDontFit { .. } => "EQX0203",
            ValidationError::ActivationsDontFit { .. } => "EQX0204",
        }
    }
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::WeightsDontFit { required, available } => write!(
                f,
                "model weights need {required} bytes but the weight buffer holds {available}"
            ),
            ValidationError::ActivationsDontFit { required, available } => write!(
                f,
                "batch activations need {required} bytes but the activation buffer holds {available}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks whether `model` (served at `batch`) installs onto the
/// geometry under `budget`.
///
/// # Errors
///
/// The first violated constraint, in the order weights → activations.
pub fn validate_installation(
    model: &ModelSpec,
    encoding: Encoding,
    batch: usize,
    budget: &BufferBudget,
) -> Result<(), ValidationError> {
    let bytes_per_value = encoding.bytes_per_value() as u64;
    let weight_bytes = model.weight_params() * bytes_per_value;
    if weight_bytes > budget.weight_bytes {
        return Err(ValidationError::WeightsDontFit {
            required: weight_bytes,
            available: budget.weight_bytes,
        });
    }
    // Live activations: the widest step's outputs for a batch plus one
    // staged im2col row of inputs (the im2col unit streams the lowered
    // activation matrix; it is never materialized), double-buffered.
    let widest: u64 = model
        .steps()
        .iter()
        .map(|s| s.out as u64 * s.rows_per_sample as u64 + s.k as u64)
        .max()
        .unwrap_or(0);
    let act_bytes = 2 * widest * batch as u64 * bytes_per_value;
    if act_bytes > budget.activation_bytes {
        return Err(ValidationError::ActivationsDontFit {
            required: act_bytes,
            available: budget.activation_bytes,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::GemmStep;

    #[test]
    fn paper_workloads_install() {
        let budget = BufferBudget::paper_default();
        // The RNNs batch to the geometry's n; ResNet-50 batches at 8 —
        // its conv1 feature maps exceed the activation buffer at larger
        // batches, which is why Table 2 serves it in small batches.
        for (model, batch) in [
            (ModelSpec::lstm_2048_25(), 186),
            (ModelSpec::gru_2816_1500(), 186),
            (ModelSpec::resnet50(), 8),
        ] {
            validate_installation(&model, Encoding::Hbfp8, batch, &budget)
                .unwrap_or_else(|e| panic!("{} should install: {e}", model.name()));
        }
        // And batch 16 ResNet-50 indeed does not fit.
        assert!(matches!(
            validate_installation(&ModelSpec::resnet50(), Encoding::Hbfp8, 16, &budget),
            Err(ValidationError::ActivationsDontFit { .. })
        ));
    }

    #[test]
    fn oversized_model_rejected() {
        // 100M-parameter dense layer at 2 B/value > 50 MB weight buffer.
        let model = ModelSpec::new("huge", vec![GemmStep::dense(10_000, 10_000)]);
        let err = validate_installation(&model, Encoding::Bfloat16, 1, &BufferBudget::default())
            .unwrap_err();
        assert!(matches!(err, ValidationError::WeightsDontFit { .. }));
        assert!(err.to_string().contains("weight buffer"));
    }

    #[test]
    fn bf16_doubles_footprint() {
        // A model that fits in hbfp8 but not bfloat16.
        let model = ModelSpec::new("edge", vec![GemmStep::dense(6_000, 6_000)]);
        assert!(validate_installation(&model, Encoding::Hbfp8, 1, &BufferBudget::default()).is_ok());
        assert!(
            validate_installation(&model, Encoding::Bfloat16, 1, &BufferBudget::default()).is_err()
        );
    }

    #[test]
    fn huge_batch_activations_rejected() {
        let model = ModelSpec::gru_2816_1500();
        let err = validate_installation(&model, Encoding::Hbfp8, 4096, &BufferBudget::default())
            .unwrap_err();
        assert!(matches!(err, ValidationError::ActivationsDontFit { .. }));
    }

    #[test]
    fn error_codes_are_stable() {
        let weights = ValidationError::WeightsDontFit { required: 2, available: 1 };
        let acts = ValidationError::ActivationsDontFit { required: 2, available: 1 };
        assert_eq!(weights.code(), "EQX0203");
        assert_eq!(acts.code(), "EQX0204");
    }
}
