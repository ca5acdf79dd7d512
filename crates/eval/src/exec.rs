//! The retired execution-mode knob.
//!
//! Every physical operator has exactly one implementation — the
//! index-view kernels of [`crate::kernel`] and the chunked selection of
//! [`crate::ops`] — so there is nothing left to select. [`Execution`]
//! remains only so that callers written against the old knob
//! ([`crate::Engine::execution`],
//! [`crate::PhysicalPlan::execute_with_execution`]) keep compiling; no
//! code reads it.

/// A one-variant placeholder for the retired execution-mode knob: it
/// selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Execution {
    /// The only execution there is.
    #[default]
    Vectorized,
}
