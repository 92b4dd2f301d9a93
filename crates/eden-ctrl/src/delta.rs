//! The configuration model the control plane plans with. [`ConfigModel`]
//! and [`diff`] live in eden-core's [`config`](eden_core::config) module,
//! where the enclave validates and digests with the same model; this
//! module re-exports them. The plan choice the root and every aggregator
//! make from them — delta or full table — is the fleet engine's.

pub use eden_core::config::{diff, ConfigModel};
