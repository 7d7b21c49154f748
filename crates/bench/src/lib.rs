//! `ibflow-bench` — the harness that regenerates every table and figure of
//! *"Implementing Efficient and Scalable Flow Control Schemes in MPI over
//! InfiniBand"* (Liu & Panda, IPDPS 2004).
//!
//! * [`micro`] — the paper's §6.2 micro-benchmarks: ping-pong latency and
//!   windowed bandwidth (blocking and non-blocking variants).
//! * [`nas`] — the §6.3 application harness running the NAS kernels under
//!   each flow control scheme and pre-post depth.
//! * [`report`] — plain-text table formatting.
//! * [`experiments`] — the [`EXPERIMENTS`] table: every figure, table,
//!   ablation and battery by name, title and render function, behind the
//!   one `ibflow-bench` binary.
//!
//! All numbers are *virtual-time* measurements from the deterministic
//! simulation, so every figure regenerates bit-identically.

pub mod ablations;
pub mod chaos;
pub mod ckpt;
pub mod experiments;
pub mod figures;
pub mod micro;
pub mod nas;
pub mod report;

pub use experiments::EXPERIMENTS;
pub use micro::{bandwidth_test, latency_test, BandwidthResult, MicroParams};

use nasbench::NasClass;

/// Parses a NAS class name (`test`, `w`, or `a`, case-insensitive).
pub fn nas_class_from_str(s: &str) -> Option<NasClass> {
    match s.to_lowercase().as_str() {
        "test" => Some(NasClass::Test),
        "w" => Some(NasClass::W),
        "a" => Some(NasClass::A),
        _ => None,
    }
}

/// Reads the NAS class for application figures from `IBFLOW_CLASS`
/// (`test`, `w`, or `a`); defaults to the paper-scale `W` when unset or
/// empty.
///
/// # Panics
///
/// Panics on an unrecognized value — a typo like `IBFLOW_CLASS=W4`
/// silently falling back to `W` would mislabel a whole battery run.
pub fn nas_class_from_env() -> NasClass {
    let raw = std::env::var("IBFLOW_CLASS").unwrap_or_default();
    if raw.is_empty() {
        return NasClass::W;
    }
    nas_class_from_str(&raw)
        .unwrap_or_else(|| panic!("unrecognized IBFLOW_CLASS={raw:?}: expected one of test, w, a"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_parsing_is_strict() {
        assert_eq!(nas_class_from_str("test"), Some(NasClass::Test));
        assert_eq!(nas_class_from_str("W"), Some(NasClass::W));
        assert_eq!(nas_class_from_str("a"), Some(NasClass::A));
        assert_eq!(nas_class_from_str("w4"), None);
        assert_eq!(nas_class_from_str("B"), None);
        assert_eq!(nas_class_from_str(""), None);
    }
}
