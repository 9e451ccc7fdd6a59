//! # pinpoint-bench
//!
//! Shared helpers for the Criterion benchmark harness of the reproduction
//! of *"Pinpointing the Memory Behaviors of DNN Training"* (ISPASS 2021):
//! the ablations, the micro-benchmarks, and the store, report and daemon
//! benches with their in-bench guards. The paper's figures are printed by
//! `pinpoint-figures` and their claims asserted by `tests/paper_claims.rs`.
//!
//! Each bench target prints its rows once (so `cargo bench` output
//! doubles as data) and then times the work. Set `PINPOINT_SCALE=paper`
//! to run at full paper scale (slower); the default `quick` scale
//! preserves every result's shape.

pub mod criterion;

/// Benchmark scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced iteration counts; shapes preserved. The default.
    Quick,
    /// The paper's full workload sizes.
    Paper,
}

/// Reads the scale from the `PINPOINT_SCALE` environment variable.
pub fn scale() -> Scale {
    match std::env::var("PINPOINT_SCALE").as_deref() {
        Ok("paper") => Scale::Paper,
        _ => Scale::Quick,
    }
}

/// Picks a value by scale.
pub fn by_scale<T>(quick: T, paper: T) -> T {
    match scale() {
        Scale::Quick => quick,
        Scale::Paper => paper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_quick() {
        // (environment not set in the test harness)
        if std::env::var("PINPOINT_SCALE").is_err() {
            assert_eq!(scale(), Scale::Quick);
            assert_eq!(by_scale(1, 2), 1);
        }
    }
}
