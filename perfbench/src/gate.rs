//! The correctness gate and failure accounting behind `attempted`,
//! `failed` and the exit status.
//!
//! An operation fails when it panics, when its output does not reproduce
//! the first output recorded under the same key (or a reference computed
//! another way), or when a planned injection did not fire.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What one operation produced, as far as the gate is concerned.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Work units completed (images or planned trials).
    pub units: u64,
    /// A digest of the output that must repeat exactly under the same key.
    pub digest: String,
    /// Whether every planned injection fired.
    pub fired: bool,
}

/// Counts attempted and failed operations and remembers expected outputs.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    expected: HashMap<String, String>,
    failures: Vec<String>,
}

impl Gate {
    /// Records `digest` as the expected output for `key` without counting
    /// an operation (a reference computed outside the timed loop).
    pub fn expect(&mut self, key: &str, digest: String) {
        self.expected.insert(key.to_string(), digest);
    }

    /// Runs one operation under `key`, catching a panic, and checks its
    /// outcome. Returns the outcome when the operation passed.
    pub fn op(&mut self, key: &str, f: impl FnOnce() -> Outcome) -> Option<Outcome> {
        self.attempted += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(o) => o,
            Err(_) => return self.fail(key, "panicked"),
        };
        if !outcome.fired {
            return self.fail(key, "a planned injection did not fire");
        }
        match self.expected.get(key) {
            Some(want) if *want != outcome.digest => {
                let why = format!("output {} differs from expected {want}", outcome.digest);
                self.fail(key, &why)
            }
            Some(_) => Some(outcome),
            None => {
                self.expected.insert(key.to_string(), outcome.digest.clone());
                Some(outcome)
            }
        }
    }

    /// Counts a one-off check (e.g. an engine-identity comparison) as one
    /// attempted operation, failed when `ok` is false.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what, "check failed");
        }
    }

    fn fail(&mut self, key: &str, why: &str) -> Option<Outcome> {
        self.failed += 1;
        eprintln!("[perfbench] FAILED {key}: {why}");
        self.failures.push(format!("{key}: {why}"));
        None
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The process exit status the run must end with.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }
}

/// FNV-1a digest of a byte string, as fixed-width hex.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", formats::hash::fnv1a(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(digest: &str) -> Outcome {
        Outcome { units: 1, digest: digest.to_string(), fired: true }
    }

    #[test]
    fn repeated_outputs_pass() {
        let mut g = Gate::default();
        assert!(g.op("a", || ok("x")).is_some());
        assert!(g.op("a", || ok("x")).is_some());
        assert!(g.op("b", || ok("y")).is_some());
        assert_eq!((g.attempted(), g.failed(), g.exit_code()), (3, 0, 0));
    }

    #[test]
    fn a_changed_output_fails_the_run() {
        let mut g = Gate::default();
        g.op("a", || ok("x"));
        assert!(g.op("a", || ok("z")).is_none());
        assert_eq!((g.attempted(), g.failed()), (2, 1));
        assert!(!g.correct());
        assert_ne!(g.exit_code(), 0);
    }

    #[test]
    fn a_reference_mismatch_fails_the_first_op() {
        let mut g = Gate::default();
        g.expect("a", "ref".to_string());
        assert!(g.op("a", || ok("x")).is_none());
        assert_eq!(g.failed(), 1);
    }

    #[test]
    fn a_panic_or_unfired_injection_fails() {
        let mut g = Gate::default();
        assert!(g.op("p", || panic!("boom")).is_none());
        assert!(g.op("q", || Outcome { fired: false, ..ok("x") }).is_none());
        g.check("identity", false);
        assert_eq!((g.attempted(), g.failed()), (3, 3));
        assert_eq!(g.exit_code(), 1);
    }
}
