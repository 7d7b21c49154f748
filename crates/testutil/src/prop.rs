//! Minimal property-based testing: seeded generation, failure-seed
//! reporting, greedy shrinking.
//!
//! A test defines a [`Case`] type (how to generate an input and how to
//! propose smaller variants of it) and calls [`check`] with a property
//! closure that panics on violation. On failure the harness re-runs the
//! property on shrink candidates, keeping any candidate that still fails,
//! until no candidate fails — then reports the original input, the
//! minimized input, and the seed needed to reproduce the run.
//!
//! Shrinking is *bounds-aware by construction*: `Case::shrink` proposes
//! candidates, so each test encodes its own invariants (non-empty vectors,
//! `prepost >= 1`, …) instead of relying on a strategy DSL.

use ibsim::rng::{det_rng, DetRng};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default base seed; override with the `IBFLOW_PROP_SEED` environment
/// variable (decimal or `0x`-prefixed hex) to replay a reported failure.
pub const DEFAULT_SEED: u64 = 0x1BF1_0001_5EED_CAFE;

/// Environment variable that overrides the base seed.
pub const SEED_ENV: &str = "IBFLOW_PROP_SEED";

/// Random-input generator handed to [`Case::generate`].
pub struct Gen {
    rng: DetRng,
}

impl Gen {
    /// A generator for one case of one property, derived from
    /// `(seed, case_index)`.
    pub fn new(seed: u64, case_index: u64) -> Self {
        Gen {
            rng: det_rng(seed, case_index),
        }
    }

    /// Uniform `usize` in `range`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.rng.gen_range(range)
    }

    /// Uniform `u32` in `range`.
    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        self.rng.gen_range(range)
    }

    /// Uniform `u64` in `range`.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        self.rng.gen_range(range)
    }

    /// Fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    /// Uniform index into a collection of `n` elements.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `elem`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut elem: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| elem(self)).collect()
    }
}

/// A property-test input: how to build one from randomness, and how to
/// propose strictly "smaller" variants for shrinking.
pub trait Case: Clone + Debug {
    /// Draws one input.
    fn generate(g: &mut Gen) -> Self;

    /// Proposes shrink candidates (each plausibly still violating the
    /// property, each simpler than `self`). Empty means unshrinkable.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed (every case derives from `(seed, case_index)`).
    pub seed: u64,
    /// Cap on total property re-executions during shrinking.
    pub max_shrink: u32,
}

impl Config {
    /// `cases` random cases with the default (or env-overridden) seed.
    pub fn cases(cases: u32) -> Self {
        Config {
            cases,
            seed: seed_from_env(),
            max_shrink: 500,
        }
    }
}

fn seed_from_env() -> u64 {
    match std::env::var(SEED_ENV) {
        Ok(s) => parse_seed(&s)
            .unwrap_or_else(|| panic!("{SEED_ENV}={s:?} is not a decimal or 0x-hex u64")),
        Err(_) => DEFAULT_SEED,
    }
}

pub(crate) fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// A minimized counterexample found by [`find_failure`].
#[derive(Clone, Debug)]
pub struct Failure<C> {
    /// Base seed of the run that found it.
    pub seed: u64,
    /// Index of the failing case within the run.
    pub case_index: u32,
    /// The input as originally generated.
    pub original: C,
    /// The input after greedy shrinking.
    pub minimal: C,
    /// Panic message of the minimal input's failure.
    pub message: String,
    /// Number of successful shrink steps applied.
    pub shrink_steps: u32,
}

fn run_once<C: Case>(prop: &impl Fn(&C), case: &C) -> Result<(), String> {
    let result = catch_unwind(AssertUnwindSafe(|| prop(case)));
    match result {
        Ok(()) => Ok(()),
        Err(payload) => Err(panic_text(&*payload)),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `cfg.cases` random cases of `prop`; returns the first failure,
/// greedily minimized, or `None` if every case passed.
pub fn find_failure<C: Case>(cfg: &Config, prop: impl Fn(&C)) -> Option<Failure<C>> {
    for i in 0..cfg.cases {
        let mut g = Gen::new(cfg.seed, i as u64);
        let case = C::generate(&mut g);
        if let Err(first_msg) = run_once(&prop, &case) {
            // Greedy shrink: take the first still-failing candidate each
            // round; stop when a round yields none (or budget runs out).
            let mut minimal = case.clone();
            let mut message = first_msg;
            let mut steps = 0u32;
            let mut budget = cfg.max_shrink;
            'shrinking: loop {
                for cand in minimal.shrink() {
                    if budget == 0 {
                        break 'shrinking;
                    }
                    budget -= 1;
                    if let Err(msg) = run_once(&prop, &cand) {
                        minimal = cand;
                        message = msg;
                        steps += 1;
                        continue 'shrinking;
                    }
                }
                break;
            }
            return Some(Failure {
                seed: cfg.seed,
                case_index: i,
                original: case,
                minimal,
                message,
                shrink_steps: steps,
            });
        }
    }
    None
}

/// Runs `cases` random cases of `prop` named `name`; panics with a
/// reproduction report on the first (minimized) failure.
pub fn check<C: Case>(name: &str, cases: u32, prop: impl Fn(&C)) {
    check_with(name, &Config::cases(cases), prop);
}

/// [`check`] with explicit configuration.
pub fn check_with<C: Case>(name: &str, cfg: &Config, prop: impl Fn(&C)) {
    if let Some(f) = find_failure(cfg, prop) {
        panic!(
            "property '{name}' failed at case {idx}/{total}.\n\
             reproduce with: {env}={seed:#x} (base seed)\n\
             original input: {orig:?}\n\
             minimal input ({steps} shrink steps): {min:?}\n\
             failure: {msg}",
            idx = f.case_index,
            total = cfg.cases,
            env = SEED_ENV,
            seed = f.seed,
            orig = f.original,
            steps = f.shrink_steps,
            min = f.minimal,
            msg = f.message,
        );
    }
}

/// Bounds-aware shrink moves for common input shapes.
pub mod shrink {
    /// Candidates for an integer, moving toward `lo` (binary then linear).
    pub fn u32_toward(v: u32, lo: u32) -> Vec<u32> {
        int_toward(v as u64, lo as u64)
            .into_iter()
            .map(|x| x as u32)
            .collect()
    }

    /// Candidates for a `u64`, moving toward `lo`.
    pub fn u64_toward(v: u64, lo: u64) -> Vec<u64> {
        int_toward(v, lo)
    }

    /// Candidates for a `usize`, moving toward `lo`.
    pub fn usize_toward(v: usize, lo: usize) -> Vec<usize> {
        int_toward(v as u64, lo as u64)
            .into_iter()
            .map(|x| x as usize)
            .collect()
    }

    fn int_toward(v: u64, lo: u64) -> Vec<u64> {
        if v <= lo {
            return Vec::new();
        }
        let mut out = vec![lo, lo + (v - lo) / 2, v - 1];
        out.dedup();
        out.retain(|&x| x < v);
        out
    }

    /// `true` shrinks to `false`.
    pub fn bool_toward_false(v: bool) -> Vec<bool> {
        if v {
            vec![false]
        } else {
            Vec::new()
        }
    }

    /// Candidates for a vector: chunk removals (halving block sizes, never
    /// below `min_len`) followed by per-element shrinks via `elem`.
    pub fn vec_candidates<T: Clone>(
        v: &[T],
        min_len: usize,
        elem: impl Fn(&T) -> Vec<T>,
    ) -> Vec<Vec<T>> {
        let n = v.len();
        let mut out: Vec<Vec<T>> = Vec::new();
        let mut k = n / 2;
        while k >= 1 {
            if n - k >= min_len {
                let mut start = 0;
                while start + k <= n {
                    let mut cand = Vec::with_capacity(n - k);
                    cand.extend_from_slice(&v[..start]);
                    cand.extend_from_slice(&v[start + k..]);
                    out.push(cand);
                    start += k;
                }
            }
            k /= 2;
        }
        for (i, x) in v.iter().enumerate() {
            for smaller in elem(x).into_iter().take(3) {
                let mut cand = v.to_vec();
                cand[i] = smaller;
                out.push(cand);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2A"), Some(42));
        assert_eq!(parse_seed(" 0X2a "), Some(42));
        assert_eq!(parse_seed("nope"), None);
    }

    /// Test input: a non-empty vector of bounded u32s. Shrinks keep the
    /// vector non-empty and the values in-range, which the assertions in
    /// `shrinking_respects_bounds` rely on.
    #[derive(Clone, Debug, PartialEq)]
    struct SmallVec(Vec<u32>);

    impl Case for SmallVec {
        fn generate(g: &mut Gen) -> Self {
            SmallVec(g.vec(1..20, |g| g.u32_in(0..100)))
        }
        fn shrink(&self) -> Vec<Self> {
            shrink::vec_candidates(&self.0, 1, |&x| shrink::u32_toward(x, 0))
                .into_iter()
                .map(SmallVec)
                .collect()
        }
    }

    #[test]
    fn passing_property_stays_silent() {
        check("all in range", 64, |c: &SmallVec| {
            assert!(!c.0.is_empty() && c.0.iter().all(|&x| x < 100));
        });
    }

    #[test]
    fn failing_property_reports_seed_and_name() {
        let result = std::panic::catch_unwind(|| {
            check("bounded sum", 64, |c: &SmallVec| {
                assert!(c.0.iter().map(|&x| x as u64).sum::<u64>() < 40);
            });
        });
        let msg = match result {
            Ok(()) => panic!("property should have failed"),
            Err(p) => super::panic_text(&*p),
        };
        assert!(msg.contains("property 'bounded sum' failed"), "{msg}");
        assert!(msg.contains(SEED_ENV), "{msg}");
        assert!(msg.contains("minimal input"), "{msg}");
    }

    #[test]
    fn greedy_shrink_finds_the_minimal_counterexample() {
        // Fails iff some element >= 10: the unique minimal input is [10].
        let cfg = Config {
            cases: 64,
            seed: DEFAULT_SEED,
            max_shrink: 2_000,
        };
        let f = find_failure(&cfg, |c: &SmallVec| {
            assert!(c.0.iter().all(|&x| x < 10), "element >= 10");
        })
        .expect("property must fail");
        assert_eq!(f.minimal, SmallVec(vec![10]), "not fully minimized: {f:?}");
        assert!(f.shrink_steps > 0);
        assert!(f.message.contains("element >= 10"));
    }

    #[test]
    fn shrinking_respects_bounds() {
        // Always-failing property: shrinking explores candidates
        // aggressively, but Case::shrink never proposes an out-of-bounds
        // input, so the minimum is the smallest *legal* input.
        let cfg = Config {
            cases: 4,
            seed: DEFAULT_SEED,
            max_shrink: 2_000,
        };
        let f = find_failure(&cfg, |c: &SmallVec| {
            assert!(!c.0.is_empty(), "generator/shrinker produced empty vec");
            assert!(c.0.iter().all(|&x| x < 100), "value out of range");
            panic!("always fails");
        })
        .expect("property always fails");
        assert_eq!(f.minimal, SmallVec(vec![0]));
        assert_eq!(f.message, "always fails");
    }

    #[test]
    fn same_seed_same_cases() {
        fn collect(seed: u64) -> Vec<SmallVec> {
            (0..16)
                .map(|i| SmallVec::generate(&mut Gen::new(seed, i)))
                .collect()
        }
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn shrink_budget_is_respected() {
        // With a zero budget the failure is reported unminimized.
        let cfg = Config {
            cases: 8,
            seed: DEFAULT_SEED,
            max_shrink: 0,
        };
        let f = find_failure(&cfg, |_c: &SmallVec| panic!("boom")).expect("fails");
        assert_eq!(f.shrink_steps, 0);
        assert_eq!(format!("{:?}", f.original), format!("{:?}", f.minimal));
    }

    #[test]
    fn int_shrink_moves_toward_lower_bound() {
        assert_eq!(shrink::u32_toward(0, 0), Vec::<u32>::new());
        assert_eq!(shrink::u32_toward(1, 1), Vec::<u32>::new());
        let c = shrink::u32_toward(100, 1);
        assert!(c.contains(&1) && c.contains(&50) && c.contains(&99));
        assert!(c.iter().all(|&x| (1..100).contains(&x)));
        assert_eq!(shrink::bool_toward_false(false), Vec::<bool>::new());
        assert_eq!(shrink::bool_toward_false(true), vec![false]);
    }

    #[test]
    fn vec_candidates_never_undershoot_min_len() {
        let v = vec![5u32; 9];
        for cand in shrink::vec_candidates(&v, 3, |&x| shrink::u32_toward(x, 0)) {
            assert!(cand.len() >= 3, "candidate too short: {cand:?}");
        }
    }
}
