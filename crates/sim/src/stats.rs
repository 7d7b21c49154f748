//! Lightweight statistics helpers shared by the fabric and MPI layers.

use std::fmt;

/// A monotonically increasing counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A counter holding `v` (snapshot decode).
impl From<u64> for Counter {
    fn from(v: u64) -> Self {
        Counter(v)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Tracks the maximum of a series of observations (e.g. the paper's Table 2:
/// maximum number of posted buffers per connection).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Peak(u64);

impl Peak {
    /// Observes a value; retains the maximum seen.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if v > self.0 {
            self.0 = v;
        }
    }

    /// Maximum observed so far (zero if nothing observed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A peak whose maximum so far is `v` (snapshot decode).
impl From<u64> for Peak {
    fn from(v: u64) -> Self {
        Peak(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_peak() {
        let mut c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut p = Peak::default();
        p.observe(3);
        p.observe(1);
        p.observe(7);
        p.observe(2);
        assert_eq!(p.get(), 7);
    }
}
