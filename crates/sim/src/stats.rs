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

/// Power-of-two bucketed histogram for message sizes / latencies.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: None,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest observation (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An approximate quantile (bucket upper bound); `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = self.max.max(other.max);
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

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 15);
        assert_eq!(h.mean(), Some(3.75));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), 8);
    }

    #[test]
    fn histogram_zero_and_quantiles() {
        let mut h = Histogram::new();
        h.record(0);
        for _ in 0..99 {
            h.record(100);
        }
        assert_eq!(h.min(), Some(0));
        // Median falls in the bucket containing 100 (2^7 = 128 upper bound).
        assert_eq!(h.quantile(0.5), 128);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(50);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 55);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), 50);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.99), 0);
    }
}
