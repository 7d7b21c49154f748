//! Host-side measurement: the wall clock, in-memory spans, the counting
//! allocator and peak RSS. Everything here measures the *simulator*
//! (host), never the modelled hardware (sim).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded call into a layer.
pub struct Span {
    pub name: &'static str,
    /// Free-form attributes (`nprocs=8 scheme=hardware …`), empty if none.
    pub attrs: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub rep: u32,
}

/// Times calls into layers. Elapsed time is always returned to the caller
/// (the per-leg buckets need it either way); a [`Span`] is kept only when
/// tracing is on, so an untraced run allocates nothing here.
pub struct Tracer {
    pub on: bool,
    pub rep: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    epoch: Instant,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            epoch,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span named `name`; returns its result and host ns.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        attrs: impl FnOnce() -> String,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let start_ns = self.now_ns();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                attrs: attrs(),
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                rep: self.rep,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let r = f(self);
        let end_ns = self.now_ns();
        if let Some(i) = idx {
            self.spans[i].end_ns = end_ns;
            self.open.pop();
        }
        (r, end_ns - start_ns)
    }

    /// Records time that was accumulated piecewise inside the current span
    /// (for example `body.self`, summed over a run's rank bodies) as one
    /// child span of that total length starting where its parent starts.
    pub fn aggregate(&mut self, name: &'static str, total_ns: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = parent.map_or_else(|| self.now_ns(), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            attrs: "aggregated".to_string(),
            start_ns,
            end_ns: start_ns + total_ns,
            parent,
            rep: self.rep,
        });
    }

    /// Per span name for one rep: `(total ns, self ns)`, self being its
    /// spans minus their direct children.
    pub fn totals(&self, rep: u32) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.rep == rep) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += dur;
            e.1 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// One JSON object per line: name, attrs, start, end, parent, rep.
    pub fn render_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"attrs\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
                s.name, s.attrs, s.start_ns, s.end_ns, s.rep
            );
        }
        out
    }
}

/// What one `Instant::now()` + `elapsed()` pair measures around nothing:
/// subtracted from every short bracketed section, or the clock's own cost
/// would be booked as the section's.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..1001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

fn section_ns(t0: Instant) -> u64 {
    (t0.elapsed().as_nanos() as u64).saturating_sub(clock_overhead_ns())
}

/// Host time a rank body spends *between* its `mpib` calls, summed over
/// the ranks of one run. Shared with the body through an `Rc`; the body
/// brackets only sections that contain no `.await`, so a section never
/// includes another coroutine's time.
#[derive(Clone)]
pub struct BodyClock {
    on: bool,
    ns: Rc<Cell<u64>>,
}

impl BodyClock {
    pub fn new(on: bool) -> BodyClock {
        BodyClock {
            on,
            ns: Rc::new(Cell::new(0)),
        }
    }

    #[inline]
    pub fn section<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + section_ns(t0));
        r
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.get()
    }
}

/// Times one call in `every` and scales up, for calls too short and too
/// frequent to bracket each one (`poll_cq`) within the tracing budget.
pub struct SampledClock {
    every: u32,
    calls: Cell<u32>,
    sampled_ns: Cell<u64>,
    sampled: Cell<u32>,
}

impl SampledClock {
    /// `every == 0` disables timing (untraced run).
    pub fn new(every: u32) -> SampledClock {
        SampledClock {
            every,
            calls: Cell::new(0),
            sampled_ns: Cell::new(0),
            sampled: Cell::new(0),
        }
    }

    #[inline]
    pub fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if self.every == 0 || n % self.every != 0 {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.sampled_ns.set(self.sampled_ns.get() + section_ns(t0));
        self.sampled.set(self.sampled.get() + 1);
        r
    }

    /// Estimated total ns over all calls.
    pub fn estimate_ns(&self) -> u64 {
        match self.sampled.get() {
            0 => 0,
            s => (self.sampled_ns.get() as f64 * f64::from(self.calls.get()) / f64::from(s)) as u64,
        }
    }
}

/// Counts allocations while switched on (traced reps only); otherwise one
/// relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note_alloc(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    // Load + store, not `fetch_add`: counting is only ever switched on in
    // a worker, which has one thread, and a locked read-modify-write per
    // allocation would itself be most of the tracing overhead.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_COUNT.store(ALLOC_COUNT.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        ALLOC_BYTES.store(
            ALLOC_BYTES.load(Ordering::Relaxed) + size as u64,
            Ordering::Relaxed,
        );
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
