//! The metrics registry: atomic counters, gauges, and fixed-bucket log2
//! histograms, registered by name + label set under a cardinality cap
//! and rendered in the Prometheus text exposition format.
//!
//! Registration (name lookup under a mutex) is the cold path, done once
//! per site; the returned handles are `Arc`-shared atomics, so recording
//! is lock-free — a relaxed `fetch_add` for counters and histograms, a
//! relaxed `store` for gauges. A handle can also be *detached*
//! ([`Counter::detached`] etc.): it records into private atomics that no
//! registry exports, which is what a registration falls back to when
//! the cardinality cap (or a kind clash) refuses it — counted in
//! [`Registry::dropped_series`], so the hot path never has to handle a
//! `Result` and the loss is never silent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: bucket `i` counts observations `v` with
/// `v <= 2^i` (the first bucket also takes `v = 0`), cumulative bounds
/// `1, 2, 4, …, 2^(HISTOGRAM_BUCKETS-1)`. With 40 buckets the top
/// finite bound is `2^39` — ≈ 9.1 minutes for nanosecond observations —
/// and larger values **saturate into the top bucket** (the count and
/// sum stay exact; only the bucket placement clamps).
pub const HISTOGRAM_BUCKETS: usize = 40;

/// The bucket an observation lands in: the smallest `i` with
/// `value <= 2^i`, clamped to the top bucket.
pub(crate) fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        return 0;
    }
    let index = (64 - (value - 1).leading_zeros()) as usize;
    index.min(HISTOGRAM_BUCKETS - 1)
}

/// How a metric's numeric value is rendered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Unit {
    /// Values are plain numbers (counts, bytes, states).
    None,
    /// Values are recorded in nanoseconds and rendered in **seconds**
    /// (the Prometheus base unit): sample values and histogram bucket
    /// bounds are divided by 1e9 at exposition time.
    Nanos,
}

impl Unit {
    fn render(self, value: u64) -> String {
        match self {
            Unit::None => value.to_string(),
            Unit::Nanos => format_f64(value as f64 / 1e9),
        }
    }
}

/// Formats a float the way Prometheus expects (shortest round-trip;
/// integral values still get a decimal-less form, which the text format
/// accepts).
pub(crate) fn format_f64(value: f64) -> String {
    if value.is_infinite() {
        if value > 0.0 { "+Inf".to_owned() } else { "-Inf".to_owned() }
    } else {
        format!("{value}")
    }
}

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A handle not exported by any registry (records into a private
    /// cell); the cardinality-cap fallback.
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An integer gauge (set to the current value of something).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A handle not exported by any registry.
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Sets the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A float gauge (ratios); stores the `f64` bit pattern atomically.
#[derive(Clone, Debug)]
pub struct GaugeF(Arc<AtomicU64>);

impl GaugeF {
    /// A handle not exported by any registry.
    pub fn detached() -> Self {
        GaugeF(Arc::new(AtomicU64::new(0)))
    }

    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log2 histogram (see [`HISTOGRAM_BUCKETS`] for the
/// bucket layout and top-bucket saturation).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("snapshot", &self.snapshot()).finish()
    }
}

impl Histogram {
    /// A handle not exported by any registry.
    pub fn detached() -> Self {
        Histogram(Arc::new(HistogramCore::new()))
    }

    /// Records one observation: three relaxed atomic adds.
    pub fn observe(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of the observed values so far.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of the current state (individual fields
    /// are read relaxed; concurrent observers may make `count` lag or
    /// lead the bucket total by in-flight observations).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`] (or the accumulated state of
/// a [`LocalHistogram`] shard).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (exact even for saturated
    /// observations).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Accumulates `other` into `self` (shard merging).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) of the observed
    /// values, in the histogram's raw unit (nanoseconds for
    /// [`Unit::Nanos`] histograms — divide by 1e9 for seconds).
    ///
    /// The rank is located in the cumulative bucket counts and the
    /// value interpolated linearly inside the covering bucket's span
    /// (`(2^(i-1), 2^i]`, or `[0, 1]` for the first bucket), so the
    /// estimate is exact at bucket bounds and off by at most one
    /// bucket's width — a factor of 2 — within one, which is the
    /// resolution a log2 histogram has. Returns 0 for an empty
    /// histogram; the top bucket's saturation clamps the estimate to
    /// the top finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += n;
            if cumulative >= rank {
                let lower = if i == 0 { 0.0 } else { (1u64 << (i - 1)) as f64 };
                let upper = (1u64 << i) as f64;
                let into = (rank - before) as f64 / n as f64;
                return lower + (upper - lower) * into;
            }
        }
        (1u64 << (self.buckets.len().saturating_sub(1))) as f64
    }
}

/// A plain (non-atomic, single-owner) histogram shard: observe locally
/// with no atomics at all, then [`LocalHistogram::flush_into`] a shared
/// [`Histogram`] once per batch. Shard merges are exact: the merged
/// snapshot equals what single-threaded observation of the same values
/// would have produced (pinned by the registry proptests).
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty shard.
    pub fn new() -> Self {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation (no atomics). The sum wraps on overflow,
    /// matching the shared histogram's atomic `fetch_add` semantics.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// This shard's accumulated state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.to_vec(),
            count: self.count,
            sum: self.sum,
        }
    }

    /// Adds this shard's state to a shared histogram and empties the
    /// shard.
    pub fn flush_into(&mut self, target: &Histogram) {
        for (bucket, &n) in target.0.buckets.iter().zip(&self.buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        target.0.count.fetch_add(self.count, Ordering::Relaxed);
        target.0.sum.fetch_add(self.sum, Ordering::Relaxed);
        *self = LocalHistogram::new();
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    GaugeF(GaugeF),
    Histogram(Histogram, Unit),
}

impl Handle {
    fn kind_tag(&self) -> (&'static str, Unit) {
        match self {
            Handle::Counter(_) => ("counter", Unit::None),
            Handle::Gauge(_) => ("gauge", Unit::None),
            Handle::GaugeF(_) => ("gauge", Unit::None),
            Handle::Histogram(_, unit) => ("histogram", *unit),
        }
    }
}

struct Series {
    labels: Vec<(String, String)>,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    kind: &'static str,
    unit: Unit,
    series: Vec<Series>,
}

/// Default series cap of a registry: generous for the workspace's fixed
/// instrumentation (a few dozen series) while bounding what a buggy
/// label explosion could allocate or expose.
pub const DEFAULT_SERIES_CAP: usize = 256;

/// A set of registered metrics. Engine instrumentation uses the
/// process-global registry via [`crate::global`]; a component that owns
/// its counters (a `tm-service` service) and tests construct private
/// ones.
pub struct Registry {
    families: Mutex<Vec<Family>>,
    cap: usize,
    /// Registrations refused — by the cardinality cap, or because the
    /// name is registered with a different kind or unit. Each refused
    /// call fell back to a detached handle whose data is invisible;
    /// rendered unconditionally as `tm_obs_dropped_series_total` so the
    /// loss itself is never silent.
    dropped: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry with the default series cap.
    pub fn new() -> Self {
        Self::with_cap(DEFAULT_SERIES_CAP)
    }

    /// An empty registry with an explicit series cap.
    pub fn with_cap(cap: usize) -> Self {
        Registry {
            families: Mutex::new(Vec::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Family>> {
        self.families.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Gets or registers a series, returning its shared handle — or, when
    /// the cap or a kind clash refuses the registration, counts the drop
    /// and returns `probe` itself, a detached handle of the requested
    /// kind. Recording therefore stays infallible at every call site.
    fn get_or_register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        probe: Handle,
    ) -> Handle {
        let (kind, unit) = probe.kind_tag();
        let mut families = self.lock();
        let total: usize = families.iter().map(|f| f.series.len()).sum();
        let index = match families.iter().position(|f| f.name == name) {
            Some(index) => index,
            None => {
                families.push(Family {
                    name: name.to_owned(),
                    help: help.to_owned(),
                    kind,
                    unit,
                    series: Vec::new(),
                });
                families.len() - 1
            }
        };
        let family = &mut families[index];
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        let existing = family.series.iter().find(|s| s.labels == labels);
        let same_kind = (family.kind, family.unit) == (kind, unit)
            && existing.is_none_or(|s| {
                std::mem::discriminant(&s.handle) == std::mem::discriminant(&probe)
            });
        if let (true, Some(series)) = (same_kind, existing) {
            return series.handle.clone();
        }
        if !same_kind || total >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return probe;
        }
        family.series.push(Series {
            labels,
            handle: probe.clone(),
        });
        probe
    }

    /// Gets or registers a counter series (a detached handle if refused).
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_register(name, help, labels, Handle::Counter(Counter::detached())) {
            Handle::Counter(c) => c,
            _ => unreachable!("a registration returns the probe's kind"),
        }
    }

    /// Gets or registers an integer gauge series (detached if refused).
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_register(name, help, labels, Handle::Gauge(Gauge::detached())) {
            Handle::Gauge(g) => g,
            _ => unreachable!("a registration returns the probe's kind"),
        }
    }

    /// Gets or registers a float gauge series (detached if refused).
    pub fn gauge_f(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeF {
        match self.get_or_register(name, help, labels, Handle::GaugeF(GaugeF::detached())) {
            Handle::GaugeF(g) => g,
            _ => unreachable!("a registration returns the probe's kind"),
        }
    }

    /// Gets or registers a histogram series with the given unit
    /// (detached if refused).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        unit: Unit,
    ) -> Histogram {
        let probe = Handle::Histogram(Histogram::detached(), unit);
        match self.get_or_register(name, help, labels, probe) {
            Handle::Histogram(h, _) => h,
            _ => unreachable!("a registration returns the probe's kind"),
        }
    }

    /// Registrations refused so far (each fell back to an invisible
    /// detached handle).
    pub fn dropped_series(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format — [`render_exposition`] of this registry alone.
    pub fn render_prometheus(&self) -> String {
        render_exposition(&[self])
    }
}

/// Renders several registries as **one** Prometheus text exposition
/// (`# HELP` / `# TYPE` comments, one sample line per series;
/// histograms as cumulative `_bucket{le=…}` plus `_sum`/`_count`).
/// The registries must not share a family name. The
/// `tm_obs_dropped_series_total` family appears once, summed over them.
pub fn render_exposition(registries: &[&Registry]) -> String {
    let mut out = String::new();
    for registry in registries {
        for family in registry.lock().iter() {
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind));
            for series in &family.series {
                render_series(&mut out, &family.name, series, family.unit);
            }
        }
    }
    // Rendered outside the family tables so it cannot itself be a
    // victim of the cap it reports on.
    let dropped: u64 = registries.iter().map(|r| r.dropped_series()).sum();
    out.push_str(
        "# HELP tm_obs_dropped_series_total Metric registrations refused by the cardinality cap or a kind clash (recording fell back to detached handles)\n",
    );
    out.push_str("# TYPE tm_obs_dropped_series_total counter\n");
    out.push_str(&format!("tm_obs_dropped_series_total {dropped}\n"));
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_series(out: &mut String, name: &str, series: &Series, unit: Unit) {
    match &series.handle {
        Handle::Counter(c) => {
            out.push_str(&format!(
                "{name}{} {}\n",
                label_block(&series.labels, None),
                c.get()
            ));
        }
        Handle::Gauge(g) => {
            out.push_str(&format!(
                "{name}{} {}\n",
                label_block(&series.labels, None),
                g.get()
            ));
        }
        Handle::GaugeF(g) => {
            out.push_str(&format!(
                "{name}{} {}\n",
                label_block(&series.labels, None),
                format_f64(g.get())
            ));
        }
        Handle::Histogram(h, _) => {
            let snapshot = h.snapshot();
            let mut cumulative = 0u64;
            for (i, count) in snapshot.buckets.iter().enumerate() {
                cumulative += count;
                // Suppress interior all-zero prefixes? No: Prometheus
                // expects the full cumulative series; emit every bound.
                let bound = match unit {
                    Unit::None => format_f64((1u64 << i) as f64),
                    Unit::Nanos => format_f64((1u64 << i) as f64 / 1e9),
                };
                out.push_str(&format!(
                    "{name}_bucket{} {cumulative}\n",
                    label_block(&series.labels, Some(("le", &bound))),
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{} {}\n",
                label_block(&series.labels, Some(("le", "+Inf"))),
                snapshot.count
            ));
            out.push_str(&format!(
                "{name}_sum{} {}\n",
                label_block(&series.labels, None),
                unit.render(snapshot.sum)
            ));
            out.push_str(&format!(
                "{name}_count{} {}\n",
                label_block(&series.labels, None),
                snapshot.count
            ));
        }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry every instrumentation site records into
/// and `/metrics` renders from.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Gets or registers a counter in the global registry.
pub fn global_counter(name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
    global().counter(name, help, labels)
}

/// Gets or registers a histogram in the global registry.
pub fn global_histogram(name: &str, help: &str, labels: &[(&str, &str)], unit: Unit) -> Histogram {
    global().histogram(name, help, labels, unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // v <= 2^i goes in bucket i: exact powers stay put, the next
        // value up moves one bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let bound = 1u64 << i;
            assert_eq!(bucket_index(bound), i, "2^{i} must land on its own bound");
            assert_eq!(bucket_index(bound + 1), i + 1, "2^{i}+1 must spill over");
        }
    }

    #[test]
    fn top_bucket_saturates_and_sum_stays_exact() {
        let h = Histogram::detached();
        let top_bound = 1u64 << (HISTOGRAM_BUCKETS - 1);
        h.observe(top_bound);
        h.observe(top_bound + 1);
        h.observe(u64::MAX / 2);
        let snapshot = h.snapshot();
        assert_eq!(snapshot.buckets[HISTOGRAM_BUCKETS - 1], 3);
        assert_eq!(snapshot.count, 3);
        assert_eq!(snapshot.sum, top_bound + top_bound + 1 + u64::MAX / 2);
        // Cumulative consistency: the top finite bound covers everything.
        let cumulative: u64 = snapshot.buckets.iter().sum();
        assert_eq!(cumulative, snapshot.count);
    }

    #[test]
    fn cardinality_cap_rejects_new_series_but_returns_existing() {
        let registry = Registry::with_cap(2);
        let a = registry.counter("tm_x_total", "x", &[("k", "a")]);
        let _b = registry.counter("tm_x_total", "x", &[("k", "b")]);
        // The third series is refused: a detached handle, counted.
        registry.counter("tm_x_total", "x", &[("k", "c")]).inc();
        assert_eq!(registry.dropped_series(), 1);
        // Existing series are still retrievable at the cap, and the
        // handle aliases the original.
        let a2 = registry.counter("tm_x_total", "x", &[("k", "a")]);
        a.inc();
        assert_eq!(a2.get(), 1);
        let text = registry.render_prometheus();
        let exposition = crate::text::parse_prometheus(&text).expect("renders well formed");
        assert_eq!(exposition.series("tm_x_total").len(), 2);
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let registry = Registry::new();
        registry.counter("tm_thing", "t", &[]).inc();
        registry.gauge("tm_thing", "t", &[]).set(7);
        registry.histogram("tm_h", "h", &[], Unit::Nanos).observe(1);
        registry.histogram("tm_h", "h", &[], Unit::None).observe(1);
        registry.gauge("tm_g", "g", &[]).set(1);
        registry.gauge_f("tm_g", "g", &[]).set(0.5);
        // Each clash fell back to a detached handle; the families keep
        // their first kind and value.
        assert_eq!(registry.dropped_series(), 3);
        let text = registry.render_prometheus();
        let exposition = crate::text::parse_prometheus(&text).expect("renders well formed");
        assert_eq!(exposition.types["tm_thing"], "counter");
        assert_eq!(exposition.series("tm_thing")[0].value, 1.0);
        assert_eq!(exposition.series("tm_h_count")[0].value, 1.0);
        assert_eq!(exposition.series("tm_g")[0].value, 1.0);
    }

    #[test]
    fn local_shards_merge_to_the_single_threaded_answer() {
        let values: Vec<u64> = (0..1000).map(|i| (i * i * 31) % 100_000).collect();
        // Single-threaded reference.
        let mut reference = LocalHistogram::new();
        for &v in &values {
            reference.observe(v);
        }
        // Four shards, interleaved assignment, merged.
        let mut shards = vec![LocalHistogram::new(); 4];
        for (i, &v) in values.iter().enumerate() {
            shards[i % 4].observe(v);
        }
        let mut merged = HistogramSnapshot::default();
        for shard in &shards {
            merged.merge(&shard.snapshot());
        }
        assert_eq!(merged, reference.snapshot());
        // Flushing the shards into a shared histogram agrees too.
        let shared = Histogram::detached();
        for shard in &mut shards {
            shard.flush_into(&shared);
        }
        assert_eq!(shared.snapshot(), reference.snapshot());
        assert_eq!(shards[0].snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn dropped_series_are_counted_and_rendered() {
        let registry = Registry::with_cap(1);
        registry.counter("tm_a_total", "a", &[]);
        assert_eq!(registry.dropped_series(), 0);
        registry.counter("tm_b_total", "b", &[]);
        registry.gauge("tm_c", "c", &[]);
        assert_eq!(registry.dropped_series(), 2);
        // Re-resolving an existing series at the cap is not a drop.
        registry.counter("tm_a_total", "a", &[]);
        assert_eq!(registry.dropped_series(), 2);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE tm_obs_dropped_series_total counter"));
        assert!(text.contains("tm_obs_dropped_series_total 2"));
        // The exposition with the synthetic family still parses.
        let exposition = crate::text::parse_prometheus(&text).expect("renders well formed");
        assert!(exposition.has_series("tm_obs_dropped_series_total"));
    }

    #[test]
    fn one_exposition_over_several_registries() {
        let service = Registry::with_cap(1);
        service.counter("tm_a_total", "a", &[]).add(2);
        service.counter("tm_b_total", "b", &[]);
        let process = Registry::new();
        process.histogram("tm_h_seconds", "h", &[], Unit::Nanos).observe(5);
        let text = render_exposition(&[&service, &process]);
        // Every family once, the dropped-series footer summed over both.
        let exposition = crate::text::parse_prometheus(&text).expect("one well-formed exposition");
        assert_eq!(exposition.series("tm_a_total")[0].value, 2.0);
        assert!(exposition.has_series("tm_h_seconds"));
        assert_eq!(exposition.series("tm_obs_dropped_series_total")[0].value, 1.0);
    }

    #[test]
    fn quantile_estimator_is_pinned_against_known_samples() {
        // 8 observations of 1 (bucket 0: [0, 1]) and 2 of 3 (bucket 2:
        // (2, 4]); count = 10.
        let h = Histogram::detached();
        for _ in 0..8 {
            h.observe(1);
        }
        h.observe(3);
        h.observe(3);
        let s = h.snapshot();
        // p50: rank 5 of 8 in bucket 0 → 0 + (5/8)·(1-0) = 0.625.
        assert!((s.quantile(0.5) - 0.625).abs() < 1e-9);
        // p80: rank 8 closes bucket 0 exactly → its upper bound, 1.
        assert!((s.quantile(0.8) - 1.0).abs() < 1e-9);
        // p90: rank 9 is the 1st of 2 in bucket 2 → 2 + (1/2)·(4-2) = 3.
        assert!((s.quantile(0.9) - 3.0).abs() < 1e-9);
        // p99 and p100: rank 10 closes bucket 2 → 4.
        assert!((s.quantile(0.99) - 4.0).abs() < 1e-9);
        assert!((s.quantile(1.0) - 4.0).abs() < 1e-9);
        // Degenerate inputs.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
        let one = Histogram::detached();
        one.observe(0);
        assert!(one.snapshot().quantile(0.5) <= 1.0);
        // Out-of-range q clamps instead of panicking.
        assert!((s.quantile(-1.0) - s.quantile(0.0)).abs() < 1e-9);
        assert!((s.quantile(2.0) - s.quantile(1.0)).abs() < 1e-9);
    }

    #[test]
    fn render_emits_cumulative_buckets_and_labels() {
        let registry = Registry::new();
        let c = registry.counter("tm_q_total", "queries", &[("result", "ok")]);
        c.add(3);
        let h = registry.histogram("tm_lat_seconds", "latency", &[], Unit::Nanos);
        h.observe(1_000_000_000); // exactly 2^30 < 1s < 2^31 ns? (2^30 ≈ 1.07e9) — 1e9 <= 2^30
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE tm_q_total counter"));
        assert!(text.contains("tm_q_total{result=\"ok\"} 3"));
        assert!(text.contains("# TYPE tm_lat_seconds histogram"));
        assert!(text.contains("tm_lat_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("tm_lat_seconds_count 1"));
        assert!(text.contains("tm_lat_seconds_sum 1"));
        // The checker in `text` accepts our own exposition.
        let exposition = crate::text::parse_prometheus(&text).expect("self-render parses");
        assert!(exposition.has_series("tm_q_total"));
        assert!(exposition.has_series("tm_lat_seconds"));
    }
}
