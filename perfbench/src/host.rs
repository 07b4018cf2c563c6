//! CPU time the host steals from this machine's CPUs. On a shared VM the
//! hypervisor runs other guests on our CPUs; `/proc/stat` counts that
//! time as `steal`. The benchmark reports wall-clock metrics on the time
//! the host actually gave the machine, so a neighbour's load does not
//! read as a change of the program.

/// Cumulative `/proc/stat` ticks of all CPUs: time the CPUs ran
/// (user, nice, system, irq, softirq) and time they wanted to run but
/// the host ran someone else (steal).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    /// The current totals; zeros where `/proc/stat` is unreadable (no
    /// correction is then applied).
    pub fn now() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let field = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal …
        CpuTicks {
            busy: field(0) + field(1) + field(2) + field(5) + field(6),
            steal: field(7),
        }
    }

    /// Share of the CPU time wanted since `earlier` that the host stole.
    pub fn stolen_since(self, earlier: CpuTicks) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        let steal = self.steal.saturating_sub(earlier.steal);
        if busy + steal == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }
}

/// Latencies on host-given time: requests are grouped into slices of at
/// least [`SLICE`] wall time, and each slice's latencies are scaled by
/// the share of wanted CPU time the host did not steal during it. A
/// slice holds a hundred or more 10 ms ticks, so the steal share
/// resolves to about 1 %, and is short enough to follow bursts of steal.
pub struct GivenLatencies {
    started: std::time::Instant,
    ticks: CpuTicks,
    pending: Vec<f64>,
    pub given_ms: Vec<f64>,
}

pub const SLICE: std::time::Duration = std::time::Duration::from_secs(1);

impl GivenLatencies {
    pub fn new() -> Self {
        GivenLatencies {
            started: std::time::Instant::now(),
            ticks: CpuTicks::now(),
            pending: Vec::new(),
            given_ms: Vec::new(),
        }
    }

    pub fn record(&mut self, latency_ms: f64) {
        self.pending.push(latency_ms);
        if self.started.elapsed() >= SLICE {
            self.close_slice();
        }
    }

    /// Scales the open slice's latencies and starts a new slice.
    pub fn close_slice(&mut self) {
        let now = CpuTicks::now();
        let given = 1.0 - now.stolen_since(self.ticks);
        self.given_ms
            .extend(self.pending.drain(..).map(|ms| ms * given));
        self.started = std::time::Instant::now();
        self.ticks = now;
    }
}
