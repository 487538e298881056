//! Sample summaries, process memory, and the JSON the benchmark prints.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Median, 95th and 99th percentile of a latency sample, with its size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dist {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub n: usize,
}

pub fn dist(values: &[f64]) -> Dist {
    let s = sorted(values);
    Dist {
        p50: percentile(&s, 50.0),
        p95: percentile(&s, 95.0),
        p99: percentile(&s, 99.0),
        n: s.len(),
    }
}

/// Median over windows of one per-window figure.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Cumulative CPU time of the whole machine from `/proc/stat`, as
/// (all time, time stolen by the hypervisor), in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of the machine's CPU time stolen since `earlier`.
    pub fn steal_since(self, earlier: CpuTicks) -> f64 {
        ratio(
            self.steal.saturating_sub(earlier.steal) as f64,
            self.total.saturating_sub(earlier.total) as f64,
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A JSON number; a non-finite value (a bug upstream) prints as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(name),
                    num(*value),
                    string(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
