//! Percentiles, the result record every workload fills, and its printing.

use std::fmt::Write as _;

/// Nearest-rank percentile (`ceil(p/100 · n)`-th smallest) of an ascending
/// slice; the same rank rule as `sas_obs::HistogramSnapshot::percentile`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Lower quartile (nearest rank) of a list of per-slice times.
pub fn quiet(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 25.0)
}

/// The tail percentiles a report may use, highest first.
const TAILS: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest of [`TAILS`] that has at least ten samples beyond it in a
/// sample of `n` (a p99 needs 1000 samples).
pub fn supported_tail(n: usize) -> f64 {
    for p in TAILS {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return p;
        }
    }
    50.0
}

/// A latency sample split into consecutive slices of the run. Percentiles
/// are taken per slice and the lower quartile across slices is reported:
/// on a shared host, interference from other tenants only ever adds time,
/// so the quieter slices measure the program and the noisy ones measure
/// the neighbours. A change that slows the program slows every slice.
pub struct Chunked {
    chunks: Vec<Vec<f64>>,
}

impl Chunked {
    /// Splits `(position, value)` samples, where `position` runs over
    /// `0..span`, into `chunks` equal slices of the span.
    pub fn new(samples: &[(f64, f64)], span: f64, chunks: usize) -> Chunked {
        let mut out = vec![Vec::new(); chunks.max(1)];
        for &(pos, v) in samples {
            let last = out.len() - 1;
            let i = ((pos / span) * out.len() as f64) as usize;
            out[i.min(last)].push(v);
        }
        for c in &mut out {
            c.sort_by(f64::total_cmp);
        }
        Chunked { chunks: out }
    }

    /// Total samples.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Each non-empty slice's `p`-th percentile, in run order.
    pub fn per_slice(&self, p: f64) -> Vec<f64> {
        self.chunks
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| percentile(c, p))
            .collect()
    }

    /// Lower quartile across slices of each slice's `p`-th percentile.
    pub fn quiet_of(&self, p: f64) -> f64 {
        quiet(&self.per_slice(p))
    }

    /// The `p`-th percentile over the union of the quieter half of the
    /// slices (those with the lowest medians), and how many samples of
    /// that union lie beyond it.
    pub fn quiet_half(&self, p: f64) -> (f64, usize) {
        let mut slices: Vec<&Vec<f64>> = self.chunks.iter().filter(|c| !c.is_empty()).collect();
        slices.sort_by(|a, b| percentile(a, 50.0).total_cmp(&percentile(b, 50.0)));
        let keep = slices.len().div_ceil(2);
        let mut union: Vec<f64> = slices[..keep]
            .iter()
            .flat_map(|c| c.iter().copied())
            .collect();
        union.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * union.len() as f64).ceil() as usize;
        (percentile(&union, p), union.len().saturating_sub(rank))
    }
}

/// Reports `{prefix}_p50_ms`, the lower quartile over slices of each
/// slice's median, and `{prefix}_tail_ms`, the `tail` percentile over the
/// quieter half of the slices. Each workload fixes `tail` from its
/// expected sample count, so the quiet half holds at least ten samples
/// beyond it whatever the seed.
pub fn report_pair(report: &mut Report, prefix: &str, chunks: &Chunked, tail: f64, what: &str) {
    let (value, beyond) = chunks.quiet_half(tail);
    if beyond < 10 {
        report.note(format!("{prefix}: only {beyond} samples beyond p{tail}"));
    }
    report.metric(
        &format!("{prefix}_p50_ms"),
        chunks.quiet_of(50.0),
        "ms",
        Some(chunks.len()),
        format!("{what} (lower quartile of the slices' medians)"),
    );
    report.metric(
        &format!("{prefix}_tail_ms"),
        value,
        "ms",
        Some(chunks.len()),
        format!(
            "p{tail} of the same over the quieter half of the slices ({beyond} samples beyond it)"
        ),
    );
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (`None`: a single measurement or a ratio).
    pub samples: Option<usize>,
    /// What exactly was measured on this workload.
    pub note: String,
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// Free-form lines printed before the result (sample counts, hashes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: note.into(),
        });
    }

    /// Adds every per-layer metric at 0, so that a layer the workload does
    /// not touch reports as idle; `set` then fills in the measured ones.
    pub fn layer_defaults(&mut self) {
        for &(name, unit) in crate::PER_LAYER {
            self.metric(name, 0.0, unit, None, "");
        }
    }

    /// Overwrites a per-layer metric's value.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        m.value = value;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the human-readable lines and, last, the one-line JSON result.
    /// Returns whether the run is correct.
    pub fn print(&self, names: &[&str]) -> bool {
        for n in &self.notes {
            println!("# {n}");
        }
        for f in &self.failures {
            println!("# CHECK FAILED: {f}");
        }
        let mut json = String::new();
        for m in &self.metrics {
            let samples = m.samples.map(|n| format!(" n={n}")).unwrap_or_default();
            println!(
                "{:<40} {:>14} {:<8}{samples}  {}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.note
            );
        }
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        let correct = self.failures.is_empty() && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
        correct
    }
}

/// A JSON number with all its digits; non-finite values (a layer that did
/// no work) print as 0.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec` for
    // the duration of the call; both clock ids exist on every Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has run. On a virtual machine this
/// excludes time the hypervisor gave the CPU to other guests (steal), so
/// it measures the work, not the neighbours.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds every thread of this process has run (see `thread_cpu_s`).
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// FNV-1a over a byte stream: the request-stream fingerprint.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(1010), 99.0);
        assert_eq!(supported_tail(999), 98.0);
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(30), 50.0);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
