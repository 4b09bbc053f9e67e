//! Measurement helpers: order statistics, host counters read from
//! `/proc`, the benchmark's own span recorder and the answer digest.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by the nearest-rank method (0 for an empty
/// slice). Nearest rank keeps every reported quantile an observed value.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds. `/proc` reports it in USER_HZ ticks, which Linux fixes at 100.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the name.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Voluntary plus involuntary context switches summed over every live
/// thread of this process.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|task| {
            let path = task.path().join("status");
            let path = path.to_string_lossy();
            status_field(&path, "voluntary_ctxt_switches:")
                + status_field(&path, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

fn status_field(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            line.strip_prefix(key)
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Host CPU and scheduling counters over an interval.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    cpu_s: f64,
    ctx: u64,
    at: Instant,
}

impl HostSample {
    /// Read the counters now.
    pub fn now() -> Self {
        HostSample {
            cpu_s: cpu_seconds(),
            ctx: context_switches(),
            at: Instant::now(),
        }
    }

    /// `(cpu seconds per wall second, context switches)` since `self`.
    pub fn since(&self) -> (f64, u64) {
        let wall = secs(self.at);
        (
            ratio(cpu_seconds() - self.cpu_s, wall),
            context_switches().saturating_sub(self.ctx),
        )
    }
}

/// One span the benchmark recorded around a call it made into the system.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Name of the call.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the call served (`None` for calls that serve no single
    /// request, such as set-up or a whole pass).
    pub request: Option<u64>,
}

/// In-memory span recorder. Disabled recorders cost one branch per call and
/// keep nothing, so untraced runs are not perturbed by it.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start recording (used to trace only the second half of a run).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(SpanRecord {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total self time in µs per span name: each span's duration minus the
    /// part its child spans cover.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e3;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// FNV-1a digest over answers, used to check that repeated passes and
/// different execution paths return identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold a word in.
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Fold one answer (ids, distances and documents in rank order) into
/// `digest`.
pub fn fold_answer(digest: &mut Digest, ids: &[usize], distances: &[f32], documents: &[Vec<u8>]) {
    digest.word(ids.len() as u64);
    for ((&id, &d), doc) in ids.iter().zip(distances).zip(documents) {
        digest.word(id as u64);
        digest.word(u64::from(d.to_bits()));
        digest.word(u64::from(reis_kernels::crc32c(doc)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", None);
        t.span("inner", Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let self_us = t.self_time_us();
        assert!(self_us["inner"] >= 2000.0);
        assert!(self_us["outer"] < self_us["inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", None, || ());
        assert!(t.spans().is_empty());
    }
}
