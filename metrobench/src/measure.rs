//! Measurement plumbing: repeat statistics, the per-layer probe the
//! traced run threads through the replay loop, and the host
//! fingerprint every result records.

use metro_harness::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Median and quartiles of one metric's repeats, with the quartiles
/// computed as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "a metric needs at least one sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (v[0], v[0])
        } else {
            let quartile = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (quartile(1), quartile(3))
        };
        Self { median, q1, q3, n }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("median", Json::from(self.median)),
            ("q1", Json::from(self.q1)),
            ("q3", Json::from(self.q3)),
            ("repeats", Json::from(self.n)),
        ])
    }
}

/// One reported metric: its unit, every repeat measured in the run,
/// and the run's best time where that is reported instead of the
/// median (see `Bench::untraced_estimate`).
#[derive(Debug, Clone)]
pub struct Metric {
    pub unit: &'static str,
    pub samples: Vec<f64>,
    pub best: Option<f64>,
}

impl Metric {
    /// The reported value: the best time where one was set, otherwise
    /// the median of the repeats.
    pub fn value(&self) -> f64 {
        self.best
            .unwrap_or_else(|| Summary::of(&self.samples).median)
    }
}

/// The metrics of one run, by registered name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, Metric>);

impl Metrics {
    fn entry(&mut self, name: &'static str, unit: &'static str) -> &mut Metric {
        self.0.entry(name).or_insert(Metric {
            unit,
            samples: Vec::new(),
            best: None,
        })
    }

    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.entry(name, unit).samples.push(value);
    }

    pub fn extend(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        for &v in values {
            self.push(name, unit, v);
        }
    }

    /// Sets the value reported for `name` in place of the median of its
    /// repeats.
    pub fn set_best(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.entry(name, unit).best = Some(value);
    }
}

/// The layer boundaries the traced run times, named after the public
/// entry points it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One whole replay or estimate; the parent of everything below.
    Run,
    ScenarioDecode,
    TopoBuild,
    NetworkBuild,
    DriverBuild,
    Tick,
    Poll,
    Send,
    Schedule,
    Estimate,
    CheckpointCapture,
    CheckpointEncode,
    JsonRender,
    CheckpointWrite,
    CheckpointRead,
    JsonParse,
    CheckpointDecode,
    CheckpointRestore,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::ScenarioDecode => "scenario.decode",
            Layer::TopoBuild => "topo.build",
            Layer::NetworkBuild => "network.build",
            Layer::DriverBuild => "workload.driver_build",
            Layer::Tick => "network.tick",
            Layer::Poll => "workload.poll",
            Layer::Send => "network.send",
            Layer::Schedule => "workload.schedule",
            Layer::Estimate => "analytic.estimate",
            Layer::CheckpointCapture => "checkpoint.capture",
            Layer::CheckpointEncode => "checkpoint.encode",
            Layer::JsonRender => "json.render",
            Layer::CheckpointWrite => "checkpoint.write",
            Layer::CheckpointRead => "checkpoint.read",
            Layer::JsonParse => "json.parse",
            Layer::CheckpointDecode => "checkpoint.decode",
            Layer::CheckpointRestore => "checkpoint.restore",
        }
    }

    /// Per-cycle and per-message calls are aggregated into a count and
    /// a total; keeping each as a span would cost more memory than the
    /// run it describes.
    fn aggregated(self) -> bool {
        matches!(self, Layer::Tick | Layer::Poll | Layer::Send)
    }
}

/// An open call into a layer, returned by [`Probe::enter`].
#[derive(Debug)]
pub struct Entered {
    layer: Layer,
    span: Option<usize>,
    start: Instant,
}

/// What the replay loop reports to: nothing ([`Untraced`]) or the
/// [`Tracer`]. The loop is generic over it, so the untraced build of
/// the loop contains no timing calls at all.
pub trait Probe {
    /// Opens a call into `layer`.
    fn enter(&mut self, layer: Layer) -> Option<Entered>;
    /// Closes the call `enter` opened.
    fn exit(&mut self, entered: Option<Entered>);
    /// Runs `f` as one call into `layer`.
    #[inline(always)]
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let entered = self.enter(layer);
        let out = f();
        self.exit(entered);
        out
    }
    /// Records the NIC queue depth observed at one endpoint.
    fn queue_depth(&mut self, _depth: usize) {}
    /// Whether the loop should sample queue depths.
    fn sampling(&self) -> bool {
        false
    }
}

/// The probe of the timed, untraced runs.
#[derive(Debug, Default)]
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn enter(&mut self, _layer: Layer) -> Option<Entered> {
        None
    }

    #[inline(always)]
    fn exit(&mut self, _entered: Option<Entered>) {}
}

/// One recorded span: a call into a layer, and the span that made it.
#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: Option<usize>,
    layer: Layer,
    start_ns: u128,
    end_ns: u128,
}

/// Count and total host time of every call into one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub calls: u64,
    pub seconds: f64,
}

/// A copy of a [`Tracer`]'s per-layer totals at one moment.
#[derive(Debug, Clone, Default)]
pub struct Totals(BTreeMap<Layer, LayerTotal>);

impl Totals {
    /// Host seconds per call into `layer` between `before` and these
    /// totals (0 when there was no call).
    pub fn per_call_since(&self, before: &Totals, layer: Layer) -> f64 {
        let get = |t: &Totals| t.0.get(&layer).copied().unwrap_or_default();
        let (now, then) = (get(self), get(before));
        let calls = now.calls - then.calls;
        if calls == 0 {
            return 0.0;
        }
        (now.seconds - then.seconds) / calls as f64
    }
}

/// The traced run's recorder. Spans and totals stay in memory until
/// the benchmark ends and writes them out ([`Tracer::to_json`]).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    totals: BTreeMap<Layer, LayerTotal>,
    max_queue: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
            max_queue: 0,
        }
    }
}

impl Probe for Tracer {
    fn enter(&mut self, layer: Layer) -> Option<Entered> {
        let span = (!layer.aggregated()).then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                layer,
                start_ns: self.epoch.elapsed().as_nanos(),
                end_ns: 0,
            });
            self.open.push(id);
            id
        });
        Some(Entered {
            layer,
            span,
            start: Instant::now(),
        })
    }

    fn exit(&mut self, entered: Option<Entered>) {
        let Some(e) = entered else { return };
        let took = e.start.elapsed();
        if let Some(id) = e.span {
            self.open.pop();
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos();
        }
        let total = self.totals.entry(e.layer).or_default();
        total.calls += 1;
        total.seconds += took.as_secs_f64();
    }

    fn queue_depth(&mut self, depth: usize) {
        self.max_queue = self.max_queue.max(depth);
    }

    fn sampling(&self) -> bool {
        true
    }
}

impl Tracer {
    /// The per-layer totals as they stand.
    pub fn totals(&self) -> Totals {
        Totals(self.totals.clone())
    }

    /// The deepest NIC queue sampled.
    pub fn max_queue(&self) -> usize {
        self.max_queue
    }

    /// The trace file: every span with its parent, then the totals.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("id", Json::from(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", Json::from(s.layer.name())),
                ("start_ns", Json::from(s.start_ns as f64)),
                ("end_ns", Json::from(s.end_ns as f64)),
            ])
        });
        let totals = self.totals.iter().map(|(l, t)| {
            (
                l.name(),
                Json::obj([
                    ("calls", Json::from(t.calls)),
                    ("seconds", Json::from(t.seconds)),
                ]),
            )
        });
        Json::obj([("spans", Json::arr(spans)), ("totals", Json::obj(totals))])
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The host fingerprint recorded with every result.
pub fn host_fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("cpu_model", Json::from(cpu)),
        ("rustc", Json::from(env!("METROBENCH_RUSTC"))),
        ("git_revision", Json::from(git_revision())),
    ])
}

/// `git rev-parse HEAD` of the working directory, looking no further
/// up than its parent (a checkout without `.git` reports "none").
fn git_revision() -> String {
    let cwd = std::env::current_dir().ok();
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(parent) = cwd.as_ref().and_then(|d| d.parent()) {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.stderr(std::process::Stdio::null()).output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "none".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::Summary;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
