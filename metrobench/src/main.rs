//! `metrobench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path metrobench/Cargo.toml -- \
//!     --workload fig3_contended --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generates the workload's scenario from `--seed`, runs it through the
//! library's public entry points for `--seconds` of timed work, checks
//! the outputs, and prints a report followed by one JSON result line.
//! `--trace 0` reports the end-to-end metrics (tracing off); `--trace 1`
//! makes a separate traced run and reports the per-layer metrics.
//! `README.md` beside this file lists every metric.

mod measure;
mod replay;
mod scenarios;

use measure::{host_fingerprint, peak_rss_mb, Layer, Metrics, Probe, Summary, Tracer, Untraced};
use metro_harness::Json;
use metro_sim::checkpoint::{resume_scenario, Checkpoint};
use metro_sim::engine::analytic::{estimate_latency, LatencyEstimate};
use metro_sim::experiment::LoadPoint;
use metro_sim::scenario::{codec, run_scenario, Scenario, ScenarioResult, WorkloadSpec};
use metro_sim::{DeliveryStatus, EngineKind};
use metro_telemetry::RouterCounter;
use replay::{CheckpointPlan, Replay};
use scenarios::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The estimator accuracy bounds the repository's accuracy suite
/// enforces, as relative errors of the p50 and p95 total latency.
const EST_P50_BOUND: f64 = 0.15;
const EST_P95_BOUND: f64 = 0.25;

/// Timed repeats a run makes at the least, however long they take.
const MIN_REPEATS: usize = 5;

/// Set-ups timed before each timed repeat, for `setup_s`.
const SETUPS_PER_REPEAT: usize = 5;

/// Checkpoint round trips in each timed replay of a cycle workload.
const ROUND_TRIPS_PER_REPEAT: usize = 2;

/// Host seconds between the checkpoint round trips that `burst_estimate`
/// interleaves with its timed estimates.
const ROUND_TRIP_EVERY_S: f64 = 1.0;

/// Rounds of variant replays the traced run makes at the least.
const MIN_ROUNDS: usize = 3;

/// Checkpoint round trips in the traced run's checkpointed replay.
const TRACED_ROUND_TRIPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or(format!(
                    "unknown workload {value:?} (expected one of {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("metrobench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::new(&args);
    let outcome = if args.trace {
        bench.traced()
    } else {
        bench.untraced()
    };
    if let Err(e) = outcome {
        bench.check("run completed", false, e);
    }
    bench.finish()
}

/// One benchmark run: the generated scenario, what was measured, and
/// what was checked.
struct Bench<'a> {
    args: &'a Args,
    text: String,
    scenario: Scenario,
    out: PathBuf,
    metrics: Metrics,
    checks: Vec<(String, bool, String)>,
    attempted: u64,
    unaccounted: u64,
}

impl<'a> Bench<'a> {
    fn new(args: &'a Args) -> Self {
        let scenario = args.workload.scenario(args.seed);
        Self {
            args,
            text: codec::encode(&scenario).render(),
            scenario,
            out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
            metrics: Metrics::default(),
            checks: Vec::new(),
            attempted: 0,
            unaccounted: 0,
        }
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!("metrobench: check failed: {name}: {detail}");
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    fn file_stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.args.workload.name(),
            self.args.seed,
            u8::from(self.args.trace)
        )
    }

    /// The scenario with its engine swapped to Flat: the cycle-accurate
    /// run every workload has, and the ground truth for the estimator.
    fn flat_text(&self) -> String {
        let mut s = self.scenario.clone();
        s.sim.engine = EngineKind::Flat;
        codec::encode(&s).render()
    }

    /// A checkpoint plan halfway through the measured window.
    fn plan<'p>(
        &self,
        dir: &'p std::path::Path,
        file: &'p str,
        round_trips: usize,
    ) -> CheckpointPlan<'p> {
        let at = match &self.scenario.workload {
            WorkloadSpec::Load {
                warmup, measure, ..
            } => warmup + measure / 2,
            WorkloadSpec::Sends { cycles, .. } => cycles / 2,
        };
        CheckpointPlan {
            at,
            round_trips,
            dir,
            file,
        }
    }

    fn ckpt_dir(&self) -> PathBuf {
        self.out
            .join(format!("ckpt-{}-{}", self.file_stem(), std::process::id()))
    }

    // ---------------------------------------------------------------
    // Untraced run: the end-to-end metrics.
    // ---------------------------------------------------------------

    fn untraced(&mut self) -> Result<(), String> {
        let dir = self.ckpt_dir();
        let result = match self.args.workload {
            Workload::BurstEstimate => self.untraced_estimate(&dir),
            _ => self.untraced_cycles(&dir),
        };
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    /// Timed replays of a cycle workload, each making checkpoint round
    /// trips partway, until the time budget is spent.
    fn untraced_cycles(&mut self, dir: &std::path::Path) -> Result<(), String> {
        let started = Instant::now();
        let mut first: Option<ScenarioResult> = None;
        let (mut repeats, mut differing) = (0, 0);
        let mut last_ckpt = None;
        while repeats < MIN_REPEATS || started.elapsed().as_secs_f64() < self.args.seconds {
            let ready = self.timed_setups(|text| replay::setup(text, &mut Untraced))?;
            let plan = self.plan(dir, "run.ckpt.json", ROUND_TRIPS_PER_REPEAT);
            let mut rep = replay::run(ready, Some(plan), &mut Untraced)?;
            let took = rep.loop_s;
            self.metrics
                .push("cycles_per_s", "1/s", rep.cycles as f64 / took);
            self.metrics
                .push("msgs_per_s", "1/s", rep.result.outcomes.len() as f64 / took);
            self.metrics.extend("checkpoint_s", "s", &rep.checkpoint_s);
            self.metrics.extend("resume_s", "s", &rep.resume_s);
            last_ckpt = rep.checkpoint_path.clone();
            match &first {
                None => {
                    // Peak memory of one set-up and one replay; later
                    // repeats only add allocator history.
                    self.metrics.push("peak_rss_mb", "MiB", peak_rss_mb()?);
                    self.account(&mut rep);
                    let point = rep
                        .result
                        .point
                        .clone()
                        .expect("Load replays record a point");
                    self.record_simulated(&point, rep.p99);
                    first = Some(rep.result);
                }
                Some(f) => {
                    differing += usize::from(f.outcome_digest() != rep.result.outcome_digest())
                }
            }
            repeats += 1;
        }
        self.check(
            "every timed repeat produced the same outcome digest",
            differing == 0,
            format!("{differing} of {repeats} repeats differ from the first"),
        );
        let straight = first.expect("at least one repeat ran");
        self.estimator_accuracy(&straight, false)?;
        self.cycle_checks(&straight, last_ckpt)
    }

    /// [`SETUPS_PER_REPEAT`] timed set-ups for `setup_s`, made before
    /// each timed repeat so the samples spread over the whole run; the
    /// repeat then uses the last one.
    fn timed_setups<T>(
        &mut self,
        mut setup: impl FnMut(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUPS_PER_REPEAT {
            let t = Instant::now();
            last = Some(setup(&self.text)?);
            self.metrics.push("setup_s", "s", t.elapsed().as_secs_f64());
        }
        Ok(last.expect("at least one set-up"))
    }

    /// The simulated end-to-end metrics of a load point.
    fn record_simulated(&mut self, point: &LoadPoint, p99: u64) {
        self.metrics
            .push("sim_latency_p50_cycles", "cycles", point.p50_latency as f64);
        self.metrics
            .push("sim_latency_p99_cycles", "cycles", p99 as f64);
        self.metrics
            .push("accepted_load", "fraction", point.accepted);
        self.metrics
            .push("retries_per_msg", "1/msg", point.retries_per_message);
    }

    /// Conservation: every offered message ends delivered, abandoned,
    /// or in flight at the end of the window. The in-flight ones are
    /// drained (untimed) and must then complete.
    fn account(&mut self, rep: &mut Replay) {
        let done = rep.result.outcomes.len() as u64;
        let abandoned = rep
            .result
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, DeliveryStatus::Undeliverable { .. }))
            .count() as u64;
        let in_flight = replay::drain_in_flight(&mut rep.sim, 1_000_000).map(|n| n as u64);
        let accounted = done + in_flight.unwrap_or(0);
        self.attempted = rep.offered;
        self.unaccounted = rep.offered.abs_diff(accounted) + abandoned;
        self.check(
            "every offered message delivered, abandoned or in flight",
            in_flight.is_some() && accounted == rep.offered,
            format!(
                "offered {}, completed {done} (abandoned {abandoned}), in flight at window end {:?}",
                rep.offered, in_flight
            ),
        );
    }

    /// Timed estimates of the burst workload, interleaved with the
    /// checkpoint round trips of its ground truth.
    ///
    /// The ground truth is an untimed Flat replay of the same scenario,
    /// checkpointed partway through like every cycle-accurate run. It
    /// starts after the first estimate, which leaves it out of
    /// `peak_rss_mb`. It pauses at its checkpoint cycle and makes a
    /// round trip every [`ROUND_TRIP_EVERY_S`] of the timed loop, so
    /// that the checkpoint timings sample the whole run as the
    /// estimates do.
    fn untraced_estimate(&mut self, dir: &std::path::Path) -> Result<(), String> {
        let flat_text = self.flat_text();
        let mut truth = None;
        let started = Instant::now();
        let mut first: Option<LatencyEstimate> = None;
        let (mut repeats, mut differing) = (0, 0);
        let mut fastest = f64::INFINITY;
        let mut last_trip: Option<Instant> = None;
        while repeats < MIN_REPEATS || started.elapsed().as_secs_f64() < self.args.seconds {
            let scenario = self.timed_setups(|text| replay::decode(text, &mut Untraced))?;
            let t = Instant::now();
            let est = estimate_latency(&scenario).map_err(|e| e.to_string())?;
            let took = t.elapsed().as_secs_f64();
            fastest = fastest.min(took);
            self.metrics
                .push("cycles_per_s", "1/s", estimated_cycles(&scenario) / took);
            self.metrics
                .push("msgs_per_s", "1/s", est.result.outcomes.len() as f64 / took);
            match &first {
                None => {
                    self.metrics.push("peak_rss_mb", "MiB", peak_rss_mb()?);
                    first = Some(est);
                }
                Some(f) => differing += usize::from(f.result != est.result),
            }
            repeats += 1;
            if last_trip.is_none_or(|t| t.elapsed().as_secs_f64() >= ROUND_TRIP_EVERY_S) {
                if truth.is_none() {
                    let ready = replay::setup(&flat_text, &mut Untraced)?;
                    let plan = self.plan(dir, "truth.ckpt.json", 0);
                    truth = Some(replay::run_to_checkpoint(ready, plan, &mut Untraced)?);
                }
                if let Some(paused) = truth.as_mut() {
                    paused.round_trip(&mut Untraced)?;
                }
                last_trip = Some(Instant::now());
            }
        }
        self.check(
            "every timed repeat produced the same estimate",
            differing == 0,
            format!("{differing} of {repeats} estimates differ from the first"),
        );
        let mut est = first.expect("at least one repeat ran");
        // An estimate takes about 13 ms, less than the stretches in
        // which a neighbour slows a shared host, so the estimates fall
        // into two groups and the run's median lands on either. The
        // fastest of the run's estimates is one no neighbour slowed
        // (README.md, "Best times").
        self.metrics.set_best(
            "cycles_per_s",
            "1/s",
            estimated_cycles(&self.scenario) / fastest,
        );
        self.metrics.set_best(
            "msgs_per_s",
            "1/s",
            est.result.outcomes.len() as f64 / fastest,
        );
        let point = est
            .result
            .point
            .clone()
            .expect("Load estimates record a point");
        let p99 = est.total_latency.percentile(99.0);
        self.record_simulated(&point, p99);

        let truth = truth.expect("the first repeat started the ground truth");
        let mut rep = truth.finish(&mut Untraced)?;
        self.metrics.extend("checkpoint_s", "s", &rep.checkpoint_s);
        self.metrics.extend("resume_s", "s", &rep.resume_s);
        self.account(&mut rep);
        self.estimator_accuracy(&rep.result, true)?;
        let path = rep.checkpoint_path.clone();
        self.cycle_checks(&rep.result, path)
    }

    // ---------------------------------------------------------------
    // Correctness checks shared by both runs.
    // ---------------------------------------------------------------

    /// The checks every cycle-accurate run gets: the benchmark's loop
    /// (with its checkpoint round trip) reproduces `run_scenario` byte
    /// for byte, and so does `metro resume`'s path from the checkpoint
    /// file; plus the workload's own identity check.
    fn cycle_checks(&mut self, ours: &ScenarioResult, ckpt: Option<PathBuf>) -> Result<(), String> {
        let scenario = codec::from_text(&self.flat_text())?;
        let straight = run_scenario(&scenario).map_err(|e| e.to_string())?;
        let rendered = straight.to_json().render();
        self.check(
            "benchmark loop (checkpointed and resumed) == run_scenario",
            ours.to_json().render() == rendered,
            format!(
                "loop digest {:#x}, run_scenario digest {:#x}",
                ours.outcome_digest(),
                straight.outcome_digest()
            ),
        );
        let path = ckpt.ok_or("no checkpoint was written")?;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let ckpt = Checkpoint::from_text(&text)?;
        let (resumed, _) = resume_scenario(&ckpt).map_err(|e| e.to_string())?;
        self.check(
            "resume_scenario from the checkpoint file == straight run",
            resumed.to_json().render() == rendered,
            format!("resumed digest {:#x}", resumed.outcome_digest()),
        );
        match self.args.workload {
            Workload::Fig3Contended => self.reference_check(&scenario)?,
            Workload::Metro1kSharded => {
                let mut one = scenario.clone();
                one.sim.shards = 1;
                let single = run_scenario(&one).map_err(|e| e.to_string())?;
                self.check(
                    "1-shard digest == 2-shard digest",
                    single.outcome_digest() == straight.outcome_digest(),
                    format!(
                        "1 shard {:#x}, 2 shards {:#x}",
                        single.outcome_digest(),
                        straight.outcome_digest()
                    ),
                );
            }
            Workload::BurstEstimate => {}
        }
        Ok(())
    }

    /// Flat and Reference agree on a shortened window of the scenario
    /// (same seeds), which keeps the Reference engine affordable.
    fn reference_check(&mut self, scenario: &Scenario) -> Result<(), String> {
        let mut short = scenario.clone();
        if let WorkloadSpec::Load {
            warmup,
            measure,
            drain,
            ..
        } = &mut short.workload
        {
            (*warmup, *measure, *drain) = (300, 3_000, 2_000);
        }
        let flat = run_scenario(&short).map_err(|e| e.to_string())?;
        short.sim.engine = EngineKind::Reference;
        let reference = run_scenario(&short).map_err(|e| e.to_string())?;
        self.check(
            "Flat digest == Reference digest (shortened window)",
            flat.outcome_digest() == reference.outcome_digest(),
            format!(
                "flat {:#x}, reference {:#x}",
                flat.outcome_digest(),
                reference.outcome_digest()
            ),
        );
        Ok(())
    }

    /// Relative error of the estimator's p50 and p95 total latency
    /// against a Flat replay of the same scenario, on the integer
    /// quantiles the accuracy suite uses. `gate` makes the suite's
    /// bounds a check.
    fn estimator_accuracy(&mut self, truth: &ScenarioResult, gate: bool) -> Result<(), String> {
        let mut s = self.scenario.clone();
        s.sim.engine = EngineKind::Analytic;
        let mut est = estimate_latency(&s).map_err(|e| e.to_string())?;
        let point = truth.point.as_ref().expect("Load replays record a point");
        let e50 = rel_err(est.total_latency.percentile(50.0), point.p50_latency);
        let e95 = rel_err(est.total_latency.percentile(95.0), point.p95_latency);
        if self.args.trace {
            self.metrics.push("est_err_p50", "ratio", e50);
            self.metrics.push("est_err_p95", "ratio", e95);
        } else {
            self.metrics.push("est_acc_p50", "ratio", 1.0 - e50);
            self.metrics.push("est_acc_p95", "ratio", 1.0 - e95);
        }
        if gate {
            self.check(
                "estimator within the accuracy bounds (p50 <= 15%, p95 <= 25%)",
                e50 <= EST_P50_BOUND && e95 <= EST_P95_BOUND,
                format!("p50 error {e50:.4}, p95 error {e95:.4}"),
            );
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Traced run: the per-layer metrics.
    // ---------------------------------------------------------------

    fn traced(&mut self) -> Result<(), String> {
        let dir = self.ckpt_dir();
        let result = self.traced_inner(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    fn traced_inner(&mut self, dir: &std::path::Path) -> Result<(), String> {
        let mut tracer = Tracer::default();
        let flat_text = self.flat_text();

        // Set-up layers, each call timed on its own.
        let mut stream_words = 0;
        for _ in 0..MIN_REPEATS {
            let scenario = replay::decode(&self.text, &mut tracer)?;
            replay::build_topology(&scenario, &mut tracer)?;
            let flat = replay::decode(&flat_text, &mut Untraced)?;
            stream_words = replay::build(flat, &mut tracer)?.stream_words;
        }
        let start = measure::Totals::default();
        for (name, layer) in [
            ("scenario.decode_s", Layer::ScenarioDecode),
            ("topo.build_s", Layer::TopoBuild),
            ("network.build_s", Layer::NetworkBuild),
        ] {
            self.metrics
                .push(name, "s", tracer.totals().per_call_since(&start, layer));
        }

        self.traced_estimates(&mut tracer, stream_words)?;
        let straight = self.traced_replays(&mut tracer, &flat_text, dir)?;

        let path = self.out.join(format!("{}.trace.json", self.file_stem()));
        std::fs::create_dir_all(&self.out).map_err(|e| e.to_string())?;
        std::fs::write(&path, tracer.to_json().render()).map_err(|e| e.to_string())?;
        eprintln!("metrobench: trace written to {}", path.display());
        let (result, ckpt) = straight;
        self.estimator_accuracy(&result, self.args.workload == Workload::BurstEstimate)?;
        self.cycle_checks(&result, ckpt)
    }

    /// Estimator layers: the batch arrival schedule and the estimate,
    /// traced and untraced in turn.
    fn traced_estimates(&mut self, tracer: &mut Tracer, stream_words: usize) -> Result<(), String> {
        let mut s = self.scenario.clone();
        s.sim.engine = EngineKind::Analytic;
        let total = match &s.workload {
            WorkloadSpec::Load {
                warmup, measure, ..
            } => warmup + measure,
            WorkloadSpec::Sends { cycles, .. } => *cycles,
        };
        let rounds = match self.args.workload {
            Workload::BurstEstimate => 4 * MIN_REPEATS,
            _ => MIN_REPEATS,
        };
        for _ in 0..rounds {
            let recipe = replay::recipe_for(&s, stream_words)?;
            let sched = tracer.time(Layer::Schedule, || recipe.schedule(total));
            std::hint::black_box(sched);
            let t = Instant::now();
            let plain = estimate_latency(&s).map_err(|e| e.to_string())?;
            let untraced = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let traced = tracer
                .time(Layer::Estimate, || estimate_latency(&s))
                .map_err(|e| e.to_string())?;
            let traced_s = t.elapsed().as_secs_f64();
            if plain.result != traced.result {
                self.check("traced estimate == untraced estimate", false, String::new());
            }
            self.metrics.push("analytic.estimate_s", "s", traced_s);
            if self.args.workload == Workload::BurstEstimate {
                self.metrics
                    .push("trace.overhead", "ratio", 1.0 - untraced / traced_s);
            }
        }
        self.metrics.push(
            "workload.schedule_s",
            "s",
            tracer
                .totals()
                .per_call_since(&measure::Totals::default(), Layer::Schedule),
        );
        Ok(())
    }

    /// Cycle-engine layers. One traced replay with checkpoint round
    /// trips gives the checkpoint layers and the result the correctness
    /// checks use. Then each round replays the scenario four times back
    /// to back, without checkpoints: untraced, traced, traced with
    /// telemetry sync effectively off, and traced at the other shard
    /// count. The order reverses every round so that drift in host
    /// speed favours no variant. Every replay must produce the same
    /// outcome digest.
    fn traced_replays(
        &mut self,
        tracer: &mut Tracer,
        flat_text: &str,
        dir: &std::path::Path,
    ) -> Result<(ScenarioResult, Option<PathBuf>), String> {
        let base = replay::decode(flat_text, &mut Untraced)?;
        let shards = base.sim.shards;
        let mut quiet = base.clone();
        quiet.sim.telemetry_every = u64::MAX;
        let mut other = base.clone();
        other.sim.shards = if shards == 1 { 2 } else { 1 };

        let ready = replay::build(base.clone(), &mut Untraced)?;
        let plan = self.plan(dir, "traced.ckpt.json", TRACED_ROUND_TRIPS);
        let start = tracer.totals();
        let run = tracer.enter(Layer::Run);
        let rep = replay::run(ready, Some(plan), tracer);
        tracer.exit(run);
        let mut rep = rep?;
        self.checkpoint_metrics(&tracer.totals(), &start, &rep);
        self.account(&mut rep);
        let digest = rep.result.outcome_digest();

        let variants = [
            ("untraced", &base),
            ("traced", &base),
            ("telemetry off", &quiet),
            ("other shard count", &other),
        ];
        let started = Instant::now();
        let mut rounds = 0;
        let mut differing = Vec::new();
        while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < self.args.seconds {
            let mut order = [0, 1, 2, 3];
            if rounds % 2 == 1 {
                order.reverse();
            }
            let mut rate = [0.0; 4];
            for v in order {
                let ready = replay::build(variants[v].1.clone(), &mut Untraced)?;
                let r = if v == 0 {
                    replay::run(ready, None, &mut Untraced)?
                } else {
                    let start = tracer.totals();
                    let run = tracer.enter(Layer::Run);
                    let r = replay::run(ready, None, tracer);
                    tracer.exit(run);
                    let r = r?;
                    if v == 1 {
                        self.cycle_layer_metrics(&tracer.totals(), &start, &r);
                    }
                    r
                };
                rate[v] = r.cycles_per_s();
                if r.result.outcome_digest() != digest {
                    differing.push(variants[v].0);
                }
            }
            if self.args.workload != Workload::BurstEstimate {
                self.metrics
                    .push("trace.overhead", "ratio", 1.0 - rate[1] / rate[0]);
            }
            self.metrics
                .push("telemetry.sync_share", "ratio", 1.0 - rate[1] / rate[2]);
            let (one, two) = if shards == 1 {
                (rate[1], rate[3])
            } else {
                (rate[3], rate[1])
            };
            self.metrics.push("shard.speedup", "ratio", two / one);
            rounds += 1;
        }
        self.metrics.push(
            "endpoint.queue_depth_max",
            "count",
            tracer.max_queue() as f64,
        );
        self.check(
            "untraced, traced, telemetry-off and other-shard-count replays match the checkpointed digest",
            differing.is_empty(),
            format!("variants that differed: {differing:?}"),
        );
        Ok((rep.result, rep.checkpoint_path))
    }

    /// Checkpoint layer timings of one traced replay.
    fn checkpoint_metrics(
        &mut self,
        after: &measure::Totals,
        before: &measure::Totals,
        rep: &Replay,
    ) {
        for (name, layer) in [
            ("checkpoint.capture_s", Layer::CheckpointCapture),
            ("checkpoint.encode_s", Layer::CheckpointEncode),
            ("json.render_s", Layer::JsonRender),
            ("checkpoint.write_s", Layer::CheckpointWrite),
            ("checkpoint.read_s", Layer::CheckpointRead),
            ("json.parse_s", Layer::JsonParse),
            ("checkpoint.decode_s", Layer::CheckpointDecode),
            ("checkpoint.restore_s", Layer::CheckpointRestore),
        ] {
            self.metrics
                .push(name, "s", after.per_call_since(before, layer));
        }
        self.metrics
            .push("checkpoint.bytes", "bytes", rep.checkpoint_bytes as f64);
    }

    /// Per-cycle layer timings and exact counters of one traced replay.
    fn cycle_layer_metrics(
        &mut self,
        after: &measure::Totals,
        before: &measure::Totals,
        rep: &Replay,
    ) {
        let tick_ns = after.per_call_since(before, Layer::Tick) * 1e9;
        self.metrics.push("network.tick_ns", "ns", tick_ns);
        self.metrics.push(
            "network.tick_ns_per_router",
            "ns",
            tick_ns / rep.routers as f64,
        );
        self.metrics.push(
            "workload.poll_ns",
            "ns",
            after.per_call_since(before, Layer::Poll) * 1e9,
        );
        self.metrics
            .push("workload.arrivals", "count", rep.offered as f64);
        self.metrics.push(
            "network.send_ns",
            "ns",
            after.per_call_since(before, Layer::Send) * 1e9,
        );
        let counters = rep.sim.telemetry().counters();
        let opens = counters.total(RouterCounter::Opens) as f64;
        let grants = counters.total(RouterCounter::Grants) as f64;
        for (name, c) in [
            ("router.opens", RouterCounter::Opens),
            ("router.grants", RouterCounter::Grants),
            ("router.blocks", RouterCounter::Blocks),
            ("router.fast_reclaims", RouterCounter::FastReclaims),
            ("router.words_forwarded", RouterCounter::WordsForwarded),
        ] {
            self.metrics.push(name, "count", counters.total(c) as f64);
        }
        self.metrics
            .push("router.grant_ratio", "ratio", grants / opens.max(1.0));
        self.metrics
            .push("endpoint.retries", "count", rep.sim.stats().retries as f64);
    }

    // ---------------------------------------------------------------
    // Reporting.
    // ---------------------------------------------------------------

    fn finish(mut self) -> ExitCode {
        let correct = !self.checks.is_empty() && self.checks.iter().all(|c| c.1);
        let attempted = self.attempted.max(1);
        let failed = if correct {
            self.unaccounted.min(attempted)
        } else {
            attempted
        };
        let failed_frac = failed as f64 / attempted as f64;
        if self.args.trace {
            self.metrics.push("failed_frac", "ratio", failed_frac);
        }
        let names: &[&str] = if self.args.trace {
            PER_LAYER
        } else {
            END_TO_END
        };
        let mut line = Vec::new();
        let mut detail = Vec::new();
        for &name in names {
            let Some(m) = self.metrics.0.get(name) else {
                continue;
            };
            line.push((
                name,
                Json::obj([
                    ("value", Json::from(m.value())),
                    ("unit", Json::from(m.unit)),
                ]),
            ));
            detail.push((name, {
                let mut j = Summary::of(&m.samples).to_json();
                j.set("value", Json::from(m.value()));
                j.set("unit", Json::from(m.unit));
                j
            }));
        }
        let checks = self.checks.iter().map(|(n, ok, d)| {
            Json::obj([
                ("check", Json::from(n.as_str())),
                ("passed", Json::from(*ok)),
                ("detail", Json::from(d.as_str())),
            ])
        });
        let report = Json::obj([
            ("workload", Json::from(self.args.workload.name())),
            ("seed", Json::from(self.args.seed)),
            ("seconds", Json::from(self.args.seconds)),
            ("trace", Json::from(self.args.trace)),
            (
                "scenario_hash",
                Json::from(codec::scenario_hash(&self.scenario)),
            ),
            ("host", host_fingerprint()),
            ("metrics", Json::obj(detail)),
            ("checks", Json::arr(checks)),
        ]);
        let _ = std::fs::create_dir_all(&self.out);
        let _ = std::fs::write(
            self.out.join(format!("{}.json", self.file_stem())),
            report.render(),
        );
        print!("{}", report.render());
        let result = Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", Json::obj(line)),
        ]);
        println!("{}", result.render_compact());
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end metrics, as `BENCHMARK.json` registers them.
const END_TO_END: &[&str] = &[
    "cycles_per_s",
    "msgs_per_s",
    "setup_s",
    "peak_rss_mb",
    "checkpoint_s",
    "resume_s",
    "sim_latency_p50_cycles",
    "sim_latency_p99_cycles",
    "accepted_load",
    "retries_per_msg",
    "est_acc_p50",
    "est_acc_p95",
];

/// The per-layer metrics of the traced run, as `BENCHMARK.json`
/// registers them.
const PER_LAYER: &[&str] = &[
    "scenario.decode_s",
    "topo.build_s",
    "network.build_s",
    "network.tick_ns",
    "network.tick_ns_per_router",
    "telemetry.sync_share",
    "shard.speedup",
    "workload.poll_ns",
    "workload.arrivals",
    "workload.schedule_s",
    "network.send_ns",
    "analytic.estimate_s",
    "checkpoint.capture_s",
    "checkpoint.encode_s",
    "json.render_s",
    "checkpoint.write_s",
    "checkpoint.read_s",
    "json.parse_s",
    "checkpoint.decode_s",
    "checkpoint.restore_s",
    "checkpoint.bytes",
    "router.opens",
    "router.grants",
    "router.blocks",
    "router.fast_reclaims",
    "router.words_forwarded",
    "router.grant_ratio",
    "endpoint.retries",
    "endpoint.queue_depth_max",
    "trace.overhead",
    "failed_frac",
    "est_err_p50",
    "est_err_p95",
];

fn rel_err(estimate: u64, truth: u64) -> f64 {
    if truth == 0 {
        return if estimate == 0 { 0.0 } else { f64::INFINITY };
    }
    estimate.abs_diff(truth) as f64 / truth as f64
}

/// Cycles an estimate covers: the scenario's whole window.
fn estimated_cycles(s: &Scenario) -> f64 {
    match &s.workload {
        WorkloadSpec::Load {
            warmup,
            measure,
            drain,
            ..
        } => (warmup + measure + drain) as f64,
        WorkloadSpec::Sends { cycles, .. } => *cycles as f64,
    }
}
