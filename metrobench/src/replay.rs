//! The benchmark's own replay loop over the public library API.
//!
//! It runs a `Load` scenario exactly as the library's scenario runner
//! does (warmup reset, per-cycle `WorkloadDriver::poll` then
//! `NetworkSim::send` then `NetworkSim::tick`, drain until quiescent),
//! so its result must equal `run_scenario`'s byte for byte; the
//! correctness checks hold it to that. Running the loop here rather
//! than calling `run_scenario` lets the traced run put a span around
//! every call into a layer, and lets a run stop partway to save a
//! checkpoint and resume from it the way `metro scenario run
//! --checkpoint-every` and `metro resume` do.

use crate::measure::{Layer, Probe};
use metro_harness::{Json, ResultsDir};
use metro_sim::checkpoint::{Checkpoint, RunPhase};
use metro_sim::experiment::LoadPoint;
use metro_sim::scenario::{codec, Scenario, ScenarioResult, WorkloadSpec};
use metro_sim::workload::{Arrival, StreamRecipe, StreamSeeds, WorkloadDriver};
use metro_sim::NetworkSim;
use metro_topo::multibutterfly::Multibutterfly;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A scenario built and ready for its first tick.
pub struct Ready {
    scenario: Scenario,
    sim: NetworkSim,
    driver: WorkloadDriver,
    pub stream_words: usize,
}

/// Parses scenario text into a [`Scenario`].
pub fn decode<P: Probe>(text: &str, probe: &mut P) -> Result<Scenario, String> {
    probe.time(Layer::ScenarioDecode, || codec::from_text(text))
}

/// From scenario text to a tickable sim and its workload driver — the
/// work `setup_s` times on the cycle workloads.
pub fn setup<P: Probe>(text: &str, probe: &mut P) -> Result<Ready, String> {
    let scenario = decode(text, probe)?;
    build(scenario, probe)
}

/// Builds the sim and driver for a decoded scenario.
pub fn build<P: Probe>(scenario: Scenario, probe: &mut P) -> Result<Ready, String> {
    let sim = probe
        .time(Layer::NetworkBuild, || NetworkSim::from_scenario(&scenario))
        .map_err(|e| e.to_string())?;
    let (driver, stream_words) = probe.time(Layer::DriverBuild, || driver_for(&scenario, &sim))?;
    Ok(Ready {
        scenario,
        sim,
        driver,
        stream_words,
    })
}

/// Times `Multibutterfly::build` on its own. `NetworkSim::from_scenario`
/// builds the topology inside; the traced run calls it separately to
/// split topology construction from the rest of the network build.
pub fn build_topology<P: Probe>(scenario: &Scenario, probe: &mut P) -> Result<(), String> {
    probe
        .time(Layer::TopoBuild, || {
            Multibutterfly::build(&scenario.topology)
        })
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// The window and message shape of a `Load` scenario (the only kind
/// benchmarked).
#[derive(Clone, Copy)]
struct Window {
    load: f64,
    payload_words: usize,
    warmup: u64,
    measure: u64,
    drain: u64,
}

fn window(scenario: &Scenario) -> Result<Window, String> {
    let WorkloadSpec::Load {
        load,
        payload_words,
        warmup,
        measure,
        drain,
        ..
    } = &scenario.workload
    else {
        return Err("the benchmark replays Load workloads only".to_string());
    };
    if !scenario.injections.is_empty() {
        return Err("the benchmark replays scenarios without timed injections".to_string());
    }
    Ok(Window {
        load: *load,
        payload_words: *payload_words,
        warmup: *warmup,
        measure: *measure,
        drain: *drain,
    })
}

/// The arrival recipe of a `Load` scenario, as the scenario runner and
/// the estimator build it.
pub fn recipe_for(scenario: &Scenario, stream_words: usize) -> Result<StreamRecipe<'_>, String> {
    let WorkloadSpec::Load {
        pattern,
        arrival,
        rates,
        load,
        payload_words,
        ..
    } = &scenario.workload
    else {
        return Err("the benchmark replays Load workloads only".to_string());
    };
    Ok(StreamRecipe {
        arrival,
        rates,
        pattern,
        load: *load,
        stream_words,
        payload_words: *payload_words,
        endpoints: scenario.topology.endpoints,
        seeds: StreamSeeds::load(scenario.seed),
    })
}

fn driver_for(scenario: &Scenario, sim: &NetworkSim) -> Result<(WorkloadDriver, usize), String> {
    let payload_words = window(scenario)?.payload_words;
    let stream_words = sim.stream_for(0, &vec![0; payload_words]).len();
    Ok((recipe_for(scenario, stream_words)?.driver(), stream_words))
}

/// Where and how often a replay saves and resumes a checkpoint.
pub struct CheckpointPlan<'a> {
    /// Completed cycles at which the checkpoint is taken.
    pub at: u64,
    /// Save/resume round trips [`run`] makes there; the run continues
    /// from the last resumed sim.
    pub round_trips: usize,
    /// Directory the checkpoint file is written to.
    pub dir: &'a Path,
    /// File name of the checkpoint.
    pub file: &'a str,
}

/// What one replay measured.
pub struct Replay {
    pub result: ScenarioResult,
    /// Total-latency p99 over the statistics window.
    pub p99: u64,
    /// Messages the workload offered.
    pub offered: u64,
    /// Cycles ticked.
    pub cycles: u64,
    /// Host seconds spent in the cycle loop (poll, send, tick), without
    /// checkpoint save and resume.
    pub loop_s: f64,
    /// Seconds per checkpoint save: capture, encode, render, atomic write.
    pub checkpoint_s: Vec<f64>,
    /// Seconds per resume: read, parse, hash check, rebuild, restore.
    pub resume_s: Vec<f64>,
    /// Bytes of the checkpoint file.
    pub checkpoint_bytes: usize,
    /// Path of the last checkpoint written.
    pub checkpoint_path: Option<PathBuf>,
    /// The finished sim, for end-of-run counters and the drain check.
    pub sim: NetworkSim,
    /// Routers in the fabric.
    pub routers: usize,
}

impl Replay {
    /// Simulated cycles per host second of the cycle loop.
    pub fn cycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.loop_s
    }
}

/// The state of one replay between its build and its result.
struct Runner<'a> {
    ready: Ready,
    window: Window,
    payload: Vec<u16>,
    plan: Option<CheckpointPlan<'a>>,
    arrivals: Vec<Arrival>,
    offered: u64,
    cycles: u64,
    loop_s: f64,
    checkpoint_s: Vec<f64>,
    resume_s: Vec<f64>,
    checkpoint_bytes: usize,
    checkpoint_path: Option<PathBuf>,
}

impl<'a> Runner<'a> {
    fn new(ready: Ready, plan: Option<CheckpointPlan<'a>>) -> Result<Self, String> {
        let window = window(&ready.scenario)?;
        Ok(Self {
            payload: (0..window.payload_words).map(|k| k as u16).collect(),
            ready,
            window,
            plan,
            arrivals: Vec::new(),
            offered: 0,
            cycles: 0,
            loop_s: 0.0,
            checkpoint_s: Vec::new(),
            resume_s: Vec::new(),
            checkpoint_bytes: 0,
            checkpoint_path: None,
        })
    }

    /// The scenario runner's driven window, from the cycles done so
    /// far up to `end`. Checkpoint round trips between calls are left
    /// out of `loop_s`.
    fn advance<P: Probe>(&mut self, end: u64, probe: &mut P) {
        let t = Instant::now();
        while self.cycles < end {
            self.step(self.cycles, probe);
            self.cycles += 1;
        }
        self.loop_s += t.elapsed().as_secs_f64();
    }

    /// The rest of the driven window, then the scenario runner's drain
    /// until every NIC is idle.
    fn run_to_end<P: Probe>(&mut self, probe: &mut P) {
        let w = self.window;
        let total = w.warmup + w.measure;
        self.advance(total, probe);
        let t = Instant::now();
        let sim = &mut self.ready.sim;
        let mut drained = 0;
        while drained < w.drain && !sim.is_quiescent() {
            probe.time(Layer::Tick, || sim.tick());
            drained += 1;
        }
        self.cycles = total + drained;
        self.loop_s += t.elapsed().as_secs_f64();
    }

    /// One driven cycle: poll the workload, send its arrivals, tick.
    fn step<P: Probe>(&mut self, cycle: u64, probe: &mut P) {
        let Ready {
            sim,
            driver,
            scenario,
            ..
        } = &mut self.ready;
        if cycle == self.window.warmup {
            sim.reset_stats();
        }
        let arrivals = &mut self.arrivals;
        arrivals.clear();
        probe.time(Layer::Poll, || driver.poll(cycle, |a| arrivals.push(a)));
        for a in arrivals.iter() {
            if a.payload_words == self.payload.len() {
                probe.time(Layer::Send, || sim.send(a.src, a.dest, &self.payload));
            } else {
                let p: Vec<u16> = (0..a.payload_words).map(|k| k as u16).collect();
                probe.time(Layer::Send, || sim.send(a.src, a.dest, &p));
            }
        }
        self.offered += arrivals.len() as u64;
        probe.time(Layer::Tick, || sim.tick());
        if probe.sampling() {
            for e in 0..scenario.topology.endpoints {
                probe.queue_depth(sim.endpoint_mut(e).queue_len());
            }
        }
    }

    /// Saves a checkpoint at the cycles done so far and resumes from
    /// it; the run continues from the resumed sim and driver.
    fn round_trip<P: Probe>(&mut self, probe: &mut P) -> Result<(), String> {
        let plan = self.plan.as_ref().expect("a plan is set");
        let t = Instant::now();
        let (path, bytes) = save(&self.ready, self.cycles, plan, probe)?;
        self.checkpoint_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        (self.ready.sim, self.ready.driver) = resume(&path, probe)?;
        self.resume_s.push(t.elapsed().as_secs_f64());
        self.checkpoint_bytes = bytes;
        self.checkpoint_path = Some(path);
        Ok(())
    }

    /// The finished replay's result, built exactly as the scenario
    /// runner builds it.
    fn finish(self) -> Replay {
        let Ready {
            mut sim,
            stream_words,
            scenario,
            ..
        } = self.ready;
        let w = self.window;
        let n = scenario.topology.endpoints;
        let stats = sim.stats_mut();
        let p99 = stats.total_latency.percentile(99.0);
        let point = LoadPoint {
            offered: w.load,
            accepted: stats.delivered as f64 * stream_words as f64 / w.measure as f64 / n as f64,
            mean_latency: stats.total_latency.mean(),
            p50_latency: stats.total_latency.percentile(50.0),
            p95_latency: stats.total_latency.percentile(95.0),
            mean_network_latency: stats.network_latency.mean(),
            retries_per_message: stats.retries_per_message(),
            delivered: stats.delivered,
        };
        let outcomes = sim.drain_outcomes();
        let stats = sim.stats();
        let result = ScenarioResult {
            delivered: stats.delivered,
            abandoned: stats.abandoned,
            point: Some(point),
            payload_words: outcomes.iter().map(|o| o.payload_words).sum(),
            fabric_idle: sim.fabric_idle(),
            telemetry_every: sim.telemetry().interval(),
            outcomes,
        };
        Replay {
            result,
            p99,
            offered: self.offered,
            cycles: self.cycles,
            loop_s: self.loop_s,
            checkpoint_s: self.checkpoint_s,
            resume_s: self.resume_s,
            checkpoint_bytes: self.checkpoint_bytes,
            checkpoint_path: self.checkpoint_path,
            routers: sim.topology().total_routers(),
            sim,
        }
    }
}

/// Runs a built scenario to the end, making the plan's checkpoint
/// round trips on the way when there is a plan.
pub fn run<P: Probe>(
    ready: Ready,
    plan: Option<CheckpointPlan<'_>>,
    probe: &mut P,
) -> Result<Replay, String> {
    let Some(plan) = plan else {
        let mut runner = Runner::new(ready, None)?;
        runner.run_to_end(probe);
        return Ok(runner.finish());
    };
    let round_trips = plan.round_trips;
    let mut paused = run_to_checkpoint(ready, plan, probe)?;
    for _ in 0..round_trips {
        paused.round_trip(probe)?;
    }
    paused.finish(probe)
}

/// A replay stopped at its plan's checkpoint cycle, where it can make
/// any number of checkpoint round trips before it runs on.
pub struct Paused<'a>(Runner<'a>);

impl Paused<'_> {
    /// One checkpoint save and resume; the replay continues from the
    /// resumed sim.
    pub fn round_trip<P: Probe>(&mut self, probe: &mut P) -> Result<(), String> {
        self.0.round_trip(probe)
    }

    /// Runs the replay on to its end.
    pub fn finish<P: Probe>(mut self, probe: &mut P) -> Result<Replay, String> {
        self.0.run_to_end(probe);
        Ok(self.0.finish())
    }
}

/// Runs a built scenario up to the plan's checkpoint cycle.
pub fn run_to_checkpoint<'a, P: Probe>(
    ready: Ready,
    plan: CheckpointPlan<'a>,
    probe: &mut P,
) -> Result<Paused<'a>, String> {
    let at = plan.at;
    let mut runner = Runner::new(ready, Some(plan))?;
    runner.advance(at, probe);
    Ok(Paused(runner))
}

/// Saves one checkpoint of the live run the way the
/// `--checkpoint-every` hook does: capture, encode, render, then an
/// atomic temp + fsync + rename write through the results layer.
fn save<P: Probe>(
    ready: &Ready,
    cycle: u64,
    plan: &CheckpointPlan<'_>,
    probe: &mut P,
) -> Result<(PathBuf, usize), String> {
    let ckpt = probe.time(Layer::CheckpointCapture, || {
        Checkpoint::capture(
            &ready.scenario,
            &ready.sim,
            Some(&ready.driver),
            RunPhase::Main,
            cycle,
        )
    });
    let doc = probe.time(Layer::CheckpointEncode, || ckpt.to_json());
    let text = probe.time(Layer::JsonRender, || doc.render());
    let dir = ResultsDir::new(plan.dir);
    let path = probe
        .time(Layer::CheckpointWrite, || dir.write_text(plan.file, &text))
        .map_err(|e| e.to_string())?;
    Ok((path, text.len()))
}

/// Resumes from a checkpoint file the way `metro resume` does, up to
/// the first resumed tick: read, parse, hash check and decode, rebuild
/// the sim and driver from the embedded scenario, restore the state.
fn resume<P: Probe>(path: &Path, probe: &mut P) -> Result<(NetworkSim, WorkloadDriver), String> {
    let text = probe
        .time(Layer::CheckpointRead, || std::fs::read_to_string(path))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = probe
        .time(Layer::JsonParse, || Json::parse(&text))
        .map_err(|e| e.to_string())?;
    let ckpt = probe
        .time(Layer::CheckpointDecode, || Checkpoint::from_json(&doc))
        .map_err(|e| e.to_string())?;
    let Ready {
        mut sim,
        mut driver,
        ..
    } = build(ckpt.scenario.clone(), probe)?;
    probe
        .time(Layer::CheckpointRestore, || {
            ckpt.restore_into(&mut sim, Some(&mut driver))
        })
        .map_err(|e| e.to_string())?;
    Ok((sim, driver))
}

/// Ticks a finished run until every NIC is idle and returns the
/// transactions that completed meanwhile: the messages that were still
/// in flight when the scenario's window closed.
pub fn drain_in_flight(sim: &mut NetworkSim, limit: u64) -> Option<usize> {
    let mut finished = 0;
    for _ in 0..limit {
        if sim.is_quiescent() {
            return Some(finished);
        }
        sim.tick();
        finished += sim.drain_outcomes().len();
    }
    sim.is_quiescent().then_some(finished)
}
