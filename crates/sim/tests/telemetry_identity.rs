//! Absolute telemetry pins: hash constants for three corpus scenarios
//! over the grid `telemetry_every ∈ {1, 7}` × `shards ∈ {1, 2}`.
//!
//! The engine-equivalence and shard-identity suites compare runs with
//! each other (Flat against Reference, one shard against many), so a
//! change that moves every engine the same way passes them. These pins
//! compare against fixed values instead. Each grid cell pins three
//! hashes:
//!
//! * the end-of-run [`TelemetrySnapshot`](metro_telemetry::TelemetrySnapshot)
//!   (`telemetry_hash`, the manifest's canonical hash);
//! * an FNV-1a digest of the rendered trace log of a trace-enabled run;
//! * the `checkpoint_hash` of a checkpoint taken in the middle of the
//!   run, at a cycle off the `telemetry_every` grid, so it holds a
//!   registry between two syncs.
//!
//! `chaos_smoke` runs with self-healing on, but its scripted sends never
//! make the healer act. A fourth case runs its fabric, configuration
//! and fault schedule under uniform load, where healing does act, so
//! the pins also cover the counters that change outside the tick
//! (checksum mismatches, retries after a mask, applied masks).

use metro_sim::checkpoint::{run_scenario_resumable, Checkpoint, CheckpointSink};
use metro_sim::scenario::run_scenario_with_sim;
use metro_sim::scenario::{codec, FaultInjection, Scenario, WorkloadSpec};
use metro_sim::workload::{StreamRecipe, StreamSeeds};
use metro_sim::{ArrivalProcess, NetworkSim, RateMap, TrafficPattern};
use metro_telemetry::{telemetry_hash, RouterCounter};
use metro_topo::fault::FaultSet;
use std::path::PathBuf;

fn load(name: &str) -> Scenario {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../scenarios/{name}.json"));
    let text = std::fs::read_to_string(&path).expect("corpus scenario exists");
    codec::from_text(&text).expect("corpus scenario decodes")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Cycles the scenario's main loop runs (warmup + measure for load
/// workloads, the scripted length for sends).
fn main_cycles(scenario: &Scenario) -> u64 {
    match &scenario.workload {
        WorkloadSpec::Load {
            warmup, measure, ..
        } => warmup + measure,
        WorkloadSpec::Sends { cycles, .. } => *cycles,
    }
}

/// Applies every injection due at `now` (from a list stably sorted by
/// cycle, consumed from `next`), as the scenario runner does.
fn inject(
    sim: &mut NetworkSim,
    pending: &[FaultInjection],
    next: &mut usize,
    active: &mut FaultSet,
    now: u64,
) {
    let start = *next;
    while let Some(injection) = pending.get(*next).filter(|i| i.at <= now) {
        active.merge(&injection.faults);
        injection.repairs.apply_to(active);
        *next += 1;
    }
    if *next > start {
        sim.apply_faults(active.clone());
    }
}

/// Replays `scenario` with tracing on (the scenario runner's loop,
/// restated so the trace can be enabled before the first tick) and
/// returns the trace digest and the outcome digest.
fn traced_replay(scenario: &Scenario) -> (u64, u64) {
    let mut sim = NetworkSim::from_scenario(scenario).expect("buildable");
    sim.enable_trace(0);
    let n = sim.topology().endpoints();
    let mut active = scenario.faults.clone();
    let mut pending = scenario.injections.clone();
    pending.sort_by_key(|i| i.at);
    let mut due = 0;
    match &scenario.workload {
        WorkloadSpec::Load {
            pattern,
            arrival,
            rates,
            load,
            payload_words,
            warmup,
            measure,
            drain,
        } => {
            let stream_words = sim.stream_for(0, &vec![0; *payload_words]).len();
            let recipe = StreamRecipe {
                arrival,
                rates,
                pattern,
                load: *load,
                stream_words,
                payload_words: *payload_words,
                endpoints: n,
                seeds: StreamSeeds::load(scenario.seed),
            };
            let mut driver = recipe.driver();
            let total = warmup + measure;
            for cycle in 0..total {
                if cycle == *warmup {
                    sim.reset_stats();
                }
                inject(&mut sim, &pending, &mut due, &mut active, cycle);
                driver.poll(cycle, |a| {
                    let payload: Vec<u16> = (0..a.payload_words).map(|k| k as u16).collect();
                    sim.send(a.src, a.dest, &payload);
                });
                sim.tick();
            }
            for cycle in total..total + drain {
                if sim.is_quiescent() {
                    break;
                }
                inject(&mut sim, &pending, &mut due, &mut active, cycle);
                sim.tick();
            }
        }
        WorkloadSpec::Sends { sends, cycles } => {
            let mut queue = sends.clone();
            queue.sort_by_key(|s| s.at);
            let mut next = 0;
            for now in 0..*cycles {
                while next < queue.len() && queue[next].at <= now {
                    let s = &queue[next];
                    sim.send(s.src % n, s.dest % n, &s.payload);
                    next += 1;
                }
                inject(&mut sim, &pending, &mut due, &mut active, now);
                sim.tick();
            }
        }
    }
    let trace = sim.trace().expect("trace enabled").render();
    let outcomes = metro_sim::scenario::ScenarioResult {
        delivered: 0,
        abandoned: 0,
        point: None,
        payload_words: 0,
        fabric_idle: false,
        telemetry_every: 0,
        outcomes: sim.drain_outcomes(),
    };
    (fnv1a(trace.as_bytes()), outcomes.outcome_digest())
}

/// The three pinned hashes of one grid cell:
/// `[snapshot, trace digest, checkpoint hash]`.
fn cell_hashes(base: &Scenario, every: u64, shards: usize) -> [String; 3] {
    let mut scenario = base.clone();
    scenario.sim.telemetry_every = every;
    scenario.sim.shards = shards;
    let at = main_cycles(&scenario) / 2 + 3;
    assert!(
        !at.is_multiple_of(7),
        "the checkpoint must fall between two syncs"
    );

    let mut taken: Option<Checkpoint> = None;
    let mut sink = |c: &Checkpoint| {
        if c.cycle == at {
            taken = Some(c.clone());
        }
        Ok(())
    };
    let (result, mut sim) = run_scenario_resumable(
        &scenario,
        None,
        Some(CheckpointSink {
            every: at,
            sink: &mut sink,
        }),
    )
    .expect("runnable");
    let snapshot = telemetry_hash(&sim.telemetry_snapshot(&scenario.name));
    let ckpt = taken.expect("checkpoint at the requested cycle").to_json();
    let ckpt_hash = ckpt
        .get("checkpoint_hash")
        .and_then(|h| h.as_str())
        .expect("sealed checkpoint")
        .to_string();

    let (trace, outcomes) = traced_replay(&scenario);
    assert_eq!(
        outcomes,
        result.outcome_digest(),
        "the traced replay must produce the runner's outcome stream"
    );
    [snapshot, format!("{trace:#018x}"), ckpt_hash]
}

/// Checks one scenario's grid against its pins, reporting every cell
/// that moved (with its new hashes) before failing.
fn check(base: &Scenario, pins: &[(u64, usize, [&str; 3])]) {
    let name = &base.name;
    let mut moved = Vec::new();
    for &(every, shards, want) in pins {
        let got = cell_hashes(base, every, shards);
        if got.iter().zip(want).any(|(g, w)| g != w) {
            moved.push(format!(
                "({every}, {shards}, [\"{}\", \"{}\", \"{}\"])",
                got[0], got[1], got[2]
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "{name}: telemetry observables moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn figure3_load_telemetry_is_pinned() {
    check(
        &load("figure3_load"),
        &[
            (
                1,
                1,
                [
                    "0x792b9abd3859a0fe",
                    "0xd9b1d8b8c6d46f19",
                    "0xf8ed55b693fd967d",
                ],
            ),
            (
                1,
                2,
                [
                    "0x792b9abd3859a0fe",
                    "0xd9b1d8b8c6d46f19",
                    "0x7d4f4bc8214c546a",
                ],
            ),
            (
                7,
                1,
                [
                    "0xda184f4b0f82ad18",
                    "0xd8d19ccee47b8321",
                    "0x102f24cebbaab6db",
                ],
            ),
            (
                7,
                2,
                [
                    "0xda184f4b0f82ad18",
                    "0xd8d19ccee47b8321",
                    "0x7a07d232890861dc",
                ],
            ),
        ],
    );
}

#[test]
fn metro1k_telemetry_is_pinned() {
    check(
        &load("metro1k"),
        &[
            (
                1,
                1,
                [
                    "0x454ca0bc3b755bfe",
                    "0x4fbbee04eaa44e42",
                    "0x0a13ec4b4497633e",
                ],
            ),
            (
                1,
                2,
                [
                    "0x454ca0bc3b755bfe",
                    "0x4fbbee04eaa44e42",
                    "0x2c3eb68c5048800d",
                ],
            ),
            (
                7,
                1,
                [
                    "0xa44677551c1a4cf0",
                    "0x18c1acb91ad96fc6",
                    "0x9dd8a08971d2e42c",
                ],
            ),
            (
                7,
                2,
                [
                    "0xa44677551c1a4cf0",
                    "0x18c1acb91ad96fc6",
                    "0x577d00223f88ca12",
                ],
            ),
        ],
    );
}

#[test]
fn chaos_smoke_telemetry_is_pinned() {
    check(
        &load("chaos_smoke"),
        &[
            (
                1,
                1,
                [
                    "0xc26bae5109ddd6c1",
                    "0xdf677aaac900a8a5",
                    "0xe6dd50d0e3fad5ab",
                ],
            ),
            (
                1,
                2,
                [
                    "0xc26bae5109ddd6c1",
                    "0xdf677aaac900a8a5",
                    "0xeb8f223d73a86784",
                ],
            ),
            (
                7,
                1,
                [
                    "0x6b302d2574615d70",
                    "0xe53ed94ce6ccdced",
                    "0xb76dd2c3820873aa",
                ],
            ),
            (
                7,
                2,
                [
                    "0x6b302d2574615d70",
                    "0xe53ed94ce6ccdced",
                    "0xe25b953bdda460df",
                ],
            ),
        ],
    );
}

/// `chaos_smoke` under a light uniform load instead of its scripted
/// sends: the corrupt link now carries traffic, so the healer diagnoses
/// it and masks ports from evidence.
fn chaos_smoke_loaded() -> Scenario {
    let mut scenario = load("chaos_smoke");
    scenario.name = String::from("chaos_smoke_loaded");
    scenario.workload = WorkloadSpec::Load {
        pattern: TrafficPattern::Uniform,
        arrival: ArrivalProcess::Bernoulli,
        rates: RateMap::Uniform,
        load: 0.1,
        payload_words: 6,
        warmup: 200,
        measure: 1800,
        drain: 600,
    };
    scenario
}

#[test]
fn chaos_smoke_loaded_telemetry_is_pinned() {
    let base = chaos_smoke_loaded();
    let (_, sim) = run_scenario_with_sim(&base).expect("runnable");
    for c in [
        RouterCounter::ChecksumMismatches,
        RouterCounter::MasksApplied,
        RouterCounter::RetriesAfterMask,
    ] {
        assert!(
            sim.telemetry().counters().total(c) > 0,
            "{} must move outside the tick for this case to pin it",
            c.name()
        );
    }
    check(
        &base,
        &[
            (
                1,
                1,
                [
                    "0xc5790ce71fdc1a71",
                    "0xb96527d8b359c237",
                    "0x312378112180fc44",
                ],
            ),
            (
                1,
                2,
                [
                    "0xc5790ce71fdc1a71",
                    "0xb96527d8b359c237",
                    "0xd9d7986d33bbe307",
                ],
            ),
            (
                7,
                1,
                [
                    "0x757e8be88bf425ce",
                    "0xc40f028a9d1c5749",
                    "0x4d25b6ea3737c694",
                ],
            ),
            (
                7,
                2,
                [
                    "0x757e8be88bf425ce",
                    "0xc40f028a9d1c5749",
                    "0xff3116ec7e53eda7",
                ],
            ),
        ],
    );
}
