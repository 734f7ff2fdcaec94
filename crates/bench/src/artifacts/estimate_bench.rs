//! Analytic-estimator benchmark: the S13 latency model against the
//! cycle-accurate Flat engine on the 1024-endpoint `metro1k` fabric.
//!
//! The estimator exists to answer "what would this scenario's latency
//! distribution look like" without building routers or ticking wires,
//! so the artifact measures exactly that trade: one timed Flat replay
//! of the `metro1k` load scenario, then the analytic estimate of the
//! same scenario timed over several repetitions (a single estimate is
//! too fast for a stable wall-clock reading). The speedup must be at
//! least [`MIN_SPEEDUP`]× — the estimator's whole value proposition —
//! and the report places the estimated p50/p95/p99 next to the
//! cycle-accurate truth so the speed number is never read without its
//! accuracy. Full runs refresh the repo-root `BENCH_estimate.json`
//! trajectory file, the same trail `BENCH_tick.json` and
//! `BENCH_shard.json` leave for the perf guard.

use metro_harness::{Artifact, ArtifactOutput, Json, ResultsDir, RunCtx};
use metro_sim::engine::analytic::estimate_latency;
use metro_sim::scenario::run_scenario;
use metro_telemetry::Histogram;
use std::fmt::Write as _;
use std::time::Instant;

/// The contract: estimating must beat cycle-accurate replay by at
/// least this factor on `metro1k`.
const MIN_SPEEDUP: f64 = 100.0;

/// Quantiles reported for both the estimate and the truth.
const QUANTILES: [f64; 3] = [50.0, 95.0, 99.0];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "estimate_bench",
        description: "analytic estimator vs flat engine on metro1k (speedup + quantiles)",
        quick_profile: "3 estimate reps (no BENCH_estimate.json refresh)",
        full_profile: "20 estimate reps, refreshes BENCH_estimate.json",
        run,
    }
}

fn quantiles(stats: &mut Histogram) -> [u64; 3] {
    QUANTILES.map(|q| stats.percentile(q))
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let reps: u32 = if ctx.quick { 3 } else { 20 };
    let scenario = crate::scenarios::named("metro1k").expect("metro1k is in the catalog");

    // Cycle-accurate ground truth, timed. One replay: the flat run is
    // the slow side of the ratio, and it is deterministic. The catalog
    // scenario runs shard-native (shards = 0, host auto); the timed
    // replay pins shards = 1 so the ratio compares one engine to one
    // estimator on one core — sharding is an orthogonal speedup with
    // its own benchmark (`shard_bench`), and shard identity makes the
    // result bits independent of the pin.
    let mut timed = scenario.clone();
    timed.sim.shards = 1;
    let started = Instant::now();
    let truth = run_scenario(&timed).map_err(|e| e.to_string())?;
    let flat_secs = started.elapsed().as_secs_f64();
    let mut truth_stats = Histogram::new();
    for o in &truth.outcomes {
        truth_stats.record(o.total_latency());
    }
    let truth_q = quantiles(&mut truth_stats);

    // The analytic estimate, timed over `reps` repetitions; the
    // minimum is the reading (scheduler noise only ever adds time).
    let mut estimate = None;
    let mut estimate_secs = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        estimate = Some(estimate_latency(&scenario).map_err(|e| e.to_string())?);
        estimate_secs = estimate_secs.min(started.elapsed().as_secs_f64());
    }
    let mut estimate = estimate.expect("reps >= 1");
    let est_q = quantiles(&mut estimate.total_latency);

    let speedup = flat_secs / estimate_secs;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Analytic estimator vs Flat engine: metro1k (1024 endpoints, 5 stages) ===\n"
    );
    let _ = writeln!(
        out,
        "flat replay     : {flat_secs:>9.4}s  ({} outcomes)",
        truth.outcomes.len()
    );
    let _ = writeln!(
        out,
        "analytic        : {estimate_secs:>9.6}s  ({} outcomes, best of {reps} reps)",
        estimate.result.outcomes.len()
    );
    let _ = writeln!(
        out,
        "speedup         : {speedup:>9.0}x  (floor {MIN_SPEEDUP:.0}x)\n"
    );
    let _ = writeln!(out, "                   p50    p95    p99");
    let _ = writeln!(
        out,
        "flat (truth)    : {:>4}   {:>4}   {:>4}",
        truth_q[0], truth_q[1], truth_q[2]
    );
    let _ = writeln!(
        out,
        "analytic        : {:>4}   {:>4}   {:>4}",
        est_q[0], est_q[1], est_q[2]
    );

    if speedup < MIN_SPEEDUP {
        return Err(format!(
            "analytic estimator speedup {speedup:.1}x is below the {MIN_SPEEDUP:.0}x floor \
             (flat {flat_secs:.4}s vs estimate {estimate_secs:.6}s)"
        ));
    }

    let json = Json::obj([
        ("benchmark", Json::from("analytic_estimate")),
        ("topology", Json::from("metro1k")),
        ("estimate_reps", Json::from(u64::from(reps))),
        ("flat_seconds", Json::from(flat_secs)),
        ("estimate_seconds", Json::from(estimate_secs)),
        ("speedup", Json::from(speedup)),
        ("min_speedup", Json::from(MIN_SPEEDUP)),
        (
            "flat_quantiles",
            Json::arr(truth_q.iter().map(|&v| Json::from(v))),
        ),
        (
            "estimate_quantiles",
            Json::arr(est_q.iter().map(|&v| Json::from(v))),
        ),
        ("flat_outcomes", Json::from(truth.outcomes.len())),
        (
            "estimate_outcomes",
            Json::from(estimate.result.outcomes.len()),
        ),
    ]);

    if !ctx.quick {
        // The trajectory file lives at the repo root (one benchmark,
        // one file) but goes through the same validated writer as
        // results/. Timings drift host to host, so the perf guard
        // gates on the recorded speedup ratio, not raw seconds.
        let root = ResultsDir::new(".");
        root.write_json("BENCH_estimate", &json)
            .map_err(|e| e.to_string())?;
        let _ = writeln!(out, "\nwrote BENCH_estimate.json");
    }

    Ok(ArtifactOutput {
        human: out,
        json,
        points: 2,
        params: Json::obj([("estimate_reps", Json::from(u64::from(reps)))]),
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: None,
    })
}
