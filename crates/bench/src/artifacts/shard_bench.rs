//! Sharded-engine throughput: the partitioned Flat tick at 1, 2, and 4
//! shards on the 1024-endpoint `metro1k` fabric (five stages, 1536
//! routers — the kind of short-haul fabric the sharded engine exists
//! for).
//!
//! Every shard count runs the identical sustained workload — each
//! endpoint re-offers an 8-word message whenever its queue drains — and
//! must complete the identical message count (sharding is execution
//! strategy, not semantics; the full bit-identity proof lives in the
//! golden-equivalence, fuzz, and corpus suites). The measured quantity
//! is simulator cycles per wall-clock second. Full runs refresh the
//! repo-root `BENCH_shard.json` trajectory file and record the host's
//! core count alongside the rates — scaling claims are only meaningful
//! where `host_parallelism >= shards`, so CI gates on that field rather
//! than trusting a rate measured on a starved host.

use metro_harness::{default_jobs, Artifact, ArtifactOutput, Json, ResultsDir, RunCtx};
use metro_sim::{NetworkSim, SimConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Offered payload per message, in words.
const PAYLOAD_WORDS: usize = 8;
/// Cycles between workload refresh sweeps.
const OFFER_PERIOD: u64 = 32;
/// Shard counts benchmarked, in run order.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn build(shards: usize) -> NetworkSim {
    let scenario = crate::scenarios::named("metro1k").expect("metro1k is in the catalog");
    let config = SimConfig {
        shards,
        ..scenario.sim.clone()
    };
    let mut sim = NetworkSim::new(&scenario.topology, &config).expect("metro1k spec is valid");
    sim.set_telemetry_interval(1_024);
    sim
}

/// Keeps every endpoint's NIC queue non-empty: one fresh message per
/// endpoint every `OFFER_PERIOD` cycles, destinations striding through
/// the address space so the load spreads across the fabric.
fn offer_load(sim: &mut NetworkSim, round: u64) {
    let n = sim.topology().endpoints();
    let payload: Vec<u16> = (0..PAYLOAD_WORDS as u16).collect();
    for src in 0..n {
        let dest = (src + 1 + (round as usize * 7) % (n - 1)) % n;
        sim.send(src, dest, &payload);
    }
}

fn measure(shards: usize, warmup: u64, measured: u64) -> (f64, usize, NetworkSim) {
    let mut sim = build(shards);
    let mut round = 0u64;
    for now in 0..warmup {
        if now % OFFER_PERIOD == 0 {
            offer_load(&mut sim, round);
            round += 1;
        }
        sim.tick();
    }
    sim.drain_outcomes();
    let start = Instant::now();
    for now in 0..measured {
        if now % OFFER_PERIOD == 0 {
            offer_load(&mut sim, round);
            round += 1;
        }
        sim.tick();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let delivered = sim.drain_outcomes().len();
    (measured as f64 / elapsed, delivered, sim)
}

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "shard_bench",
        description: "sharded flat-engine throughput at 1/2/4 shards (cycles/s, metro1k)",
        quick_profile: "200 warm-up + 800 measured cycles (no BENCH_shard.json refresh)",
        full_profile: "1k warm-up + 5k measured cycles, refreshes BENCH_shard.json",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let (warmup, measured) = if ctx.quick {
        (200u64, 800u64)
    } else {
        (1_000, 5_000)
    };
    let host_parallelism = default_jobs().get();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Sharded-engine throughput: metro1k fabric (1024 endpoints, 5 stages, \
         1536 routers) ===\n"
    );
    let _ = writeln!(
        out,
        "warm-up {warmup} cycles, measured {measured} cycles, \
         {PAYLOAD_WORDS}-word messages re-offered every {OFFER_PERIOD} cycles, \
         host parallelism {host_parallelism}\n"
    );

    // The runs are timed, so they go strictly sequentially — sharing
    // cores between two timed runs would corrupt both readings.
    let mut rates = Vec::new();
    let mut delivered = Vec::new();
    let mut last_sim = None;
    for shards in SHARD_COUNTS {
        let (rate, done, sim) = measure(shards, warmup, measured);
        let _ = writeln!(
            out,
            "shards {shards} : {rate:>12.0} cycles/s  ({done} messages completed)"
        );
        rates.push(rate);
        delivered.push(done);
        last_sim = Some(sim);
    }
    if delivered.iter().any(|&d| d != delivered[0]) {
        return Err(format!(
            "shard counts completed different message counts under the identical \
             workload: {delivered:?} at shards {SHARD_COUNTS:?}"
        ));
    }

    let speedup_at_4 = rates[2] / rates[0];
    let _ = writeln!(out, "\nspeedup at 4 shards : {speedup_at_4:.2}x");
    if host_parallelism < 4 {
        let _ = writeln!(
            out,
            "(host has only {host_parallelism} core(s) — the 4-shard rate measures \
             barrier overhead, not scaling)"
        );
    }

    let json = Json::obj([
        ("benchmark", Json::from("shard_engine_throughput")),
        ("topology", Json::from("metro1k")),
        ("endpoints", Json::from(1_024u64)),
        ("routers", Json::from(1_536u64)),
        ("warmup_cycles", Json::from(warmup)),
        ("measured_cycles", Json::from(measured)),
        ("payload_words", Json::from(PAYLOAD_WORDS)),
        ("offer_period", Json::from(OFFER_PERIOD)),
        ("host_parallelism", Json::from(host_parallelism)),
        (
            "shard_counts",
            Json::arr(SHARD_COUNTS.iter().map(|&s| Json::from(s))),
        ),
        (
            "cycles_per_sec",
            Json::arr(rates.iter().map(|&r| Json::from(r))),
        ),
        ("messages_completed", Json::from(delivered[0])),
        ("speedup_at_4", Json::from(speedup_at_4)),
    ]);

    if !ctx.quick {
        // The trajectory file lives at the repo root (one benchmark, one
        // file) but goes through the same validated writer as results/.
        let root = ResultsDir::new(".");
        root.write_json("BENCH_shard", &json)
            .map_err(|e| e.to_string())?;
        let _ = writeln!(out, "\nwrote BENCH_shard.json");
    }

    let mut sim = last_sim.expect("at least one shard count ran");
    Ok(ArtifactOutput {
        human: out,
        json,
        points: SHARD_COUNTS.len(),
        params: Json::obj([
            ("warmup_cycles", Json::from(warmup)),
            ("measured_cycles", Json::from(measured)),
            ("host_parallelism", Json::from(host_parallelism)),
        ]),
        scenario: None,
        telemetry: Some(sim.telemetry_snapshot("shard_bench").to_json()),
    })
}
