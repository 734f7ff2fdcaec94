//! Tick-engine throughput: flat double-buffered arenas vs. the
//! reference nested-`Vec` engine on the fixed Figure 3 configuration
//! (64-endpoint three-stage multibutterfly, 8-bit channels, `dp = 1`,
//! fast reclamation).
//!
//! Both engines run the identical sustained workload — every endpoint
//! re-offers an 8-word message each time its queue drains, so the
//! fabric stays loaded for the whole measurement window. The measured
//! quantity is simulator cycles per wall-clock second. Full runs also
//! refresh the repo-root `BENCH_tick.json` trajectory file (quick runs
//! deliberately leave it alone so CI smoke runs don't clobber real
//! benchmark numbers with short-window noise).

use metro_harness::{Artifact, ArtifactOutput, Json, ResultsDir, RunCtx};
use metro_sim::{EngineKind, NetworkSim, SimConfig};
use metro_topo::multibutterfly::MultibutterflySpec;
use std::fmt::Write as _;
use std::time::Instant;

/// Offered payload per message, in words.
const PAYLOAD_WORDS: usize = 8;
/// Cycles between workload refresh sweeps.
const OFFER_PERIOD: u64 = 32;

fn build(kind: EngineKind) -> NetworkSim {
    let spec = MultibutterflySpec::figure3();
    let config = SimConfig {
        engine: kind,
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&spec, &config).expect("Figure 3 spec is valid");
    // Decimate trace snapshots identically for both engines so the
    // comparison isolates the tick engine itself.
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

fn measure(kind: EngineKind, warmup: u64, measured: u64) -> (f64, usize, NetworkSim) {
    let mut sim = build(kind);
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
        name: "tick_bench",
        description: "flat vs reference tick-engine throughput (cycles/s)",
        quick_profile: "2k warm-up + 10k measured cycles (no BENCH_tick.json refresh)",
        full_profile: "20k warm-up + 100k measured cycles, refreshes BENCH_tick.json",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let (warmup, measured) = if ctx.quick {
        (2_000u64, 10_000u64)
    } else {
        (20_000, 100_000)
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Tick-engine throughput: Figure 3 network (64 endpoints, 3 stages) ===\n"
    );
    let _ = writeln!(
        out,
        "warm-up {warmup} cycles, measured {measured} cycles, \
         {PAYLOAD_WORDS}-word messages re-offered every {OFFER_PERIOD} cycles\n"
    );

    // The two engine runs are timed, so they run sequentially even when
    // jobs > 1: sharing cores would corrupt both wall-clock readings.
    let (flat_rate, flat_done, mut flat_sim) = measure(EngineKind::Flat, warmup, measured);
    let _ = writeln!(
        out,
        "flat      : {flat_rate:>12.0} cycles/s  ({flat_done} messages completed)"
    );
    let (ref_rate, ref_done, _) = measure(EngineKind::Reference, warmup, measured);
    let _ = writeln!(
        out,
        "reference : {ref_rate:>12.0} cycles/s  ({ref_done} messages completed)"
    );

    let speedup = flat_rate / ref_rate;
    let _ = writeln!(out, "\nspeedup   : {speedup:.2}x");
    if flat_done != ref_done {
        return Err(format!(
            "engines completed different message counts under the identical \
             workload: flat {flat_done} vs reference {ref_done}"
        ));
    }

    let json = Json::obj([
        ("benchmark", Json::from("tick_engine_throughput")),
        ("topology", Json::from("figure3")),
        ("endpoints", Json::from(64u64)),
        ("warmup_cycles", Json::from(warmup)),
        ("measured_cycles", Json::from(measured)),
        ("payload_words", Json::from(PAYLOAD_WORDS)),
        ("offer_period", Json::from(OFFER_PERIOD)),
        ("flat_cycles_per_sec", Json::from(flat_rate)),
        ("reference_cycles_per_sec", Json::from(ref_rate)),
        ("messages_completed", Json::from(flat_done)),
        ("speedup", Json::from(speedup)),
    ]);

    if !ctx.quick {
        // The trajectory file lives at the repo root (one benchmark, one
        // file) but goes through the same validated writer as results/.
        let root = ResultsDir::new(".");
        root.write_json("BENCH_tick", &json)
            .map_err(|e| e.to_string())?;
        let _ = writeln!(out, "\nwrote BENCH_tick.json");
    }

    Ok(ArtifactOutput {
        human: out,
        json,
        points: 2,
        params: Json::obj([
            ("warmup_cycles", Json::from(warmup)),
            ("measured_cycles", Json::from(measured)),
        ]),
        scenario: None,
        telemetry: Some(flat_sim.telemetry_snapshot("tick_bench").to_json()),
    })
}
