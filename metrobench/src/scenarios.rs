//! The three workloads, generated from the benchmark seed.
//!
//! Each workload is a scenario the library already knows how to run.
//! The seed picks only the workload stream seed and the simulator's
//! master seed; fabric, load, payload and window are fixed per
//! workload, so runs with different seeds measure the same work drawn
//! from different random streams. The program under test receives the
//! scenario as JSON text, exactly as `metro scenario run` would.

use metro_sim::network::{EngineKind, SimConfig};
use metro_sim::scenario::{Scenario, WorkloadSpec};
use metro_sim::workload::{ArrivalProcess, RateMap};
use metro_sim::TrafficPattern;
use metro_topo::fault::FaultSet;
use metro_topo::multibutterfly::{MultibutterflySpec, StageSpec, WiringStyle};

/// The benchmark's workloads, by the names `BENCHMARK.json` registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3's 64-endpoint fabric near saturation.
    Fig3Contended,
    /// The 1024-endpoint fabric, 2 shards, checkpointed mid-run.
    Metro1kSharded,
    /// Bursty hotspot traffic on the analytic estimator.
    BurstEstimate,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig3Contended,
        Workload::Metro1kSharded,
        Workload::BurstEstimate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Contended => "fig3_contended",
            Workload::Metro1kSharded => "metro1k_sharded",
            Workload::BurstEstimate => "burst_estimate",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shards the timed cycle-accurate replay runs with.
    pub fn shards(self) -> usize {
        match self {
            Workload::Metro1kSharded => 2,
            _ => 1,
        }
    }

    /// The workload's scenario for `seed`.
    pub fn scenario(self, seed: u64) -> Scenario {
        let mut mix = SplitMix(seed);
        let (workload_seed, sim_seed) = (mix.next(), mix.next());
        let (name, topology, workload) = match self {
            // Uniform Bernoulli at load 0.4 with Figure 3's 19-word
            // messages: close to the knee of the load-latency curve,
            // so arbitration, blocking and NIC retries dominate.
            Workload::Fig3Contended => (
                self.name(),
                MultibutterflySpec::figure3(),
                WorkloadSpec::Load {
                    pattern: TrafficPattern::Uniform,
                    arrival: ArrivalProcess::Bernoulli,
                    rates: RateMap::Uniform,
                    load: 0.4,
                    payload_words: 19,
                    warmup: 1_000,
                    measure: 60_000,
                    drain: 4_000,
                },
            ),
            // The corpus metro1k fabric at its corpus load: most routers
            // idle each cycle, so per-cycle costs that scale with the
            // fabric (telemetry sync, wires, shard barriers) dominate.
            Workload::Metro1kSharded => (
                self.name(),
                metro1k_fabric(),
                WorkloadSpec::Load {
                    pattern: TrafficPattern::Uniform,
                    arrival: ArrivalProcess::Bernoulli,
                    rates: RateMap::Uniform,
                    load: 0.15,
                    payload_words: 8,
                    warmup: 200,
                    measure: 2_400,
                    drain: 600,
                },
            ),
            // The corpus hotspot_burst shape (on/off arrivals, 15%
            // hotspot, per-endpoint rate skew) over a long window.
            Workload::BurstEstimate => (
                self.name(),
                MultibutterflySpec::figure1(),
                WorkloadSpec::Load {
                    pattern: TrafficPattern::Hotspot {
                        target: 9,
                        percent: 15,
                    },
                    arrival: ArrivalProcess::OnOff {
                        burst_mean: 60,
                        idle_mean: 120,
                    },
                    rates: RateMap::PerEndpoint(
                        (0..16).map(|e| 0.7 + 0.04 * f64::from(e)).collect(),
                    ),
                    load: 0.2,
                    payload_words: 19,
                    warmup: 2_000,
                    measure: 200_000,
                    drain: 4_000,
                },
            ),
        };
        Scenario {
            name: name.to_string(),
            topology,
            sim: SimConfig {
                seed: sim_seed,
                engine: match self {
                    Workload::BurstEstimate => EngineKind::Analytic,
                    _ => EngineKind::Flat,
                },
                telemetry_every: 1,
                shards: self.shards(),
                ..SimConfig::default()
            },
            seed: workload_seed,
            faults: FaultSet::new(),
            injections: Vec::new(),
            workload,
        }
    }
}

/// The corpus `metro1k` fabric: 1024 endpoints, 5 stages of radix-4
/// routers (1536 routers), dilation 2 in the four wide stages.
fn metro1k_fabric() -> MultibutterflySpec {
    MultibutterflySpec {
        endpoints: 1_024,
        endpoint_ports: 2,
        stages: vec![
            StageSpec::new(8, 8, 2),
            StageSpec::new(8, 8, 2),
            StageSpec::new(8, 8, 2),
            StageSpec::new(8, 8, 2),
            StageSpec::new(4, 4, 1),
        ],
        wiring: WiringStyle::Randomized,
        seed: 0x1024,
    }
}

/// SplitMix64: spreads one benchmark seed into independent scenario
/// seeds, so neighbouring benchmark seeds share no stream prefix.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
