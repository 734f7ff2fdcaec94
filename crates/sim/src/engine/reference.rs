//! The original nested-`Vec` engine, retained verbatim as the golden
//! reference: per-tick buffer allocation, topology lookups, and
//! fault-set queries. Deliberately scalar and simple — it is the
//! executable spec the flat engine is proven bit-identical against.

use super::flat::{restore_flags, restore_words, save_flags, save_words};
use super::{boundary_delay, Engine, ShardLane, StepCtx};
use crate::endpoint::EndpointIo;
use crate::network::SimConfig;
use crate::wire::Wire;
use metro_core::{BwdIn, FwdIn, TickOutput, Word};
use metro_telemetry::{StateError, StateReader, StateWriter, TallyLane};
use metro_topo::fault::FaultSet;
use metro_topo::graph::{LinkId, LinkTarget};
use metro_topo::multibutterfly::Multibutterfly;

/// Checks a saved collection count against the live engine's shape.
fn check_len(saved: usize, live: usize, what: &str) -> Result<(), StateError> {
    if saved == live {
        Ok(())
    } else {
        Err(StateError::BadValue {
            section: String::from("refeng"),
            detail: format!("saved {saved} {what}, engine holds {live}"),
        })
    }
}

/// The original engine: nested `Vec` buffers rebuilt each tick, with
/// per-tick topology and fault lookups.
#[derive(Debug, Clone)]
pub struct ReferenceEngine {
    inj_wires: Vec<Vec<Wire>>,
    stage_wires: Vec<Vec<Vec<Wire>>>,
    fwd_in: Vec<Vec<Vec<Word>>>,
    rev_in: Vec<Vec<Vec<Word>>>,
    bcb_in: Vec<Vec<Vec<bool>>>,
    ep_out_rev: Vec<Vec<Word>>,
    ep_out_bcb: Vec<Vec<bool>>,
    ep_in_fwd: Vec<Vec<Word>>,
}

impl ReferenceEngine {
    /// Builds the nested-`Vec` engine for `topo` under `config`.
    #[must_use]
    pub(crate) fn build(topo: &Multibutterfly, config: &SimConfig) -> Self {
        let ep = topo.endpoint_ports();
        Self {
            inj_wires: (0..topo.endpoints())
                .map(|_| {
                    (0..ep)
                        .map(|_| Wire::new(boundary_delay(config, 0)))
                        .collect()
                })
                .collect(),
            stage_wires: (0..topo.stages())
                .map(|s| {
                    (0..topo.routers_in_stage(s))
                        .map(|_| {
                            (0..topo.stage_spec(s).backward_ports)
                                .map(|_| Wire::new(boundary_delay(config, s + 1)))
                                .collect()
                        })
                        .collect()
                })
                .collect(),
            fwd_in: (0..topo.stages())
                .map(|s| {
                    vec![
                        vec![Word::Empty; topo.stage_spec(s).forward_ports];
                        topo.routers_in_stage(s)
                    ]
                })
                .collect(),
            rev_in: (0..topo.stages())
                .map(|s| {
                    vec![
                        vec![Word::Empty; topo.stage_spec(s).backward_ports];
                        topo.routers_in_stage(s)
                    ]
                })
                .collect(),
            bcb_in: (0..topo.stages())
                .map(|s| {
                    vec![vec![false; topo.stage_spec(s).backward_ports]; topo.routers_in_stage(s)]
                })
                .collect(),
            ep_out_rev: vec![vec![Word::Empty; ep]; topo.endpoints()],
            ep_out_bcb: vec![vec![false; ep]; topo.endpoints()],
            ep_in_fwd: vec![vec![Word::Empty; ep]; topo.endpoints()],
        }
    }
}

impl Engine for ReferenceEngine {
    /// The original engine's cycle, kept verbatim: per-tick buffer
    /// allocation, topology lookups, and fault-set queries.
    fn step(&mut self, ctx: StepCtx<'_>) {
        let stages = ctx.topo.stages();
        let ep = ctx.topo.endpoint_ports();
        let [ShardLane { pending, finished }] = ctx.lanes else {
            panic!("the reference engine takes exactly one lane");
        };
        let mut tally = TallyLane::new(ctx.epoch, ctx.marks, pending);

        // 1. Endpoints compute their outputs from last cycle's inputs;
        // finished transactions are harvested right after each tick.
        let mut ep_drive = Vec::with_capacity(ctx.endpoints.len());
        for (e, endpoint) in ctx.endpoints.iter_mut().enumerate() {
            let io = EndpointIo {
                out_rev_in: self.ep_out_rev[e].clone(),
                out_bcb_in: self.ep_out_bcb[e].clone(),
                in_fwd_in: self.ep_in_fwd[e].clone(),
            };
            ep_drive.push(endpoint.tick(ctx.now, &io));
            endpoint.drain_finished(finished);
        }

        // 2. Routers compute their outputs; each tallies its counter
        // change for the telemetry ledger.
        let mut router_out: Vec<Vec<TickOutput>> = Vec::with_capacity(stages);
        let mut flat = 0;
        for s in 0..stages {
            let st = ctx.topo.stage_spec(s);
            let mut stage_out = Vec::with_capacity(ctx.routers[s].len());
            for r in 0..ctx.routers[s].len() {
                if ctx.faults.router_dead(s, r) {
                    stage_out.push(TickOutput {
                        bwd: vec![Word::Empty; st.backward_ports],
                        fwd: vec![Word::Empty; st.forward_ports],
                        bcb: vec![false; st.forward_ports],
                    });
                    continue;
                }
                let fwd = FwdIn::data(&self.fwd_in[s][r]);
                let bwd = BwdIn::new(&self.rev_in[s][r], &self.bcb_in[s][r]);
                let router = &mut ctx.routers[s][r];
                let before = *router.counters();
                stage_out.push(router.tick(&fwd, &bwd));
                tally.record(flat + r, &before, router.counters());
            }
            flat += ctx.routers[s].len();
            router_out.push(stage_out);
        }

        // 3. Wires advance; next-cycle input buffers are rebuilt.
        for (e, drive) in ep_drive.iter().enumerate() {
            for p in 0..ep {
                let (r0, f0) = ctx.topo.injection(e, p);
                let (fwd_o, rev_o, bcb_o) = self.inj_wires[e][p].advance(
                    drive.out_fwd[p],
                    router_out[0][r0].fwd[f0],
                    router_out[0][r0].bcb[f0],
                );
                self.fwd_in[0][r0][f0] = fwd_o;
                self.ep_out_rev[e][p] = rev_o;
                self.ep_out_bcb[e][p] = bcb_o;
            }
        }
        for s in 0..stages {
            let st = ctx.topo.stage_spec(s);
            for r in 0..ctx.routers[s].len() {
                for b in 0..st.backward_ports {
                    let fault = ctx.faults.link_fault(LinkId::new(s, r, b));
                    self.stage_wires[s][r][b].set_fault(fault);
                    match ctx.topo.link(s, r, b) {
                        LinkTarget::Router { router, port } => {
                            let (fwd_o, rev_o, bcb_o) = self.stage_wires[s][r][b].advance(
                                router_out[s][r].bwd[b],
                                router_out[s + 1][router].fwd[port],
                                router_out[s + 1][router].bcb[port],
                            );
                            self.fwd_in[s + 1][router][port] = fwd_o;
                            self.rev_in[s][r][b] = rev_o;
                            self.bcb_in[s][r][b] = bcb_o;
                        }
                        LinkTarget::Endpoint { endpoint, port } => {
                            let (fwd_o, rev_o, _) = self.stage_wires[s][r][b].advance(
                                router_out[s][r].bwd[b],
                                ep_drive[endpoint].in_rev[port],
                                false,
                            );
                            self.ep_in_fwd[endpoint][port] = fwd_o;
                            self.rev_in[s][r][b] = rev_o;
                            self.bcb_in[s][r][b] = false;
                        }
                    }
                }
            }
        }
    }

    fn wires_quiet(&self) -> bool {
        self.inj_wires
            .iter()
            .flatten()
            .chain(self.stage_wires.iter().flatten().flatten())
            .all(Wire::is_quiet)
    }

    fn probe_wire(&self, stage: usize, router: usize, b: usize) -> Wire {
        self.stage_wires[stage][router][b].clone()
    }

    fn apply_faults(&mut self, _topo: &Multibutterfly, _faults: &FaultSet) {
        // The reference engine queries the fault set per tick (the
        // verbatim original behavior), so there is nothing to resolve.
    }

    fn shards(&self) -> usize {
        1
    }

    fn clone_box(&self) -> Box<dyn Engine> {
        Box::new(self.clone())
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.section("refeng");
        w.usize(self.inj_wires.len());
        for per_ep in &self.inj_wires {
            w.usize(per_ep.len());
            for wire in per_ep {
                wire.save_state(w);
            }
        }
        w.usize(self.stage_wires.len());
        for per_stage in &self.stage_wires {
            w.usize(per_stage.len());
            for per_router in per_stage {
                w.usize(per_router.len());
                for wire in per_router {
                    wire.save_state(w);
                }
            }
        }
        for field in [&self.fwd_in, &self.rev_in] {
            w.usize(field.len());
            for per_stage in field {
                w.usize(per_stage.len());
                for lane in per_stage {
                    save_words(w, lane);
                }
            }
        }
        w.usize(self.bcb_in.len());
        for per_stage in &self.bcb_in {
            w.usize(per_stage.len());
            for lane in per_stage {
                save_flags(w, lane);
            }
        }
        w.usize(self.ep_out_rev.len());
        for lane in &self.ep_out_rev {
            save_words(w, lane);
        }
        w.usize(self.ep_out_bcb.len());
        for lane in &self.ep_out_bcb {
            save_flags(w, lane);
        }
        w.usize(self.ep_in_fwd.len());
        for lane in &self.ep_in_fwd {
            save_words(w, lane);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        r.section("refeng")?;
        check_len(r.usize()?, self.inj_wires.len(), "injection endpoints")?;
        for per_ep in &mut self.inj_wires {
            check_len(r.usize()?, per_ep.len(), "injection wires")?;
            for wire in per_ep {
                wire.restore_state(r)?;
            }
        }
        check_len(r.usize()?, self.stage_wires.len(), "wire stages")?;
        for per_stage in &mut self.stage_wires {
            check_len(r.usize()?, per_stage.len(), "wire routers")?;
            for per_router in per_stage {
                check_len(r.usize()?, per_router.len(), "stage wires")?;
                for wire in per_router {
                    wire.restore_state(r)?;
                }
            }
        }
        for field in [&mut self.fwd_in, &mut self.rev_in] {
            check_len(r.usize()?, field.len(), "word stages")?;
            for per_stage in field.iter_mut() {
                check_len(r.usize()?, per_stage.len(), "word routers")?;
                for lane in per_stage {
                    restore_words(r, lane)?;
                }
            }
        }
        check_len(r.usize()?, self.bcb_in.len(), "bcb stages")?;
        for per_stage in &mut self.bcb_in {
            check_len(r.usize()?, per_stage.len(), "bcb routers")?;
            for lane in per_stage {
                restore_flags(r, lane)?;
            }
        }
        check_len(r.usize()?, self.ep_out_rev.len(), "endpoint rev lanes")?;
        for lane in &mut self.ep_out_rev {
            restore_words(r, lane)?;
        }
        check_len(r.usize()?, self.ep_out_bcb.len(), "endpoint bcb lanes")?;
        for lane in &mut self.ep_out_bcb {
            restore_flags(r, lane)?;
        }
        check_len(r.usize()?, self.ep_in_fwd.len(), "endpoint fwd lanes")?;
        for lane in &mut self.ep_in_fwd {
            restore_words(r, lane)?;
        }
        Ok(())
    }
}
