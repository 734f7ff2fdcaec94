//! The allocation-free flat engine: double-buffered channel arenas
//! walked with precomputed slot indices.
//!
//! One copy of every registered channel value lives in a flat arena
//! indexed by [`FlatLinks`]'s slot scheme; the engine keeps two — `cur`
//! (read by components this cycle) and `next` (written by wires for the
//! coming cycle) — and swaps them once per tick. The steady-state step
//! performs no heap allocation, and fault state is resolved into flat
//! tables in [`Engine::apply_faults`] so the hot path never queries the
//! fault set. The step itself lives in [`super::shard`]: one shard-owned
//! step that runs inline with one shard and fans out across cores,
//! bit-identically, with `SimConfig::shards > 1`.

use super::{boundary_delay, shard::ShardState, Engine, StepCtx};
use crate::network::SimConfig;
use crate::wire::Wire;
use metro_core::word::phit;
use metro_core::Word;
use metro_telemetry::{StateError, StateReader, StateWriter};
use metro_topo::fault::FaultSet;
use metro_topo::flatlinks::FlatLinks;
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::Multibutterfly;

/// Appends a word lane to a checkpoint stream (length-prefixed packed
/// cells). Shared by both engines' snapshots.
pub(crate) fn save_words(w: &mut StateWriter, lane: &[Word]) {
    w.usize(lane.len());
    for &word in lane {
        w.u64(phit::pack(word));
    }
}

/// Overwrites a word lane from a checkpoint stream, in place.
pub(crate) fn restore_words(r: &mut StateReader<'_>, lane: &mut [Word]) -> Result<(), StateError> {
    let bad = |detail: String| StateError::BadValue {
        section: String::from("arena"),
        detail,
    };
    let n = r.usize()?;
    if n != lane.len() {
        return Err(bad(format!(
            "saved lane of {n}, engine holds {}",
            lane.len()
        )));
    }
    for word in lane.iter_mut() {
        let cell = r.u64()?;
        *word = phit::unpack(cell).ok_or_else(|| bad(format!("{cell:#x} is not a packed word")))?;
    }
    Ok(())
}

/// Appends a BCB lane to a checkpoint stream.
pub(crate) fn save_flags(w: &mut StateWriter, lane: &[bool]) {
    w.usize(lane.len());
    for &b in lane {
        w.bool(b);
    }
}

/// Overwrites a BCB lane from a checkpoint stream, in place.
pub(crate) fn restore_flags(r: &mut StateReader<'_>, lane: &mut [bool]) -> Result<(), StateError> {
    let n = r.usize()?;
    if n != lane.len() {
        return Err(StateError::BadValue {
            section: String::from("arena"),
            detail: format!("saved lane of {n}, engine holds {}", lane.len()),
        });
    }
    for b in lane.iter_mut() {
        *b = r.bool()?;
    }
    Ok(())
}

/// One copy of every registered channel value in the network, indexed
/// by the flat slot scheme of [`FlatLinks`].
#[derive(Debug, Clone)]
pub(crate) struct ChannelArena {
    /// Forward-lane word arriving at each router forward port (fslot).
    pub(crate) fwd_in: Vec<Word>,
    /// Reverse-lane word arriving at each router backward port (bslot).
    pub(crate) rev_in: Vec<Word>,
    /// BCB arriving at each router backward port (bslot).
    pub(crate) bcb_in: Vec<bool>,
    /// Reverse-lane word arriving at each endpoint output port
    /// (ep slot).
    pub(crate) ep_out_rev: Vec<Word>,
    /// BCB arriving at each endpoint output port (ep slot).
    pub(crate) ep_out_bcb: Vec<bool>,
    /// Forward-lane word arriving at each endpoint input port (ep slot).
    pub(crate) ep_in_fwd: Vec<Word>,
}

impl ChannelArena {
    fn idle(links: &FlatLinks) -> Self {
        Self {
            fwd_in: vec![Word::Empty; links.n_fwd_slots()],
            rev_in: vec![Word::Empty; links.n_bwd_slots()],
            bcb_in: vec![false; links.n_bwd_slots()],
            ep_out_rev: vec![Word::Empty; links.n_ep_slots()],
            ep_out_bcb: vec![false; links.n_ep_slots()],
            ep_in_fwd: vec![Word::Empty; links.n_ep_slots()],
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        save_words(w, &self.fwd_in);
        save_words(w, &self.rev_in);
        save_flags(w, &self.bcb_in);
        save_words(w, &self.ep_out_rev);
        save_flags(w, &self.ep_out_bcb);
        save_words(w, &self.ep_in_fwd);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        restore_words(r, &mut self.fwd_in)?;
        restore_words(r, &mut self.rev_in)?;
        restore_flags(r, &mut self.bcb_in)?;
        restore_words(r, &mut self.ep_out_rev)?;
        restore_flags(r, &mut self.ep_out_bcb)?;
        restore_words(r, &mut self.ep_in_fwd)
    }
}

/// Component outputs computed during the current tick, before the wires
/// consume them. Preallocated once; every slot is overwritten each
/// cycle.
#[derive(Debug, Clone)]
pub(crate) struct DriveBus {
    /// Forward-lane word each router drives out of a backward port
    /// (bslot).
    pub(crate) out_bwd: Vec<Word>,
    /// Reverse-lane word each router drives out of a forward port
    /// (fslot).
    pub(crate) out_fwd: Vec<Word>,
    /// BCB each router drives out of a forward port (fslot).
    pub(crate) out_bcb: Vec<bool>,
    /// Forward-lane word each endpoint drives into the network
    /// (ep slot).
    pub(crate) ep_out_fwd: Vec<Word>,
    /// Reverse-lane reply each endpoint drives at its input side
    /// (ep slot).
    pub(crate) ep_in_rev: Vec<Word>,
}

impl DriveBus {
    fn idle(links: &FlatLinks) -> Self {
        Self {
            out_bwd: vec![Word::Empty; links.n_bwd_slots()],
            out_fwd: vec![Word::Empty; links.n_fwd_slots()],
            out_bcb: vec![false; links.n_fwd_slots()],
            ep_out_fwd: vec![Word::Empty; links.n_ep_slots()],
            ep_in_rev: vec![Word::Empty; links.n_ep_slots()],
        }
    }
}

/// The allocation-free tick engine: flat arenas + precomputed slots.
#[derive(Debug, Clone)]
pub struct FlatEngine {
    pub(crate) links: FlatLinks,
    pub(crate) cur: ChannelArena,
    pub(crate) next: ChannelArena,
    pub(crate) bus: DriveBus,
    /// Injection wires, one per endpoint slot.
    pub(crate) inj_wires: Vec<Wire>,
    /// Inter-stage / delivery wires, one per backward slot.
    pub(crate) stage_wires: Vec<Wire>,
    /// Dead-router flags, flat router numbering; synced from the fault
    /// set in [`Engine::apply_faults`] so the step path never queries
    /// the fault set.
    pub(crate) router_dead: Vec<bool>,
    /// Per-wire [`Wire::is_transparent`] flags (zero delay, no fault):
    /// the step path copies slots directly instead of calling
    /// `advance`. Transparency only changes when faults change, so
    /// these are rebuilt in [`Engine::apply_faults`], never per tick.
    pub(crate) inj_transparent: Vec<bool>,
    pub(crate) stage_transparent: Vec<bool>,
    /// The shard partition (one shard runs the step inline) and the
    /// multi-shard step's pool and staging buffers.
    pub(crate) shard: ShardState,
}

impl FlatEngine {
    /// Builds the flat engine for `topo` under `config`, resolving the
    /// shard knob (0 = host parallelism, capped at the router count).
    #[must_use]
    pub(crate) fn build(topo: &Multibutterfly, config: &SimConfig) -> Self {
        let links = FlatLinks::build(topo);
        let inj_wires: Vec<Wire> = (0..links.n_ep_slots())
            .map(|_| Wire::new(boundary_delay(config, 0)))
            .collect();
        let stage_wires: Vec<Wire> = (0..topo.stages())
            .flat_map(|s| {
                let n = topo.routers_in_stage(s) * topo.stage_spec(s).backward_ports;
                std::iter::repeat_n(boundary_delay(config, s + 1), n)
            })
            .map(Wire::new)
            .collect();
        let inj_transparent = inj_wires.iter().map(Wire::is_transparent).collect();
        let stage_transparent = stage_wires.iter().map(Wire::is_transparent).collect();
        // Resolve the shard knob: 0 = host parallelism, then cap at
        // the router count (a shard without routers is pure overhead).
        let requested = match config.shards {
            0 => metro_harness::default_jobs().get(),
            n => n,
        };
        let shard = ShardState::new(&links, requested.min(links.n_routers()).max(1));
        Self {
            cur: ChannelArena::idle(&links),
            next: ChannelArena::idle(&links),
            bus: DriveBus::idle(&links),
            inj_wires,
            stage_wires,
            router_dead: vec![false; links.n_routers()],
            inj_transparent,
            stage_transparent,
            shard,
            links,
        }
    }
}

impl Engine for FlatEngine {
    fn step(&mut self, ctx: StepCtx<'_>) {
        super::shard::step(self, ctx);
    }

    fn wires_quiet(&self) -> bool {
        self.inj_wires
            .iter()
            .chain(self.stage_wires.iter())
            .all(Wire::is_quiet)
    }

    fn probe_wire(&self, stage: usize, router: usize, b: usize) -> Wire {
        self.stage_wires[self.links.bslot(stage, router, b)].clone()
    }

    fn apply_faults(&mut self, topo: &Multibutterfly, faults: &FaultSet) {
        // Resolve the fault set into flat tables here, once, instead
        // of querying it every step.
        for s in 0..topo.stages() {
            for r in 0..topo.routers_in_stage(s) {
                self.router_dead[self.links.router_index(s, r)] = faults.router_dead(s, r);
                for b in 0..topo.stage_spec(s).backward_ports {
                    self.stage_wires[self.links.bslot(s, r, b)]
                        .set_fault(faults.link_fault(LinkId::new(s, r, b)));
                }
            }
        }
        // Transparency follows the fault set; refresh the cached flags
        // in the same pass.
        for (t, w) in self.stage_transparent.iter_mut().zip(&self.stage_wires) {
            *t = w.is_transparent();
        }
    }

    fn shards(&self) -> usize {
        self.shard.plan.shards()
    }

    fn clone_box(&self) -> Box<dyn Engine> {
        Box::new(self.clone())
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.section("flateng");
        self.cur.save_state(w);
        self.next.save_state(w);
        w.usize(self.inj_wires.len());
        for wire in &self.inj_wires {
            wire.save_state(w);
        }
        w.usize(self.stage_wires.len());
        for wire in &self.stage_wires {
            wire.save_state(w);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let bad = |detail: String| StateError::BadValue {
            section: String::from("flateng"),
            detail,
        };
        r.section("flateng")?;
        self.cur.restore_state(r)?;
        self.next.restore_state(r)?;
        let n_inj = r.usize()?;
        if n_inj != self.inj_wires.len() {
            return Err(bad(format!(
                "saved {n_inj} injection wires, engine holds {}",
                self.inj_wires.len()
            )));
        }
        for wire in &mut self.inj_wires {
            wire.restore_state(r)?;
        }
        let n_stage = r.usize()?;
        if n_stage != self.stage_wires.len() {
            return Err(bad(format!(
                "saved {n_stage} stage wires, engine holds {}",
                self.stage_wires.len()
            )));
        }
        for wire in &mut self.stage_wires {
            wire.restore_state(r)?;
        }
        Ok(())
    }
}
