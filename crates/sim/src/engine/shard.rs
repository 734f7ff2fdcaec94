//! The flat engine's step, owned shard by shard.
//!
//! A [`ShardPlan`] cuts the flat router, endpoint and slot orders into
//! contiguous ranges. Each shard owns its ranges of every arena, bus
//! and wire array, the telemetry marks of its routers, and one
//! [`ShardLane`]. A cycle runs three phases:
//!
//! 1. **Components.** Each shard ticks its endpoints, draining every
//!    finished transaction into its lane right after the endpoint's
//!    tick, then its routers, tallying each active router's counter
//!    change into its lane. Components read only last-tick state from
//!    the `cur` arena and write their own bus regions.
//! 2. **Wires.** Each shard advances its wires over the completed bus,
//!    writing the reverse and BCB lanes straight into its own `next`
//!    regions. Only the forward lane can cross shards.
//! 3. **Gather.** Forward-lane words parked by phase 2 are copied to
//!    their target slots through the plan's precomputed lists.
//!
//! With one shard the same phase functions run inline on the calling
//! thread: no pool, no barrier, no per-cycle allocation, and the wires
//! write forward lanes straight to their targets, so there is nothing
//! to stage or gather. With more, each phase runs on the persistent
//! [`TickPool`] with a barrier between phases. Every component and wire
//! is ticked exactly once by exactly one shard, all randomness stays
//! inside per-component RNGs, and the orchestrator drains the lanes in
//! shard order, which is canonical endpoint order — so every shard
//! count is bit-identical to one.

use super::flat::{ChannelArena, FlatEngine};
use super::{ShardLane, StepCtx};
use crate::endpoint::{Endpoint, Finished};
use crate::shard::ShardPlan;
use crate::wire::Wire;
use metro_core::{Router, Word};
use metro_harness::TickPool;
use metro_telemetry::TallyLane;
use metro_topo::flatlinks::{FlatLinks, FlatTarget};
use std::sync::Mutex;

/// The flat engine's partition and the state only a multi-shard step
/// needs: the worker pool and the forward-lane staging buffers.
#[derive(Debug)]
pub(crate) struct ShardState {
    pub(crate) plan: ShardPlan,
    /// Created lazily on the first multi-shard step (so merely
    /// *building* a sharded sim spawns no threads) and intentionally
    /// not cloned — a cloned sim respins its own pool on its next step.
    pool: Option<TickPool>,
    /// Forward-lane word each injection wire produced this cycle,
    /// indexed by endpoint slot; the gather phase routes it to the
    /// target stage-0 forward slot (which may live on another shard).
    /// Empty with one shard.
    fwd_inj: Vec<Word>,
    /// Forward-lane word each inter-stage/delivery wire produced this
    /// cycle, indexed by backward slot. Empty with one shard.
    fwd_stage: Vec<Word>,
}

impl Clone for ShardState {
    fn clone(&self) -> Self {
        Self {
            plan: self.plan.clone(),
            pool: None,
            fwd_inj: self.fwd_inj.clone(),
            fwd_stage: self.fwd_stage.clone(),
        }
    }
}

impl ShardState {
    /// The partition of `links` into `shards` shards.
    pub(crate) fn new(links: &FlatLinks, shards: usize) -> Self {
        let staged = |n: usize| {
            if shards > 1 {
                vec![Word::Empty; n]
            } else {
                Vec::new()
            }
        };
        Self {
            plan: ShardPlan::build(links, shards),
            pool: None,
            fwd_inj: staged(links.n_ep_slots()),
            fwd_stage: staged(links.n_bwd_slots()),
        }
    }
}

/// Splits `slice` at a shard plan's cut points (a nondecreasing
/// `(shards + 1)`-entry array covering `0..slice.len()`), yielding one
/// disjoint mutable subslice per shard — the lock-free write partition
/// the step hands its shards.
fn split_by_cuts<'a, T>(
    mut slice: &'a mut [T],
    cuts: &'a [usize],
) -> impl Iterator<Item = &'a mut [T]> + 'a {
    cuts.windows(2).map(move |w| {
        let (head, tail) = std::mem::take(&mut slice).split_at_mut(w[1] - w[0]);
        slice = tail;
        head
    })
}

/// Phase-1 work package: one shard's endpoints and routers read the
/// shared `cur` arena (last-tick state only — the Moore-machine
/// property that makes partitioned ticking exact) and drive this
/// shard's disjoint bus regions.
struct CompShard<'a> {
    now: u64,
    ep: usize,
    /// First endpoint index / endpoint slot / forward slot / backward
    /// slot / flat router index this shard owns (global-to-local
    /// offsets for the split slices below).
    ep_base: usize,
    eps0: usize,
    f0: usize,
    b0: usize,
    router_base: usize,
    links: &'a FlatLinks,
    cur: &'a ChannelArena,
    router_dead: &'a [bool],
    endpoints: &'a mut [Endpoint],
    ep_out_fwd: &'a mut [Word],
    ep_in_rev: &'a mut [Word],
    out_bwd: &'a mut [Word],
    out_fwd: &'a mut [Word],
    out_bcb: &'a mut [bool],
    tally: TallyLane<'a>,
    finished: &'a mut Vec<Finished>,
}

impl CompShard<'_> {
    /// Ticks the shard's endpoints, then its routers, given as
    /// `(stage, first in-stage router index, routers)` segments tiling
    /// the shard's flat router range.
    fn run<'r>(&mut self, routers: impl Iterator<Item = (usize, usize, &'r mut [Router])>) {
        let ep = self.ep;
        for (i, endpoint) in self.endpoints.iter_mut().enumerate() {
            let g = (self.ep_base + i) * ep;
            let l = g - self.eps0;
            endpoint.tick_into(
                self.now,
                &self.cur.ep_out_rev[g..g + ep],
                &self.cur.ep_out_bcb[g..g + ep],
                &self.cur.ep_in_fwd[g..g + ep],
                &mut self.ep_out_fwd[l..l + ep],
                &mut self.ep_in_rev[l..l + ep],
            );
            if endpoint.has_outcomes() {
                endpoint.drain_finished(self.finished);
            }
        }
        for (s, r0, routers) in routers {
            let nf = self.links.forward_ports(s);
            let nb = self.links.backward_ports(s);
            for (i, router) in routers.iter_mut().enumerate() {
                let r = r0 + i;
                let fg = self.links.fslot(s, r, 0);
                let bg = self.links.bslot(s, r, 0);
                let (fl, bl) = (fg - self.f0, bg - self.b0);
                let flat = self.links.router_index(s, r);
                if self.router_dead[flat] {
                    self.out_bwd[bl..bl + nb].fill(Word::Empty);
                    self.out_fwd[fl..fl + nf].fill(Word::Empty);
                    self.out_bcb[fl..fl + nf].fill(false);
                    continue;
                }
                // Only a tick that leaves the quiescent fast path can
                // count anything, so only those pay for the tally.
                let before = router.tick_into(
                    &self.cur.fwd_in[fg..fg + nf],
                    &self.cur.rev_in[bg..bg + nb],
                    &self.cur.bcb_in[bg..bg + nb],
                    &mut self.out_bwd[bl..bl + nb],
                    &mut self.out_fwd[fl..fl + nf],
                    &mut self.out_bcb[fl..fl + nf],
                );
                if let Some(before) = before {
                    self.tally
                        .record(flat - self.router_base, &before, router.counters());
                }
            }
        }
    }
}

/// Where phase 2 puts each wire's forward-lane output.
trait ForwardSink {
    /// Injection wire at local endpoint slot `l`, feeding stage-0
    /// forward slot `t`.
    fn inj(&mut self, l: usize, t: usize, w: Word);
    /// Stage wire at local backward slot `l`, feeding forward slot `t`.
    fn fwd(&mut self, l: usize, t: usize, w: Word);
    /// Delivery wire at local backward slot `l`, feeding endpoint
    /// slot `i`.
    fn ep(&mut self, l: usize, i: usize, w: Word);
}

/// One shard owns every target slot: write them directly.
struct Direct<'a> {
    fwd_in: &'a mut [Word],
    ep_in_fwd: &'a mut [Word],
}

impl ForwardSink for Direct<'_> {
    #[inline]
    fn inj(&mut self, _l: usize, t: usize, w: Word) {
        self.fwd_in[t] = w;
    }
    #[inline]
    fn fwd(&mut self, _l: usize, t: usize, w: Word) {
        self.fwd_in[t] = w;
    }
    #[inline]
    fn ep(&mut self, _l: usize, i: usize, w: Word) {
        self.ep_in_fwd[i] = w;
    }
}

/// Targets may belong to other shards: park the word by wire for the
/// gather phase.
struct Staged<'a> {
    fwd_inj: &'a mut [Word],
    fwd_stage: &'a mut [Word],
}

impl ForwardSink for Staged<'_> {
    #[inline]
    fn inj(&mut self, l: usize, _t: usize, w: Word) {
        self.fwd_inj[l] = w;
    }
    #[inline]
    fn fwd(&mut self, l: usize, _t: usize, w: Word) {
        self.fwd_stage[l] = w;
    }
    #[inline]
    fn ep(&mut self, l: usize, _i: usize, w: Word) {
        self.fwd_stage[l] = w;
    }
}

/// Phase-2 work package: this shard's wires read the whole bus
/// (complete after phase 1) and write the reverse/BCB lanes straight
/// into the shard's own `next` regions — a wire's backward slot and
/// endpoint slot are its owner's by construction. Transparent wires
/// (zero delay, fault-free — the common RN1 boundary) are identity
/// functions: their bus slots are copied without touching the `Wire`.
struct WireShard<'a> {
    eps0: usize,
    b0: usize,
    links: &'a FlatLinks,
    bus: &'a super::flat::DriveBus,
    inj_transparent: &'a [bool],
    stage_transparent: &'a [bool],
    inj_wires: &'a mut [Wire],
    stage_wires: &'a mut [Wire],
    next_ep_out_rev: &'a mut [Word],
    next_ep_out_bcb: &'a mut [bool],
    next_rev_in: &'a mut [Word],
    next_bcb_in: &'a mut [bool],
}

impl WireShard<'_> {
    fn run(&mut self, sink: &mut impl ForwardSink) {
        let bus = self.bus;
        for (l, wire) in self.inj_wires.iter_mut().enumerate() {
            let i = self.eps0 + l;
            let t = self.links.inj_target(i);
            let (fwd_o, rev_o, bcb_o) = if self.inj_transparent[i] {
                (bus.ep_out_fwd[i], bus.out_fwd[t], bus.out_bcb[t])
            } else {
                wire.advance(bus.ep_out_fwd[i], bus.out_fwd[t], bus.out_bcb[t])
            };
            sink.inj(l, t, fwd_o);
            self.next_ep_out_rev[l] = rev_o;
            self.next_ep_out_bcb[l] = bcb_o;
        }
        for (l, wire) in self.stage_wires.iter_mut().enumerate() {
            let j = self.b0 + l;
            match self.links.bwd_target(j) {
                FlatTarget::Fwd(t) => {
                    let t = t as usize;
                    let (fwd_o, rev_o, bcb_o) = if self.stage_transparent[j] {
                        (bus.out_bwd[j], bus.out_fwd[t], bus.out_bcb[t])
                    } else {
                        wire.advance(bus.out_bwd[j], bus.out_fwd[t], bus.out_bcb[t])
                    };
                    sink.fwd(l, t, fwd_o);
                    self.next_rev_in[l] = rev_o;
                    self.next_bcb_in[l] = bcb_o;
                }
                FlatTarget::Endpoint(i) => {
                    let i = i as usize;
                    let (fwd_o, rev_o) = if self.stage_transparent[j] {
                        (bus.out_bwd[j], bus.ep_in_rev[i])
                    } else {
                        let (f, r, _) = wire.advance(bus.out_bwd[j], bus.ep_in_rev[i], false);
                        (f, r)
                    };
                    sink.ep(l, i, fwd_o);
                    self.next_rev_in[l] = rev_o;
                    self.next_bcb_in[l] = false;
                }
            }
        }
    }
}

/// Phase-3 work package: copy staged forward-lane words (complete
/// after phase 2) into the forward-input and endpoint-input slots this
/// shard owns, walking the plan's precomputed target-owner lists.
struct GatherShard<'a> {
    f0: usize,
    eps0: usize,
    fwd_from_inj: &'a [(u32, u32)],
    fwd_from_bwd: &'a [(u32, u32)],
    ep_in_from_bwd: &'a [(u32, u32)],
    fwd_inj: &'a [Word],
    fwd_stage: &'a [Word],
    next_fwd_in: &'a mut [Word],
    next_ep_in_fwd: &'a mut [Word],
}

impl GatherShard<'_> {
    fn run(&mut self) {
        for &(t, i) in self.fwd_from_inj {
            self.next_fwd_in[t as usize - self.f0] = self.fwd_inj[i as usize];
        }
        for &(t, j) in self.fwd_from_bwd {
            self.next_fwd_in[t as usize - self.f0] = self.fwd_stage[j as usize];
        }
        for &(i, j) in self.ep_in_from_bwd {
            self.next_ep_in_fwd[i as usize - self.eps0] = self.fwd_stage[j as usize];
        }
    }
}

/// One flat cycle: the three phases over the engine's shards, then the
/// arena swap. The swap is sound because every linked slot is written
/// every cycle (unlinked slots stay `Empty` in both buffers).
pub(crate) fn step(eng: &mut FlatEngine, ctx: StepCtx<'_>) {
    if eng.shard.plan.shards() == 1 {
        step_inline(eng, ctx);
    } else {
        step_pooled(eng, ctx);
    }
    std::mem::swap(&mut eng.cur, &mut eng.next);
}

/// The one-shard step: the phase functions on the calling thread.
fn step_inline(eng: &mut FlatEngine, ctx: StepCtx<'_>) {
    let FlatEngine {
        links,
        cur,
        next,
        bus,
        inj_wires,
        stage_wires,
        router_dead,
        inj_transparent,
        stage_transparent,
        shard: _,
    } = eng;
    let [ShardLane { pending, finished }] = ctx.lanes else {
        panic!("a one-shard step takes exactly one lane");
    };
    CompShard {
        now: ctx.now,
        ep: links.ep_ports(),
        ep_base: 0,
        eps0: 0,
        f0: 0,
        b0: 0,
        router_base: 0,
        links,
        cur,
        router_dead,
        endpoints: ctx.endpoints,
        ep_out_fwd: &mut bus.ep_out_fwd,
        ep_in_rev: &mut bus.ep_in_rev,
        out_bwd: &mut bus.out_bwd,
        out_fwd: &mut bus.out_fwd,
        out_bcb: &mut bus.out_bcb,
        tally: TallyLane::new(ctx.epoch, ctx.marks, pending),
        finished,
    }
    .run(
        ctx.routers
            .iter_mut()
            .enumerate()
            .map(|(s, stage)| (s, 0, stage.as_mut_slice())),
    );
    let ChannelArena {
        fwd_in,
        rev_in,
        bcb_in,
        ep_out_rev,
        ep_out_bcb,
        ep_in_fwd,
    } = next;
    WireShard {
        eps0: 0,
        b0: 0,
        links,
        bus,
        inj_transparent,
        stage_transparent,
        inj_wires,
        stage_wires,
        next_ep_out_rev: ep_out_rev,
        next_ep_out_bcb: ep_out_bcb,
        next_rev_in: rev_in,
        next_bcb_in: bcb_in,
    }
    .run(&mut Direct { fwd_in, ep_in_fwd });
}

/// Phase-1 package plus the router segments it ticks.
struct CompJob<'a> {
    comp: CompShard<'a>,
    routers: Vec<(usize, usize, &'a mut [Router])>,
}

/// The multi-shard step: each phase on the persistent worker pool, one
/// package per shard, with the pool's barrier between phases.
fn step_pooled(eng: &mut FlatEngine, ctx: StepCtx<'_>) {
    let FlatEngine {
        links,
        cur,
        next,
        bus,
        inj_wires,
        stage_wires,
        router_dead,
        inj_transparent,
        stage_transparent,
        shard,
    } = eng;
    let ShardState {
        plan,
        pool,
        fwd_inj,
        fwd_stage,
    } = shard;
    let n = plan.shards();
    assert_eq!(ctx.lanes.len(), n, "one lane per shard");
    let pool = &*pool.get_or_insert_with(|| {
        TickPool::new(std::num::NonZeroUsize::new(n).expect("shard count >= 1"))
    });
    let links = &*links;

    // Phase 1: components drive the bus.
    {
        let cur = &*cur;
        let mut endpoints = split_by_cuts(ctx.endpoints, &plan.ep_cut);
        let mut marks = split_by_cuts(ctx.marks, &plan.router_cut);
        let mut lanes = ctx.lanes.iter_mut();
        let mut ep_out_fwd = split_by_cuts(&mut bus.ep_out_fwd, &plan.eps_cut);
        let mut ep_in_rev = split_by_cuts(&mut bus.ep_in_rev, &plan.eps_cut);
        let mut out_bwd = split_by_cuts(&mut bus.out_bwd, &plan.b_cut);
        let mut out_fwd = split_by_cuts(&mut bus.out_fwd, &plan.f_cut);
        let mut out_bcb = split_by_cuts(&mut bus.out_bcb, &plan.f_cut);
        let mut segments = router_segments(ctx.routers, &plan.router_cut, n).into_iter();
        let jobs: Vec<Mutex<CompJob>> = (0..n)
            .map(|k| {
                let ShardLane { pending, finished } = lanes.next().expect("one lane per shard");
                Mutex::new(CompJob {
                    comp: CompShard {
                        now: ctx.now,
                        ep: links.ep_ports(),
                        ep_base: plan.ep_cut[k],
                        eps0: plan.eps_cut[k],
                        f0: plan.f_cut[k],
                        b0: plan.b_cut[k],
                        router_base: plan.router_cut[k],
                        links,
                        cur,
                        router_dead,
                        endpoints: endpoints.next().expect("one part per shard"),
                        ep_out_fwd: ep_out_fwd.next().expect("one part per shard"),
                        ep_in_rev: ep_in_rev.next().expect("one part per shard"),
                        out_bwd: out_bwd.next().expect("one part per shard"),
                        out_fwd: out_fwd.next().expect("one part per shard"),
                        out_bcb: out_bcb.next().expect("one part per shard"),
                        tally: TallyLane::new(
                            ctx.epoch,
                            marks.next().expect("one part per shard"),
                            pending,
                        ),
                        finished,
                    },
                    routers: segments.next().expect("one part per shard"),
                })
            })
            .collect();
        pool.run(|w| {
            let mut job = jobs[w].try_lock().expect("disjoint shard package");
            let CompJob { comp, routers } = &mut *job;
            comp.run(routers.iter_mut().map(|(s, r0, rs)| (*s, *r0, &mut **rs)));
        });
    }

    // Phase 2: wires consume the completed bus.
    {
        let bus = &*bus;
        let ChannelArena {
            rev_in,
            bcb_in,
            ep_out_rev,
            ep_out_bcb,
            ..
        } = &mut *next;
        let mut inj = split_by_cuts(inj_wires, &plan.eps_cut);
        let mut stage = split_by_cuts(stage_wires, &plan.b_cut);
        let mut rev = split_by_cuts(rev_in, &plan.b_cut);
        let mut bcb = split_by_cuts(bcb_in, &plan.b_cut);
        let mut eor = split_by_cuts(ep_out_rev, &plan.eps_cut);
        let mut eob = split_by_cuts(ep_out_bcb, &plan.eps_cut);
        let mut finj = split_by_cuts(fwd_inj, &plan.eps_cut);
        let mut fstage = split_by_cuts(fwd_stage, &plan.b_cut);
        let jobs: Vec<Mutex<(WireShard, Staged)>> = (0..n)
            .map(|k| {
                Mutex::new((
                    WireShard {
                        eps0: plan.eps_cut[k],
                        b0: plan.b_cut[k],
                        links,
                        bus,
                        inj_transparent,
                        stage_transparent,
                        inj_wires: inj.next().expect("one part per shard"),
                        stage_wires: stage.next().expect("one part per shard"),
                        next_ep_out_rev: eor.next().expect("one part per shard"),
                        next_ep_out_bcb: eob.next().expect("one part per shard"),
                        next_rev_in: rev.next().expect("one part per shard"),
                        next_bcb_in: bcb.next().expect("one part per shard"),
                    },
                    Staged {
                        fwd_inj: finj.next().expect("one part per shard"),
                        fwd_stage: fstage.next().expect("one part per shard"),
                    },
                ))
            })
            .collect();
        pool.run(|w| {
            let mut job = jobs[w].try_lock().expect("disjoint shard package");
            let (wires, staged) = &mut *job;
            wires.run(staged);
        });
    }

    // Phase 3: gather staged forward-lane words to their targets.
    {
        let fwd_inj = &fwd_inj[..];
        let fwd_stage = &fwd_stage[..];
        let ChannelArena {
            fwd_in, ep_in_fwd, ..
        } = &mut *next;
        let mut fin = split_by_cuts(fwd_in, &plan.f_cut);
        let mut eif = split_by_cuts(ep_in_fwd, &plan.eps_cut);
        let jobs: Vec<Mutex<GatherShard>> = (0..n)
            .map(|k| {
                Mutex::new(GatherShard {
                    f0: plan.f_cut[k],
                    eps0: plan.eps_cut[k],
                    fwd_from_inj: &plan.fwd_from_inj[k],
                    fwd_from_bwd: &plan.fwd_from_bwd[k],
                    ep_in_from_bwd: &plan.ep_in_from_bwd[k],
                    fwd_inj,
                    fwd_stage,
                    next_fwd_in: fin.next().expect("one part per shard"),
                    next_ep_in_fwd: eif.next().expect("one part per shard"),
                })
            })
            .collect();
        pool.run(|w| jobs[w].try_lock().expect("disjoint shard package").run());
    }
}

/// Tiles each shard's flat router range into per-stage segments
/// `(stage, first in-stage router index, routers)`. Shard ranges are
/// contiguous in flat router order, so this is one linear walk.
fn router_segments<'a>(
    routers: &'a mut [Vec<Router>],
    cuts: &[usize],
    n: usize,
) -> Vec<Vec<(usize, usize, &'a mut [Router])>> {
    let mut segs: Vec<Vec<(usize, usize, &mut [Router])>> = (0..n).map(|_| Vec::new()).collect();
    let mut k = 0usize;
    let mut flat_base = 0usize;
    for (s, stage) in routers.iter_mut().enumerate() {
        let stage_len = stage.len();
        let mut rest: &mut [Router] = stage;
        let mut offset = 0usize;
        while !rest.is_empty() {
            while cuts[k + 1] <= flat_base + offset {
                k += 1;
            }
            let take = (cuts[k + 1] - (flat_base + offset)).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            segs[k].push((s, offset, head));
            offset += take;
            rest = tail;
        }
        flat_base += stage_len;
    }
    segs
}
