//! In-place counter accounting: the live side of the telemetry
//! registry.
//!
//! Every router counts into its own [`CounterCell`]. The eager
//! registry copied all of those cells in at every sync, which costs
//! the same whether one router moved or none did. A [`CounterLedger`]
//! keeps only what activity leaves behind:
//!
//! * A router tick that leaves the quiescent fast path reports its
//!   cell's change through a [`TallyLane`] into the pending cell of the
//!   shard that ticked it. The first change in a sync interval also
//!   parks the cell's earlier reading in the router's [`SlotMark`].
//! * A sync folds the shards' pending cells into the series: O(shards).
//! * The per-slot rebased counts and deltas of a [`TelemetryRegistry`]
//!   are derived from the marks and the live cells only when someone
//!   reads them ([`CounterLedger::materialize`],
//!   [`CounterLedger::for_each_delta`]).
//!
//! Counters can also change outside a tick (the self-healing layer's
//! `note_event`, a scan reconfiguration's applied masks). The owner
//! calls [`CounterLedger::touch`] before such an access and
//! [`CounterLedger::settle`] after it, and the change reaches the next
//! sync's series point. Router counters only count up, so a sync's
//! network total is exactly the sum of the changes, and every reading
//! equals the eager registry's, bit for bit.

use crate::counters::{CounterBlock, CounterCell};
use crate::metric::RouterCounter;
use crate::registry::TelemetryRegistry;
use crate::series::TimeSeries;

/// One router's recent history: its cell's reading at the start of the
/// last two sync intervals in which it changed. Interval numbers are
/// the ledger's epochs; the two entries alternate by epoch parity, so
/// recording the first change of an interval is one compare and, at
/// most, one cell copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotMark {
    epoch: [u64; 2],
    prior: [CounterCell; 2],
}

impl Default for SlotMark {
    fn default() -> Self {
        Self::new()
    }
}

impl SlotMark {
    const NEVER: u64 = u64::MAX;

    /// A mark with no recorded change.
    #[must_use]
    pub const fn new() -> Self {
        SlotMark {
            epoch: [Self::NEVER; 2],
            prior: [CounterCell::new(); 2],
        }
    }

    /// Records `reading` as the cell's value at the start of `epoch`,
    /// unless a change in `epoch` was already recorded.
    #[inline]
    pub fn touch(&mut self, epoch: u64, reading: &CounterCell) {
        let k = (epoch & 1) as usize;
        if self.epoch[k] != epoch {
            self.epoch[k] = epoch;
            self.prior[k] = *reading;
        }
    }

    fn entry(&self, epoch: u64) -> Option<&CounterCell> {
        let k = (epoch & 1) as usize;
        (self.epoch[k] == epoch).then_some(&self.prior[k])
    }

    fn forget(&mut self, epoch: u64) {
        let k = (epoch & 1) as usize;
        if self.epoch[k] == epoch {
            self.epoch[k] = Self::NEVER;
        }
    }
}

/// One shard's handle on the ledger during a tick: the marks of the
/// routers it owns and its own pending cell.
#[derive(Debug)]
pub struct TallyLane<'a> {
    epoch: u64,
    marks: &'a mut [SlotMark],
    pending: &'a mut CounterCell,
}

impl<'a> TallyLane<'a> {
    /// A lane over `marks` (indexed from the shard's first router)
    /// accumulating into `pending` during interval `epoch`.
    #[must_use]
    pub fn new(epoch: u64, marks: &'a mut [SlotMark], pending: &'a mut CounterCell) -> Self {
        TallyLane {
            epoch,
            marks,
            pending,
        }
    }

    /// Reports that the router at local index `i` ticked from `before`
    /// to `after`. Ticks only count up.
    #[inline]
    pub fn record(&mut self, i: usize, before: &CounterCell, after: &CounterCell) {
        self.marks[i].touch(self.epoch, before);
        self.pending.add_change(after, before);
    }
}

/// The live telemetry state of a running simulation (see the module
/// docs). `raw(s, r)` arguments read router `r` of stage `s`'s live
/// cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterLedger {
    /// Raw readings at the last stats reset, as in the registry.
    baseline: CounterBlock,
    /// Per-slot change history, in slot order.
    marks: Vec<SlotMark>,
    /// The interval now accumulating; sync `k` closes epoch `k`.
    open: u64,
    series: Vec<TimeSeries>,
    interval: u64,
    syncs: u64,
    /// Changes the shards did not see (out-of-tick accesses, and the
    /// part of the open interval a restored checkpoint had already
    /// counted), waiting for the next sync.
    carry: CounterCell,
}

impl CounterLedger {
    /// A zeroed ledger for `routers_per_stage[s]` routers in stage `s`,
    /// synced every `interval` cycles.
    #[must_use]
    pub fn new(routers_per_stage: &[usize], interval: u64) -> Self {
        let baseline = CounterBlock::new(routers_per_stage);
        CounterLedger {
            marks: vec![SlotMark::new(); baseline.len()],
            baseline,
            open: 1,
            series: (0..RouterCounter::COUNT)
                .map(|_| TimeSeries::standard())
                .collect(),
            interval: interval.max(1),
            syncs: 0,
            carry: CounterCell::new(),
        }
    }

    /// Cycles between syncs.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Sets the sync interval (clamped to ≥ 1).
    pub fn set_interval(&mut self, every: u64) {
        self.interval = every.max(1);
    }

    /// The flat slot index of router `r` in stage `s`.
    #[must_use]
    pub fn slot(&self, s: usize, r: usize) -> usize {
        self.baseline.slot(s, r)
    }

    /// The interval now accumulating, and every slot's mark: what a
    /// tick needs to build its [`TallyLane`]s.
    pub fn tally(&mut self) -> (u64, &mut [SlotMark]) {
        (self.open, &mut self.marks)
    }

    /// Call before changing slot `i`'s cell outside a tick, with its
    /// current reading; pair with [`CounterLedger::settle`].
    pub fn touch(&mut self, i: usize, reading: &CounterCell) {
        self.marks[i].touch(self.open, reading);
    }

    /// Accounts for an out-of-tick access that moved a cell from
    /// `before` (the reading given to [`CounterLedger::touch`]) to
    /// `after`.
    pub fn settle(&mut self, before: &CounterCell, after: &CounterCell) {
        self.carry.add_change(after, before);
    }

    /// Closes the open interval: appends one point per counter to the
    /// series. `tallied` is the sum of the shards' pending cells for
    /// the interval (the caller zeroes them).
    pub fn close(&mut self, tallied: &CounterCell) {
        let total = tallied.plus(&self.carry);
        for c in RouterCounter::ALL {
            self.series[c as usize].push(total.get(c));
        }
        self.carry.reset();
        self.syncs += 1;
        self.open += 1;
    }

    /// Calls `f(stage, router, delta)` for every slot whose delta
    /// between the last two syncs is nonzero, in slot order.
    pub fn for_each_delta<'r>(
        &self,
        raw: impl Fn(usize, usize) -> &'r CounterCell,
        mut f: impl FnMut(usize, usize, &CounterCell),
    ) {
        for s in 0..self.baseline.stages() {
            for r in 0..self.baseline.routers_in_stage(s) {
                let i = self.baseline.slot(s, r);
                // Only a slot that changed in the last closed interval
                // can have a nonzero delta.
                if self.marks[i].entry(self.open - 1).is_some() {
                    let (_, delta) = self.views(i, raw(s, r));
                    if !delta.is_zero() {
                        f(s, r, &delta);
                    }
                }
            }
        }
    }

    /// Builds the registry an eager sync at every interval would hold
    /// now.
    #[must_use]
    pub fn materialize<'r>(
        &self,
        raw: impl Fn(usize, usize) -> &'r CounterCell,
    ) -> TelemetryRegistry {
        let mut reg = TelemetryRegistry {
            baseline: self.baseline.clone(),
            current: self.baseline.clone(),
            deltas: self.baseline.clone(),
            series: self.series.clone(),
            interval: self.interval,
            syncs: self.syncs,
            pending: CounterCell::new(),
        };
        self.for_each_slot(raw, |i, now| {
            let (current, delta) = self.views(i, now);
            reg.current.cells[i] = current;
            reg.deltas.cells[i] = delta;
        });
        reg
    }

    /// Zeroes every slot as [`TelemetryRegistry::rebase`] does: the
    /// last sync's readings become the baseline, deltas and series
    /// restart.
    pub fn rebase<'r>(&mut self, raw: impl Fn(usize, usize) -> &'r CounterCell) {
        let mut baseline = self.baseline.clone();
        self.for_each_slot(raw, |i, now| {
            let base = self.baseline.cells()[i];
            baseline.cells[i] = base.plus(&self.reading_at_close(i, now).saturating_delta(&base));
        });
        self.baseline = baseline;
        let last = self.open - 1;
        for m in &mut self.marks {
            m.forget(last);
        }
        for s in &mut self.series {
            s.clear();
        }
        self.syncs = 0;
    }

    /// Resets the ledger to a registry read back from a checkpoint,
    /// given the restored routers' live cells. Any tally the caller
    /// kept for the open interval must be zeroed: the part of it the
    /// checkpointed run had counted is recovered from the live cells.
    pub fn restore<'r>(
        &mut self,
        reg: &TelemetryRegistry,
        raw: impl Fn(usize, usize) -> &'r CounterCell,
    ) {
        self.baseline = reg.baseline.clone();
        self.series = reg.series.clone();
        self.interval = reg.interval;
        self.syncs = reg.syncs;
        let mut marks = vec![SlotMark::new(); self.marks.len()];
        let mut carry = reg.pending;
        self.for_each_slot(raw, |i, now| {
            // The readings an eager registry's `current` and `deltas`
            // imply: the last sync saw `base + current`, the one
            // before it `base + current - delta`.
            let at_close = reg.baseline.cells()[i].plus(&reg.current.cells()[i]);
            marks[i].touch(self.open, &at_close);
            if !reg.deltas.cells()[i].is_zero() {
                marks[i].touch(
                    self.open - 1,
                    &at_close.saturating_delta(&reg.deltas.cells()[i]),
                );
            }
            carry.add_change(now, &at_close);
        });
        self.marks = marks;
        self.carry = carry;
    }

    /// Slot `i`'s cell reading at the last sync, given its live
    /// reading `now`: unchanged since then unless marked in the open
    /// interval.
    fn reading_at_close(&self, i: usize, now: &CounterCell) -> CounterCell {
        *self.marks[i].entry(self.open).unwrap_or(now)
    }

    /// Slot `i`'s rebased count and delta as of the last sync.
    fn views(&self, i: usize, now: &CounterCell) -> (CounterCell, CounterCell) {
        let last = self.reading_at_close(i, now);
        let before = self.marks[i].entry(self.open - 1).copied().unwrap_or(last);
        let base = &self.baseline.cells()[i];
        let current = last.saturating_delta(base);
        let delta = current.saturating_delta(&before.saturating_delta(base));
        (current, delta)
    }

    fn for_each_slot<'r>(
        &self,
        raw: impl Fn(usize, usize) -> &'r CounterCell,
        mut f: impl FnMut(usize, &CounterCell),
    ) {
        for s in 0..self.baseline.stages() {
            for r in 0..self.baseline.routers_in_stage(s) {
                f(self.baseline.slot(s, r), raw(s, r));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator (the telemetry crate has no
    /// proptest dependency).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    const SHAPE: [usize; 3] = [3, 4, 2];

    fn cell_of<'a>(raw: &'a [Vec<CounterCell>]) -> impl Fn(usize, usize) -> &'a CounterCell + 'a {
        move |s, r| &raw[s][r]
    }

    /// Drives a ledger and an eager registry through one random
    /// history and checks that every reading agrees after every step.
    fn run_history(seed: u64, interval: u64) {
        let mut rng = Rng(seed | 1);
        let mut raw: Vec<Vec<CounterCell>> =
            SHAPE.iter().map(|&n| vec![CounterCell::new(); n]).collect();
        let mut eager = TelemetryRegistry::new(&SHAPE, interval);
        let mut ledger = CounterLedger::new(&SHAPE, interval);
        let mut lanes = [CounterCell::new(); 2];
        for now in 0..400u64 {
            // A tick: a few routers count up, split over two lanes.
            let (epoch, marks) = ledger.tally();
            let (lo, hi) = marks.split_at_mut(4);
            let (p0, p1) = lanes.split_at_mut(1);
            let mut tally = [
                TallyLane::new(epoch, lo, &mut p0[0]),
                TallyLane::new(epoch, hi, &mut p1[0]),
            ];
            for _ in 0..rng.below(4) {
                let s = rng.below(3) as usize;
                let r = rng.below(SHAPE[s] as u64) as usize;
                let i = eager.baseline.slot(s, r);
                let before = raw[s][r];
                let c = RouterCounter::ALL[rng.below(RouterCounter::COUNT as u64) as usize];
                raw[s][r].add(c, 1 + rng.below(3));
                let (lane, local) = if i < 4 { (0, i) } else { (1, i - 4) };
                tally[lane].record(local, &before, &raw[s][r]);
            }
            // A sync, as the simulator schedules it.
            if now % interval == 0 {
                let tallied = lanes[0].plus(&lanes[1]);
                lanes = [CounterCell::new(); 2];
                ledger.close(&tallied);
                for (s, stage) in raw.iter().enumerate() {
                    for (r, cell) in stage.iter().enumerate() {
                        eager.sync_slot(s, r, cell);
                    }
                }
                eager.finish_sync();
            }
            // Out-of-tick changes between ticks.
            match rng.below(16) {
                0 | 1 => {
                    let (s, r) = (1, rng.below(4) as usize);
                    let i = ledger.slot(s, r);
                    let before = raw[s][r];
                    ledger.touch(i, &before);
                    raw[s][r].add(RouterCounter::MasksApplied, 1);
                    ledger.settle(&before, &raw[s][r]);
                }
                3 => {
                    ledger.rebase(cell_of(&raw));
                    eager.rebase();
                }
                4 => {
                    // Checkpoint round trip: only the eager registry's
                    // bytes survive; open-interval tallies are dropped.
                    let saved = ledger.materialize(cell_of(&raw));
                    let mut fresh = CounterLedger::new(&SHAPE, 1);
                    fresh.open = 1 + rng.below(5);
                    fresh.restore(&saved, cell_of(&raw));
                    ledger = fresh;
                    lanes = [CounterCell::new(); 2];
                }
                _ => {}
            }
            assert_eq!(
                ledger.materialize(cell_of(&raw)),
                eager,
                "seed {seed}, interval {interval}, cycle {now}"
            );
            let mut deltas = CounterBlock::new(&SHAPE);
            ledger.for_each_delta(cell_of(&raw), |s, r, d| *deltas.cell_mut(s, r) = *d);
            assert_eq!(&deltas, eager.deltas(), "seed {seed}, cycle {now}");
        }
    }

    #[test]
    fn ledger_matches_the_eager_registry_over_random_histories() {
        for seed in 0..24 {
            for interval in [1, 3, 7] {
                run_history(seed, interval);
            }
        }
    }

    #[test]
    fn marks_keep_the_last_two_changed_intervals() {
        let mut m = SlotMark::new();
        let mut a = CounterCell::new();
        a.add(RouterCounter::Grants, 4);
        m.touch(6, &a);
        let mut b = a;
        b.inc(RouterCounter::Grants);
        m.touch(6, &b);
        assert_eq!(m.entry(6), Some(&a), "only the first change records");
        m.touch(7, &b);
        assert_eq!(m.entry(6), Some(&a));
        assert_eq!(m.entry(7), Some(&b));
        m.touch(8, &b);
        assert_eq!(m.entry(6), None, "epoch 8 reuses epoch 6's entry");
        m.forget(7);
        assert_eq!(m.entry(7), None);
    }
}
