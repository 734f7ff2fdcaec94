//! Cycle-stamped event tracing.
//!
//! The routers count events (grants, blocks, turns, drops); the trace
//! log adds *when* and *where*. At every telemetry interval the
//! simulator's [`CounterLedger`](metro_telemetry::CounterLedger) hands
//! over each router's nonzero counter delta, and [`TraceLog::observe`]
//! converts it into stamped [`TraceEvent`]s — the trace is a
//! *consumer* of registry deltas, not a second counter-diffing
//! mechanism. Coarsening the interval
//! (`NetworkSim::set_telemetry_interval`) coarsens the stamps to the
//! sync grid without losing events.
//!
//! The log is a bounded ring: with a nonzero capacity, the oldest
//! records are evicted as new ones arrive, so long runs trace at
//! bounded memory.

use metro_telemetry::{CounterCell, RouterCounter};
use std::fmt;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A router granted a connection (`grants` counter advanced).
    Granted {
        /// Stage of the router.
        stage: usize,
        /// Router index within the stage.
        router: usize,
    },
    /// A router blocked a connection.
    Blocked {
        /// Stage of the router.
        stage: usize,
        /// Router index within the stage.
        router: usize,
    },
    /// A router reversed a connection (TURN passed through).
    Turned {
        /// Stage of the router.
        stage: usize,
        /// Router index within the stage.
        router: usize,
    },
    /// A router dropped (closed) a connection.
    Dropped {
        /// Stage of the router.
        stage: usize,
        /// Router index within the stage.
        router: usize,
    },
    /// An endpoint completed a message.
    Completed {
        /// Source endpoint.
        src: usize,
        /// Destination endpoint.
        dest: usize,
        /// Retries the message needed.
        retries: usize,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Granted { stage, router } => write!(f, "grant   r{stage}.{router}"),
            TraceEvent::Blocked { stage, router } => write!(f, "block   r{stage}.{router}"),
            TraceEvent::Turned { stage, router } => write!(f, "turn    r{stage}.{router}"),
            TraceEvent::Dropped { stage, router } => write!(f, "drop    r{stage}.{router}"),
            TraceEvent::Completed { src, dest, retries } => {
                write!(f, "done    {src} -> {dest} (retries {retries})")
            }
        }
    }
}

/// A trace event with its cycle stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle at which the event was observed (the telemetry sync
    /// boundary; exact when the interval is 1).
    pub at: u64,
    /// What happened.
    pub event: TraceEvent,
}

/// A bounded log of cycle-stamped events fed by telemetry deltas.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
    /// Maximum records retained; 0 = unbounded.
    capacity: usize,
}

impl TraceLog {
    /// An empty log retaining at most `capacity` records (0 =
    /// unbounded).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            records: Vec::new(),
            capacity,
        }
    }

    fn push(&mut self, at: u64, event: TraceEvent) {
        if self.capacity > 0 && self.records.len() == self.capacity {
            self.records.remove(0);
        }
        self.records.push(TraceRecord { at, event });
    }

    /// Converts one router's delta since the previous sync into stamped
    /// events: each grant/block/turn/drop it counted becomes one record
    /// stamped `now`.
    pub fn observe(&mut self, now: u64, stage: usize, router: usize, delta: &CounterCell) {
        if delta.is_zero() {
            return;
        }
        let pairs = [
            (RouterCounter::Grants, TraceEvent::Granted { stage, router }),
            (RouterCounter::Blocks, TraceEvent::Blocked { stage, router }),
            (RouterCounter::Turns, TraceEvent::Turned { stage, router }),
            (RouterCounter::Drops, TraceEvent::Dropped { stage, router }),
        ];
        for (counter, event) in pairs {
            for _ in 0..delta.get(counter) {
                self.push(now, event);
            }
        }
    }

    /// Records a message completion.
    pub fn record_completion(&mut self, now: u64, src: usize, dest: usize, retries: usize) {
        self.push(now, TraceEvent::Completed { src, dest, retries });
    }

    /// All retained records, oldest first.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records whose event matches the predicate.
    pub fn of_kind(&self, pred: impl Fn(&TraceEvent) -> bool) -> Vec<TraceRecord> {
        self.records
            .iter()
            .copied()
            .filter(|r| pred(&r.event))
            .collect()
    }

    /// Renders the log, one stamped line per record.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!("[{:>8}] {}\n", r.at, r.event));
        }
        out
    }

    /// Discards the retained records. The registry keeps the delta
    /// state, so observation continues seamlessly.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// The retention limit this log was built with (0 = unbounded).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_telemetry::CounterBlock;

    /// A delta cell with the given grant/block counts.
    fn deltas(grants: u64, blocks: u64) -> CounterCell {
        let mut c = CounterCell::new();
        c.add(RouterCounter::Grants, grants);
        c.add(RouterCounter::Blocks, blocks);
        c
    }

    #[test]
    fn observe_emits_one_event_per_delta_count() {
        let mut log = TraceLog::new(0);
        log.observe(1, 0, 0, &deltas(2, 1));
        let grants = log.of_kind(|e| matches!(e, TraceEvent::Granted { .. }));
        let blocks = log.of_kind(|e| matches!(e, TraceEvent::Blocked { .. }));
        assert_eq!(grants.len(), 2);
        assert_eq!(blocks.len(), 1);
        assert!(log.records().iter().all(|r| r.at == 1));

        // The next sync's deltas stand alone — no internal diffing.
        log.observe(5, 0, 0, &deltas(1, 0));
        assert_eq!(
            log.of_kind(|e| matches!(e, TraceEvent::Granted { .. }))
                .len(),
            3
        );
        assert_eq!(log.records().last().unwrap().at, 5);
    }

    #[test]
    fn zero_deltas_emit_nothing() {
        let mut log = TraceLog::new(0);
        log.observe(3, 0, 0, &deltas(0, 0));
        assert!(log.records().is_empty());
    }

    #[test]
    fn multi_router_deltas_name_the_right_slots() {
        let mut b = CounterBlock::new(&[2, 1]);
        b.cell_mut(0, 1).add(RouterCounter::Turns, 1);
        b.cell_mut(1, 0).add(RouterCounter::Drops, 2);
        let mut log = TraceLog::new(0);
        for ((stage, router), cell) in b.iter() {
            log.observe(9, stage, router, cell);
        }
        assert_eq!(
            log.records()[0].event,
            TraceEvent::Turned {
                stage: 0,
                router: 1
            }
        );
        assert_eq!(
            log.records()[1].event,
            TraceEvent::Dropped {
                stage: 1,
                router: 0
            }
        );
        assert_eq!(log.records().len(), 3);
    }

    #[test]
    fn capacity_bounds_the_log() {
        let mut log = TraceLog::new(3);
        for k in 0..5 {
            log.observe(k, 0, 0, &deltas(1, 0));
        }
        assert_eq!(log.records().len(), 3);
        // Oldest evicted: stamps 2, 3, 4 survive.
        let stamps: Vec<u64> = log.records().iter().map(|r| r.at).collect();
        assert_eq!(stamps, [2, 3, 4]);
    }

    #[test]
    fn overflow_at_exact_capacity_evicts_exactly_one() {
        let mut log = TraceLog::new(2);
        log.observe(0, 0, 0, &deltas(1, 0));
        log.observe(1, 0, 0, &deltas(1, 0));
        assert_eq!(log.records().len(), 2, "at capacity, nothing evicted yet");
        log.observe(2, 0, 0, &deltas(1, 0));
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.records()[0].at, 1);
        assert_eq!(log.records()[1].at, 2);

        // A single observe delivering more events than capacity keeps
        // only the newest `capacity` records.
        let mut log = TraceLog::new(2);
        log.observe(7, 0, 0, &deltas(5, 0));
        assert_eq!(log.records().len(), 2);
        assert!(log.records().iter().all(|r| r.at == 7));
    }

    #[test]
    fn render_stamps_every_line() {
        let mut log = TraceLog::new(0);
        log.observe(4, 0, 0, &deltas(1, 1));
        log.record_completion(12, 3, 9, 2);
        let text = log.render();
        assert_eq!(
            text,
            "[       4] grant   r0.0\n[       4] block   r0.0\n[      12] done    3 -> 9 (retries 2)\n"
        );
    }

    #[test]
    fn clear_discards_records_only() {
        let mut log = TraceLog::new(0);
        log.observe(1, 0, 0, &deltas(2, 0));
        log.clear();
        assert!(log.records().is_empty());
        log.observe(2, 0, 0, &deltas(1, 0));
        assert_eq!(log.records().len(), 1, "observation continues after clear");
    }
}
