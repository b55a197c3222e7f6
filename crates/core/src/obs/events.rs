//! A bounded ring buffer of subsystem lifecycle events.
//!
//! Counters say *how much* work happened; the event ring says *what*
//! happened, in order: compactions starting and finishing, checkpoints,
//! WAL segment trims, recoveries, and continuous-query re-evaluation
//! storms. The ring is bounded (oldest events drop first) so an unpolled
//! database never grows without bound, and [`EventRing::drain`] hands the
//! pending events to exactly one consumer.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// The lifecycle event taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A background or synchronous shard compaction began.
    CompactionStarted,
    /// A shard compaction published its rebuilt base.
    CompactionFinished,
    /// A store checkpoint completed (dirty shards spilled, WAL trimmed).
    Checkpoint,
    /// Obsolete WAL segments were deleted after a checkpoint.
    SegmentTrim,
    /// A durable store was recovered from disk.
    Recovery,
    /// One published batch triggered many standing-query re-evaluations.
    CqReevalStorm,
    /// A shard base or a manifest could not be written: recovery replays
    /// the WAL suffix the failed write would have covered.
    PersistFailed,
}

impl EventKind {
    /// Stable snake_case label, used in both text and JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::CompactionStarted => "compaction_started",
            EventKind::CompactionFinished => "compaction_finished",
            EventKind::Checkpoint => "checkpoint",
            EventKind::SegmentTrim => "segment_trim",
            EventKind::Recovery => "recovery",
            EventKind::CqReevalStorm => "cq_reeval_storm",
            EventKind::PersistFailed => "persist_failed",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number (gaps reveal dropped events).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Free-form context, e.g. `"Vehicles shard 3: 4211 points"`.
    pub detail: String,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}: {}", self.seq, self.kind, self.detail)
    }
}

#[derive(Debug, Default)]
struct RingState {
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, drop-oldest ring of [`Event`]s behind one mutex.
///
/// Events fire on rare lifecycle paths (compaction, checkpoint, recovery),
/// never per query or per point, so a mutex is fine here.
#[derive(Debug)]
pub struct EventRing {
    state: Mutex<RingState>,
    capacity: usize,
}

impl Default for EventRing {
    fn default() -> Self {
        Self::with_capacity(256)
    }
}

impl EventRing {
    /// A ring retaining at most `capacity` undrained events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            state: Mutex::new(RingState::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records an event, dropping the oldest pending one when full.
    pub fn record(&self, kind: EventKind, detail: String) {
        let mut state = self.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(Event { seq, kind, detail });
    }

    /// Removes and returns every pending event, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.lock().events.drain(..).collect()
    }

    /// Number of pending (recorded but undrained) events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events dropped to the capacity bound since creation.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_returns_in_order_and_empties() {
        let ring = EventRing::default();
        ring.record(EventKind::CompactionStarted, "R shard 0".into());
        ring.record(EventKind::CompactionFinished, "R shard 0".into());
        assert_eq!(ring.len(), 2);
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::CompactionStarted);
        assert_eq!(events[1].seq, events[0].seq + 1);
        assert!(ring.is_empty() && ring.drain().is_empty());
        assert!(events[0].to_string().contains("compaction_started"));
    }

    #[test]
    fn capacity_drops_oldest_and_keeps_seq_monotone() {
        let ring = EventRing::with_capacity(3);
        for i in 0..5 {
            ring.record(EventKind::Checkpoint, format!("cp {i}"));
        }
        let events = ring.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(ring.dropped(), 2);
        // The two oldest dropped: seq 2, 3, 4 remain.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }
}
