//! Timing decorators that measure a layer from outside, through its
//! public trait.

use crate::report::Interval;
use ebtrain_dnn::layer::{SaveHint, Saved, SlotId};
use ebtrain_dnn::store::{ActivationStore, StoreMetrics};
use ebtrain_dnn::Result;
use std::time::Instant;

/// Nanoseconds since a fixed origin, for building [`Interval`]s.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new()
    }
}

/// An [`ActivationStore`] that records the interval of every `save` and
/// `load` call on the wrapped store. Everything else passes through.
pub struct TimingStore<S> {
    inner: S,
    clock: Clock,
    pub saves: Vec<Interval>,
    pub loads: Vec<Interval>,
}

impl<S: ActivationStore> TimingStore<S> {
    pub fn new(inner: S, clock: Clock) -> TimingStore<S> {
        TimingStore {
            inner,
            clock,
            saves: Vec::new(),
            loads: Vec::new(),
        }
    }

    /// Drop the recorded intervals (call between steps).
    pub fn clear_intervals(&mut self) {
        self.saves.clear();
        self.loads.clear();
    }
}

impl<S: ActivationStore> ActivationStore for TimingStore<S> {
    fn save(&mut self, slot: SlotId, value: Saved, hint: SaveHint) {
        let start = self.clock.now();
        self.inner.save(slot, value, hint);
        self.saves.push((start, self.clock.now()));
    }

    fn load(&mut self, slot: SlotId) -> Result<Saved> {
        let start = self.clock.now();
        let out = self.inner.load(slot);
        self.loads.push((start, self.clock.now()));
        out
    }

    fn current_bytes(&self) -> usize {
        self.inner.current_bytes()
    }

    fn peak_bytes(&self) -> usize {
        self.inner.peak_bytes()
    }

    fn reset_peak(&mut self) {
        self.inner.reset_peak()
    }

    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }

    fn reset_metrics(&mut self) {
        self.inner.reset_metrics()
    }
}

/// Duration of an interval in nanoseconds.
pub fn span_ns((start, end): Interval) -> u64 {
    end.saturating_sub(start)
}

/// The interval from the first start to the last end of `calls`;
/// empty when there are none.
pub fn extent(calls: &[Interval]) -> Interval {
    let start = calls.iter().map(|c| c.0).min().unwrap_or(0);
    let end = calls.iter().map(|c| c.1).max().unwrap_or(0);
    (start, end)
}
