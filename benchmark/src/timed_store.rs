//! A [`StageStore`] wrapper that times and counts every store call.
//!
//! The staged flow probes its store for a cached schedule (by schedule key)
//! and a cached architecture (by route key), offers fresh artifacts back,
//! and reads and writes the per-assay warm hint. [`TimedStore`] delegates
//! each of those calls unchanged to the wrapped store and adds the wall
//! time to a get or put account, and exact-key lookups to a hit or miss
//! count. It never alters what the inner store answers.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use biochip_synth::arch::{Architecture, OracleCache};
use biochip_synth::schedule::Schedule;
use biochip_synth::{StageStore, SynthesisConfig, SynthesisOutcome, WarmHandoff};

/// What a [`TimedStore`] observed since the last [`TimedStore::take`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreCounters {
    /// Seconds spent in lookups (exact-key gets and warm-hint reads).
    pub get_seconds: f64,
    /// Seconds spent in offers (schedule, architecture and warm-hint puts).
    pub put_seconds: f64,
    /// Exact-key lookups that found an artifact.
    pub hits: u64,
    /// Exact-key lookups that found nothing.
    pub misses: u64,
}

/// Times and counts the calls into an inner [`StageStore`].
#[derive(Debug, Default)]
pub struct TimedStore<S> {
    inner: S,
    counters: Mutex<StoreCounters>,
}

impl<S: StageStore> TimedStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedStore {
            inner,
            counters: Mutex::new(StoreCounters::default()),
        }
    }

    /// Returns the counters gathered so far and resets them.
    pub fn take(&self) -> StoreCounters {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreCounters> {
        // The counters are plain numbers, valid after any partial update.
        self.counters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get<T>(&self, exact: bool, f: impl FnOnce(&S) -> Option<T>) -> Option<T> {
        let start = Instant::now();
        let found = f(&self.inner);
        let seconds = start.elapsed().as_secs_f64();
        let mut counters = self.lock();
        counters.get_seconds += seconds;
        if exact {
            if found.is_some() {
                counters.hits += 1;
            } else {
                counters.misses += 1;
            }
        }
        found
    }

    fn put(&self, f: impl FnOnce(&S)) {
        let start = Instant::now();
        f(&self.inner);
        let seconds = start.elapsed().as_secs_f64();
        self.lock().put_seconds += seconds;
    }
}

impl<S: StageStore> StageStore for TimedStore<S> {
    fn get_schedule(&self, key: &str) -> Option<Arc<Schedule>> {
        self.get(true, |s| s.get_schedule(key))
    }

    fn put_schedule(&self, key: &str, schedule: &Arc<Schedule>) {
        self.put(|s| s.put_schedule(key, schedule));
    }

    fn get_architecture(&self, key: &str) -> Option<Arc<Architecture>> {
        self.get(true, |s| s.get_architecture(key))
    }

    fn put_architecture(&self, key: &str, architecture: &Arc<Architecture>) {
        self.put(|s| s.put_architecture(key, architecture));
    }

    fn warm_hint(&self, assay: &str) -> Option<Arc<WarmHandoff>> {
        self.get(false, |s| s.warm_hint(assay))
    }

    fn put_warm(&self, assay: &str, outcome: &SynthesisOutcome, config: &SynthesisConfig) {
        self.put(|s| s.put_warm(assay, outcome, config));
    }

    fn oracle_cache(&self) -> Option<Arc<OracleCache>> {
        self.inner.oracle_cache()
    }
}
