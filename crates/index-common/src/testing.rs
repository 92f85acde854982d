//! A volatile reference index for unit tests of the layers above
//! [`PersistentIndex`]: routing, combining, instrumentation, drivers.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::{Key, OpError, PersistentIndex, TreeStats, Value};

/// A `BTreeMap` behind a mutex, implementing the u64 side of the
/// [`PersistentIndex`] contract with the conditional-write semantics of
/// the real trees. Test fakes with extra behaviour (gates, failure
/// injection, call counters) wrap it and override the wrapper side.
#[derive(Default)]
pub struct MemIndex(Mutex<BTreeMap<Key, Value>>);

impl MemIndex {
    /// An empty index.
    pub fn new() -> MemIndex {
        MemIndex::default()
    }

    fn map(&self) -> std::sync::MutexGuard<'_, BTreeMap<Key, Value>> {
        self.0.lock().expect("MemIndex lock poisoned")
    }
}

impl PersistentIndex for MemIndex {
    fn insert(&self, key: Key, value: Value) -> Result<(), OpError> {
        let mut m = self.map();
        if m.contains_key(&key) {
            return Err(OpError::AlreadyExists);
        }
        m.insert(key, value);
        Ok(())
    }

    fn update(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.map().get_mut(&key).map(|v| *v = value).ok_or(OpError::NotFound)
    }

    fn upsert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.map().insert(key, value);
        Ok(())
    }

    fn remove(&self, key: Key) -> Result<(), OpError> {
        self.map().remove(&key).map(|_| ()).ok_or(OpError::NotFound)
    }

    fn find(&self, key: Key) -> Option<Value> {
        self.map().get(&key).copied()
    }

    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        out.extend(self.map().range(start..).take(n).map(|(&k, &v)| (k, v)));
        out.len()
    }

    fn name(&self) -> &'static str {
        "Mem"
    }

    fn supports_concurrency(&self) -> bool {
        true
    }

    fn stats(&self) -> TreeStats {
        TreeStats { entries: self.map().len() as u64, ..TreeStats::default() }
    }
}
