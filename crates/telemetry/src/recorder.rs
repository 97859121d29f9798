//! The flight recorder: a bounded per-key ring of recent pipeline
//! events, kept so a verdict can be explained *after the fact*.
//!
//! AoA debugging is forensic — when a client is flagged, the question
//! is "what did the pipeline see in the windows leading up to that
//! verdict?", and by then the packets are gone. A [`FlightRecorder`]
//! keeps the last `depth` events per key (e.g. per client MAC) and at
//! most `max_clients` keys; when a new key would exceed the cap, the
//! least-recently-updated key's ring is evicted (ties broken by key
//! order, so eviction is deterministic for a deterministic event
//! stream).
//!
//! The recorder is generic over the key and event types: the deploy
//! layer instantiates it with MAC-address keys and rich per-window
//! consensus events, but the structure itself knows nothing about the
//! pipeline.

use std::collections::{BTreeMap, VecDeque};

struct Ring<E> {
    events: VecDeque<E>,
    /// Logical timestamp of the last `record` touching this key, from
    /// the recorder's own monotonic tick — no wall clock involved.
    last_touch: u64,
}

/// A bounded multi-ring event recorder, owned by the one stage that
/// records into it.
pub struct FlightRecorder<K, E> {
    rings: BTreeMap<K, Ring<E>>,
    tick: u64,
    depth: usize,
    max_clients: usize,
}

impl<K: Ord + Copy, E> FlightRecorder<K, E> {
    /// A recorder keeping up to `depth` events for up to `max_clients`
    /// keys. Either bound at zero makes the recorder a no-op.
    pub fn new(depth: usize, max_clients: usize) -> Self {
        Self {
            rings: BTreeMap::new(),
            tick: 0,
            depth,
            max_clients,
        }
    }

    /// Ring depth per key.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Append an event to `key`'s ring, evicting the oldest event of
    /// that ring (beyond `depth`) and, if `key` is new and the client
    /// cap is full, the least-recently-updated *other* key.
    pub fn record(&mut self, key: K, event: E) {
        if self.depth == 0 || self.max_clients == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if !self.rings.contains_key(&key) && self.rings.len() >= self.max_clients {
            // Evict the stalest ring; key order breaks exact ties.
            if let Some(&victim) = self
                .rings
                .iter()
                .min_by_key(|(k, r)| (r.last_touch, **k))
                .map(|(k, _)| k)
            {
                self.rings.remove(&victim);
            }
        }
        let ring = self.rings.entry(key).or_insert_with(|| Ring {
            events: VecDeque::new(),
            last_touch: tick,
        });
        ring.last_touch = tick;
        if ring.events.len() == self.depth {
            ring.events.pop_front();
        }
        ring.events.push_back(event);
    }

    /// The recorded events for `key`, oldest first. `None` when the key
    /// was never recorded (or has been evicted).
    pub fn events(&self, key: K) -> Option<&VecDeque<E>> {
        self.rings.get(&key).map(|r| &r.events)
    }

    /// Number of keys currently tracked (≤ `max_clients`).
    pub fn client_count(&self) -> usize {
        self.rings.len()
    }
}

impl<K: Ord + Copy, E> std::fmt::Debug for FlightRecorder<K, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("depth", &self.depth)
            .field("max_clients", &self.max_clients)
            .field("clients", &self.client_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events<K: Ord + Copy, E: Clone>(rec: &FlightRecorder<K, E>, key: K) -> Option<Vec<E>> {
        rec.events(key).map(|ring| ring.iter().cloned().collect())
    }

    #[test]
    fn ring_keeps_the_last_depth_events() {
        let mut rec = FlightRecorder::new(3, 8);
        for i in 0..10u32 {
            rec.record(1u8, i);
        }
        assert_eq!(events(&rec, 1), Some(vec![7, 8, 9]));
        assert_eq!(events(&rec, 2), None);
    }

    #[test]
    fn eviction_drops_the_least_recently_updated_key() {
        let mut rec = FlightRecorder::new(2, 2);
        rec.record(10u8, "a");
        rec.record(20u8, "b");
        rec.record(10u8, "a2"); // key 20 is now stalest
        rec.record(30u8, "c"); // cap hit: 20 evicted
        assert_eq!(events(&rec, 20), None);
        assert_eq!(events(&rec, 10), Some(vec!["a", "a2"]));
        assert_eq!(events(&rec, 30), Some(vec!["c"]));
        assert_eq!(rec.client_count(), 2);
    }

    #[test]
    fn zero_bounds_make_it_a_no_op() {
        let mut none = FlightRecorder::new(0, 100);
        none.record(1u8, 1u8);
        assert_eq!(none.client_count(), 0);
        let mut none = FlightRecorder::new(4, 0);
        none.record(1u8, 1u8);
        assert!(none.events(1).is_none());
    }
}
