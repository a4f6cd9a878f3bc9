//! A free-list slab for the payloads of in-flight events.
//!
//! Engine events are stored inline in the queue, so they stay small (see
//! [`crate::engine::World::Event`]); a payload too large for that — a
//! packet, a protocol message — is parked here and the event carries its
//! `u32` index. The handler takes the payload back out and the index goes
//! on the free list for the next park, so once the slab has grown to the
//! peak number of payloads in flight, parking allocates nothing.
//!
//! # Examples
//!
//! ```
//! use simkit::slab::Slab;
//!
//! let mut slab = Slab::default();
//! let a = slab.park("packet a");
//! let b = slab.park("packet b");
//! assert_eq!(slab.take(a), "packet a");
//! // The freed index is reused.
//! assert_eq!(slab.park("packet c"), a);
//! assert_eq!(slab.take(b), "packet b");
//! ```

/// Parked payloads addressed by recycled `u32` indices.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Parks `value`; returns the index to take it back with.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` payloads are parked at once.
    pub fn park(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = Some(value);
                i
            }
            None => {
                let i = u32::try_from(self.items.len()).expect("fewer than 2^32 parked payloads");
                self.items.push(Some(value));
                i
            }
        }
    }

    /// Takes the payload parked at `index` back out and frees the index.
    ///
    /// # Panics
    ///
    /// Panics if nothing is parked at `index` (it was never handed out,
    /// or was already taken).
    pub fn take(&mut self, index: u32) -> T {
        let value = self.items[index as usize]
            .take()
            .expect("each parked payload is taken exactly once");
        self.free.push(index);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_recycle_lifo_and_storage_stops_growing() {
        let mut slab = Slab::default();
        let ids: Vec<u32> = (0..4).map(|i| slab.park(i)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(slab.take(1), 1);
        assert_eq!(slab.take(2), 2);
        assert_eq!(slab.park(20), 2);
        assert_eq!(slab.park(10), 1);
        assert_eq!(slab.items.len(), 4, "recycled, not grown");
        let rest: Vec<i32> = [0, 1, 2, 3].into_iter().map(|i| slab.take(i)).collect();
        assert_eq!(rest, vec![0, 10, 20, 3]);
    }

    #[test]
    #[should_panic(expected = "taken exactly once")]
    fn double_take_panics() {
        let mut slab = Slab::default();
        let i = slab.park('x');
        slab.take(i);
        slab.take(i);
    }
}
