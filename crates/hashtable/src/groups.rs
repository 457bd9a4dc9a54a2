//! The half of an open-addressing table the probe does not touch until it
//! has found its key: one dense array of group states, indexed by the
//! group id a probe slot holds and filled in first-seen order.
//!
//! [`crate::linear_probing`] and [`crate::robin_hood`] share it, so the two
//! differ only in how they probe.

/// The key value that marks an empty probe slot. A real key equal to it has
/// no slot; its group id is kept in [`Groups::empty_key`].
pub(crate) const EMPTY: u32 = u32::MAX;

/// Probe slots per key: a probe array doubles before its load passes 1/8.
pub(crate) const SLOTS_PER_KEY: usize = 8;

/// Probe slots of an empty table.
pub(crate) const MIN_SLOTS: usize = 16;

/// Group ids in first-seen order: the key and the state of each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Groups<V> {
    keys: Vec<u32>,
    states: Vec<V>,
    /// Group id of the key [`EMPTY`], once seen.
    empty_key: Option<u32>,
}

impl<V> Groups<V> {
    pub(crate) fn new() -> Self {
        Groups {
            keys: Vec::new(),
            states: Vec::new(),
            empty_key: None,
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Append a group; returns its id.
    pub(crate) fn push(&mut self, key: u32, state: V) -> u32 {
        let id = self.keys.len() as u32;
        self.keys.push(key);
        self.states.push(state);
        id
    }

    /// The state of group `id`.
    pub(crate) fn state(&self, id: u32) -> &V {
        &self.states[id as usize]
    }

    /// The state of group `id`, for update.
    pub(crate) fn state_mut(&mut self, id: u32) -> &mut V {
        &mut self.states[id as usize]
    }

    /// Whether a probe array of `slots` slots is past its load bound.
    pub(crate) fn outgrow(&self, slots: usize) -> bool {
        self.keys.len() * SLOTS_PER_KEY > slots
    }

    /// The state of the key [`EMPTY`], created by `init` on first sight.
    pub(crate) fn upsert_empty_key(&mut self, init: impl FnOnce() -> V) -> &mut V {
        let id = match self.empty_key {
            Some(id) => id,
            None => {
                let id = self.push(EMPTY, init());
                self.empty_key = Some(id);
                id
            }
        };
        self.state_mut(id)
    }

    /// The state of the key [`EMPTY`], if seen.
    pub(crate) fn get_empty_key(&self) -> Option<&V> {
        self.empty_key.map(|id| self.state(id))
    }

    /// `(group id, key)` of every group that holds a probe slot: what a
    /// doubled probe array re-inserts.
    pub(crate) fn slotted(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0u32..)
            .zip(self.keys.iter().copied())
            .filter(|&(_, key)| key != EMPTY)
    }

    /// `(key, state)` pairs in first-seen order.
    pub(crate) fn drain(self) -> Vec<(u32, V)> {
        self.keys.into_iter().zip(self.states).collect()
    }
}
