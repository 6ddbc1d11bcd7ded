//! The correctness oracle.
//!
//! The benchmark runs one operation at a time on one thread, so the index's
//! history is a total order and the oracle knows every key's last written
//! value. Each read and scan result is checked against it: value, record
//! count and key order.

use std::collections::BTreeMap;

use crate::inputs::{Inputs, Value};

/// Per-item state: absent, its initial value, an update id, or unknown.
const ABSENT: u32 = u32::MAX;
const INITIAL: u32 = u32::MAX - 1;
/// A write to this item returned an error, so whether it took effect is
/// unknown; later reads of it accept any value.
const UNKNOWN: u32 = u32::MAX - 2;

pub struct Oracle<'a> {
    inputs: &'a Inputs,
    state: Vec<u32>,
    live: u64,
    /// Live keys in order, kept only for workloads that scan.
    ordered: Option<BTreeMap<&'a [u8], u32>>,
}

impl<'a> Oracle<'a> {
    pub fn new(inputs: &'a Inputs, scans: bool) -> Self {
        Oracle {
            inputs,
            state: vec![ABSENT; inputs.keys.len()],
            live: 0,
            ordered: scans.then(BTreeMap::new),
        }
    }

    pub fn live_keys(&self) -> u64 {
        self.live
    }

    fn expected(&self, item: u32) -> Option<Option<&'a Value>> {
        match self.state[item as usize] {
            ABSENT => Some(None),
            INITIAL => Some(Some(&self.inputs.initial[item as usize])),
            UNKNOWN => None,
            u => Some(Some(&self.inputs.updates[u as usize])),
        }
    }

    /// Whether `got` is a correct read of `item`.
    pub fn check_read(&self, item: u32, got: Option<&[u8]>) -> bool {
        match self.expected(item) {
            None => true,
            Some(want) => want.map(|v| v.as_slice()) == got,
        }
    }

    pub fn inserted(&mut self, item: u32, ok: bool) {
        let s = &mut self.state[item as usize];
        if *s == ABSENT {
            self.live += 1;
            if let Some(o) = self.ordered.as_mut() {
                o.insert(&self.inputs.keys[item as usize], item);
            }
        }
        *s = if ok { INITIAL } else { UNKNOWN };
    }

    /// Records an update whose call returned `found` (`None` for an
    /// error); returns whether that answer was wrong.
    pub fn updated(&mut self, item: u32, val: u32, found: Option<bool>) -> bool {
        let state = &mut self.state[item as usize];
        let present = *state != ABSENT;
        if present {
            *state = if found == Some(true) { val } else { UNKNOWN };
        }
        found.is_some_and(|f| f != present)
    }

    /// Whether `got` is the correct answer to a scan of up to `len` records
    /// from `item`'s key: the right keys, in ascending order, with the
    /// right values.
    pub fn check_scan(&self, item: u32, len: usize, got: &[(Vec<u8>, Vec<u8>)]) -> bool {
        let ordered = self
            .ordered
            .as_ref()
            .expect("scan workloads keep the ordered key set");
        let low: &[u8] = &self.inputs.keys[item as usize];
        let want: Vec<(&&[u8], &u32)> = ordered.range(low..).take(len).collect();
        want.len() == got.len()
            && want
                .iter()
                .zip(got)
                .all(|((k, i), (gk, gv))| **k == gk.as_slice() && self.check_read(**i, Some(gv)))
    }
}
