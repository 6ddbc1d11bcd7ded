//! Range scans: one bounded walk `(low, high, limit)` behind
//! [`SphinxClient::scan`], [`SphinxClient::scan_n`] and the [`ScanIter`]
//! cursor. It enters through the SFC + INHT, climbs when the entry subtree
//! runs out, and batches reads by lower bound (docs/PROTOCOLS.md §Scans).

use art_core::key::{common_prefix_len, MAX_KEY_LEN};
use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot};
use art_core::NodeKind;
use dm_sim::{RemotePtr, Transport};
use obs::{OpKind, Phase};

use crate::client::SphinxClient;
use crate::error::SphinxError;

/// Default number of entries fetched per page.
const DEFAULT_PAGE: usize = 64;

/// A scan's result rows.
type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// The key range `[low, high]`; no upper bound when `high` is `None`.
#[derive(Clone, Copy)]
struct Range<'a> {
    low: &'a [u8],
    high: Option<&'a [u8]>,
}

impl Range<'_> {
    fn contains(&self, key: &[u8]) -> bool {
        key >= self.low && self.high.is_none_or(|h| key <= h)
    }

    /// Where the keys starting with `prefix` lie; `None` when no such key
    /// is in range.
    fn place(&self, prefix: &[u8]) -> Option<Pos> {
        let below = prefix < self.low && !self.low.starts_with(prefix);
        if below || self.high.is_some_and(|h| prefix > h) {
            return None;
        }
        let above_low = prefix >= self.low;
        let below_high = self
            .high
            .is_none_or(|h| prefix < h && !h.starts_with(prefix));
        Some(if above_low && below_high {
            Pos::Inside
        } else {
            Pos::Edge(prefix.to_vec())
        })
    }
}

/// Where a subtree lies relative to the scan range.
#[derive(Debug, PartialEq, Eq)]
enum Pos {
    /// Every key of the subtree is in range.
    Inside,
    /// The subtree's keys start with these bytes and may straddle `low` or
    /// `high`. For a fetched node they are its exact full prefix; for an
    /// unfetched one, compressed bytes of its own prefix may follow.
    Edge(Vec<u8>),
}

/// One entry of the walk's stack, which is in key order (smallest on top).
enum Item {
    /// A decoded in-range entry.
    Ready(Vec<u8>, Vec<u8>),
    /// An unfetched leaf or inner node.
    Slot { slot: Slot, pos: Pos },
    /// A fetched inner node whose remaining slots are still to be visited.
    Frame(Frame),
}

impl Item {
    /// The fewest in-range entries the item can yield: one per row or
    /// inside leaf, an inside subtree's minimum fill at node creation, and
    /// nothing known for a boundary item.
    fn lower_bound(&self) -> usize {
        match self {
            Item::Ready(..) => 1,
            Item::Slot {
                pos: Pos::Edge(_), ..
            }
            | Item::Frame(_) => 0,
            Item::Slot { slot, .. } if slot.is_leaf => 1,
            Item::Slot { slot, .. } => match slot.child_kind {
                NodeKind::Node4 => 2,
                NodeKind::Node16 => 5,
                NodeKind::Node48 => 17,
                NodeKind::Node256 => 49,
            },
        }
    }

    /// A boundary inner node: it may hold the whole remainder.
    fn is_edge_node(&self) -> bool {
        matches!(self, Item::Slot { slot, pos: Pos::Edge(_) } if !slot.is_leaf)
    }
}

/// A cursor over a fetched inner node: its value slot, then its children
/// in key-byte order. `next` is 0 before the value slot and `b + 1` when
/// child byte `b` is the next to visit.
struct Frame {
    node: InnerNode,
    pos: Pos,
    next: usize,
}

impl Frame {
    /// The next slot of the node that may hold in-range keys.
    fn next_item(&mut self, range: Range<'_>) -> Option<Item> {
        if self.next == 0 {
            self.next = 1;
            // The value slot's key is the node's prefix itself.
            let keep = !matches!(&self.pos, Pos::Edge(p) if !range.contains(p));
            if let Some(slot) = self.node.value_slot.filter(|_| keep) {
                let pos = Pos::Inside;
                return Some(Item::Slot { slot, pos });
            }
        }
        while let Some(slot) = self.child_from(self.next - 1) {
            self.next = slot.key_byte as usize + 2;
            let pos = match &self.pos {
                Pos::Inside => Pos::Inside,
                Pos::Edge(prefix) => {
                    let mut known = prefix.clone();
                    known.push(slot.key_byte);
                    match range.place(&known) {
                        Some(pos) => pos,
                        None => continue,
                    }
                }
            };
            return Some(Item::Slot { slot, pos });
        }
        None
    }

    /// The child with the smallest key byte `>= byte`.
    fn child_from(&self, byte: usize) -> Option<Slot> {
        let slots = &self.node.slots;
        match self.node.header.kind {
            NodeKind::Node256 => slots.get(byte..)?.iter().flatten().next().copied(),
            _ => slots
                .iter()
                .flatten()
                .filter(|s| s.key_byte as usize >= byte)
                .min_by_key(|s| s.key_byte)
                .copied(),
        }
    }
}

/// Pops the next item in key order, opening frames one slot at a time.
fn next_item(stack: &mut Vec<Item>, range: Range<'_>) -> Option<Item> {
    loop {
        match stack.last_mut()? {
            Item::Frame(frame) => match frame.next_item(range) {
                Some(item) => return Some(item),
                None => {
                    stack.pop();
                }
            },
            _ => return stack.pop(),
        }
    }
}

/// The smallest key greater than every key starting with `prefix`: drop
/// trailing `0xFF` bytes, then add one to the last byte. `None` when
/// `prefix` is all `0xFF` (or empty).
fn successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let last = prefix.iter().rposition(|&b| b != 0xFF)?;
    let mut next = prefix[..=last].to_vec();
    next[last] += 1;
    Some(next)
}

impl SphinxClient {
    /// Returns every `(key, value)` with `low <= key <= high`, in
    /// ascending key order.
    ///
    /// The walk enters at the deepest inner node covering both bounds
    /// (found through the Succinct Filter Cache and the Inner Node Hash
    /// Table) and reads each level's in-range nodes in one doorbell batch.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; torn leaf reads are retried
    /// internally and skipped if they never settle.
    pub fn scan(&mut self, low: &[u8], high: &[u8]) -> Result<Rows, SphinxError> {
        self.stats.scans += 1;
        self.obs_begin(OpKind::Scan);
        let r = self.bounded_scan(low, Some(high), usize::MAX);
        self.op_exit();
        r
    }

    /// Returns up to `limit` entries with key ≥ `low`, in ascending key
    /// order — the "scan N next rows" operation of YCSB-E.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; torn leaf reads are retried
    /// internally and skipped if they never settle, like
    /// [`SphinxClient::scan`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use dm_sim::{ClusterConfig, DmCluster};
    /// # use sphinx::{SphinxConfig, SphinxIndex};
    /// # fn main() -> Result<(), sphinx::SphinxError> {
    /// # let cluster = DmCluster::new(ClusterConfig::default());
    /// # let index = SphinxIndex::create(&cluster, SphinxConfig::default())?;
    /// # let mut client = index.client(0)?;
    /// for word in ["ant", "bee", "cat", "dog", "eel"] {
    ///     client.insert(word.as_bytes(), b"v")?;
    /// }
    /// let next_three = client.scan_n(b"bee", 3)?;
    /// let keys: Vec<&[u8]> = next_three.iter().map(|(k, _)| k.as_slice()).collect();
    /// assert_eq!(keys, vec![b"bee".as_slice(), b"cat", b"dog"]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn scan_n(&mut self, low: &[u8], limit: usize) -> Result<Rows, SphinxError> {
        self.stats.scans += 1;
        self.obs_begin(OpKind::Scan);
        let r = self.bounded_scan(low, None, limit);
        self.op_exit();
        r
    }

    /// Returns a streaming cursor over all entries with key ≥ `low`, in
    /// ascending order.
    ///
    /// # Examples
    ///
    /// ```
    /// # use dm_sim::{ClusterConfig, DmCluster};
    /// # use sphinx::{SphinxConfig, SphinxIndex};
    /// # fn main() -> Result<(), sphinx::SphinxError> {
    /// # let cluster = DmCluster::new(ClusterConfig::default());
    /// # let index = SphinxIndex::create(&cluster, SphinxConfig::default())?;
    /// # let mut client = index.client(0)?;
    /// for i in 0..100u32 {
    ///     client.insert(format!("it-{i:03}").as_bytes(), &i.to_le_bytes())?;
    /// }
    /// let count = client
    ///     .scan_iter(b"it-050")
    ///     .take_while(Result::is_ok)
    ///     .count();
    /// assert_eq!(count, 50);
    /// # Ok(())
    /// # }
    /// ```
    pub fn scan_iter<'a>(&'a mut self, low: &[u8]) -> ScanIter<'a> {
        ScanIter {
            client: self,
            resume: Some(low.to_vec()),
            buffer: Vec::new().into_iter(),
            page_size: DEFAULT_PAGE,
            error: None,
        }
    }

    /// Up to `limit` in-range entries in key order: walk the entry
    /// subtree, then climb to shallower entries until the limit is met or
    /// the range is exhausted.
    fn bounded_scan(
        &mut self,
        low: &[u8],
        high: Option<&[u8]>,
        limit: usize,
    ) -> Result<Rows, SphinxError> {
        let mut out = Vec::new();
        if limit == 0 || high.is_some_and(|h| low > h) {
            return Ok(out);
        }
        let mut max_len = high
            .map_or(low.len(), |h| common_prefix_len(low, h))
            .min(MAX_KEY_LEN);
        let mut low = low.to_vec();
        loop {
            let (_, node, e) = self.entry_node(&low, max_len)?;
            let mark = out.len();
            let range = Range { low: &low, high };
            if !self.walk_subtree(node, e, range, limit, &mut out)? {
                // A leaf outside the entry prefix: the fingerprint and the
                // 42-bit prefix hash both collided. Fall back one level, as
                // `locate` does.
                out.truncate(mark);
                self.stats.false_positive_retries += 1;
                self.obs_retry();
                max_len = e - 1;
                continue;
            }
            if out.len() >= limit || e == 0 {
                return Ok(out);
            }
            match successor(&low[..e]) {
                Some(next) if high.is_none_or(|h| next.as_slice() <= h) => {
                    max_len = (e - 1).min(next.len());
                    low = next;
                }
                _ => return Ok(out),
            }
        }
    }

    /// Appends the in-range entries under `node` (whose full prefix is
    /// `range.low[..e]`) to `out`, in key order, until `out` holds `limit`
    /// entries. Returns `false` if a leaf proved the node's prefix wrong.
    fn walk_subtree(
        &mut self,
        node: InnerNode,
        e: usize,
        range: Range<'_>,
        limit: usize,
        out: &mut Rows,
    ) -> Result<bool, SphinxError> {
        let entry = &range.low[..e];
        let pos = range.place(entry).unwrap_or(Pos::Inside);
        let mut stack = vec![Item::Frame(Frame { node, pos, next: 0 })];
        loop {
            // Rows on top go straight out. Then take items while their
            // lower bounds sum below what is still needed; a boundary node
            // may hold the whole remainder, so it goes alone (unless
            // nothing bounds the scan).
            let mut batch = Vec::new();
            let mut need = 0;
            while need < limit - out.len() {
                match next_item(&mut stack, range) {
                    None => break,
                    Some(Item::Ready(k, v)) if batch.is_empty() => {
                        out.push((k, v));
                        if out.len() >= limit {
                            return Ok(true);
                        }
                    }
                    Some(item) if item.is_edge_node() && limit != usize::MAX => {
                        if batch.is_empty() {
                            batch.push(item);
                        } else {
                            stack.push(item);
                        }
                        break;
                    }
                    Some(item) => {
                        need += item.lower_bound();
                        batch.push(item);
                    }
                }
            }
            if batch.is_empty() {
                return Ok(true);
            }

            let hint = self.config.leaf_read_hint;
            let mut inner = false;
            let reads: Vec<(RemotePtr, usize)> = batch
                .iter()
                .filter_map(|item| match item {
                    Item::Slot { slot, .. } if slot.is_leaf => Some((slot.addr, hint)),
                    Item::Slot { slot, .. } => {
                        inner = true;
                        Some((slot.addr, InnerNode::byte_size(slot.child_kind)))
                    }
                    _ => None,
                })
                .collect();
            self.obs_phase(if inner {
                Phase::Traversal
            } else {
                Phase::LeafRead
            });
            let mut fetched = self.dm.read_many(&reads)?.into_iter();
            let mut opened = Vec::with_capacity(batch.len());
            for item in batch {
                let Item::Slot { slot, pos } = item else {
                    opened.push(item);
                    continue;
                };
                let bytes = fetched.next().unwrap_or_default();
                if slot.is_leaf {
                    let leaf = match LeafNode::decode(&bytes) {
                        Ok(leaf) => leaf,
                        // Torn or larger than the hint: re-read it alone,
                        // and skip it if it never settles.
                        Err(_) => match self.read_leaf(slot.addr, hint) {
                            Ok(leaf) => leaf,
                            Err(SphinxError::RetriesExhausted { .. }) => continue,
                            Err(e) => return Err(e),
                        },
                    };
                    if !leaf.key.starts_with(entry) {
                        return Ok(false);
                    }
                    if leaf.status != NodeStatus::Invalid && range.contains(&leaf.key) {
                        opened.push(Item::Ready(leaf.key, leaf.value));
                    }
                } else if let Some(frame) = self.open_inner(slot, pos, &bytes, range)? {
                    opened.push(Item::Frame(frame));
                }
            }
            stack.extend(opened.into_iter().rev());
        }
    }

    /// Turns a fetched inner node into a frame: follows its replacement if
    /// a type switch retired it, and places a boundary node by its exact
    /// prefix (`None` when it holds no in-range key).
    fn open_inner(
        &mut self,
        slot: Slot,
        pos: Pos,
        bytes: &[u8],
        range: Range<'_>,
    ) -> Result<Option<Frame>, SphinxError> {
        let node = match InnerNode::decode(bytes) {
            // Live: not retired by a type switch.
            Ok(n) if n.header.status != NodeStatus::Invalid && n.header.kind == slot.child_kind => {
                n
            }
            stale => match self.follow(stale.ok())? {
                Some(node) => node,
                None => return Ok(None),
            },
        };
        let pos = match pos {
            Pos::Inside => Pos::Inside,
            // Unresolvable in a transient state: walk the subtree unpruned;
            // leaves are still filtered by range.
            Pos::Edge(known) => match self.exact_prefix(&node, known)? {
                Some(prefix) => match range.place(&prefix) {
                    Some(pos) => pos,
                    None => return Ok(None),
                },
                None => Pos::Inside,
            },
        };
        Ok(Some(Frame { node, pos, next: 0 }))
    }

    /// The full prefix of a boundary node whose known bytes are `known`;
    /// compressed bytes past `known` are read off one of its leaves.
    fn exact_prefix(
        &mut self,
        node: &InnerNode,
        known: Vec<u8>,
    ) -> Result<Option<Vec<u8>>, SphinxError> {
        let plen = node.header.prefix_len as usize;
        if plen <= known.len() {
            return Ok((plen == known.len()).then_some(known));
        }
        Ok(self
            .sample_leaf(node)?
            .filter(|leaf| leaf.key.len() >= plen && leaf.key.starts_with(&known))
            .map(|leaf| leaf.key[..plen].to_vec()))
    }

    /// Finds the node that replaced `stale`, an inner node retired by a
    /// type switch (its region stays intact while this op's epoch pin
    /// holds; `None` if it did not even decode): learn its exact prefix
    /// from one of its leaves, then `locate` that prefix through the SFC
    /// and INHT, whose retries are bounded by the retry policy. A give-up
    /// drops the subtree and counts `scan.follow_giveups`.
    fn follow(&mut self, stale: Option<InnerNode>) -> Result<Option<InnerNode>, SphinxError> {
        self.stats.invalid_node_retries += 1;
        self.obs_retry();
        if let Some(stale) = stale {
            let plen = stale.header.prefix_len as usize;
            if let Some(leaf) = self.sample_leaf(&stale)?.filter(|l| l.key.len() >= plen) {
                let d = self.locate(&leaf.key[..plen])?;
                if d.node.header.prefix_len as usize == plen {
                    return Ok(Some(d.node));
                }
            }
        }
        self.obs.incr("scan.follow_giveups");
        Ok(None)
    }
}

/// A forward cursor over `key ≥ low`, paging through the index with
/// [`SphinxClient::scan_n`]. Created by [`SphinxClient::scan_iter`].
///
/// The cursor borrows the client (each page is a few round trips) and
/// yields owned `(key, value)` pairs in key order. Each page is fetched
/// with one extra entry, and the next page starts at that entry; so a key
/// inserted concurrently, behind the cursor or between its last yielded
/// key and the next page's first key, may be missed, like in any cursor
/// over a live index.
pub struct ScanIter<'a> {
    client: &'a mut SphinxClient,
    /// Inclusive resume point: the next page starts at this key (`None`
    /// once the last page is in).
    resume: Option<Vec<u8>>,
    buffer: std::vec::IntoIter<(Vec<u8>, Vec<u8>)>,
    page_size: usize,
    /// Deferred error (surfaced as the final item).
    error: Option<SphinxError>,
}

impl ScanIter<'_> {
    /// Overrides the page size (entries fetched per round-trip group).
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size.max(1);
        self
    }

    fn refill(&mut self) {
        let Some(low) = self.resume.take() else {
            return;
        };
        // Fetch one extra so an exactly-full page distinguishes "more
        // remains" from "exhausted"; the extra opens the next page.
        match self.client.scan_n(&low, self.page_size.saturating_add(1)) {
            Ok(mut page) => {
                if page.len() > self.page_size {
                    self.resume = page.pop().map(|(k, _)| k);
                }
                self.buffer = page.into_iter();
            }
            Err(e) => self.error = Some(e),
        }
    }
}

impl Iterator for ScanIter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>), SphinxError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(kv) = self.buffer.next() {
                return Some(Ok(kv));
            }
            if let Some(e) = self.error.take() {
                return Some(Err(e));
            }
            self.resume.as_ref()?;
            self.refill();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SphinxConfig, SphinxIndex};
    use dm_sim::{ClusterConfig, DmCluster};

    fn setup(prefix: &str, n: u64) -> crate::SphinxClient {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        for i in 0..n {
            client
                .insert(format!("{prefix}-{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        client
    }

    fn keys(rows: &Rows) -> Vec<Vec<u8>> {
        rows.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn intersect_logic() {
        let r = |low: &'static [u8], high: &'static [u8]| Range {
            low,
            high: Some(high),
        };
        assert_eq!(r(b"a", b"c").place(b"b"), Some(Pos::Inside));
        assert_eq!(r(b"ab", b"c").place(b"a"), Some(Pos::Edge(b"a".to_vec())));
        assert_eq!(r(b"a", b"c").place(b"d"), None); // above range
        assert_eq!(r(b"b", b"c").place(b"a"), None); // below, not a prefix of low
        assert_eq!(r(b"a", b"cd").place(b"c"), Some(Pos::Edge(b"c".to_vec())));
        assert!(r(b"x", b"y").place(b"").is_some()); // root always viable
        let open = Range {
            low: b"ab",
            high: None,
        };
        assert_eq!(open.place(b"ab"), Some(Pos::Inside));
        assert_eq!(open.place(b"b"), Some(Pos::Inside));
    }

    #[test]
    fn successor_carries_over_ff() {
        assert_eq!(successor(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(successor(&[1, 0xFF, 0xFF]), Some(vec![2]));
        assert_eq!(successor(&[0xFF, 0xFF]), None);
        assert_eq!(successor(b""), None);
    }

    #[test]
    fn scan_n_returns_sorted_window() {
        let mut client = setup("scan", 300);
        let hits = client.scan_n(b"scan-00100", 25).unwrap();
        assert_eq!(hits.len(), 25);
        for (i, (k, _)) in hits.iter().enumerate() {
            assert_eq!(k, format!("scan-{:05}", 100 + i).as_bytes(), "position {i}");
        }
    }

    #[test]
    fn scan_n_from_between_keys_and_past_end() {
        let mut client = setup("scan", 50);
        // Start key absent: the next larger key opens the window.
        let hits = client.scan_n(b"scan-00010x", 3).unwrap();
        assert_eq!(hits[0].0, b"scan-00011".to_vec());
        // Window larger than the remaining tail.
        let tail = client.scan_n(b"scan-00048", 10).unwrap();
        assert_eq!(tail.len(), 2);
        // Start past everything.
        assert!(client.scan_n(b"zzz", 5).unwrap().is_empty());
        // Zero limit.
        assert!(client.scan_n(b"", 0).unwrap().is_empty());
    }

    #[test]
    fn scan_n_skips_deleted() {
        let mut client = setup("scan", 20);
        client.remove(b"scan-00005").unwrap();
        let hits = client.scan_n(b"scan-00004", 3).unwrap();
        let want: Vec<&[u8]> = vec![b"scan-00004", b"scan-00006", b"scan-00007"];
        assert_eq!(keys(&hits), want);
    }

    #[test]
    fn scan_n_agrees_with_range_scan() {
        let mut client = setup("scan", 400);
        let want = client.scan(b"scan-00150", b"scan-00169").unwrap();
        let got = client.scan_n(b"scan-00150", 20).unwrap();
        assert_eq!(got, want);
    }

    /// Entering at `low`'s deepest node and climbing keeps the cost of a
    /// window proportional to its rows, not to the tree: 100-row windows
    /// over 20k hashed u64 keys average at most 25 round trips.
    #[test]
    fn scan_n_cost_tracks_result_size_not_tree_size() {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        let key = |i: u64| ycsb::KeySpace::U64.key(i);
        for i in 0..20_000 {
            client.insert(&key(i), &i.to_le_bytes()).unwrap();
        }
        let starts = 50;
        let before = client.net_stats().round_trips;
        for s in 0..starts {
            let hits = client.scan_n(&key(s * 397), 100).unwrap();
            assert_eq!(hits.len(), 100, "start {s}");
        }
        let avg = (client.net_stats().round_trips - before) as f64 / starts as f64;
        assert!(avg <= 25.0, "100-row scan_n averaged {avg:.1} round trips");
    }

    /// A walk that starts from a parent snapshot taken before its Node4
    /// child grew reads the retired child, follows it to the Node16
    /// replacement, and loses no key — also when the parent itself was
    /// replaced first.
    #[test]
    fn walk_follows_type_switched_child() {
        for parent_grows_first in [false, true] {
            let mut client = setup("k", 0);
            for k in ["k/a0", "k/a1", "k/a2", "k/a3", "k/b0", "k/b1"] {
                client.insert(k.as_bytes(), b"v").unwrap();
            }
            let (y_ptr, y_stale, e) = client.entry_node(b"k/", 2).unwrap();
            assert_eq!(e, 2, "the node for `k/` is published");
            let (_, x_slot) = y_stale.find_child(b'a').unwrap();
            assert!(!x_slot.is_leaf && x_slot.child_kind == NodeKind::Node4);
            if parent_grows_first {
                // New children of the parent, absent from its snapshot;
                // the fifth grows it.
                for k in ["k/c0", "k/c1", "k/d0", "k/e0"] {
                    client.insert(k.as_bytes(), b"v").unwrap();
                }
                assert_ne!(client.entry_node(b"k/", 2).unwrap().0, y_ptr);
            }
            client.insert(b"k/a4", b"v").unwrap(); // grows the full Node4
            let x_old = InnerNode::decode(&client.dm.read(x_slot.addr, 56).unwrap()).unwrap();
            assert_eq!(x_old.header.status, NodeStatus::Invalid, "retired");

            let range = Range {
                low: b"k/",
                high: None,
            };
            let mut out = Vec::new();
            assert!(client
                .walk_subtree(y_stale, e, range, usize::MAX, &mut out)
                .unwrap());
            let want = ["k/a0", "k/a1", "k/a2", "k/a3", "k/a4", "k/b0", "k/b1"];
            let want: Vec<Vec<u8>> = want.iter().map(|k| k.as_bytes().to_vec()).collect();
            assert_eq!(keys(&out), want, "parent grew first: {parent_grows_first}");
        }
    }

    #[test]
    fn streams_everything_in_order() {
        let mut client = setup("cur", 500);
        let keys: Vec<Vec<u8>> = client
            .scan_iter(b"")
            .with_page_size(37) // force several pages with awkward sizing
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(keys.len(), 500);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(k, format!("cur-{i:05}").as_bytes());
        }
    }

    #[test]
    fn starts_mid_range_and_respects_take() {
        let mut client = setup("cur", 100);
        let first: Vec<Vec<u8>> = client
            .scan_iter(b"cur-00042")
            .take(5)
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(first[0], b"cur-00042".to_vec());
        assert_eq!(first[4], b"cur-00046".to_vec());
    }

    #[test]
    fn empty_index_yields_nothing() {
        let mut client = setup("cur", 0);
        assert_eq!(client.scan_iter(b"").count(), 0);
    }

    #[test]
    fn page_boundary_exactly_at_end() {
        let mut client = setup("cur", 64); // equals the default page size
        let n = client
            .scan_iter(b"")
            .inspect(|r| assert!(r.is_ok()))
            .count();
        assert_eq!(n, 64);
        assert_eq!(client.op_stats().scans, 1, "the extra entry proves the end");
    }
}
