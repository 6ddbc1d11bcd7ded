//! The client-side table handle and the one-sided protocol.

use std::error::Error;
use std::fmt;

use dm_sim::{DmClient, DmError, DoorbellBatch, RemotePtr, RetryPolicy, Transport, Verb};

use crate::layout::{
    bucket_offset, pair_index, BucketHeader, DirEntry, TableConfig, BUCKETS_PER_SEGMENT,
    BUCKET_BYTES, DIR_OFFSET, ENTRIES_PER_BUCKET, META_LOCK_OFFSET, META_VERSION_OFFSET,
    SEGMENT_BYTES,
};

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RaceError {
    /// Substrate error.
    Dm(DmError),
    /// A segment reached the maximum directory depth and cannot split.
    TableFull {
        /// The depth at which growth stopped.
        depth: u8,
    },
    /// The retry budget was exhausted (should not happen absent bugs).
    RetriesExhausted {
        /// Which operation gave up.
        op: &'static str,
    },
    /// An on-MN structure failed validation.
    Corrupt {
        /// What failed.
        what: &'static str,
    },
}

impl fmt::Display for RaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceError::Dm(e) => write!(f, "substrate error: {e}"),
            RaceError::TableFull { depth } => {
                write!(f, "table cannot grow beyond depth {depth}")
            }
            RaceError::RetriesExhausted { op } => write!(f, "{op} exhausted its retry budget"),
            RaceError::Corrupt { what } => write!(f, "corrupt table structure: {what}"),
        }
    }
}

impl Error for RaceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RaceError::Dm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DmError> for RaceError {
    fn from(e: DmError) -> Self {
        RaceError::Dm(e)
    }
}

/// Structural statistics from [`RaceTable::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableStats {
    /// Live (non-zero) entry words.
    pub entries: usize,
    /// Distinct segments reachable from the directory.
    pub segments: usize,
    /// Current global depth.
    pub global_depth: u8,
    /// Entries divided by total slot capacity.
    pub load_factor: f64,
}

/// Per-handle operation counters: how often this client's directory cache
/// went stale, how often entry CASes lost races, and how many segment
/// splits it performed. Plain counters (no I/O) — read them with
/// [`RaceTable::counters`] and feed them into telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceCounters {
    /// `search` calls issued.
    pub searches: u64,
    /// Bucket reads whose suffix check failed (stale directory cache),
    /// forcing a refresh + retry.
    pub stale_retries: u64,
    /// Entry CASes lost to a concurrent writer.
    pub cas_races: u64,
    /// Segment splits performed by this handle.
    pub splits: u64,
    /// Directory refreshes (open, stale recovery, and split bookkeeping).
    pub refreshes: u64,
}

/// An entry found by [`RaceTable::search`]: the word plus the address of
/// the slot holding it (for subsequent CAS replace/delete).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoundEntry {
    /// The entry word.
    pub word: u64,
    /// Remote address of the 8-byte slot.
    pub slot: RemotePtr,
}

/// A snapshot of one bucket pair.
struct PairView {
    base: RemotePtr,
    header: BucketHeader,
    /// 16 words: two buckets of (header + 7 entries).
    words: [u64; 16],
}

impl PairView {
    fn parse(base: RemotePtr, bytes: &[u8]) -> PairView {
        let mut words = [0u64; 16];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        PairView {
            base,
            header: BucketHeader::decode(words[0]),
            words,
        }
    }

    /// Slot indexes (into `words`) that hold entries, skipping headers.
    fn entry_indexes() -> impl Iterator<Item = usize> {
        (1..=ENTRIES_PER_BUCKET).chain(9..9 + ENTRIES_PER_BUCKET)
    }

    fn slot_ptr(&self, idx: usize) -> RemotePtr {
        self.base
            .checked_add(8 * idx as u64)
            .expect("slot in range")
    }

    fn find_word(&self, word: u64) -> Option<usize> {
        Self::entry_indexes().find(|&i| self.words[i] == word)
    }

    fn first_empty(&self) -> Option<usize> {
        Self::entry_indexes().find(|&i| self.words[i] == 0)
    }

    fn entries(&self) -> Vec<FoundEntry> {
        Self::entry_indexes()
            .filter(|&i| self.words[i] != 0)
            .map(|i| FoundEntry {
                word: self.words[i],
                slot: self.slot_ptr(i),
            })
            .collect()
    }
}

/// A per-client handle onto a RACE table living on one memory node.
///
/// The handle carries the client's **directory cache**; create one handle
/// per worker from the shared meta pointer with [`RaceTable::open`].
#[derive(Debug, Clone)]
pub struct RaceTable {
    meta: RemotePtr,
    max_depth: u8,
    global_depth: u8,
    /// Cached directory words (2^global_depth of them).
    dir: Vec<u64>,
    /// Shared bounded-retry budget (see [`dm_sim::RetryPolicy`]). The
    /// table previously capped retries at 100_000; it now shares the
    /// workspace-wide `op_retries` budget.
    retry: RetryPolicy,
    counters: RaceCounters,
}

impl RaceTable {
    /// Creates a new table on memory node `mn_id` and returns its meta
    /// pointer (share it with other clients, who call [`RaceTable::open`]).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures from the substrate.
    pub fn create(
        client: &mut DmClient,
        mn_id: u16,
        config: &TableConfig,
    ) -> Result<RemotePtr, RaceError> {
        assert!(
            config.max_depth <= 16,
            "max_depth must be <= 16 (directory bits)"
        );
        assert!(config.initial_depth <= config.max_depth);
        let meta = client.alloc(mn_id, config.meta_bytes())?;
        let word0 = config.initial_depth as u64 | ((config.max_depth as u64) << 8);
        client.write_u64(meta, word0)?;
        for suffix in 0..(1u64 << config.initial_depth) {
            let seg = alloc_segment(client, mn_id, config.initial_depth, suffix)?;
            let entry = DirEntry {
                segment: seg,
                local_depth: config.initial_depth,
            };
            client.write_u64(meta.checked_add(DIR_OFFSET + 8 * suffix)?, entry.encode())?;
        }
        Ok(meta)
    }

    /// Opens an existing table, fetching the directory into the handle's
    /// cache.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn open(client: &mut DmClient, meta: RemotePtr) -> Result<Self, RaceError> {
        let mut table = RaceTable {
            meta,
            max_depth: 0,
            global_depth: 0,
            dir: Vec::new(),
            retry: RetryPolicy::default(),
            counters: RaceCounters::default(),
        };
        table.refresh(client)?;
        Ok(table)
    }

    /// The meta pointer this handle is attached to.
    pub fn meta_ptr(&self) -> RemotePtr {
        self.meta
    }

    /// Current cached global depth.
    pub fn global_depth(&self) -> u8 {
        self.global_depth
    }

    /// This handle's cumulative operation counters.
    pub fn counters(&self) -> RaceCounters {
        self.counters
    }

    /// Size of the client-side directory cache in bytes (the paper's
    /// "local directory cache, typically 2–5% of the succinct filter
    /// cache size").
    pub fn dir_cache_bytes(&self) -> usize {
        self.dir.len() * 8
    }

    /// Re-fetches the directory cache from the memory node.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn refresh(&mut self, client: &mut DmClient) -> Result<(), RaceError> {
        self.counters.refreshes += 1;
        for _ in 0..self.retry.op_retries {
            let w0 = client.read_u64(self.meta)?;
            let gd = (w0 & 0xFF) as u8;
            let maxd = ((w0 >> 8) & 0xFF) as u8;
            let bytes = client.read(self.meta.checked_add(DIR_OFFSET)?, 8 << gd)?;
            // The directory may have doubled between the two reads; loop
            // until we observe a stable depth.
            let w0_after = client.read_u64(self.meta)?;
            if (w0_after & 0xFF) as u8 != gd {
                continue;
            }
            self.global_depth = gd;
            self.max_depth = maxd;
            self.dir = bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            return Ok(());
        }
        Err(RaceError::RetriesExhausted { op: "refresh" })
    }

    fn locate(&self, hash: u64) -> Result<DirEntry, RaceError> {
        let idx = (hash & ((1u64 << self.global_depth) - 1)) as usize;
        DirEntry::decode(self.dir[idx]).ok_or(RaceError::Corrupt {
            what: "empty directory slot",
        })
    }

    /// Remote address of the bucket pair `hash` maps to, per the cached
    /// directory. Lets callers batch many pair reads into one doorbell
    /// round trip (Sphinx's "parallel hash reads", §III-A); validate each
    /// result with [`RaceTable::parse_pair`].
    ///
    /// # Errors
    ///
    /// [`RaceError::Corrupt`] on an empty directory slot.
    pub fn bucket_pair_ptr(&self, hash: u64) -> Result<RemotePtr, RaceError> {
        let de = self.locate(hash)?;
        let pair = pair_index(hash);
        Ok(de.segment.checked_add(bucket_offset(pair * 2))?)
    }

    /// Bytes of one bucket pair (what to read at
    /// [`RaceTable::bucket_pair_ptr`]).
    pub fn pair_len() -> usize {
        2 * BUCKET_BYTES as usize
    }

    /// Parses bytes read from [`RaceTable::bucket_pair_ptr`]. Returns
    /// `None` when the suffix check fails (stale directory cache: call
    /// [`RaceTable::refresh`] and retry).
    pub fn parse_pair(base: RemotePtr, bytes: &[u8], hash: u64) -> Option<Vec<FoundEntry>> {
        let pv = PairView::parse(base, bytes);
        pv.header.matches(hash).then(|| pv.entries())
    }

    fn read_pair(&self, client: &mut DmClient, hash: u64) -> Result<PairView, RaceError> {
        let de = self.locate(hash)?;
        let pair = pair_index(hash);
        let base = de.segment.checked_add(bucket_offset(pair * 2))?;
        let bytes = client.read(base, 2 * BUCKET_BYTES as usize)?;
        Ok(PairView::parse(base, &bytes))
    }

    /// Looks up all entries stored under `hash`'s bucket pair.
    ///
    /// Completes in **one round trip** when the directory cache is fresh.
    /// The caller filters the returned words (e.g. by fingerprint).
    ///
    /// # Errors
    ///
    /// [`RaceError::RetriesExhausted`] if the suffix check keeps failing.
    pub fn search(
        &mut self,
        client: &mut DmClient,
        hash: u64,
    ) -> Result<Vec<FoundEntry>, RaceError> {
        self.counters.searches += 1;
        for _ in 0..self.retry.op_retries {
            let pv = self.read_pair(client, hash)?;
            if pv.header.matches(hash) {
                return Ok(pv.entries());
            }
            self.counters.stale_retries += 1;
            client.backoff(&self.retry);
            self.refresh(client)?;
        }
        Err(RaceError::RetriesExhausted { op: "search" })
    }

    /// Inserts `word` under `hash`. Duplicate words are deduplicated.
    ///
    /// `entry_hash` is the **split oracle**: given entry words it must
    /// return, in the same order, values agreeing with the entries' original
    /// key hashes on the low 42 bits (used only when this insert must split
    /// a segment, once for all of the segment's entries; for the Inner Node
    /// Hash Table the oracle reads the referenced nodes' full-prefix hashes
    /// in one doorbell batch).
    ///
    /// # Errors
    ///
    /// [`RaceError::TableFull`] when growth hits `max_depth`.
    ///
    /// # Panics
    ///
    /// Panics if `word` is zero (reserved for empty slots).
    pub fn insert<F>(
        &mut self,
        client: &mut DmClient,
        hash: u64,
        word: u64,
        mut entry_hash: F,
    ) -> Result<(), RaceError>
    where
        F: FnMut(&mut DmClient, &[u64]) -> Result<Vec<u64>, RaceError>,
    {
        assert!(word != 0, "entry word 0 is reserved for empty slots");
        for _ in 0..self.retry.op_retries {
            let pv = self.read_pair(client, hash)?;
            if !pv.header.matches(hash) {
                self.counters.stale_retries += 1;
                client.advance_clock(self.retry.backoff_ns);
                self.refresh(client)?;
                continue;
            }
            if pv.find_word(word).is_some() {
                return Ok(());
            }
            let Some(idx) = pv.first_empty() else {
                self.split(client, hash, &mut entry_hash)?;
                continue;
            };
            let slot = pv.slot_ptr(idx);
            // CAS the entry in and re-read the bucket header in the same
            // doorbell batch: if a split slid under us, the header changed
            // and we may sit in the wrong segment.
            let (prev, hdr_bytes) = client.cas_and_read(slot, 0, word, pv.base, 8)?;
            if prev != 0 {
                self.counters.cas_races += 1;
                continue; // slot raced away; retry
            }
            let hdr_now = BucketHeader::decode(u64::from_le_bytes(
                hdr_bytes.as_slice().try_into().expect("8 bytes"),
            ));
            if hdr_now.matches(hash) {
                return Ok(());
            }
            // A concurrent split moved our key's range: undo and retry.
            // (If the splitter already migrated our word, the undo CAS
            // fails harmlessly and the retry finds the word resident.)
            self.counters.stale_retries += 1;
            client.cas(slot, word, 0)?;
            client.backoff(&self.retry);
            self.refresh(client)?;
        }
        Err(RaceError::RetriesExhausted { op: "insert" })
    }

    /// Removes the entry `word` stored under `hash`.
    ///
    /// Returns whether an entry was removed.
    ///
    /// # Errors
    ///
    /// [`RaceError::RetriesExhausted`] on persistent interference.
    pub fn remove(
        &mut self,
        client: &mut DmClient,
        hash: u64,
        word: u64,
    ) -> Result<bool, RaceError> {
        self.replace_word(client, hash, word, 0, "remove")
    }

    /// Atomically replaces entry `old` with `new` (the hash-entry update
    /// after a node type switch, §IV Insert).
    ///
    /// Returns whether the replacement happened (`false` if `old` is no
    /// longer present).
    ///
    /// # Errors
    ///
    /// [`RaceError::RetriesExhausted`] on persistent interference.
    ///
    /// # Panics
    ///
    /// Panics if `new` is zero (use [`RaceTable::remove`]).
    pub fn replace(
        &mut self,
        client: &mut DmClient,
        hash: u64,
        old: u64,
        new: u64,
    ) -> Result<bool, RaceError> {
        assert!(new != 0, "replacement word 0 is reserved; use remove");
        self.replace_word(client, hash, old, new, "replace")
    }

    fn replace_word(
        &mut self,
        client: &mut DmClient,
        hash: u64,
        old: u64,
        new: u64,
        op: &'static str,
    ) -> Result<bool, RaceError> {
        for _ in 0..self.retry.op_retries {
            let pv = self.read_pair(client, hash)?;
            if !pv.header.matches(hash) {
                self.counters.stale_retries += 1;
                client.advance_clock(self.retry.backoff_ns);
                self.refresh(client)?;
                continue;
            }
            let Some(idx) = pv.find_word(old) else {
                return Ok(false);
            };
            let prev = client.cas(pv.slot_ptr(idx), old, new)?;
            if prev == old {
                return Ok(true);
            }
            // Lost a race (concurrent delete/replace/migration): retry.
            self.counters.cas_races += 1;
            client.backoff(&self.retry);
        }
        Err(RaceError::RetriesExhausted { op })
    }

    /// Splits the segment owning `hash`. Called by `insert` when a bucket
    /// pair is full.
    fn split<F>(
        &mut self,
        client: &mut DmClient,
        hash: u64,
        entry_hash: &mut F,
    ) -> Result<(), RaceError>
    where
        F: FnMut(&mut DmClient, &[u64]) -> Result<Vec<u64>, RaceError>,
    {
        self.counters.splits += 1;
        self.refresh(client)?;
        let de = self.locate(hash)?;
        let seg = de.segment;

        // 1. Segment lock. If somebody else is splitting, wait for them and
        //    let the caller retry.
        let prev = client.cas(seg, 0, 1)?;
        if prev != 0 {
            for _ in 0..self.retry.op_retries {
                client.advance_clock(self.retry.backoff_ns * 10);
                std::thread::yield_now();
                if client.read_u64(seg)? == 0 {
                    return Ok(());
                }
            }
            return Err(RaceError::RetriesExhausted {
                op: "split lock wait",
            });
        }

        let result = self.split_locked(client, seg, hash, entry_hash);
        // 6. Unlock (even on failure paths).
        client.write_u64(seg, 0)?;
        result
    }

    fn split_locked<F>(
        &mut self,
        client: &mut DmClient,
        seg: RemotePtr,
        hash: u64,
        entry_hash: &mut F,
    ) -> Result<(), RaceError>
    where
        F: FnMut(&mut DmClient, &[u64]) -> Result<Vec<u64>, RaceError>,
    {
        // Authoritative depth/suffix from a bucket header.
        let hdr = BucketHeader::decode(client.read_u64(seg.checked_add(bucket_offset(0))?)?);
        if !hdr.matches(hash) {
            // Someone split this range before we took the lock; retry at
            // the caller with a fresh directory.
            return Ok(());
        }
        let d = hdr.local_depth;
        if d >= self.max_depth {
            return Err(RaceError::TableFull { depth: d });
        }
        let old_suffix = hdr.suffix;
        let new_suffix = old_suffix | (1u64 << d);

        // 2. New segment, invisible for now (buckets get their final
        //    headers when the image is written in phase 4).
        let new_seg = client.alloc(seg.mn_id(), SEGMENT_BYTES)?;

        // 3. Phase B: bump every old bucket header to (d+1, old_suffix) in
        //    one doorbell batch. From here on, writers of relocating keys
        //    fail the suffix check and undo themselves.
        let hdr_word = BucketHeader {
            local_depth: d + 1,
            suffix: old_suffix,
        }
        .encode();
        let mut bumps = Vec::with_capacity(BUCKETS_PER_SEGMENT);
        for b in 0..BUCKETS_PER_SEGMENT {
            bumps.push((
                seg.checked_add(bucket_offset(b))?,
                hdr_word.to_le_bytes().to_vec(),
            ));
        }
        client.write_many(bumps)?;

        // 4. Phase C: snapshot the segment, migrate relocating entries into
        //    a local image of the new segment, zeroing them in the old one.
        //    One oracle batch hashes every entry and one doorbell batch
        //    CASes the relocating ones out, so a split costs a few round
        //    trips rather than one or two per entry.
        let snapshot = client.read(seg, SEGMENT_BYTES)?;
        let mut image = vec![0u8; SEGMENT_BYTES];
        let new_hdr = BucketHeader {
            local_depth: d + 1,
            suffix: new_suffix,
        }
        .encode();
        for b in 0..BUCKETS_PER_SEGMENT {
            let off = bucket_offset(b) as usize;
            image[off..off + 8].copy_from_slice(&new_hdr.to_le_bytes());
        }
        let mut slots = Vec::new();
        for b in 0..BUCKETS_PER_SEGMENT {
            for e in 1..=ENTRIES_PER_BUCKET {
                let off = bucket_offset(b) + 8 * e as u64;
                let at = off as usize;
                let word = u64::from_le_bytes(snapshot[at..at + 8].try_into().expect("8 bytes"));
                if word != 0 {
                    slots.push((seg.checked_add(off)?, word));
                }
            }
        }
        let words: Vec<u64> = slots.iter().map(|&(_, w)| w).collect();
        let hashes = if words.is_empty() {
            Vec::new()
        } else {
            entry_hash(client, &words)?
        };
        if hashes.len() != words.len() {
            return Err(RaceError::Corrupt {
                what: "split oracle answered a different number of entries",
            });
        }
        let moving: Vec<(RemotePtr, u64, u64)> = slots
            .iter()
            .zip(hashes)
            .filter(|&(_, h)| h & (1u64 << d) != 0)
            .map(|(&(ptr, word), h)| (ptr, word, h))
            .collect();
        let cases: DoorbellBatch = moving
            .iter()
            .map(|&(ptr, word, _)| Verb::Cas {
                ptr,
                expected: word,
                new: 0,
            })
            .collect();
        let prevs = if cases.is_empty() {
            Vec::new()
        } else {
            client.execute(cases)?
        };
        for (&(ptr, word, h), prev) in moving.iter().zip(prevs) {
            let prev = prev.into_cas();
            if prev == word {
                place_in_image(&mut image, h, word);
            } else {
                // The entry changed under us (racing delete/replace).
                migrate_slot(client, ptr, prev, d, &mut image, entry_hash)?;
            }
        }
        // Write the complete new-segment image in one round trip.
        client.write(new_seg, &image)?;

        // 5. Phase D: publish via the directory, under the meta lock.
        loop {
            if client.cas(self.meta.checked_add(META_LOCK_OFFSET)?, 0, 1)? == 0 {
                break;
            }
            client.advance_clock(self.retry.backoff_ns * 10);
            std::thread::yield_now();
        }
        let w0 = client.read_u64(self.meta)?;
        let mut gd = (w0 & 0xFF) as u8;
        if d + 1 > gd {
            // Directory doubling: mirror the lower half into the upper.
            debug_assert_eq!(d, gd);
            let lower = client.read(self.meta.checked_add(DIR_OFFSET)?, 8 << gd)?;
            client.write(self.meta.checked_add(DIR_OFFSET + (8 << gd))?, &lower)?;
            gd += 1;
            let new_w0 = (gd as u64) | (w0 & !0xFF);
            client.write_u64(self.meta, new_w0)?;
        }
        // Point every directory slot of the two suffixes at the right
        // segment with the new depth, in one batch.
        let old_de = DirEntry {
            segment: seg,
            local_depth: d + 1,
        }
        .encode();
        let new_de = DirEntry {
            segment: new_seg,
            local_depth: d + 1,
        }
        .encode();
        let mut publishes = Vec::new();
        let mask = (1u64 << (d + 1)) - 1;
        for idx in 0..(1u64 << gd) {
            let word = if idx & mask == new_suffix {
                new_de
            } else if idx & mask == old_suffix {
                old_de
            } else {
                continue;
            };
            publishes.push((
                self.meta.checked_add(DIR_OFFSET + 8 * idx)?,
                word.to_le_bytes().to_vec(),
            ));
        }
        client.write_many(publishes)?;
        client.faa(self.meta.checked_add(META_VERSION_OFFSET)?, 1)?;
        client.write_u64(self.meta.checked_add(META_LOCK_OFFSET)?, 0)?;

        self.refresh(client)?;
        Ok(())
    }

    /// Structural statistics: live entries, distinct segments, and load
    /// factor (entries / capacity). One directory refresh plus one read
    /// per distinct segment.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn stats(&mut self, client: &mut DmClient) -> Result<TableStats, RaceError> {
        self.refresh(client)?;
        let mut segs: Vec<RemotePtr> = self
            .dir
            .iter()
            .filter_map(|&w| DirEntry::decode(w))
            .map(|de| de.segment)
            .collect();
        segs.sort_unstable_by_key(|p| p.to_raw());
        segs.dedup();
        let mut entries = 0usize;
        for seg in &segs {
            let bytes = client.read(*seg, SEGMENT_BYTES)?;
            for b in 0..BUCKETS_PER_SEGMENT {
                for e in 1..=ENTRIES_PER_BUCKET {
                    let off = bucket_offset(b) as usize + 8 * e;
                    if u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes")) != 0 {
                        entries += 1;
                    }
                }
            }
        }
        let capacity = segs.len() * BUCKETS_PER_SEGMENT * ENTRIES_PER_BUCKET;
        Ok(TableStats {
            entries,
            segments: segs.len(),
            global_depth: self.global_depth,
            load_factor: entries as f64 / capacity.max(1) as f64,
        })
    }

    /// Total MN-side bytes the table occupies: meta block plus every
    /// distinct segment (for the paper's memory-overhead accounting).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn memory_bytes(&mut self, client: &mut DmClient) -> Result<u64, RaceError> {
        self.refresh(client)?;
        let mut segs: Vec<u64> = self
            .dir
            .iter()
            .filter_map(|&w| DirEntry::decode(w))
            .map(|de| de.segment.to_raw())
            .collect();
        segs.sort_unstable();
        segs.dedup();
        let meta_bytes = dm_sim::size_class(DIR_OFFSET + (8u64 << self.max_depth));
        Ok(meta_bytes + segs.len() as u64 * dm_sim::size_class(SEGMENT_BYTES as u64))
    }
}

/// Places `word` into the local image of a fresh segment (no concurrency:
/// the segment is unpublished).
fn place_in_image(image: &mut [u8], hash: u64, word: u64) {
    let pair = pair_index(hash);
    for b in [pair * 2, pair * 2 + 1] {
        for e in 1..=ENTRIES_PER_BUCKET {
            let off = bucket_offset(b) as usize + 8 * e;
            let cur = u64::from_le_bytes(image[off..off + 8].try_into().expect("8 bytes"));
            if cur == 0 {
                image[off..off + 8].copy_from_slice(&word.to_le_bytes());
                return;
            }
        }
    }
    // Both buckets of the pair full in the fresh segment: can only happen
    // if >14 relocating entries share a pair, which the old segment could
    // not have held either. Treat as corruption in debug builds.
    debug_assert!(false, "bucket pair overflow during split migration");
}

/// Migrates one old-segment slot at `ptr` whose entry changed between
/// the split's snapshot and its migration CAS; `word` is what the slot
/// holds now. Loops while racing deletes/replaces keep changing it.
fn migrate_slot<F>(
    client: &mut DmClient,
    ptr: RemotePtr,
    mut word: u64,
    depth: u8,
    image: &mut [u8],
    entry_hash: &mut F,
) -> Result<(), RaceError>
where
    F: FnMut(&mut DmClient, &[u64]) -> Result<Vec<u64>, RaceError>,
{
    while word != 0 {
        let h = *entry_hash(client, &[word])?
            .first()
            .ok_or(RaceError::Corrupt {
                what: "split oracle answered no entry",
            })?;
        if h & (1u64 << depth) == 0 {
            return Ok(()); // stays in the old segment
        }
        let prev = client.cas(ptr, word, 0)?;
        if prev == word {
            place_in_image(image, h, word);
            return Ok(());
        }
        word = prev;
    }
    Ok(())
}

fn alloc_segment(
    client: &mut DmClient,
    mn_id: u16,
    depth: u8,
    suffix: u64,
) -> Result<RemotePtr, RaceError> {
    let seg = client.alloc(mn_id, SEGMENT_BYTES)?;
    let mut image = vec![0u8; SEGMENT_BYTES];
    let hdr = BucketHeader {
        local_depth: depth,
        suffix,
    }
    .encode();
    for b in 0..BUCKETS_PER_SEGMENT {
        let off = bucket_offset(b) as usize;
        image[off..off + 8].copy_from_slice(&hdr.to_le_bytes());
    }
    client.write(seg, &image)?;
    Ok(seg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::{ClusterConfig, DmCluster};

    fn cluster() -> DmCluster {
        DmCluster::new(ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 64 << 20,
            ..Default::default()
        })
    }

    /// Test oracle: our test entries are `hash | TAG` with TAG above bit 42,
    /// so the low 42 bits of the word *are* the hash.
    const TAG: u64 = 1 << 43;

    fn test_word(hash: u64) -> u64 {
        (hash & ((1 << 42) - 1)) | TAG
    }

    fn oracle(_c: &mut DmClient, words: &[u64]) -> Result<Vec<u64>, RaceError> {
        Ok(words.iter().map(|w| w & ((1 << 42) - 1)).collect())
    }

    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    #[test]
    fn create_open_insert_search() {
        let c = cluster();
        let mut cl = c.client(0);
        let meta = RaceTable::create(&mut cl, 0, &TableConfig::default()).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let h = mix(1);
        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        let found = t.search(&mut cl, h).unwrap();
        assert!(found.iter().any(|e| e.word == test_word(h)));
    }

    #[test]
    fn search_miss_returns_empty_or_unrelated() {
        let c = cluster();
        let mut cl = c.client(0);
        let meta = RaceTable::create(&mut cl, 0, &TableConfig::default()).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let found = t.search(&mut cl, mix(42)).unwrap();
        assert!(found.is_empty());
    }

    #[test]
    fn search_costs_one_round_trip_when_fresh() {
        let c = cluster();
        let mut cl = c.client(0);
        let meta = RaceTable::create(&mut cl, 0, &TableConfig::default()).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let h = mix(7);
        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        let before = cl.stats().round_trips;
        t.search(&mut cl, h).unwrap();
        assert_eq!(cl.stats().round_trips - before, 1);
    }

    #[test]
    fn insert_is_idempotent() {
        let c = cluster();
        let mut cl = c.client(0);
        let meta = RaceTable::create(&mut cl, 0, &TableConfig::default()).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let h = mix(5);
        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        let found = t.search(&mut cl, h).unwrap();
        assert_eq!(found.iter().filter(|e| e.word == test_word(h)).count(), 1);
    }

    #[test]
    fn remove_and_replace() {
        let c = cluster();
        let mut cl = c.client(0);
        let meta = RaceTable::create(&mut cl, 0, &TableConfig::default()).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let h = mix(9);
        let w = test_word(h);
        t.insert(&mut cl, h, w, oracle).unwrap();
        assert!(t.replace(&mut cl, h, w, w | 1 << 50).unwrap());
        assert!(
            !t.replace(&mut cl, h, w, w | 1 << 51).unwrap(),
            "old word gone"
        );
        assert!(t.remove(&mut cl, h, w | 1 << 50).unwrap());
        assert!(!t.remove(&mut cl, h, w | 1 << 50).unwrap());
        assert!(t.search(&mut cl, h).unwrap().is_empty());
    }

    /// A split hashes its segment's entries in one oracle batch and moves
    /// the relocating ones in one CAS doorbell: its round trips do not
    /// grow with the entries it migrates (~24 here; a CAS per relocating
    /// entry took ~140).
    #[test]
    fn split_costs_a_few_round_trips() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 10,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let mut batches = 0;
        let mut splits = 0;
        for i in 0..2000u64 {
            let h = mix(i);
            let before = (t.counters().splits, cl.stats().round_trips);
            t.insert(&mut cl, h, test_word(h), |_c, ws: &[u64]| {
                batches += 1;
                oracle(_c, ws)
            })
            .unwrap();
            let split = t.counters().splits - before.0;
            if split > 0 {
                splits += split;
                let rts = cl.stats().round_trips - before.1;
                assert!(
                    rts <= 32 * split,
                    "insert {i}: {split} split(s) took {rts} round trips"
                );
            }
        }
        assert!(splits >= 4, "only {splits} splits");
        assert_eq!(batches, splits, "one oracle batch per split");
    }

    #[test]
    fn grows_through_many_splits_without_losing_entries() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 10,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let n = 4000u64;
        for i in 0..n {
            let h = mix(i);
            t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        }
        assert!(t.global_depth() > 1, "table must have grown");
        for i in 0..n {
            let h = mix(i);
            let found = t.search(&mut cl, h).unwrap();
            assert!(
                found.iter().any(|e| e.word == test_word(h)),
                "entry {i} lost after splits (gd={})",
                t.global_depth()
            );
        }
    }

    #[test]
    fn stale_handle_recovers_after_peer_growth() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 10,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut writer = RaceTable::open(&mut cl, meta).unwrap();
        let mut reader_cl = c.client(0);
        let mut reader = RaceTable::open(&mut reader_cl, meta).unwrap();
        // Writer grows the table far beyond the reader's cached directory.
        for i in 0..4000u64 {
            let h = mix(i);
            writer.insert(&mut cl, h, test_word(h), oracle).unwrap();
        }
        // Reader still has global_depth 1 cached; every lookup must
        // self-heal via the suffix check.
        assert_eq!(reader.global_depth(), 1);
        for i in (0..4000u64).step_by(97) {
            let h = mix(i);
            let found = reader.search(&mut reader_cl, h).unwrap();
            assert!(
                found.iter().any(|e| e.word == test_word(h)),
                "stale reader lost {i}"
            );
        }
        assert!(reader.global_depth() > 1, "reader should have refreshed");
    }

    #[test]
    fn table_full_surfaces() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 0,
            max_depth: 1,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let mut err = None;
        for i in 0..10_000u64 {
            let h = mix(i);
            if let Err(e) = t.insert(&mut cl, h, test_word(h), oracle) {
                err = Some(e);
                break;
            }
        }
        assert!(
            matches!(err, Some(RaceError::TableFull { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn concurrent_inserts_from_many_clients() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 12,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let threads = 4;
        let per = 800u64;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let c = c.clone();
                s.spawn(move || {
                    let mut cl = c.client(0);
                    let mut t = RaceTable::open(&mut cl, meta).unwrap();
                    for i in 0..per {
                        let h = mix(tid * per + i);
                        t.insert(&mut cl, h, test_word(h), oracle).unwrap();
                    }
                });
            }
        });
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        for i in 0..threads * per {
            let h = mix(i);
            let found = t.search(&mut cl, h).unwrap();
            assert!(found.iter().any(|e| e.word == test_word(h)), "lost {i}");
        }
    }

    #[test]
    fn stats_count_live_entries() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 10,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        for i in 0..500u64 {
            let h = mix(i);
            t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        }
        for i in 0..100u64 {
            let h = mix(i);
            t.remove(&mut cl, h, test_word(h)).unwrap();
        }
        let stats = t.stats(&mut cl).unwrap();
        assert_eq!(stats.entries, 400);
        assert!(stats.segments >= 2);
        assert!(stats.load_factor > 0.0 && stats.load_factor < 1.0);
    }

    #[test]
    fn memory_bytes_grows_with_splits() {
        let c = cluster();
        let mut cl = c.client(0);
        let cfg = TableConfig {
            initial_depth: 1,
            max_depth: 10,
        };
        let meta = RaceTable::create(&mut cl, 0, &cfg).unwrap();
        let mut t = RaceTable::open(&mut cl, meta).unwrap();
        let before = t.memory_bytes(&mut cl).unwrap();
        for i in 0..3000u64 {
            let h = mix(i);
            t.insert(&mut cl, h, test_word(h), oracle).unwrap();
        }
        let after = t.memory_bytes(&mut cl).unwrap();
        assert!(after > before, "{after} <= {before}");
    }
}
