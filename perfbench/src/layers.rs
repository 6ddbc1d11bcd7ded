//! Per-layer metrics of a traced repetition.
//!
//! Counters come from the index's public getters as deltas over the
//! window; host times come from the benchmark's own spans around each
//! public call, and from short timed loops over single layers after the
//! window (verbs, filter probe and rebuild, INHT hashing, node codecs,
//! reclamation scan). Nothing here adds a span or a counter inside the
//! program.

use std::hint::black_box;
use std::time::Instant;

use art_core::hash::{fp12, prefix_hash42};
use art_core::layout::{InnerNode, LeafNode, Slot};
use art_core::NodeKind;
use dm_sim::RemotePtr;
use sphinx::obs::{critical_path, OpKind, Phase};
use sphinx::sfc::FilterCache;

use crate::inputs::{cache_bytes, Inputs, Op};
use crate::measure::{median, Detail, Rep};
use crate::report::Metrics;
use crate::sim::CALLS;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median over 5 passes of `f`'s host time per item, in ns. `f` runs one
/// pass and returns how many items it processed.
fn per_item_ns(mut f: impl FnMut() -> usize) -> f64 {
    median(
        (0..5)
            .map(|_| {
                let t = Instant::now();
                let n = f();
                t.elapsed().as_nanos() as f64 / n.max(1) as f64
            })
            .collect(),
    )
}

/// Every prefix of the window's first distinct keys: what the filter
/// probe and INHT hashing see.
fn prefixes(inputs: &Inputs) -> Vec<&[u8]> {
    let mut items: Vec<u32> = inputs
        .window
        .iter()
        .flatten()
        .map(|op| match *op {
            Op::Read(i) | Op::Insert(i) | Op::Update { item: i, .. } | Op::Scan { item: i, .. } => {
                i
            }
        })
        .take(4_000)
        .collect();
    items.sort_unstable();
    items.dedup();
    items
        .iter()
        .flat_map(|&i| {
            let k = inputs.keys[i as usize].as_slice();
            (1..=k.len()).map(move |l| &k[..l])
        })
        .collect()
}

/// Window counters, per op where a count scales with the work.
pub fn counters(rep: &Rep, detail: &Detail, m: &mut Metrics) {
    let (b, a) = (&detail.before, &detail.after);
    let ops = rep.modeled.ops as f64;
    let d = |name: &str| a.reg.counter(name).saturating_sub(b.reg.counter(name)) as f64;
    let per_op = |name: &str| ratio(d(name), ops);

    // core
    let retries =
        d("sphinx.fp_retries") + d("sphinx.invalid_node_retries") + d("sphinx.checksum_retries");
    m.add("core.retries_per_op", ratio(retries, ops), "count");
    m.add(
        "core.filter_refreshes_per_op",
        per_op("sphinx.filter_refreshes"),
        "count",
    );
    m.add(
        "core.entry_misses_per_op",
        per_op("sphinx.entry_misses"),
        "count",
    );
    m.add(
        "core.extended_leaf_reads_per_op",
        per_op("sphinx.extended_leaf_reads"),
        "count",
    );
    // The registry books every round trip of a pipelined get under the
    // multi-get span's `Other` phase; the pipeline's per-tag counters
    // attribute them, so they replace that one cell.
    for p in Phase::ALL {
        let mut rts = 0.0;
        for kind in OpKind::ALL {
            if kind == OpKind::MultiGet && p == Phase::Other {
                continue;
            }
            let (pa, pb) = (a.reg.phase(kind, p), b.reg.phase(kind, p));
            rts += (pa.round_trips - pb.round_trips) as f64;
        }
        rts += d(&format!("pipeline.rts.{}", p.name()));
        m.add(
            &format!("core.phase.{}.rts_per_op", p.name()),
            ratio(rts, ops),
            "count",
        );
    }
    let spans = detail.log.spans.as_deref().unwrap_or_default();
    let host: u64 = spans.iter().map(|s| s.host_end_ns - s.host_start_ns).sum();
    m.add("core.host_ns_per_op", ratio(host as f64, ops), "ns");

    // node-engine
    let (mg_a, mg_b) = (
        a.reg.phase(OpKind::MultiGet, Phase::Other),
        b.reg.phase(OpKind::MultiGet, Phase::Other),
    );
    m.add(
        "pipeline.fusion_ratio",
        ratio(
            (mg_a.round_trips - mg_b.round_trips) as f64,
            (mg_a.doorbells - mg_b.doorbells) as f64,
        ),
        "count",
    );
    m.add(
        "pipeline.fused_batches_per_flush",
        ratio(d("pipeline.fused_batches"), d("pipeline.flushes")),
        "count",
    );
    m.add("pipeline.stalls_per_op", per_op("pipeline.stalls"), "count");
    m.add(
        "pipeline.fallbacks_per_op",
        per_op("pipeline.fallbacks"),
        "count",
    );

    // dm-sim
    let net = a.net.since(&b.net);
    m.add("dm.rts_per_op", ratio(net.round_trips as f64, ops), "count");
    m.add(
        "dm.doorbells_per_op",
        ratio(net.doorbells as f64, ops),
        "count",
    );
    m.add("dm.reads_per_op", ratio(net.reads as f64, ops), "count");
    m.add("dm.writes_per_op", ratio(net.writes as f64, ops), "count");
    m.add(
        "dm.atomics_per_op",
        ratio((net.cas + net.faa) as f64, ops),
        "count",
    );
    m.add(
        "dm.read_bytes_per_op",
        ratio(net.bytes_read as f64, ops),
        "B",
    );
    m.add(
        "dm.write_bytes_per_op",
        ratio(net.bytes_written as f64, ops),
        "B",
    );
    let cl = a.cluster.since(&b.cluster);
    let queue: u64 = cl.mns.iter().map(|s| s.queue_ns).sum();
    let service: u64 = cl.mns.iter().map(|s| s.service_ns).sum();
    m.add("dm.mn_queue_ns_per_op", ratio(queue as f64, ops), "ns");
    m.add("dm.mn_service_ns_per_op", ratio(service as f64, ops), "ns");
    let verbs: Vec<f64> = cl.mns.iter().map(|s| s.verbs() as f64).collect();
    let mean = verbs.iter().sum::<f64>() / verbs.len() as f64;
    m.add(
        "dm.mn_imbalance",
        ratio(verbs.iter().copied().fold(0.0, f64::max), mean),
        "ratio",
    );

    // sfc
    // First-try hits against first-try hits plus every failed entry
    // fetch: a write may locate its entry node more than once per op.
    let first_hits = d("sphinx.filter_first_hits");
    m.add(
        "sfc.first_probe_hit_rate",
        ratio(first_hits, first_hits + d("sphinx.entry_misses")),
        "ratio",
    );
    let (sa, sb) = (&a.sfc, &b.sfc);
    m.add(
        "sfc.false_positives_per_op",
        ratio((sa.false_positives - sb.false_positives) as f64, ops),
        "count",
    );
    m.add("sfc.bits_per_entry", sa.frozen_bits_per_entry(), "bit");
    // Resident probe bytes against the CN cache budget. Clients are dealt
    // to CNs round-robin, so clients 0..CNS cover every CN's filter once.
    let cns = crate::inputs::CNS as usize;
    let resident: usize = detail.sim.clients[..cns]
        .iter()
        .map(|c| c.filter_handle().memory_bytes())
        .sum();
    m.add(
        "sfc.occupancy",
        ratio(resident as f64, (cache_bytes() * cns) as f64),
        "ratio",
    );
    m.add("sfc.rebuilds", (sa.rebuilds - sb.rebuilds) as f64, "count");

    // race-hash (INHT)
    // Verbs of the INHT-lookup phase: bucket reads plus the candidate
    // inner-node reads that validate them, blocking and pipelined.
    let inht_verbs = |s: &crate::measure::Snap| {
        let blocking: u64 = OpKind::ALL
            .iter()
            .map(|&k| s.reg.phase(k, Phase::InhtLookup).verbs)
            .sum();
        let pipelined = s
            .reg
            .pipeline
            .by_tag
            .get(Phase::InhtLookup.name())
            .map_or(0, |t| t.verbs);
        blocking + pipelined
    };
    m.add(
        "inht.reads_per_op",
        ratio((inht_verbs(a) - inht_verbs(b)) as f64, ops),
        "count",
    );
    m.add(
        "inht.stale_retries_per_op",
        per_op("inht.stale_retries"),
        "count",
    );
    m.add("inht.cas_races", d("inht.cas_races"), "count");
    m.add("inht.splits", d("inht.splits"), "count");

    // reclaim
    m.add(
        "reclaim.retired_bytes_per_op",
        per_op("reclaim.retired_bytes"),
        "B",
    );
    m.add(
        "reclaim.freed_bytes_per_op",
        per_op("reclaim.freed_bytes"),
        "B",
    );
    m.add(
        "reclaim.limbo_bytes",
        a.reg.counter("reclaim.limbo_bytes") as f64,
        "B",
    );
}

/// Host time of each public call class, from the window's spans: ns per
/// key for pipelined gets, per call otherwise. Only classes the mix has.
pub fn call_host_ns(detail: &Detail, m: &mut Metrics) {
    let spans = detail.log.spans.as_deref().unwrap_or_default();
    for (i, name) in CALLS.iter().enumerate() {
        let (mut ns, mut n) = (0u64, 0u64);
        for s in spans.iter().filter(|s| s.call as usize == i) {
            ns += s.host_end_ns - s.host_start_ns;
            n += u64::from(s.keys);
        }
        if n > 0 {
            m.add(&format!("core.{name}.host_ns"), ns as f64 / n as f64, "ns");
        }
    }
}

/// Mean critical-path split of the traced gets (the tracer follows gets
/// only), ns per traced get.
pub fn critical_paths(detail: &mut Detail, m: &mut Metrics) {
    let mut sums = [0u64; 5];
    let mut n = 0u64;
    for c in &mut detail.sim.clients {
        for t in c.take_traces() {
            if t.kind != OpKind::Get || !t.complete {
                continue;
            }
            let cp = critical_path(&t);
            for (s, v) in sums.iter_mut().zip([
                cp.queue_ns,
                cp.fusion_ns,
                cp.service_ns,
                cp.stall_ns,
                cp.compute_ns,
            ]) {
                *s += v;
            }
            n += 1;
        }
    }
    if n > 0 {
        m.add("cp.traced_gets", n as f64, "count");
        for (name, s) in ["queue", "fusion", "service", "stall", "compute"]
            .iter()
            .zip(sums)
        {
            m.add(&format!("cp.{name}_ns"), s as f64 / n as f64, "ns");
        }
    }
}

/// Timed loops over single layers, run on the index after the window.
pub fn microbenches(detail: &mut Detail, inputs: &Inputs, m: &mut Metrics) {
    const VERBS: usize = 4_000;
    let mut dm = detail.sim.cluster.client(0);
    let ptr: RemotePtr = dm.alloc(0, 64).expect("scratch allocation on MN 0");
    let buf = [7u8; 64];
    m.add(
        "dm.verb.read.host_ns",
        per_item_ns(|| {
            for _ in 0..VERBS {
                black_box(dm.read(ptr, 64).expect("scratch read"));
            }
            VERBS
        }),
        "ns",
    );
    m.add(
        "dm.verb.write.host_ns",
        per_item_ns(|| {
            for _ in 0..VERBS {
                dm.write(ptr, &buf).expect("scratch write");
            }
            VERBS
        }),
        "ns",
    );
    m.add(
        "dm.verb.cas.host_ns",
        per_item_ns(|| {
            for i in 0..VERBS as u64 {
                black_box(dm.cas(ptr, i, i + 1).expect("scratch cas"));
            }
            VERBS
        }),
        "ns",
    );

    let prefixes = prefixes(inputs);
    let filter = detail.sim.clients[0].filter_handle().clone();
    m.add(
        "sfc.probe.host_ns",
        per_item_ns(|| {
            for p in &prefixes {
                black_box(filter.contains_quiet(black_box(p)));
            }
            prefixes.len()
        }),
        "ns",
    );
    // A rebuild of CN 0's filter as it stands, plus a delta of fresh
    // prefixes to fold in: restored from a snapshot each time.
    let snapshot = filter.snapshot();
    let cfg = detail.sim.index.config().sfc;
    m.add(
        "sfc.rebuild.host_ms",
        median(
            (0..3)
                .map(|i| {
                    let f = FilterCache::new(cache_bytes(), cfg, i);
                    f.load_snapshot(&snapshot).expect("own snapshot loads");
                    for p in prefixes.iter().step_by(7) {
                        f.insert(p);
                    }
                    let t = Instant::now();
                    f.force_rebuild();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect(),
        ),
        "ms",
    );
    m.add(
        "inht.hash.host_ns",
        per_item_ns(|| {
            for p in &prefixes {
                black_box(prefix_hash42(black_box(p)) ^ u64::from(fp12(p)));
            }
            prefixes.len()
        }),
        "ns",
    );

    // One node of each kind, half full, and a leaf of a workload key.
    let key = inputs.keys[0].clone();
    let inner: Vec<Vec<u8>> = [
        NodeKind::Node4,
        NodeKind::Node16,
        NodeKind::Node48,
        NodeKind::Node256,
    ]
    .into_iter()
    .map(|kind| {
        let mut node = InnerNode::new(kind, &key[..key.len() / 2]);
        for b in 0..kind.capacity() / 2 {
            node.set_child(Slot::leaf(
                (b * 2) as u8,
                RemotePtr::new(1, 64 * b as u64 + 64),
            ));
        }
        node.encode()
    })
    .collect();
    m.add(
        "codec.inner_decode.host_ns",
        per_item_ns(|| {
            for _ in 0..2_000 {
                for bytes in &inner {
                    black_box(InnerNode::decode(black_box(bytes)).expect("own encoding decodes"));
                }
            }
            2_000 * inner.len()
        }),
        "ns",
    );
    let leaf = LeafNode::new(key, inputs.initial[0].to_vec()).encode();
    m.add(
        "codec.leaf_decode.host_ns",
        per_item_ns(|| {
            for _ in 0..8_000 {
                black_box(LeafNode::decode(black_box(&leaf)).expect("own encoding decodes"));
            }
            8_000
        }),
        "ns",
    );

    m.add(
        "reclaim.scan.host_ns",
        per_item_ns(|| {
            for c in &mut detail.sim.clients {
                c.reclaim_scan();
            }
            detail.sim.clients.len()
        }),
        "ns",
    );
}
