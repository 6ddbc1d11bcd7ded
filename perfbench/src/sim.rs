//! The single-thread scheduler of the simulated clients.
//!
//! One OS thread owns every simulated client. It always steps the client
//! with the smallest virtual clock (ties go to the lower id), one
//! operation or one pipelined read batch per step, so the order in which
//! clients reach the shared NIC and MN models is a function of the inputs
//! alone and modeled results repeat bit for bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use dm_sim::{ClusterConfig, DmCluster, NetConfig};
use sphinx::{CacheMode, SphinxClient, SphinxConfig, SphinxIndex};

use crate::inputs::{cache_bytes, Inputs, Op, Workload, CLIENTS, CNS, DEPTH, MNS, READ_BATCH};
use crate::oracle::Oracle;

/// Operation classes with their own latency percentiles.
pub const CLASSES: [&str; 3] = ["read", "write", "scan"];
const READ: usize = 0;
const WRITE: usize = 1;
const SCAN: usize = 2;

/// Public calls the benchmark times, by span name.
pub const CALLS: [&str; 4] = ["get", "update", "insert", "scan"];

/// Operations run and operations that returned an error or a wrong result.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Results the oracle rejected (a subset of `failed`).
    pub wrong: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// A benchmark-side span around one public call into the index.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`CALLS`].
    pub call: u8,
    pub client: u8,
    /// Keys the call carried (a pipelined batch carries several).
    pub keys: u16,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
}

/// What a measured window records beyond the index's own counters.
pub struct Log {
    /// Modeled latency of every operation, ns, per class.
    pub lat: [Vec<u32>; 3],
    /// `(virtual end, operations)` of every step.
    pub steps: Vec<(u64, u32)>,
    /// Per-call spans, kept in traced runs only.
    pub spans: Option<Vec<Span>>,
    epoch: Instant,
}

impl Log {
    pub fn new(traced: bool, epoch: Instant) -> Self {
        Log {
            lat: Default::default(),
            steps: Vec::new(),
            spans: traced.then(Vec::new),
            epoch,
        }
    }
}

pub struct Sim {
    pub cluster: DmCluster,
    pub index: SphinxIndex,
    pub clients: Vec<SphinxClient>,
}

/// Per-MN pool size. Every word is touched at cluster creation, so the
/// pool is sized to the workload (a 200k-key email index needs ~20 MiB
/// per MN) rather than left at the simulator's 256 MiB default.
const MN_CAPACITY: usize = 64 << 20;

impl Sim {
    /// Builds the 3 CN + 3 MN cluster, the index and 24 clients, all with
    /// causal tracing off.
    pub fn build() -> Sim {
        let cluster = DmCluster::new(ClusterConfig {
            num_mns: MNS,
            num_cns: CNS,
            mn_capacity: MN_CAPACITY,
            net: NetConfig::default(),
            vnodes: 64,
        });
        let config = SphinxConfig {
            cache_bytes: cache_bytes(),
            mode: CacheMode::FilterCache,
            // Spelled out so no environment override reaches a run.
            sfc: sphinx::sfc::SfcConfig {
                generational: true,
                rebuild_delta_threshold: 0,
                max_fuse_build_attempts: 64,
            },
            ..SphinxConfig::default()
        };
        let index =
            SphinxIndex::create(&cluster, config).expect("index creation on a fresh cluster");
        let clients = (0..CLIENTS)
            .map(|c| {
                let mut client = index
                    .client(c as u16 % CNS)
                    .expect("client registration on a fresh index");
                client.set_trace_sampling(0, 0);
                client.set_trace_worker(c as u32);
                client
            })
            .collect();
        Sim {
            cluster,
            index,
            clients,
        }
    }

    /// Set-up: build, preload, warm up, then restart every clock at zero
    /// on drained NIC queues.
    pub fn setup(w: &Workload, inputs: &Inputs, oracle: &mut Oracle, tally: &mut Tally) -> Sim {
        let mut sim = Sim::build();
        sim.run(&inputs.preload, inputs, oracle, tally, None);
        sim.restart_clocks();
        if w.warmup_per_client > 0 {
            sim.run(&inputs.warmup, inputs, oracle, tally, None);
            sim.restart_clocks();
        }
        sim
    }

    pub fn restart_clocks(&mut self) {
        self.cluster.reset_network();
        for c in &mut self.clients {
            c.set_clock_ns(0);
        }
    }

    /// Runs each client's operation list to its end, smallest virtual
    /// clock first.
    pub fn run(
        &mut self,
        lists: &[Vec<Op>],
        inputs: &Inputs,
        oracle: &mut Oracle,
        tally: &mut Tally,
        mut log: Option<&mut Log>,
    ) {
        let mut pos = vec![0usize; lists.len()];
        let mut ready: BinaryHeap<Reverse<(u64, usize)>> = (0..lists.len())
            .filter(|&c| !lists[c].is_empty())
            .map(|c| Reverse((self.clients[c].clock_ns(), c)))
            .collect();
        while let Some(Reverse((_, c))) = ready.pop() {
            let client = &mut self.clients[c];
            let ops = &lists[c][pos[c]..];
            pos[c] += step(client, c, ops, inputs, oracle, tally, log.as_deref_mut());
            if pos[c] < lists[c].len() {
                ready.push(Reverse((client.clock_ns(), c)));
            }
        }
    }
}

/// Runs `f`, and with `on` also returns its host start and end.
fn timed<T>(on: bool, f: impl FnOnce() -> T) -> (T, Option<(Instant, Instant)>) {
    if !on {
        return (f(), None);
    }
    let start = Instant::now();
    let r = f();
    (r, Some((start, Instant::now())))
}

/// Runs the next step of one client — a pipelined batch of up to
/// [`READ_BATCH`] consecutive reads, or one other operation — checks its
/// results and returns how many operations it consumed.
fn step(
    client: &mut SphinxClient,
    c: usize,
    ops: &[Op],
    inputs: &Inputs,
    oracle: &mut Oracle,
    tally: &mut Tally,
    log: Option<&mut Log>,
) -> usize {
    let key = |i: u32| inputs.keys[i as usize].as_slice();
    let spans_on = log.as_ref().is_some_and(|l| l.spans.is_some());
    let virt_start = client.clock_ns();
    let (n, wrong, errors, class, call, host) = match ops[0] {
        Op::Read(_) => {
            let items: Vec<u32> = ops
                .iter()
                .take(READ_BATCH)
                .map_while(|op| match op {
                    Op::Read(i) => Some(*i),
                    _ => None,
                })
                .collect();
            let keys: Vec<&[u8]> = items.iter().map(|&i| key(i)).collect();
            let (r, host) = timed(spans_on, || client.get_many_pipelined(&keys, DEPTH));
            let (wrong, errors) = match r {
                Ok(vals) => {
                    let bad = items
                        .iter()
                        .zip(&vals)
                        .filter(|(i, v)| !oracle.check_read(**i, v.as_deref()))
                        .count();
                    (bad as u64, 0)
                }
                Err(_) => (0, items.len() as u64),
            };
            (items.len(), wrong, errors, READ, 0, host)
        }
        Op::Update { item, val } => {
            let (r, host) = timed(spans_on, || {
                client.update(key(item), &inputs.updates[val as usize])
            });
            let wrong = oracle.updated(item, val, r.as_ref().ok().copied());
            (1, u64::from(wrong), u64::from(r.is_err()), WRITE, 1, host)
        }
        Op::Insert(item) => {
            let (r, host) = timed(spans_on, || {
                client.insert(key(item), &inputs.initial[item as usize])
            });
            oracle.inserted(item, r.is_ok());
            (1, 0, u64::from(r.is_err()), WRITE, 2, host)
        }
        Op::Scan { item, len } => {
            let (r, host) = timed(spans_on, || client.scan_n(key(item), len as usize));
            match r {
                Ok(got) => {
                    let ok = oracle.check_scan(item, len as usize, &got);
                    (1, u64::from(!ok), 0, SCAN, 3, host)
                }
                Err(_) => (1, 0, 1, SCAN, 3, host),
            }
        }
    };
    let virt_end = client.clock_ns();
    tally.attempted += n as u64;
    tally.failed += wrong + errors;
    tally.wrong += wrong;
    if let Some(log) = log {
        let lat = u32::try_from(virt_end - virt_start).expect("one call spans under 4 s");
        log.lat[class].extend(std::iter::repeat_n(lat, n));
        log.steps.push((virt_end, n as u32));
        if let (Some(spans), Some((h0, h1))) = (log.spans.as_mut(), host) {
            spans.push(Span {
                call,
                client: c as u8,
                keys: n as u16,
                host_start_ns: (h0 - log.epoch).as_nanos() as u64,
                host_end_ns: (h1 - log.epoch).as_nanos() as u64,
                virt_start_ns: virt_start,
                virt_end_ns: virt_end,
            });
        }
    }
    n
}
