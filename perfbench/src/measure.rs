//! One repetition: set-up, measured window, checks.

use std::time::Instant;

use dm_sim::{ClientStats, ClusterStats};
use sphinx::obs::Registry;
use sphinx::sfc::SfcStats;

use crate::inputs::{Inputs, Workload};
use crate::oracle::Oracle;
use crate::sim::{Log, Sim, Tally};

/// Nanoseconds the calling thread has spent on a CPU
/// (`/proc/thread-self/schedstat`, first field); `None` where that file
/// cannot be read.
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
}

/// The index's own counters at one instant, summed over clients.
pub struct Snap {
    pub reg: Registry,
    pub net: ClientStats,
    pub cluster: ClusterStats,
    pub sfc: SfcStats,
}

impl Snap {
    pub fn take(sim: &Sim) -> Snap {
        let mut reg = Registry::new();
        let mut net = ClientStats::default();
        for c in &sim.clients {
            reg.merge(&c.telemetry());
            net.merge(&c.net_stats());
        }
        Snap {
            reg,
            net,
            cluster: sim.cluster.cluster_stats(),
            sfc: sim.index.sfc_stats(),
        }
    }
}

/// Modeled results: exact functions of (configuration, seed). Two runs of
/// one seed must agree on every field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Modeled {
    pub ops: u64,
    pub makespan_ns: u64,
    /// Ops completed in the first and second half of the window (up to
    /// the first client's finish, so every client is active throughout).
    pub halves: (u64, u64),
    /// Sorted latencies per class, ns.
    pub lat: [Vec<u32>; 3],
    pub round_trips: u64,
    pub doorbells: u64,
    pub bytes: u64,
    pub mn_bytes: u64,
    pub live_keys: u64,
}

impl Modeled {
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.makespan_ns as f64 * 1e3
    }

    /// All operations' latencies, sorted.
    pub fn pooled(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self.lat.concat();
        all.sort_unstable();
        all
    }
}

/// The median of `v` (the mean of the middle two for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n.is_multiple_of(2) {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    } else {
        v[n / 2]
    }
}

/// Exact nearest-rank percentile of sorted samples, in µs.
pub fn percentile_us(sorted: &[u32], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1]) / 1e3
}

/// The headline results of one repetition.
pub struct Rep {
    pub setup_s: f64,
    pub modeled: Modeled,
    pub host_ns_per_op: f64,
    pub tally: Tally,
    /// `SphinxIndex::verify` problems after the window.
    pub problems: Vec<String>,
}

/// What the per-layer metrics need of a repetition: counter snapshots
/// around the window, its log, and the index itself.
pub struct Detail {
    pub before: Snap,
    pub after: Snap,
    pub log: Log,
    pub sim: Sim,
}

/// Builds, preloads and warms up an index for `w`, timed (seconds).
pub fn setup<'a>(w: &Workload, inputs: &'a Inputs) -> (f64, Sim, Oracle<'a>, Tally) {
    let mut oracle = Oracle::new(inputs, w.scans());
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let sim = Sim::setup(w, inputs, &mut oracle, &mut tally);
    (t0.elapsed().as_secs_f64(), sim, oracle, tally)
}

/// Runs one repetition. `trace` switches the program's causal tracer on
/// for the window (`(head_every, tail_k)`) and keeps per-call spans.
pub fn rep(
    w: &Workload,
    inputs: &Inputs,
    trace: Option<(u64, usize)>,
    epoch: Instant,
) -> (Rep, Detail) {
    let (setup_s, mut sim, mut oracle, mut tally) = setup(w, inputs);

    if let Some((head, tail)) = trace {
        for c in &mut sim.clients {
            c.set_trace_sampling(head, tail);
        }
    }
    let mut log = Log::new(trace.is_some(), epoch);
    let before = Snap::take(&sim);
    let (wall0, cpu0) = (Instant::now(), thread_cpu_ns());
    sim.run(
        &inputs.window,
        inputs,
        &mut oracle,
        &mut tally,
        Some(&mut log),
    );
    // Thread CPU time leaves out time spent waiting for a CPU; wall time
    // stands in where the kernel does not expose it.
    let host_ns = match (cpu0, thread_cpu_ns()) {
        (Some(a), Some(b)) => b - a,
        _ => wall0.elapsed().as_nanos() as u64,
    };
    let after = Snap::take(&sim);

    let ops: u64 = log.steps.iter().map(|&(_, n)| u64::from(n)).sum();
    let clocks = sim.clients.iter().map(|c| c.clock_ns());
    let makespan_ns = clocks.clone().max().unwrap_or(0).max(1);
    let mid = clocks.min().unwrap_or(0) / 2;
    let mut halves = (0, 0);
    for &(end, n) in &log.steps {
        if end <= mid {
            halves.0 += u64::from(n);
        } else if end <= 2 * mid {
            halves.1 += u64::from(n);
        }
    }
    let net = after.net.since(&before.net);
    let mut lat = log.lat.clone();
    for l in &mut lat {
        l.sort_unstable();
    }
    let modeled = Modeled {
        ops,
        makespan_ns,
        halves,
        lat,
        round_trips: net.round_trips,
        doorbells: net.doorbells,
        bytes: net.bytes_total(),
        mn_bytes: sim
            .index
            .space_breakdown()
            .expect("space accounting on a quiescent index")
            .total(),
        live_keys: oracle.live_keys(),
    };
    let problems = match sim.index.verify() {
        Ok(report) => report.problems,
        Err(e) => vec![format!("verify failed: {e}")],
    };
    let rep = Rep {
        setup_s,
        host_ns_per_op: host_ns as f64 / ops.max(1) as f64,
        modeled,
        tally,
        problems,
    };
    (
        rep,
        Detail {
            before,
            after,
            log,
            sim,
        },
    )
}
