//! perfbench: a deterministic YCSB benchmark for the Sphinx index.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`): runs set-up + measured window twice on the
//! seed, checks that both give bit-identical modeled results, then repeats
//! the set-up alone until `--seconds` have passed, and reports the
//! end-to-end metrics. Traced (`--trace 1`): one untraced and one traced
//! repetition of the seed, one untraced repetition of the next seed, and
//! the per-layer metrics. Both print a table of every metric measured and
//! end with one JSON result line. See `README.md` for the metrics.

mod inputs;
mod layers;
mod measure;
mod oracle;
mod report;
mod sim;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::{Inputs, Workload, WORKLOADS};
use measure::{median, percentile_us, Rep};
use report::{Metrics, END_TO_END, PER_LAYER};
use sim::{Tally, CALLS, CLASSES};

/// Measured windows per untraced run: two, to check that a seed's
/// modeled results repeat.
const WINDOWS: usize = 2;
/// Set-ups per untraced run, the windows' own included: at least this
/// many, so `setup_s` is a median of several, and at most this many.
const MIN_SETUPS: usize = 4;
const MAX_SETUPS: usize = 24;
/// Causal-trace sampling of the traced window: every 64th get plus the
/// 8 slowest per client.
const TRACE_HEAD_EVERY: u64 = 64;
const TRACE_TAIL_K: usize = 8;
/// Where a traced run writes its spans, relative to the working directory.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let name = flag("--workload")?;
    let workload = inputs::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let number = |name: &str| -> Result<u64, String> {
        flag(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let traced = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        traced,
    })
}

/// The metrics every repetition yields, from its modeled results.
fn modeled_metrics(rep: &Rep, m: &mut Metrics) {
    let md = &rep.modeled;
    let pooled = md.pooled();
    m.add("mops", md.mops(), "Mops");
    m.add("p50_us", percentile_us(&pooled, 0.5), "us");
    m.add("p99_us", percentile_us(&pooled, 0.99), "us");
    m.add("p99.5_us", percentile_us(&pooled, 0.995), "us");
    m.add("samples", pooled.len() as f64, "count");
    for (class, lat) in CLASSES.iter().zip(&md.lat) {
        if !lat.is_empty() {
            m.add(&format!("{class}_p50_us"), percentile_us(lat, 0.5), "us");
            m.add(&format!("{class}_p99_us"), percentile_us(lat, 0.99), "us");
            m.add(&format!("{class}_samples"), lat.len() as f64, "count");
        }
    }
    m.add("bytes_per_op", md.bytes as f64 / md.ops as f64, "B");
    m.add(
        "mn_bytes_per_key",
        md.mn_bytes as f64 / md.live_keys as f64,
        "B",
    );
    let (h0, h1) = md.halves;
    m.add("window.half_ratio", h1 as f64 / h0.max(1) as f64, "ratio");
}

struct Outcome {
    metrics: Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: String,
}

/// Checks common to every repetition: oracle verdicts and `verify()`.
fn check_reps(reps: &[&Rep], notes: &mut String) -> bool {
    let mut ok = true;
    for (i, r) in reps.iter().enumerate() {
        if r.tally.wrong > 0 {
            ok = false;
            let _ = writeln!(notes, "rep {i}: {} wrong results", r.tally.wrong);
        }
        if r.tally.failed > r.tally.wrong {
            ok = false;
            let _ = writeln!(
                notes,
                "rep {i}: {} calls returned Err",
                r.tally.failed - r.tally.wrong
            );
        }
        for p in &r.problems {
            ok = false;
            let _ = writeln!(notes, "rep {i}: verify: {p}");
        }
    }
    ok
}

fn untraced(args: &Args, inputs: &Inputs, epoch: Instant) -> Outcome {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // Each index is dropped before the next set-up builds one.
    let reps: Vec<Rep> = (0..WINDOWS)
        .map(|_| measure::rep(args.workload, inputs, None, epoch).0)
        .collect();
    let mut setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut setup_tally = Tally::default();
    while setup.len() < MIN_SETUPS || (start.elapsed() < budget && setup.len() < MAX_SETUPS) {
        let (secs, _, _, tally) = measure::setup(args.workload, inputs);
        setup.push(secs);
        setup_tally.add(&tally);
    }
    let mut notes = String::new();
    let refs: Vec<&Rep> = reps.iter().collect();
    let mut correct = check_reps(&refs, &mut notes);
    if setup_tally.failed > 0 {
        correct = false;
        let _ = writeln!(
            notes,
            "set-ups alone: {} failed operations",
            setup_tally.failed
        );
    }
    let identical = reps.iter().all(|r| r.modeled == reps[0].modeled);
    if !identical {
        correct = false;
        notes.push_str("same-seed repetitions gave different modeled results\n");
    }

    let mut m = Metrics::default();
    modeled_metrics(&reps[0], &mut m);
    let host: Vec<f64> = reps.iter().map(|r| r.host_ns_per_op).collect();
    m.add("host_ns_per_op", median(host.clone()), "ns");
    m.add("setup_s", median(setup.clone()), "s");
    m.add("setups", setup.len() as f64, "count");
    m.add(
        "det.repeats_identical",
        f64::from(u8::from(identical)),
        "bool",
    );
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(notes, "host_ns_per_op per window: {}", fmt(&host));
    let _ = writeln!(notes, "setup_s per set-up: {}", fmt(&setup));
    let attempted = setup_tally.attempted + reps.iter().map(|r| r.tally.attempted).sum::<u64>();
    let failed = setup_tally.failed + reps.iter().map(|r| r.tally.failed).sum::<u64>();
    Outcome {
        metrics: m,
        correct,
        attempted,
        failed,
        notes,
    }
}

fn traced(args: &Args, inputs: &Inputs, epoch: Instant) -> Outcome {
    let w = args.workload;
    let (plain, _) = measure::rep(w, inputs, None, epoch);
    let (rep, mut detail) = measure::rep(w, inputs, Some((TRACE_HEAD_EVERY, TRACE_TAIL_K)), epoch);
    let mut notes = String::new();
    let mut m = Metrics::default();
    modeled_metrics(&rep, &mut m);
    let same = plain.modeled == rep.modeled;
    if !same {
        notes.push_str(
            "FINDING: the traced window's modeled results differ from the untraced one\n",
        );
    }
    m.add(
        "det.traced_matches_untraced",
        f64::from(u8::from(same)),
        "bool",
    );
    m.add("host_ns_per_op", plain.host_ns_per_op, "ns");
    layers::call_host_ns(&detail, &mut m);
    layers::counters(&rep, &detail, &mut m);
    layers::critical_paths(&mut detail, &mut m);
    m.add(
        "obs.trace_overhead",
        rep.host_ns_per_op - plain.host_ns_per_op,
        "ns",
    );
    layers::microbenches(&mut detail, inputs, &mut m);
    if let Err(e) = write_spans(args, &detail) {
        let _ = writeln!(notes, "spans not written: {e}");
    }
    drop(detail);

    let next = inputs::generate(w, args.seed.wrapping_add(1));
    let (other, _) = measure::rep(w, &next, None, epoch);
    m.add("det.second_seed_mops", other.modeled.mops(), "Mops");
    let reps = [&plain, &rep, &other];
    let correct = check_reps(&reps, &mut notes);
    let attempted: u64 = reps.iter().map(|r| r.tally.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.tally.failed).sum();
    m.add(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    Outcome {
        metrics: m,
        correct,
        attempted,
        failed,
        notes,
    }
}

/// Writes the traced window's per-call spans as tab-separated lines.
/// Every call's parent is span 0, the window itself.
fn write_spans(args: &Args, detail: &measure::Detail) -> std::io::Result<()> {
    let spans = detail.log.spans.as_deref().unwrap_or_default();
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!(
        "{OUT_DIR}/{}-seed{}.spans.tsv",
        args.workload.name, args.seed
    );
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        out,
        "id\tparent\tname\tclient\tkeys\thost_start_ns\thost_end_ns\tvirt_start_ns\tvirt_end_ns"
    )?;
    if let (Some(first), Some(last)) = (spans.first(), spans.last()) {
        let virt_end = spans.iter().map(|s| s.virt_end_ns).max().unwrap_or(0);
        writeln!(
            out,
            "0\t\twindow\t\t\t{}\t{}\t0\t{virt_end}",
            first.host_start_ns, last.host_end_ns
        )?;
    }
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{}\t0\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            i + 1,
            CALLS[s.call as usize],
            s.client,
            s.keys,
            s.host_start_ns,
            s.host_end_ns,
            s.virt_start_ns,
            s.virt_end_ns
        )?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let inputs = inputs::generate(args.workload, args.seed);
    let epoch = Instant::now();
    let out = if args.traced {
        traced(&args, &inputs, epoch)
    } else {
        untraced(&args, &inputs, epoch)
    };
    println!(
        "perfbench {} seed {} trace {}",
        args.workload.name,
        args.seed,
        u8::from(args.traced)
    );
    print!("{}", out.metrics.table());
    print!("{}", out.notes);
    let names: &[&str] = if args.traced { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        out.metrics
            .result_line(names, out.correct, out.attempted, out.failed)
    );
    ExitCode::SUCCESS
}
