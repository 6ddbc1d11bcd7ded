//! Pinned-seed regression sweep for the deterministic scheduler and the
//! linearizability pipeline: the explorer's CI contract in test form.
//!
//! * the same `(workload_seed, schedule seed)` must reproduce a
//!   byte-identical history (digest over the canonical encoding) — twice
//!   recorded, and once replayed from the recorded trace;
//! * a bounded sweep of pinned seeds across Sphinx, ART and the B+-tree
//!   must be linearizable under the full fault matrix (reorderings,
//!   delays, torn leaf reads, CAS-hold windows).
//!
//! A failure here is replayable: dump the printed trace to a file and use
//! `lincheck_explorer --replay` (see docs/TESTING.md).

use bench_harness::{run_scheduled, ExploreConfig, ScheduleMode, System};
use dm_sim::ScheduleConfig;
use lincheck::CheckConfig;
use obs::export_chrome;

fn cfg(system: System) -> ExploreConfig {
    ExploreConfig {
        system,
        threads: 3,
        keys: 16,
        ops_per_thread: 120,
        workload_seed: 0xBADC_0FFE,
        tear_hook: true,
        multi_ops: true,
        pipeline_depth: 1,
        check: CheckConfig::default(),
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let cfg = cfg(System::Sphinx);
    let mode = ScheduleMode::Record(ScheduleConfig::adversarial(42));
    let a = run_scheduled(&cfg, mode.clone());
    let b = run_scheduled(&cfg, mode);
    assert!(a.outcome.is_linearizable(), "{:?}", a.outcome);
    assert_eq!(
        a.history.canonical_bytes(),
        b.history.canonical_bytes(),
        "same (workload seed, schedule seed) must replay byte-identically"
    );
    assert_eq!(a.trace, b.trace);
}

#[test]
fn replaying_a_trace_reproduces_the_history() {
    let cfg = cfg(System::Art);
    let recorded = run_scheduled(&cfg, ScheduleMode::Record(ScheduleConfig::adversarial(9)));
    assert!(recorded.outcome.is_linearizable(), "{:?}", recorded.outcome);
    let replayed = run_scheduled(&cfg, ScheduleMode::Replay(recorded.trace.clone()));
    assert_eq!(
        recorded.history.canonical_bytes(),
        replayed.history.canonical_bytes()
    );
}

/// A truncated trace is still a complete schedule (round-robin fallback) —
/// the property the shrinker relies on.
#[test]
fn trace_prefix_replays_to_completion() {
    let cfg = cfg(System::Sphinx);
    let recorded = run_scheduled(&cfg, ScheduleMode::Record(ScheduleConfig::adversarial(5)));
    let half = recorded.trace.len() / 2;
    let out = run_scheduled(&cfg, ScheduleMode::Replay(recorded.trace[..half].to_vec()));
    assert!(out.outcome.is_linearizable(), "{:?}", out.outcome);
    // Same workload → same op count either way.
    assert_eq!(out.history.len(), recorded.history.len());
}

/// Regression: a hot key space (8 keys, 3 workers, 600 ops each) used to
/// panic the blocking get path with `Corrupt("root hash entry missing")`
/// when a concurrent root type switch invalidated the node a freshly
/// repaired FilterCache entry pointed at. The fix retries the entry
/// lookup on a bounded budget instead of trusting a single validation
/// round. Seeds pinned to the interleavings that provoked it.
#[test]
fn hot_keyspace_blocking_get_survives_root_type_switch() {
    let cfg = ExploreConfig::smoke(System::Sphinx, 3, 8, 600);
    for seed in [3u64, 6, 22, 29] {
        let out = run_scheduled(
            &cfg,
            ScheduleMode::Record(ScheduleConfig::adversarial(seed)),
        );
        assert!(
            out.outcome.is_linearizable(),
            "Sphinx hot-keyspace seed {seed}: {:?}",
            out.outcome
        );
    }
}

/// Same seed ⇒ byte-identical causal-trace export. The export is the
/// debugging artifact a failure report embeds; if it drifted across
/// identical runs, "replay the seed and look at the trace" would be
/// meaningless.
#[test]
fn same_seed_trace_export_is_byte_identical() {
    let mut cfg = cfg(System::Sphinx);
    cfg.pipeline_depth = 4; // exercise the pipelined trace path too
    let mode = ScheduleMode::Record(ScheduleConfig::adversarial(17));
    let a = run_scheduled(&cfg, mode.clone());
    let b = run_scheduled(&cfg, mode);
    assert!(a.outcome.is_linearizable(), "{:?}", a.outcome);
    assert!(
        !a.traces.is_empty(),
        "scheduled runs head-sample every op and must retain traces"
    );
    let ea = export_chrome(&a.traces);
    let eb = export_chrome(&b.traces);
    assert_eq!(
        ea, eb,
        "same (workload seed, schedule seed) must export byte-identical traces"
    );
}

/// The pinned regression sweep: every system × seed linearizable under
/// the adversarial matrix. Seeds are pinned so a regression is a stable,
/// replayable failure rather than a flake.
#[test]
fn pinned_seed_sweep_is_linearizable() {
    for system in [System::Sphinx, System::Art, System::BpTree] {
        let cfg = cfg(system);
        for seed in [1u64, 2, 3] {
            let out = run_scheduled(
                &cfg,
                ScheduleMode::Record(ScheduleConfig::adversarial(seed)),
            );
            assert!(
                out.outcome.is_linearizable(),
                "{} seed {seed}: {:?}\ntrace:\n{}",
                system.label(),
                out.outcome,
                out.trace
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("\n"),
            );
        }
    }
}

/// A delete that met a leaf locked by an in-place write used to tombstone
/// it; the writer's unlocking write then reset the status to Idle and the
/// delete unlinked the leaf, so a read in between saw the key gone, a
/// later scan saw the written value, and then it vanished (a lost
/// insert). These schedules (8 hot keys, reads, scans and multi-gets in
/// the mix) each hit that interleaving before deletes waited for the lock.
#[test]
fn delete_racing_an_in_place_write_is_linearizable() {
    let cfg = ExploreConfig {
        check: CheckConfig::default(),
        ..ExploreConfig::smoke(System::Sphinx, 3, 8, 600)
    };
    for seed in [105, 194, 319, 709, 885] {
        let out = run_scheduled(
            &cfg,
            ScheduleMode::Record(ScheduleConfig::adversarial(seed)),
        );
        assert!(
            out.outcome.is_linearizable(),
            "seed {seed}: {:?}",
            out.outcome
        );
    }
}
