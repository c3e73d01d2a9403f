//! Integration tests for the cross-run warm-start cache: warm reruns are
//! bit-identical free replays, an absent/empty cache is bit-identical to
//! today's pipeline, backend fingerprints partition entries, and corrupt
//! cache files degrade to a cold start with a typed diagnostic.

use qcut::prelude::*;
use std::sync::Arc;

fn workload() -> (Circuit, CutSpec) {
    GoldenAnsatz::new(5, 77).build()
}

fn options_with_cache(cache: Option<Arc<WarmCache>>) -> ExecutionOptions {
    ExecutionOptions {
        shots_per_setting: 4000,
        cache,
        ..Default::default()
    }
}

/// A warm rerun of the identical workload at the same budget executes
/// zero fresh shots — every node is fully served from the cache — and
/// reconstructs the bit-identical distribution (the delivered histograms
/// ARE the stored ones).
#[test]
fn warm_rerun_is_bit_identical_and_executes_nothing() {
    let (circuit, cut) = workload();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let options = options_with_cache(Some(cache.clone()));

    let backend = IdealBackend::new(31);
    let cold = CutExecutor::new(&backend)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(cold.report.cache_shots_reused, 0, "first run starts cold");
    assert!(cache.entries() > 0, "the run must populate the cache");

    // Fresh backend (same seed irrelevant: nothing executes) and executor:
    // only the cache carries state across the runs.
    let backend2 = IdealBackend::new(99);
    let warm = CutExecutor::new(&backend2)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();

    assert_eq!(warm.report.total_shots, 0, "warm run executes nothing");
    assert_eq!(warm.report.jobs_executed, 0);
    assert!(warm.report.cache_hits > 0);
    assert_eq!(
        warm.report.cache_shots_reused, warm.report.shots_requested,
        "every requested shot is served from the cache"
    );
    assert_eq!(warm.report.shots_saved, 0);
    assert_eq!(
        warm.distribution.values(),
        cold.distribution.values(),
        "warm reconstruction must be bit-identical to the cold run"
    );
}

/// The SIC gather stores back every node it delivered — 3 upstream
/// measurements plus 4 SIC preparations, one entry each — and a warm
/// rerun replays them bit-identically without executing.
#[test]
fn sic_warm_rerun_stores_every_node_and_executes_nothing() {
    let (circuit, cut) = workload();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let options = ExecutionOptions {
        method: ReconstructionMethod::Sic,
        ..options_with_cache(Some(cache.clone()))
    };
    let backend = IdealBackend::new(8);
    let cold = CutExecutor::new(&backend)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(cold.report.jobs_executed, 3 + 4);
    assert_eq!(cache.entries(), 3 + 4);
    let warm = CutExecutor::new(&backend)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(warm.report.jobs_executed, 0);
    assert_eq!(warm.report.cache_shots_reused, warm.report.shots_requested);
    assert_eq!(warm.distribution.values(), cold.distribution.values());
}

/// The two ideal backends above share a fingerprint only because
/// `cache_fingerprint` deliberately ignores the RNG seed (histograms from
/// different seeds are statistically poolable). Pin that contract
/// end-to-end.
#[test]
fn warm_hits_survive_a_different_backend_seed() {
    let (circuit, cut) = workload();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let options = options_with_cache(Some(cache));
    let a = IdealBackend::new(1);
    CutExecutor::new(&a)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    let b = IdealBackend::new(2);
    let warm = CutExecutor::new(&b)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(warm.report.total_shots, 0);
}

/// `cache: None`, an empty in-memory cache, and the default options all
/// produce bit-identical runs: the `None` path is pinned to pre-cache
/// behavior, and an empty cache only adds lookups that miss.
#[test]
fn no_cache_and_empty_cache_are_bit_identical_to_default() {
    let (circuit, cut) = workload();
    let run = |cache: Option<Arc<WarmCache>>| {
        let backend = IdealBackend::new(55);
        CutExecutor::new(&backend)
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &options_with_cache(cache),
            )
            .unwrap()
    };
    let none = run(None);
    let empty = run(Some(Arc::new(WarmCache::open(CacheConfig::in_memory()))));
    assert_eq!(none.distribution.values(), empty.distribution.values());
    assert_eq!(none.report.total_shots, empty.report.total_shots);
    assert_eq!(none.report.jobs_executed, empty.report.jobs_executed);
    assert_eq!(empty.report.cache_shots_reused, 0);
}

/// Histograms gathered on the ideal backend are never served to a noisy
/// run of the same circuits (and vice versa): the backend fingerprint in
/// the cache key partitions the entries.
#[test]
fn ideal_histograms_are_never_served_to_a_noisy_run() {
    let (circuit, cut) = workload();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let options = options_with_cache(Some(cache.clone()));

    let ideal = IdealBackend::new(3);
    CutExecutor::new(&ideal)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    let populated = cache.entries();
    assert!(populated > 0);

    let noisy = qcut::device::presets::ibm_5q(3);
    let noisy_run = CutExecutor::new(&noisy)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(
        noisy_run.report.cache_shots_reused, 0,
        "ideal entries must not serve a noisy run"
    );
    assert_eq!(noisy_run.report.cache_hits, 0);
    assert!(noisy_run.report.total_shots > 0);
    assert!(
        cache.entries() > populated,
        "the noisy run stores its own entries alongside the ideal ones"
    );

    // And the partition works both ways: a warm ideal rerun still hits
    // only ideal entries.
    let ideal2 = IdealBackend::new(3);
    let warm = CutExecutor::new(&ideal2)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(warm.report.total_shots, 0);
}

/// A truncated/corrupt cache file degrades to a cold start — the run
/// succeeds, a typed QA403 warning lands in the report diagnostics, and a
/// successful run afterwards persists a loadable cache over it.
#[test]
fn corrupt_cache_file_degrades_to_cold_start_with_diagnostic() {
    let (circuit, cut) = workload();
    let path = std::env::temp_dir().join(format!(
        "qcut-integration-corrupt-{}.qwc",
        std::process::id()
    ));
    std::fs::write(&path, b"definitely not a cache file").unwrap();

    let cache = Arc::new(WarmCache::open(CacheConfig::at_path(&path)));
    let options = options_with_cache(Some(cache));
    let backend = IdealBackend::new(17);
    let run = CutExecutor::new(&backend)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();

    assert_eq!(run.report.cache_shots_reused, 0, "cold start");
    assert!(run.report.total_shots > 0);
    let degraded: Vec<_> = run
        .report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::CacheDegraded)
        .collect();
    assert!(
        !degraded.is_empty(),
        "a degraded cache must surface a QA403 warning: {:?}",
        run.report.diagnostics
    );
    assert!(degraded.iter().all(|d| d.severity == Severity::Warn));

    // The run stored + persisted over the corpse: reopening now warm-hits.
    let reopened = Arc::new(WarmCache::open(CacheConfig::at_path(&path)));
    assert!(
        reopened.entries() > 0,
        "persist must have replaced the file"
    );
    let backend2 = IdealBackend::new(18);
    let warm = CutExecutor::new(&backend2)
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &options_with_cache(Some(reopened)),
        )
        .unwrap();
    assert_eq!(warm.report.total_shots, 0);
    assert!(warm
        .report
        .diagnostics
        .iter()
        .all(|d| d.code != LintCode::CacheDegraded));
    std::fs::remove_file(&path).ok();
}

/// A corrupt cache file yields exactly one QA403 finding per run, at the
/// configured severity, and none when the code is demoted to Allow.
#[test]
fn corrupt_cache_file_reports_qa403_once_at_its_configured_severity() {
    let (circuit, cut) = workload();
    let backend = IdealBackend::new(19);
    for (tag, severity) in [("warn", None), ("allow", Some(Severity::Allow))] {
        let path = std::env::temp_dir().join(format!(
            "qcut-integration-qa403-{tag}-{}.qwc",
            std::process::id()
        ));
        std::fs::write(&path, b"definitely not a cache file").unwrap();
        let mut options =
            options_with_cache(Some(Arc::new(WarmCache::open(CacheConfig::at_path(&path)))));
        if let Some(severity) = severity {
            options.analysis =
                AnalysisConfig::default().with_override(LintCode::CacheDegraded, severity);
        }
        let run = CutExecutor::new(&backend)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
            .unwrap();
        let degraded: Vec<_> = run
            .report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::CacheDegraded)
            .collect();
        match severity {
            None => {
                assert_eq!(degraded.len(), 1, "{:?}", run.report.diagnostics);
                assert_eq!(degraded[0].severity, Severity::Warn);
            }
            Some(_) => assert!(degraded.is_empty(), "{:?}", run.report.diagnostics),
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The adaptive policy treats cached histograms as a free pilot: on a
/// warm rerun the pilot round executes nothing, only the refine
/// increments run, and the shot invariant holds with the cache term.
#[test]
fn adaptive_warm_rerun_gets_a_free_pilot() {
    let (circuit, cut) = workload();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let options = ExecutionOptions {
        allocation: Some(ShotAllocation::Adaptive {
            pilot_fraction: 0.2,
            total: 60_000,
        }),
        cache: Some(cache),
        ..Default::default()
    };
    let backend = IdealBackend::new(23);
    let cold = CutExecutor::new(&backend)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert!(cold.report.pilot_shots > 0);

    let backend2 = IdealBackend::new(24);
    let warm = CutExecutor::new(&backend2)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(warm.report.pilot_shots, 0, "the cache pays for the pilot");
    assert!(warm.report.cache_shots_reused > 0);
    assert_eq!(warm.report.rounds, 2);
    assert_eq!(
        warm.report.shots_requested,
        warm.report.detection_shots
            + warm.report.pilot_shots
            + warm.report.total_shots
            + warm.report.shots_saved
            + warm.report.cache_shots_reused,
        "exact accounting with the cache term"
    );
}
