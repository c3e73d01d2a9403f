//! Property tests for the tier-1 persistence layer.
//!
//! The headline property: a histogram that takes a round trip through the
//! on-disk format and is then merged with fresh counts equals the same
//! merge performed purely in memory — persistence is exact (counts are
//! integers, gate parameters round-trip through IEEE-754 bit patterns).

use proptest::prelude::*;
use qcut_cache::{CacheConfig, CacheKey, ShotDiscipline, WarmCache};
use qcut_circuit::circuit::Circuit;
use qcut_sim::counts::Counts;

/// Deterministic parametrized circuit family for the property.
fn sweep_circuit(width: usize, theta: f64) -> Circuit {
    let mut c = Circuit::new(width);
    for q in 0..width {
        c.h(q);
    }
    for q in 0..width - 1 {
        c.cx(q, q + 1);
    }
    c.ry(theta, width - 1).rz(theta * 0.5, 0);
    c
}

fn counts_from(width: usize, pairs: &[(u64, u64)]) -> Counts {
    let mask = (1u64 << width) - 1;
    Counts::from_pairs(width, pairs.iter().map(|&(o, n)| (o & mask, n % 100_000)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// save -> load -> merge == in-memory merge, for arbitrary histograms.
    #[test]
    fn save_load_merge_equals_in_memory_merge(
        width in 2usize..6,
        theta in -3.0f64..3.0,
        stored in proptest::collection::vec((0u64..64, 1u64..10_000), 1..12),
        fresh in proptest::collection::vec((0u64..64, 1u64..10_000), 1..12),
        fingerprint in 0u64..u64::MAX,
    ) {
        let circuit = sweep_circuit(width, theta);
        let key = CacheKey::new(
            circuit.structural_hash(),
            fingerprint,
            ShotDiscipline::Multinomial,
        );
        let stored = counts_from(width, &stored);
        let fresh = counts_from(width, &fresh);

        let path = std::env::temp_dir().join(format!(
            "qcut-proptest-{}-{}.qwc",
            std::process::id(),
            circuit.structural_hash()
        ));
        let writer = WarmCache::open(CacheConfig::at_path(&path));
        writer.store(&key, &circuit, &stored);
        writer.persist().expect("persist succeeds");

        let reader = WarmCache::open(CacheConfig::at_path(&path));
        std::fs::remove_file(&path).ok();
        prop_assert!(reader.degradation().is_none());
        let mut reloaded = reader
            .lookup(&key, &circuit)
            .expect("stored entry survives the round trip");

        let mut in_memory = stored;
        in_memory.merge(&fresh);
        reloaded.merge(&fresh);
        prop_assert_eq!(reloaded, in_memory);
    }

    /// The byte accounting the LRU policy uses is exactly the encoded size:
    /// a reloaded store reports the same `bytes_used` as the one saved.
    #[test]
    fn reload_preserves_byte_accounting(
        width in 2usize..5,
        theta in -3.0f64..3.0,
        pairs in proptest::collection::vec((0u64..16, 1u64..1000), 1..8),
    ) {
        let circuit = sweep_circuit(width, theta);
        let key = CacheKey::new(circuit.structural_hash(), 9, ShotDiscipline::Multinomial);
        let path = std::env::temp_dir().join(format!(
            "qcut-proptest-bytes-{}-{}.qwc",
            std::process::id(),
            circuit.structural_hash()
        ));
        let writer = WarmCache::open(CacheConfig::at_path(&path));
        writer.store(&key, &circuit, &counts_from(width, &pairs));
        let bytes = writer.bytes_used();
        writer.persist().expect("persist succeeds");
        let reader = WarmCache::open(CacheConfig::at_path(&path));
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(reader.bytes_used(), bytes);
        prop_assert_eq!(reader.entries(), 1);
    }
}
