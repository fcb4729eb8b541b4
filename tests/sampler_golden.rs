//! Golden fingerprints of served samples.
//!
//! Each case pins a 64-bit FNV-1a fingerprint of the `(node, attempts,
//! query_cost)` sequence a seeded sampler emits: 40 plain
//! `WalkEstimateSampler` draws on a seeded BA(2 000, 5) for both input walks
//! and all four ablation variants, and one default 4-walker engine job whose
//! walkers share one walk history. Any change to a forward walk, a backward
//! estimate, the number of backward walks per candidate or the acceptance
//! step that moves one RNG draw shows up here, so a refactor of the sampling
//! path can prove the samples it serves are unchanged.

use walk_not_wait::graph::generators::random::barabasi_albert;
use walk_not_wait::mcmc::sampler::SampleRecord;
use walk_not_wait::prelude::*;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Word-wise FNV-1a over each record's node id, attempts and query cost, in
/// emission order.
fn fingerprint(samples: &[SampleRecord]) -> u64 {
    samples.iter().fold(FNV_OFFSET_BASIS, |h, s| {
        let h = fold(h, u64::from(s.node.0));
        let h = fold(h, u64::from(s.attempts));
        fold(h, s.query_cost)
    })
}

fn osn() -> SimulatedOsn {
    SimulatedOsn::new(barabasi_albert(2_000, 5, 0x5A).unwrap())
}

const VARIANTS: [WalkEstimateVariant; 4] = [
    WalkEstimateVariant::None,
    WalkEstimateVariant::CrawlOnly,
    WalkEstimateVariant::WeightedOnly,
    WalkEstimateVariant::Full,
];

fn check_sampler(kind: RandomWalkKind, expected: [u64; 4]) {
    let got = VARIANTS.map(|variant| {
        let config = WalkEstimateConfig::default().with_variant(variant);
        let mut sampler = WalkEstimateSampler::new(osn(), kind, config, 0x60D);
        let run = collect_samples(&mut sampler, 40).unwrap();
        assert_eq!(run.len(), 40);
        fingerprint(&run.samples)
    });
    assert_eq!(
        got, expected,
        "{kind:?} fingerprints (WE-None, WE-Crawl, WE-Weighted, WE) moved: got {got:#018x?}"
    );
}

#[test]
fn simple_walk_estimate_samples_are_pinned() {
    check_sampler(
        RandomWalkKind::Simple,
        [
            0xfe16_b461_1f6f_0739,
            0xddb2_b29f_93a0_cdb2,
            0x111f_547d_2069_dbe7,
            0x9120_5885_6d7a_d571,
        ],
    );
}

#[test]
fn metropolis_hastings_walk_estimate_samples_are_pinned() {
    check_sampler(
        RandomWalkKind::MetropolisHastings,
        [
            0x0a61_ddd6_b10a_80ce,
            0x0fde_d3f1_eb5b_71b5,
            0xb6c2_92f9_cb58_3cd3,
            0x4a37_c618_9292_8700,
        ],
    );
}

/// A default WALK-ESTIMATE job runs 4 walkers on one shared history; its
/// samples (walker order), pool cost and cache hits are the same at any
/// thread count.
#[test]
fn shared_history_engine_job_is_pinned() {
    let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 40, 0x10B);
    assert!(job.spec.uses_shared_history());
    let report = Engine::with_threads(2).run(&osn(), &job).unwrap();
    assert_eq!(report.len(), 40);
    let got = fold(
        fold(fingerprint(&report.samples), report.pool_stats.unique_nodes),
        report.pool_stats.cache_hits,
    );
    assert_eq!(
        got, 0x70c2_0187_9833_8351,
        "engine job fingerprint moved: got {got:#018x}"
    );
}
