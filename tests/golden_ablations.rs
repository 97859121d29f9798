//! Golden E8 ablation output: the quick ablation run (seed 2010, two
//! packets per client per variant) serialised to JSON must keep
//! producing exactly the recorded bytes. E8 is the one experiment that
//! builds non-production engines (the exhaustive scan oracle, other
//! smoothing and circular-array handling, other grid steps and source
//! counts), so a refactor of how those reference engines are
//! constructed that claims to be output-preserving is held to it.

use sa_testbed::experiments::ablations;

/// Digest of `ablations::run(2010, 2)` as JSON. Change it only together
/// with a change that is meant to alter E8 output, and say why in that
/// change.
const GOLDEN: u64 = 0xf46e_d4aa_b570_746c;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn ablation_output_matches_the_recorded_digest() {
    let r = ablations::run(2010, 2);
    assert!(
        r.grid.iter().all(|v| v.n > 0),
        "a grid variant saw no packet"
    );
    let json = serde_json::to_string(&r).expect("ablation result serialises");
    assert_eq!(
        fnv1a(json.as_bytes()),
        GOLDEN,
        "E8 ablation output changed: {json}"
    );
}
