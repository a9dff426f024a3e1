//! The two digest-mode drivers implement one protocol. The in-process
//! encounter (`DtnNode::encounter` in `SyncMode::Digest`, which runs
//! `pfr::digest::sync_with_digest`) and the split session calls a network
//! transport makes (`begin_digest_session` → `respond_digest` /
//! `answer_digest_query` / `respond_digest_answer` /
//! `respond_digest_resync` → `apply_sync` → `commit_digest_session`) must
//! move the same items and deliver the same messages on any schedule,
//! under every summary policy, across a mid-run cache loss.
//!
//! Routing policies see the same raw routing bytes either way, but only
//! the in-process driver delta-encodes them into envelopes, so digest
//! byte counts can match exactly only for a routing-free policy
//! (Epidemic). A golden pin then fixes the summed `ReconStats` of a small
//! fixed-seed emulation per policy, so a change to the digest core that
//! alters any summary, byte count or counter fails here.

use replidtn::dtn::{DigestResponse, DtnNode, EncounterBudget, PolicyKind};
use replidtn::emu::{Emulation, EmulationConfig};
use replidtn::pfr::digest::{DigestPolicy, ReconStats};
use replidtn::pfr::sync::SyncReport;
use replidtn::pfr::{ItemId, ReplicaId, SimTime, SyncLimits, SyncMode};
use replidtn::traces::{DieselNetConfig, EmailConfig};

const POLICIES: [PolicyKind; 6] = [
    PolicyKind::Direct,
    PolicyKind::Epidemic,
    PolicyKind::SprayAndWait,
    PolicyKind::Prophet,
    PolicyKind::MaxProp,
    PolicyKind::TwoHopRelay,
];

const DIGEST_POLICIES: [DigestPolicy; 4] = [
    DigestPolicy::Auto,
    DigestPolicy::ForceBloom,
    DigestPolicy::ForceIblt,
    DigestPolicy::ForceFull,
];

const NODES: u64 = 7;
const STEPS: u64 = 160;

/// Deterministic SplitMix64 stream for the schedule.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One step of the shared schedule.
enum Step {
    Send {
        from: u64,
        to: u64,
    },
    Meet {
        a: u64,
        b: u64,
    },
    /// A crash that loses the in-memory digest caches of every other
    /// node: their peers still hold snapshots the crashed nodes forgot.
    ClearCaches,
}

fn schedule(seed: u64) -> Vec<Step> {
    let mut rng = Mix(seed);
    (0..STEPS)
        .map(|i| {
            if i == STEPS / 2 {
                return Step::ClearCaches;
            }
            let a = rng.below(NODES);
            let b = (a + 1 + rng.below(NODES - 1)) % NODES;
            if rng.below(3) == 0 {
                Step::Send { from: a, to: b }
            } else {
                Step::Meet { a, b }
            }
        })
        .collect()
}

fn fleet(policy: PolicyKind, digest: DigestPolicy) -> Vec<DtnNode> {
    (0..NODES)
        .map(|i| {
            let mut node = DtnNode::new(ReplicaId::new(i + 1), &format!("n{i}"), policy);
            node.set_sync_mode(SyncMode::Digest);
            node.set_digest_policy(digest);
            node
        })
        .collect()
}

fn pair(nodes: &mut [DtnNode], i: u64, j: u64) -> (&mut DtnNode, &mut DtnNode) {
    let (i, j) = (i as usize, j as usize);
    if i < j {
        let (lo, hi) = nodes.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// One direction of a split-session digest sync, `target` pulling from
/// `source`, with the wire round trips as direct hand-offs. Byte counts
/// are what a transport would put on the wire.
fn split_sync(source: &mut DtnNode, target: &mut DtnNode, now: SimTime) -> SyncReport {
    use replidtn::pfr::wire::to_bytes;
    let limits = SyncLimits::unlimited();
    let source_id = source.id();
    let (request, state) = target.begin_digest_session(source_id, now);
    let mut digest_bytes = to_bytes(&request).len() as u64;
    let mut knowledge_shared = state.summary_kind() != "bloom";
    let (mut fallback_rounds, mut false_positives) = (0u64, 0u64);
    let batch = match source.respond_digest(&request, limits, now) {
        DigestResponse::Batch(batch) => Some(batch),
        DigestResponse::NeedVersions(query) => {
            fallback_rounds += 1;
            knowledge_shared = false;
            digest_bytes += to_bytes(&query).len() as u64;
            let answer = target.answer_digest_query(&query);
            false_positives = (0..answer.len()).filter(|&i| !answer.known(i)).count() as u64;
            digest_bytes += to_bytes(&answer).len() as u64;
            source.respond_digest_answer(&request, &query, &answer, limits, now)
        }
        DigestResponse::Resync => None,
    };
    let batch = batch.unwrap_or_else(|| {
        fallback_rounds += 1;
        knowledge_shared = true;
        digest_bytes += 1 + to_bytes(state.full_request()).len() as u64;
        source.respond_digest_resync(state.full_request(), limits, now)
    });
    let report = target.apply_sync(batch, now);
    target.commit_digest_session(
        source_id,
        state,
        knowledge_shared,
        digest_bytes,
        fallback_rounds,
        false_positives,
    );
    report
}

/// What one encounter moved: transmissions and delivered ids per side.
type Moved = (usize, Vec<ItemId>, Vec<ItemId>);

/// The split-session counterpart of `DtnNode::encounter` with an
/// unlimited budget: expiry on both sides, `a` serves `b`, then `b`
/// serves `a`.
fn split_encounter(a: &mut DtnNode, b: &mut DtnNode, now: SimTime) -> Moved {
    a.expire_messages(now);
    b.expire_messages(now);
    let to_b = split_sync(a, b, now);
    let to_a = split_sync(b, a, now);
    (
        to_b.transmitted + to_a.transmitted,
        to_a.delivered_ids,
        to_b.delivered_ids,
    )
}

fn sum_stats(nodes: &[DtnNode]) -> ReconStats {
    let mut total = ReconStats::default();
    for node in nodes {
        let s = node.recon_stats();
        total.exchanges += s.exchanges;
        total.digest_bytes += s.digest_bytes;
        total.full_bytes += s.full_bytes;
        total.fallback_rounds += s.fallback_rounds;
        total.false_positives += s.false_positives;
    }
    total
}

/// Replays one schedule through both drivers, asserting per-encounter
/// equality; returns both fleets' summed digest counters.
fn run_both(policy: PolicyKind, digest: DigestPolicy, seed: u64) -> (ReconStats, ReconStats) {
    let mut local = fleet(policy, digest);
    let mut split = fleet(policy, digest);
    let mut moved = 0usize;
    for (t, step) in schedule(seed).into_iter().enumerate() {
        let now = SimTime::from_secs(60 * t as u64);
        match step {
            Step::Send { from, to } => {
                let body = format!("{from}->{to} @{t}").into_bytes();
                for nodes in [&mut local, &mut split] {
                    nodes[from as usize]
                        .send(&format!("n{to}"), body.clone(), now)
                        .expect("send");
                }
            }
            Step::Meet { a, b } => {
                let (la, lb) = pair(&mut local, a, b);
                let report = la.encounter(lb, now, EncounterBudget::unlimited());
                let (sa, sb) = pair(&mut split, a, b);
                let (transmitted, to_a, to_b) = split_encounter(sa, sb, now);
                let ctx = format!("{policy:?} {digest:?} step {t}");
                assert_eq!(report.transmitted, transmitted, "transmissions, {ctx}");
                assert_eq!(report.delivered_to_a, to_a, "deliveries to a, {ctx}");
                assert_eq!(report.delivered_to_b, to_b, "deliveries to b, {ctx}");
                assert_eq!(report.duplicates, 0, "{ctx}");
                moved += transmitted;
            }
            Step::ClearCaches => {
                for nodes in [&mut local, &mut split] {
                    for node in nodes.iter_mut().step_by(2) {
                        node.clear_recon_state();
                    }
                }
            }
        }
    }
    assert!(
        moved > 0,
        "{policy:?} {digest:?}: the schedule moved nothing"
    );
    for (l, s) in local.iter().zip(&split) {
        let mut li: Vec<ItemId> = l.replica().iter_items().map(|i| i.id()).collect();
        let mut si: Vec<ItemId> = s.replica().iter_items().map(|i| i.id()).collect();
        li.sort();
        si.sort();
        assert_eq!(
            li,
            si,
            "{policy:?} {digest:?}: stores diverged at {}",
            l.id()
        );
        assert_eq!(l.replica().knowledge(), s.replica().knowledge());
    }
    (sum_stats(&local), sum_stats(&split))
}

#[test]
fn split_sessions_match_in_process_encounters_for_every_policy() {
    for policy in POLICIES {
        for digest in DIGEST_POLICIES {
            run_both(policy, digest, 0x5eed ^ policy as u64);
        }
    }
}

#[test]
fn routing_free_policy_matches_digest_counters_exactly() {
    for digest in DIGEST_POLICIES {
        for seed in [1u64, 2, 3] {
            let (local, split) = run_both(PolicyKind::Epidemic, digest, seed);
            assert_eq!(local, split, "{digest:?} seed {seed}");
            assert!(local.exchanges > 0);
            // The mid-run cache loss forces at least one resync round.
            assert!(local.fallback_rounds > 0, "{digest:?} seed {seed}");
        }
    }
}

/// Summed `(exchanges, digest_bytes, full_bytes, fallback_rounds,
/// false_positives)`.
type Counters = (u64, u64, u64, u64, u64);

/// Summed digest counters of a 5-day digest-mode emulation per policy.
fn emulated_stats(policy: PolicyKind) -> Counters {
    let trace = DieselNetConfig {
        days: 5,
        ..DieselNetConfig::default()
    }
    .generate();
    let workload = EmailConfig {
        injection_days: 5,
        total_messages: 150,
        ..EmailConfig::default()
    }
    .generate();
    let config = EmulationConfig {
        policy: policy.into(),
        sync_mode: SyncMode::Digest,
        // Reboots drop digest caches mid-run, so resync rounds are pinned
        // too (restored nodes also restart their counters).
        crash_rate: 0.01,
        fault_seed: 7,
        ..EmulationConfig::default()
    };
    let (_, nodes) = Emulation::new(&trace, &workload, config).run_into_parts();
    let nodes: Vec<DtnNode> = nodes.into_values().collect();
    let s = sum_stats(&nodes);
    (
        s.exchanges,
        s.digest_bytes,
        s.full_bytes,
        s.fallback_rounds,
        s.false_positives,
    )
}

/// Golden digest counters: every summary choice, byte count and counter
/// of this run is part of the wire contract, so an optimization of the
/// digest core must reproduce them exactly.
#[test]
fn digest_counters_match_golden_values() {
    let golden: [(PolicyKind, Counters); 6] = [
        (PolicyKind::Direct, (4681, 99112, 102199, 91, 0)),
        (PolicyKind::Epidemic, (4681, 130166, 267503, 91, 0)),
        (PolicyKind::SprayAndWait, (4681, 128392, 236261, 152, 14)),
        (PolicyKind::Prophet, (4681, 542021, 645533, 144, 9)),
        (PolicyKind::MaxProp, (4681, 727943, 937688, 215, 9)),
        (PolicyKind::TwoHopRelay, (4681, 112500, 172913, 91, 0)),
    ];
    for (policy, expected) in golden {
        assert_eq!(emulated_stats(policy), expected, "{policy:?}");
    }
}
