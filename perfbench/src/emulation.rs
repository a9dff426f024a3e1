//! The two emulation workloads: `paper-routing-digest` (serial in-memory
//! engine, digest sync, PROPHET then MaxProp) and `city-spill` (sharded
//! engine with a resident cap and spill, spooled city trace, PROPHET).

use std::sync::Arc;
use std::time::Instant;

use dtn::{DtnNode, PolicyKind};
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use obs::{Registry, RegistrySnapshot};
use pfr::SyncMode;

use crate::replay::{replay, HookClock, Mode, SpanLog, Totals};
use crate::report::Report;
use crate::scenario::{
    city_inputs, paper_inputs, sub_seed, EmuInputs, FleetSpec, Size, TraceInput,
};
use crate::util::{
    median, ns_since, out_dir, peak_rss_mib, quantile_sorted, thread_cpu_s, ScratchDir,
};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Once set-up has taken this long (the city spool's fsync can take
/// seconds on a shared disk), stop repeating it after `MIN_SETUP_REPS`, so
/// a slow disk cannot push a run past its time limit.
const SETUP_BUDGET_S: f64 = 10.0;
const MIN_SETUP_REPS: usize = 3;
/// Minimum measured rounds per run, however long they take.
const MIN_ROUNDS: usize = 3;
/// The opening engine rounds, before `peak_rss_mib` is read, last at least
/// this long (see `run_timed`).
const OPENING_S: f64 = 5.0;
/// Blocks of consecutive encounters per scenario for the session metrics'
/// block-wise median (see `session_metrics`).
const SESSION_BLOCKS: usize = 16;
/// Independent input scenarios per run. A scenario's cost, memory and
/// metadata depend on how its messages happen to spread, so a run cycles
/// through several to keep the seed-to-seed spread small.
const SCENARIOS: u64 = 4;
/// Spans kept individually per traced replay (aggregates cover all).
const SPANS_KEPT: u64 = 500;
/// City workload: relay cap per node and the sampling stride of the
/// full-mode request-size estimate.
const CITY_RELAY_LIMIT: usize = 4;
const META_SAMPLE_EVERY: u64 = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum EmuKind {
    PaperRoutingDigest,
    CitySpill,
}

impl EmuKind {
    fn name(self) -> &'static str {
        match self {
            EmuKind::PaperRoutingDigest => "paper-routing-digest",
            EmuKind::CitySpill => "city-spill",
        }
    }

    fn policies(self) -> &'static [PolicyKind] {
        match self {
            EmuKind::PaperRoutingDigest => &[PolicyKind::Prophet, PolicyKind::MaxProp],
            EmuKind::CitySpill => &[PolicyKind::Prophet],
        }
    }

    fn spec(self, policy: PolicyKind, seed: u64) -> FleetSpec {
        let (sync_mode, relay_limit) = match self {
            EmuKind::PaperRoutingDigest => (SyncMode::Digest, None),
            EmuKind::CitySpill => (SyncMode::Full, Some(CITY_RELAY_LIMIT)),
        };
        FleetSpec {
            policy,
            sync_mode,
            relay_limit,
            assignment_seed: sub_seed(seed, 3),
        }
    }
}

/// Generated inputs plus the directories the city engine spills into.
struct Prepared {
    inputs: EmuInputs,
    spill: ScratchDir,
}

impl Prepared {
    fn config(&self, kind: EmuKind, spec: &FleetSpec) -> EmulationConfig {
        let base = EmulationConfig {
            policy: spec.policy.into(),
            sync_mode: spec.sync_mode,
            relay_limit: spec.relay_limit,
            assignment_seed: spec.assignment_seed,
            ..EmulationConfig::default()
        };
        match kind {
            EmuKind::PaperRoutingDigest => base,
            EmuKind::CitySpill => EmulationConfig {
                shards: Some(2),
                spill_dir: Some(self.spill.0.clone()),
                resident_limit: Some((self.inputs.fleet * 3 / 5).max(16)),
                ..base
            },
        }
    }

    fn emulation(&self, config: EmulationConfig) -> Emulation<'_> {
        match &self.inputs.trace {
            TraceInput::Memory(t) => Emulation::new(t, &self.inputs.mail, config),
            TraceInput::Spooled(t) => Emulation::from_spooled(t, &self.inputs.mail, config),
        }
    }
}

/// Generates scenario `index` of the run's inputs.
fn generate(kind: EmuKind, seed: u64, index: u64, size: Size, scratch: &ScratchDir) -> Prepared {
    let scenario_seed = sub_seed(seed, 16 + index);
    let spill = ScratchDir::new(&format!("{}-spill-{index}", kind.name()));
    let inputs = match kind {
        EmuKind::PaperRoutingDigest => paper_inputs(scenario_seed, size),
        EmuKind::CitySpill => city_inputs(
            scenario_seed,
            size,
            &scratch.0.join(format!("city-{index}.spool")),
        ),
    };
    Prepared { inputs, spill }
}

/// Generates the first scenario up to `SETUP_REPS` times (writing the
/// spool each time for the city workload) and builds its first emulation once
/// per repetition, then generates the remaining scenarios. Returns the
/// scenarios with the median set-up time of one (CPU seconds, see
/// `run`) and its median generation wall time.
fn set_up(kind: EmuKind, seed: u64, size: Size, scratch: &ScratchDir) -> (Vec<Prepared>, f64, f64) {
    let (mut setup, mut gen) = (Vec::new(), Vec::new());
    let mut first = None;
    let began = Instant::now();
    while setup.len() < SETUP_REPS
        && (setup.len() < MIN_SETUP_REPS || began.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        // Drop the previous repetition first so its spool is closed before
        // the file is rewritten.
        drop(first.take());
        let (start, cpu) = (Instant::now(), thread_cpu_s());
        let p = generate(kind, seed, 0, size, scratch);
        gen.push(start.elapsed().as_secs_f64());
        let spec = kind.spec(kind.policies()[0], seed);
        drop(std::hint::black_box(p.emulation(p.config(kind, &spec))));
        setup.push(thread_cpu_s() - cpu);
        first = Some(p);
    }
    let mut scenarios = vec![first.expect("at least one set-up repetition")];
    for index in 1..SCENARIOS {
        scenarios.push(generate(kind, seed, index, size, scratch));
    }
    (scenarios, median(&setup), median(&gen))
}

/// Engine-level output checks shared by every replay.
fn check_engine(report: &mut Report, kind: EmuKind, policy: PolicyKind, m: &ExperimentMetrics) {
    report.check(m.duplicates == 0, || {
        format!(
            "{}/{policy}: {} duplicate receipts",
            kind.name(),
            m.duplicates
        )
    });
    report.check(m.delivered() <= m.injected(), || {
        format!(
            "{}/{policy}: delivered {} > injected {}",
            kind.name(),
            m.delivered(),
            m.injected()
        )
    });
}

/// The replayer's replay must reproduce the engine's counts exactly.
fn check_replayer(report: &mut Report, what: &str, m: &ExperimentMetrics, t: &Totals) {
    let engine = Totals {
        encounters: m.encounters,
        transmissions: m.transmissions,
        deliveries: m.delivered() as u64,
        duplicates: m.duplicates,
        injected: m.injected() as u64,
    };
    report.check(engine == *t, || {
        format!("{what}: replayer {t:?} differs from engine {engine:?}")
    });
}

/// Runs one emulation workload. `setup_s` counts the CPU time of the
/// thread that sets up, not wall time: the city set-up ends in an fsync of the
/// spool, and that wait on a shared disk varies several-fold from one
/// repetition, and one run, to the next.
pub fn run(kind: EmuKind, seed: u64, seconds: u64, traced: bool, size: Size) -> Report {
    let scratch = ScratchDir::new(kind.name());
    let (scenarios, setup_s, gen_s) = set_up(kind, seed, size, &scratch);
    let mut report = Report::default();
    if traced {
        report.set("traces.gen_s", gen_s);
        run_traced(kind, seed, &scenarios[0], &mut report);
    } else {
        report.set("setup_s", setup_s);
        run_timed(kind, seed, seconds as f64, &scenarios, &mut report);
    }
    report
}

/// The timed run. Every round replays one scenario, round-robin: an
/// engine round runs it through `emu::Emulation` (`enc_per_s`, the median
/// over engine rounds), a session round through the replayer's
/// `DtnNode::encounter` loop with every encounter timed (`sessions_per_s`
/// and the latency percentiles, see `session_metrics`). The run starts
/// with engine rounds only (at least `MIN_ROUNDS`, one per scenario, and
/// `OPENING_S` seconds' worth) and reads `peak_rss_mib` after them: before
/// any session round holds a whole fleet in memory, and over several
/// rounds, because one round's peak varies with the shard threads'
/// timing. Then session and engine rounds alternate until the window is
/// over, so both sample the same stretch of time on the host.
fn run_timed(kind: EmuKind, seed: u64, seconds: f64, scenarios: &[Prepared], report: &mut Report) {
    let n = scenarios.len();
    let mut reference: Vec<Vec<ExperimentMetrics>> = vec![Vec::new(); n];
    let mut rates = Vec::new();
    let mut sessions: Vec<Vec<Vec<u64>>> = vec![Vec::new(); n];
    let mut meta_per_enc = vec![None; n];
    let started = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS.max(n) || started.elapsed().as_secs_f64() < OPENING_S {
        let j = round % n;
        round += 1;
        rates.push(engine_round(
            kind,
            seed,
            j,
            &scenarios[j],
            &mut reference[j],
            report,
        ));
    }
    report.set("peak_rss_mib", peak_rss_mib());
    let mut session_rounds = 0;
    while session_rounds < n || started.elapsed().as_secs_f64() < seconds {
        let j = round % n;
        round += 1;
        let (latencies, meta) = session_round(kind, seed, j, &scenarios[j], &reference[j], report);
        sessions[j].push(latencies);
        meta_per_enc[j] = Some(meta);
        session_rounds += 1;
        rates.push(engine_round(
            kind,
            seed,
            j,
            &scenarios[j],
            &mut reference[j],
            report,
        ));
    }
    let (rate, p50, p99) = session_metrics(&sessions);
    report.set("enc_per_s", median(&rates));
    report.set("sessions_per_s", rate);
    report.set("session_p50_us", p50);
    report.set("session_p99_us", p99);
    let meta: Vec<f64> = meta_per_enc.into_iter().flatten().collect();
    report.set(
        "meta_bytes_per_enc",
        meta.iter().sum::<f64>() / meta.len().max(1) as f64,
    );
}

/// Replays scenario `j` through the engine once per policy, checks the
/// results, and returns the round's encounters per second.
fn engine_round(
    kind: EmuKind,
    seed: u64,
    j: usize,
    p: &Prepared,
    reference: &mut Vec<ExperimentMetrics>,
    report: &mut Report,
) -> f64 {
    let (mut encounters, mut secs) = (0u64, 0.0f64);
    for (i, &policy) in kind.policies().iter().enumerate() {
        let spec = kind.spec(policy, seed);
        let emulation = p.emulation(p.config(kind, &spec));
        let start = Instant::now();
        let metrics = emulation.run();
        secs += start.elapsed().as_secs_f64();
        encounters += metrics.encounters;
        check_engine(report, kind, policy, &metrics);
        match reference.get(i) {
            None => reference.push(metrics),
            Some(first) => report.check(*first == metrics, || {
                format!("{}/{policy}: replay not deterministic", kind.name())
            }),
        }
    }
    eprintln!(
        "engine round: scenario {j}, {encounters} encounters in {secs:.3} s, VmHWM {:.1} MiB",
        peak_rss_mib()
    );
    encounters as f64 / secs.max(1e-9)
}

/// The session metrics of a run: encounters per second of busy time and
/// the 50th and 99th percentile of encounter latency, in microseconds,
/// each the median over scenarios. `rounds[j]` holds the per-encounter
/// latencies of each session round of scenario `j`, in replay order. A
/// scenario's rounds are combined block-wise: its encounters are cut into
/// `SESSION_BLOCKS` blocks of consecutive encounters, and for every block
/// the round whose time on it is the median (the lower one of an even
/// count) supplies its latencies. A slow stretch on the host that covers a
/// block in fewer than half of a scenario's rounds drops out, and the
/// median over scenarios outvotes a scenario whose rounds all ran slow.
fn session_metrics(rounds: &[Vec<Vec<u64>>]) -> (f64, f64, f64) {
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for scenario in rounds.iter().filter(|r| !r.is_empty()) {
        let len = scenario.iter().map(Vec::len).min().unwrap_or(0);
        let block = len.div_ceil(SESSION_BLOCKS).max(1);
        let mut combined = Vec::with_capacity(len);
        for start in (0..len).step_by(block) {
            let end = (start + block).min(len);
            let mut blocks: Vec<&[u64]> = scenario.iter().map(|r| &r[start..end]).collect();
            blocks.sort_by_key(|b| b.iter().sum::<u64>());
            combined.extend_from_slice(blocks[(blocks.len() - 1) / 2]);
        }
        let busy_ns: u64 = combined.iter().sum();
        rates.push(combined.len() as f64 / (busy_ns as f64 / 1e9).max(1e-9));
        combined.sort_unstable();
        p50s.push(quantile_sorted(&combined, 0.50) / 1e3);
        p99s.push(quantile_sorted(&combined, 0.99) / 1e3);
    }
    (median(&rates), median(&p50s), median(&p99s))
}

/// Replays scenario `j` through the replayer's `DtnNode::encounter` loop
/// once per policy, timing every encounter and checking the counts
/// against the engine's. Returns the per-encounter latencies in replay
/// order and the scenario's metadata bytes per encounter.
fn session_round(
    kind: EmuKind,
    seed: u64,
    j: usize,
    p: &Prepared,
    reference: &[ExperimentMetrics],
    report: &mut Report,
) -> (Vec<u64>, f64) {
    let mut latencies = Vec::new();
    let (mut encounters, mut meta_bytes) = (0u64, 0.0f64);
    for (i, &policy) in kind.policies().iter().enumerate() {
        let spec = kind.spec(policy, seed);
        let out = replay(
            &p.inputs,
            &spec,
            Mode::Plain {
                latencies_ns: &mut latencies,
                meta_every: META_SAMPLE_EVERY,
            },
        );
        let what = format!("{}/{policy} scenario {j} sessions", kind.name());
        check_replayer(report, &what, &reference[i], &out.totals);
        encounters += out.totals.encounters;
        meta_bytes += match spec.sync_mode {
            SyncMode::Digest => out
                .nodes
                .iter()
                .map(|n| n.recon_stats().digest_bytes as f64)
                .sum::<f64>(),
            SyncMode::Full => {
                out.sampled_meta_bytes_per_enc.unwrap_or(0.0) * out.totals.encounters as f64
            }
        };
    }
    let busy_s = latencies.iter().sum::<u64>() as f64 / 1e9;
    eprintln!("session round: scenario {j}, {encounters} encounters in {busy_s:.3} s");
    (latencies, meta_bytes / encounters.max(1) as f64)
}

fn run_traced(kind: EmuKind, seed: u64, p: &Prepared, report: &mut Report) {
    let policies = kind.policies();
    let registry = Arc::new(Registry::new());
    let (mut plain_s, mut observed_s) = (0.0, 0.0);
    let mut engine = Vec::new();
    for &policy in policies {
        let spec = kind.spec(policy, seed);
        let emulation = p.emulation(p.config(kind, &spec));
        let start = Instant::now();
        let metrics = emulation.run();
        plain_s += start.elapsed().as_secs_f64();
        check_engine(report, kind, policy, &metrics);

        let config = EmulationConfig {
            observer: Some(registry.clone()),
            ..p.config(kind, &spec)
        };
        let emulation = p.emulation(config);
        let start = Instant::now();
        let observed = emulation.run();
        observed_s += start.elapsed().as_secs_f64();
        report.check(observed == metrics, || {
            format!(
                "{}/{policy}: attaching a registry changed the run",
                kind.name()
            )
        });
        engine.push(metrics);
    }
    report.set(
        "obs.trace_overhead_frac",
        observed_s / plain_s.max(1e-9) - 1.0,
    );
    let snap = registry.snapshot();
    let encounters: u64 = engine.iter().map(|m| m.encounters).sum();
    set_registry_layers(report, &snap, encounters);

    // The replayer, in the workload's own sync mode.
    let spans_path = out_dir().join(format!("spans-{}-seed{seed}.jsonl", kind.name()));
    let mut spans_out =
        std::io::BufWriter::new(std::fs::File::create(&spans_path).expect("create spans file"));
    let clock = Arc::new(HookClock::default());
    let mut log = SpanLog::new(SPANS_KEPT);
    let mut last_nodes: Vec<DtnNode> = Vec::new();
    for (i, &policy) in policies.iter().enumerate() {
        let spec = kind.spec(policy, seed);
        let out = replay(
            &p.inputs,
            &spec,
            Mode::Traced {
                log: &mut log,
                clock: clock.clone(),
                full_sync: false,
            },
        );
        check_replayer(
            report,
            &format!("{}/{policy} traced", kind.name()),
            &engine[i],
            &out.totals,
        );
        last_nodes = out.nodes;
    }
    log.write_jsonl(&mut spans_out, "workload-mode")
        .expect("write spans");
    let per = |ns: u64| ns as f64 / encounters.max(1) as f64;
    hook_layers(report, &clock, encounters);
    report.set("dtn.expire_ns_per_enc", per(log.self_ns("dtn.expire")));

    // Layer self times of the full protocol. In digest mode, a second
    // replay runs the full protocol on the same inputs (results are
    // identical by design, and checked), and the digest layer's cost is
    // the difference between the two replays' sync self time.
    let full_log = if kind.spec(policies[0], seed).sync_mode == SyncMode::Digest {
        let digest_sync: u64 = [
            "recon.begin_digest",
            "recon.respond_digest",
            "recon.answer_query",
            "recon.respond_answer",
            "recon.respond_resync",
            "recon.commit",
            "pfr.apply",
        ]
        .iter()
        .map(|n| log.self_ns(n))
        .sum();
        let full_clock = Arc::new(HookClock::default());
        let mut full_log = SpanLog::new(SPANS_KEPT);
        for (i, &policy) in policies.iter().enumerate() {
            let spec = kind.spec(policy, seed);
            let out = replay(
                &p.inputs,
                &spec,
                Mode::Traced {
                    log: &mut full_log,
                    clock: full_clock.clone(),
                    full_sync: true,
                },
            );
            check_replayer(
                report,
                &format!("{}/{policy} full-protocol", kind.name()),
                &engine[i],
                &out.totals,
            );
        }
        full_log
            .write_jsonl(&mut spans_out, "full-protocol")
            .expect("write spans");
        let full_sync: u64 = ["pfr.begin_sync", "pfr.prepare", "pfr.apply"]
            .iter()
            .map(|n| full_log.self_ns(n))
            .sum();
        report.set(
            "recon.ns_per_enc",
            (digest_sync as f64 - full_sync as f64) / encounters.max(1) as f64,
        );
        full_log
    } else {
        log
    };
    report.set(
        "pfr.begin_sync_ns_per_enc",
        per(full_log.self_ns("pfr.begin_sync")),
    );
    report.set(
        "pfr.prepare_ns_per_enc",
        per(full_log.self_ns("pfr.prepare")),
    );
    report.set("pfr.apply_ns_per_enc", per(full_log.self_ns("pfr.apply")));
    drop(spans_out);

    node_layers(report, &last_nodes);
    if let TraceInput::Spooled(spool) = &p.inputs.trace {
        let start = Instant::now();
        let streamed = spool.iter().expect("reopen spool").count() as u64;
        let ns = ns_since(start);
        report.check(streamed == spool.len(), || {
            "spool length changed".to_string()
        });
        report.set(
            "traces.spool_ns_per_enc",
            ns as f64 / streamed.max(1) as f64,
        );
    }
}

/// The `dtn` hook metrics from a traced replay's hook clock.
pub fn hook_layers(report: &mut Report, clock: &HookClock, encounters: u64) {
    let per =
        |c: &std::sync::atomic::AtomicU64| HookClock::get(c) as f64 / encounters.max(1) as f64;
    report.set("dtn.process_request_ns_per_enc", per(&clock.process_ns));
    report.set("dtn.generate_request_ns_per_enc", per(&clock.generate_ns));
    report.set("dtn.to_send_ns_per_enc", per(&clock.to_send_ns));
    report.set("dtn.to_send_calls_per_enc", per(&clock.to_send_calls));
    report.set(
        "dtn.prepare_outgoing_ns_per_enc",
        per(&clock.prepare_outgoing_ns),
    );
    report.set("dtn.routing_state_bytes", per(&clock.routing_bytes));
}

/// Counts read from the engine's own registry.
fn set_registry_layers(report: &mut Report, snap: &RegistrySnapshot, encounters: u64) {
    let per = |v: u64| v as f64 / encounters.max(1) as f64;
    report.set("emu.handoffs_per_enc", per(snap.counter("shard.handoffs")));
    report.set("emu.thrash_ratio", per(snap.counter("shard.unspills")));
    report.set(
        "emu.resident_peak",
        snap.gauge("shard.resident_peak") as f64,
    );
    report.set("store.spills_per_enc", per(snap.counter("shard.spills")));
    report.set(
        "store.spill_bytes_per_enc",
        per(snap.counter("shard.spill_bytes")),
    );
    report.set(
        "store.unspill_us_p50",
        snap.histogram("emu.unspill_latency_us")
            .map_or(0.0, |h| h.quantile(0.5) as f64),
    );
    report.set(
        "store.spill_file_mib",
        snap.gauge("shard.spill_file_bytes") as f64 / (1024.0 * 1024.0),
    );
    let candidates = snap.counter("sync.candidates");
    report.set(
        "pfr.useful_ratio",
        snap.counter("sync.entries") as f64 / candidates.max(1) as f64,
    );
    let exchanges: u64 = ["full", "unchanged", "delta", "bloom"]
        .iter()
        .map(|k| snap.counter(&format!("recon.summary.{k}")))
        .sum();
    if exchanges > 0 {
        let per_x = |v: u64| v as f64 / exchanges as f64;
        report.set(
            "recon.fallback_ratio",
            per_x(snap.counter("recon.fallback_rounds")),
        );
        report.set(
            "recon.false_positives_per_exchange",
            per_x(snap.counter("recon.false_positives")),
        );
        report.set(
            "recon.full_share",
            per_x(snap.counter("recon.summary.full")),
        );
    }
}

/// Per-node state sizes and snapshot/restore cost at the end of a replay.
pub fn node_layers(report: &mut Report, nodes: &[DtnNode]) {
    if nodes.is_empty() {
        return;
    }
    let n = nodes.len() as f64;
    let entries: usize = nodes
        .iter()
        .map(|node| {
            let k = node.replica().knowledge();
            k.replica_count() + k.exception_count()
        })
        .sum();
    report.set("pfr.knowledge_entries", entries as f64 / n);
    let (mut bytes, mut snap_ns, mut restore_ns) = (0u64, 0u64, 0u64);
    for node in nodes {
        let start = Instant::now();
        let snapshot = node.snapshot();
        snap_ns += ns_since(start);
        bytes += snapshot.len() as u64;
        let start = Instant::now();
        let restored = DtnNode::restore(&snapshot);
        restore_ns += ns_since(start);
        report.check(restored.is_ok(), || {
            format!("restore of node {} failed", node.id())
        });
    }
    report.set("pfr.snapshot_bytes_per_node", bytes as f64 / n);
    report.set("pfr.snapshot_us_per_node", snap_ns as f64 / n / 1e3);
    report.set("pfr.restore_us_per_node", restore_ns as f64 / n / 1e3);
}
