//! `hub-sessions`: one hub `NetNode` (epoll reactor) on loopback and a
//! closed loop of clients, one thread and one persistent connection per
//! core. Each client injects a few fresh messages for the next client in
//! a ring, then runs a sync session with the hub: it pulls what the hub
//! relays for it and serves its own new messages. Both sides run
//! Epidemic in full sync mode, encoding every request and batch on the
//! wire.
//!
//! The run proceeds in epochs so stores stay bounded and the run reaches
//! a steady state: after `epoch_sessions` sessions per client, every
//! client runs one drain session, checks that its inbox holds each
//! message addressed to it exactly once, and the hub and clients start
//! over with empty replicas (same identities, same connections).

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dtn::{DtnNode, DtnPolicy, PolicyKind};
use net::{NetConfig, NetNode, PollBackend};
use obs::{Obs, Registry};
use parking_lot::Mutex;
use pfr::sync::{SyncBatch, SyncRequest};
use pfr::wire::{from_bytes, from_bytes_shared, EncodeScratch};
use pfr::{ReplicaId, SimTime, SyncLimits};
use transport::protocol::initiate_session;
use transport::TcpConnection;

use crate::emulation::{hook_layers, node_layers};
use crate::replay::{request_bytes, HookClock, SpanLog, TimedPolicy};
use crate::report::Report;
use crate::scenario::{sub_seed, Size};
use crate::util::{median, ns_since, out_dir, peak_rss_mib, quantile_sorted, thread_cpu_s};

const SETUP_REPS: usize = 25;
/// Length of the segments the closed loop's figures are taken over; a
/// run reports the median segment, so a burst of interference on the
/// host moves a few segments, not the result.
const SEGMENT_NS: u64 = 1_000_000_000;
const MSGS_PER_SESSION: usize = 2;
const HUB_ID: u64 = 1_000;
/// Request-size sampling stride (sessions) for `meta_bytes_per_enc`.
const META_SAMPLE_EVERY: usize = 32;
/// Epochs the traced run's in-process replay covers.
const IN_PROCESS_EPOCHS: u64 = 4;

/// Workload parameters derived from the seed and size.
#[derive(Clone, Copy)]
struct Shape {
    clients: usize,
    epoch_sessions: usize,
    seed: u64,
}

impl Shape {
    fn new(seed: u64, size: Size) -> Shape {
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        Shape {
            clients: cores.max(2),
            epoch_sessions: match size {
                Size::Full => 250,
                Size::Tiny => 20,
            },
            seed,
        }
    }

    /// Payload of message `seq` of client `src` in `epoch`: a tag the
    /// inbox check parses back, padded to a seed-derived length between
    /// 32 and 287 bytes.
    fn payload(&self, src: usize, epoch: u64, seq: usize) -> Vec<u8> {
        let tag = format!("c{src}:e{epoch}:m{seq}:");
        let len = 32
            + (sub_seed(self.seed, (epoch << 20) ^ ((src as u64) << 12) ^ seq as u64) % 256)
                as usize;
        let mut bytes = tag.into_bytes();
        bytes.resize(len.max(bytes.len()), b'.');
        bytes
    }
}

fn client_addr(i: usize) -> String {
    format!("client-{i}")
}

fn hub_node(observer: &Obs, clock: Option<&Arc<HookClock>>) -> DtnNode {
    node(ReplicaId::new(HUB_ID), "hub", observer, clock)
}

fn client_node(i: usize, observer: &Obs, clock: Option<&Arc<HookClock>>) -> DtnNode {
    node(
        ReplicaId::new(i as u64 + 1),
        &client_addr(i),
        observer,
        clock,
    )
}

fn node(id: ReplicaId, addr: &str, observer: &Obs, clock: Option<&Arc<HookClock>>) -> DtnNode {
    let policy: Box<dyn DtnPolicy> = match clock {
        Some(clock) => Box::new(TimedPolicy::new(
            PolicyKind::Epidemic.build(),
            clock.clone(),
        )),
        None => PolicyKind::Epidemic.build(),
    };
    let mut node = DtnNode::with_policy(id, addr, policy);
    node.replica_mut().set_observer(observer.clone());
    node
}

/// The running system: the hub and one connection per client.
struct Fabric {
    hub: NetNode,
    conns: Vec<TcpConnection>,
}

fn start_fabric(shape: &Shape, observer: &Obs) -> Fabric {
    let config = NetConfig {
        workers: 1,
        backend: PollBackend::Epoll,
        gossip_interval: Duration::ZERO,
        anti_entropy_interval: Duration::ZERO,
        idle_timeout: Duration::from_secs(120),
        ..NetConfig::default()
    };
    let hub = NetNode::start(hub_node(observer, None), "127.0.0.1:0", config)
        .expect("start the hub on loopback");
    let conns = (0..shape.clients)
        .map(|_| {
            let stream = TcpStream::connect(hub.local_addr()).expect("connect to the hub");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            TcpConnection::new(stream).expect("wrap the connection")
        })
        .collect();
    Fabric { hub, conns }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientOut {
    /// Session latencies (ns) by the segment they completed in.
    segments: Vec<Vec<u32>>,
    /// When the last session completed, since the loop started.
    end_ns: u64,
    sessions: u64,
    session_failures: u64,
    epochs: u64,
    epoch_failures: u64,
    reconnects: u64,
    meta_bytes: u64,
    meta_samples: u64,
}

/// Checks client `i`'s inbox after an epoch's drain: every message the
/// previous client in the ring sent it, exactly once, and nothing else.
fn inbox_ok(shape: &Shape, i: usize, epoch: u64, node: &DtnNode) -> bool {
    let src = (i + shape.clients - 1) % shape.clients;
    let expected = shape.epoch_sessions * MSGS_PER_SESSION;
    let mut seen = vec![false; expected];
    let inbox = node.inbox();
    if inbox.len() != expected {
        return false;
    }
    let prefix = format!("c{src}:e{epoch}:m");
    for message in inbox {
        let text = String::from_utf8_lossy(&message.payload);
        let Some(rest) = text.strip_prefix(&prefix) else {
            return false;
        };
        let Some(seq) = rest.split(':').next().and_then(|s| s.parse::<usize>().ok()) else {
            return false;
        };
        if seq >= expected || seen[seq] {
            return false;
        }
        seen[seq] = true;
    }
    true
}

/// Runs the closed loop for `seconds` (at least one epoch) over `fabric`.
fn drive(shape: &Shape, fabric: &mut Fabric, seconds: f64, observer: &Obs) -> Vec<ClientOut> {
    let barrier = Barrier::new(shape.clients);
    let keep_going = AtomicBool::new(true);
    let started = Instant::now();
    let hub = &fabric.hub;
    let hub_addr = hub.local_addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = fabric
            .conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let (barrier, keep_going) = (&barrier, &keep_going);
                scope.spawn(move || {
                    let mut out = ClientOut::default();
                    let node = Arc::new(Mutex::new(client_node(i, observer, None)));
                    let dst = client_addr((i + 1) % shape.clients);
                    let mut clock = 0u64;
                    let session =
                        |out: &mut ClientOut, conn: &mut TcpConnection, clock: &mut u64| {
                            *clock += 1;
                            let start = Instant::now();
                            let outcome = initiate_session(
                                conn,
                                &node,
                                SimTime::from_secs(*clock),
                                SyncLimits::unlimited(),
                            );
                            let ns = ns_since(start);
                            if outcome.error.is_some() {
                                out.session_failures += 1;
                                // The connection may be torn; start a new one.
                                let stream =
                                    TcpStream::connect(hub_addr).expect("reconnect to the hub");
                                stream.set_nodelay(true).expect("set TCP_NODELAY");
                                *conn = TcpConnection::new(stream).expect("wrap the connection");
                                out.reconnects += 1;
                            }
                            ns
                        };
                    for epoch in 0.. {
                        for s in 0..shape.epoch_sessions {
                            {
                                let mut n = node.lock();
                                for m in 0..MSGS_PER_SESSION {
                                    let payload = shape.payload(i, epoch, s * MSGS_PER_SESSION + m);
                                    n.send(&dst, payload, SimTime::from_secs(clock))
                                        .expect("inject a message");
                                }
                                if s % META_SAMPLE_EVERY == 0 {
                                    out.meta_bytes += request_bytes(&n) as u64;
                                    out.meta_samples += 1;
                                }
                            }
                            let ns = session(&mut out, conn, &mut clock);
                            out.end_ns = ns_since(started);
                            let segment = (out.end_ns / SEGMENT_NS) as usize;
                            if out.segments.len() <= segment {
                                out.segments.resize_with(segment + 1, Vec::new);
                            }
                            out.segments[segment].push(u32::try_from(ns).unwrap_or(u32::MAX));
                            out.sessions += 1;
                        }
                        // Every client's last messages are at the hub now.
                        barrier.wait();
                        session(&mut out, conn, &mut clock);
                        out.epochs += 1;
                        if !inbox_ok(shape, i, epoch, &node.lock()) {
                            out.epoch_failures += 1;
                            eprintln!("check failed: client {i} inbox wrong after epoch {epoch}");
                        }
                        if barrier.wait().is_leader() {
                            hub.with_node(|n| *n = hub_node(observer, None));
                            keep_going
                                .store(started.elapsed().as_secs_f64() < seconds, Ordering::SeqCst);
                        }
                        barrier.wait();
                        *node.lock() = client_node(i, observer, None);
                        if !keep_going.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

pub fn run(seed: u64, seconds: u64, traced: bool, size: Size) -> Report {
    let shape = Shape::new(seed, size);
    let seconds = match size {
        Size::Full => seconds as f64,
        Size::Tiny => 0.2,
    };
    let mut report = Report::default();
    let quiet = Obs::none();
    let mut fabric = start_fabric(&shape, &quiet);

    if !traced {
        let outs = drive(&shape, &mut fabric, seconds, &quiet);
        stop(fabric);
        report.set("peak_rss_mib", peak_rss_mib());
        report.set("setup_s", setup_cpu_s(&shape, &quiet));
        let totals = summarize(&mut report, &outs);
        report.set("enc_per_s", totals.rate);
        report.set("sessions_per_s", totals.rate);
        report.set("session_p50_us", totals.p50_us);
        report.set("session_p99_us", totals.p99_us);
        report.set("meta_bytes_per_enc", totals.meta_bytes);
        return report;
    }

    // Traced run: the same loop untraced, then with a registry attached to
    // every node and to the hub's reactor, then the same session shapes
    // in process with each layer timed.
    let before = fabric.hub.stats();
    let outs = drive(&shape, &mut fabric, seconds / 2.0, &quiet);
    let after = fabric.hub.stats();
    stop(fabric);
    let plain = summarize(&mut report, &outs);
    let sessions = (after.completed - before.completed).max(1) as f64;
    report.set(
        "net.syscalls_per_session",
        (after.syscalls - before.syscalls) as f64 / sessions,
    );
    report.set(
        "net.wakeups_per_session",
        (after.wakeups - before.wakeups) as f64 / sessions,
    );
    report.set(
        "net.backpressure_stalls",
        (after.backpressure_stalls - before.backpressure_stalls) as f64,
    );
    let dialed = shape.clients as u64 + outs.iter().map(|o| o.reconnects).sum::<u64>();
    let all_sessions: u64 = outs.iter().map(|o| o.sessions + o.epochs).sum();
    report.set(
        "net.conn_reuse_ratio",
        all_sessions.saturating_sub(dialed) as f64 / all_sessions.max(1) as f64,
    );

    let registry = Arc::new(Registry::new());
    let observed = Obs::new(registry.clone());
    let mut fabric = start_fabric(&shape, &observed);
    let outs = drive(&shape, &mut fabric, seconds / 2.0, &observed);
    stop(fabric);
    let traced_totals = summarize(&mut report, &outs);
    report.set(
        "obs.trace_overhead_frac",
        plain.rate / traced_totals.rate.max(1e-9) - 1.0,
    );
    let snap = registry.snapshot();
    report.set(
        "net.wakeup_latency_us_p99",
        snap.histogram("net.wakeup_latency_us")
            .map_or(0.0, |h| h.quantile(0.99) as f64),
    );
    report.set(
        "pfr.useful_ratio",
        snap.counter("sync.entries") as f64 / snap.counter("sync.candidates").max(1) as f64,
    );

    let in_process_ns = in_process_sessions(&shape, &mut report, seed);
    report.set(
        "net.self_us_per_session",
        plain.p50_us - in_process_ns / 1e3,
    );
    report
}

/// Median CPU time of this thread over `SETUP_REPS` set-ups of the
/// fabric. Wall time, and the whole process's CPU time, flip between about
/// 30 and 200 microseconds with how the hub's new threads get scheduled.
/// This thread's CPU time flips too: the same set-up costs about 170
/// microseconds after seconds of heavy work (a `city-spill` run, or this
/// run's own loop) and about 25 after light work. Timed at the start of a
/// run, the previous run would decide the figure; timed after the closed
/// loop, most runs read the first state.
fn setup_cpu_s(shape: &Shape, quiet: &Obs) -> f64 {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let cpu = thread_cpu_s();
        let fabric = start_fabric(shape, quiet);
        setup.push(thread_cpu_s() - cpu);
        stop(fabric);
    }
    median(&setup)
}

fn stop(fabric: Fabric) {
    drop(fabric.conns);
    drop(fabric.hub.stop());
}

struct Summary {
    rate: f64,
    p50_us: f64,
    p99_us: f64,
    meta_bytes: f64,
}

/// Folds the client outputs into the aggregate numbers and the checks.
fn summarize(report: &mut Report, outs: &[ClientOut]) -> Summary {
    for (i, o) in outs.iter().enumerate() {
        report.attempted += o.sessions + o.epochs * 2;
        report.failed += o.session_failures + o.epoch_failures;
        if o.session_failures > 0 {
            eprintln!(
                "check failed: client {i} had {} failed sessions",
                o.session_failures
            );
        }
    }
    // Split the loop into whole segments by completion time (a trailing
    // partial segment is dropped unless it is all there is).
    let end = outs.iter().map(|o| o.end_ns).max().unwrap_or(0);
    let segments = (end / SEGMENT_NS).max(1) as usize;
    let mut per_segment: Vec<Vec<u64>> = vec![Vec::new(); segments];
    for o in outs {
        for (segment, latencies) in per_segment.iter_mut().zip(&o.segments) {
            segment.extend(latencies.iter().map(|&ns| u64::from(ns)));
        }
    }
    let span_s = (end.min(SEGMENT_NS) as f64 / 1e9).max(1e-9);
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for mut segment in per_segment.into_iter().filter(|s| !s.is_empty()) {
        segment.sort_unstable();
        rates.push(segment.len() as f64 / span_s);
        p50s.push(quantile_sorted(&segment, 0.50) / 1e3);
        p99s.push(quantile_sorted(&segment, 0.99) / 1e3);
    }
    let (meta, samples) = outs.iter().fold((0u64, 0u64), |(b, n), o| {
        (b + o.meta_bytes, n + o.meta_samples)
    });
    Summary {
        rate: median(&rates),
        p50_us: median(&p50s),
        p99_us: median(&p99s),
        // Both sides send one request per session; the hub's request is
        // the same shape as the client's.
        meta_bytes: 2.0 * meta as f64 / samples.max(1) as f64,
    }
}

/// Replays the hub's session shapes in process: the same nodes, the same
/// injections, the same order of calls a session makes (client pulls,
/// then serves), with each request and batch encoded and decoded as the
/// session machine does, and every layer call timed.
/// Returns the mean in-process cost of one session: sync calls plus codec.
fn in_process_sessions(shape: &Shape, report: &mut Report, seed: u64) -> f64 {
    let clock = Arc::new(HookClock::default());
    let mut log = SpanLog::new(500);
    let quiet = Obs::none();
    let fresh_clients = || -> Vec<DtnNode> {
        (0..shape.clients)
            .map(|i| client_node(i, &quiet, Some(&clock)))
            .collect()
    };
    let mut hub = hub_node(&quiet, Some(&clock));
    let mut clients = fresh_clients();
    let mut scratch = EncodeScratch::default();
    let (mut encode_ns, mut decode_ns, mut wire_bytes) = (0u64, 0u64, 0u64);
    let (mut now, mut trace) = (0u64, 0u64);
    for epoch in 0..IN_PROCESS_EPOCHS {
        if epoch > 0 {
            hub = hub_node(&quiet, Some(&clock));
            clients = fresh_clients();
        }
        for s in 0..=shape.epoch_sessions {
            for i in 0..shape.clients {
                let drain = s == shape.epoch_sessions;
                if !drain {
                    let dst = client_addr((i + 1) % shape.clients);
                    for m in 0..MSGS_PER_SESSION {
                        let payload = shape.payload(i, epoch, s * MSGS_PER_SESSION + m);
                        clients[i]
                            .send(&dst, payload, SimTime::from_secs(now))
                            .expect("inject a message");
                    }
                }
                now += 1;
                let at = SimTime::from_secs(now);
                let start = log.now_ns();
                for pull in [true, false] {
                    let (target, source) = if pull {
                        (&mut clients[i], &mut hub)
                    } else {
                        (&mut hub, &mut clients[i])
                    };
                    let open = log.open(&clock);
                    let request = target.begin_sync_session(source.id(), at);
                    log.close(open, "pfr.begin_sync", trace, &clock);
                    let t = Instant::now();
                    let request_wire = scratch.encode(&request).to_vec();
                    encode_ns += ns_since(t);
                    drop(request);
                    let t = Instant::now();
                    let decoded: SyncRequest<'static> =
                        from_bytes(&request_wire).expect("decode our own request");
                    decode_ns += ns_since(t);
                    let open = log.open(&clock);
                    let batch = source.respond_sync(&decoded, SyncLimits::unlimited(), at);
                    log.close(open, "pfr.prepare", trace, &clock);
                    let t = Instant::now();
                    let backing: Arc<[u8]> = scratch.encode(&batch).into();
                    encode_ns += ns_since(t);
                    drop(batch);
                    let t = Instant::now();
                    let (batch, _shares): (SyncBatch, u64) =
                        from_bytes_shared(&backing).expect("decode our own batch");
                    decode_ns += ns_since(t);
                    wire_bytes += (request_wire.len() + backing.len()) as u64;
                    let open = log.open(&clock);
                    let applied = target.apply_sync(batch, at);
                    log.close(open, "pfr.apply", trace, &clock);
                    report.check(applied.duplicates == 0, || {
                        "in-process duplicate receipt".to_string()
                    });
                }
                let end = log.now_ns();
                log.record(trace, "encounter", start, end, 0);
                trace += 1;
            }
        }
        for (i, client) in clients.iter().enumerate() {
            report.check(inbox_ok(shape, i, epoch, client), || {
                format!("in-process client {i} inbox wrong after epoch {epoch}")
            });
        }
    }
    clients.push(hub);
    node_layers(report, &clients);
    let spans_path = out_dir().join(format!("spans-hub-sessions-seed{seed}.jsonl"));
    let mut spans_out =
        std::io::BufWriter::new(std::fs::File::create(&spans_path).expect("create spans file"));
    log.write_jsonl(&mut spans_out, "in-process-sessions")
        .expect("write spans");

    let all = trace.max(1) as f64;
    let per = |ns: u64| ns as f64 / all;
    hook_layers(report, &clock, trace);
    report.set(
        "pfr.begin_sync_ns_per_enc",
        per(log.self_ns("pfr.begin_sync")),
    );
    report.set("pfr.prepare_ns_per_enc", per(log.self_ns("pfr.prepare")));
    report.set("pfr.apply_ns_per_enc", per(log.self_ns("pfr.apply")));
    report.set("pfr.wire_encode_ns_per_session", per(encode_ns));
    report.set("pfr.wire_decode_ns_per_session", per(decode_ns));
    report.set("transport.wire_bytes_per_session", wire_bytes as f64 / all);
    let sync_ns: u64 = ["pfr.begin_sync", "pfr.prepare", "pfr.apply"]
        .iter()
        .map(|n| log.total_ns(n))
        .sum();
    (sync_ns + encode_ns + decode_ns) as f64 / all
}
