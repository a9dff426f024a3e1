//! The benchmark's own replay replayer.
//!
//! It rebuilds an emulation's fleet from public API calls — the same node
//! set, relay cap, sync mode, daily user assignment and injection order
//! as `emu::Emulation` — and replays the encounters one at a time. Two
//! modes share the bookkeeping:
//!
//! * [`Mode::Plain`] calls `DtnNode::encounter`, the call the serial engine
//!   makes, and times each call: the per-encounter session latencies.
//! * [`Mode::Traced`] splits each encounter into the layer calls the engine
//!   makes inside it (expiry, then begin / respond / apply per direction,
//!   or the digest-session calls in digest mode), records a span around
//!   each, and wraps every node's policy in [`TimedPolicy`] so hook time
//!   is known and can be subtracted to give each layer's self time.
//!
//! Both modes must reproduce the engine's transmission, delivery and
//! duplicate counts exactly; the callers check that.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dtn::{DigestResponse, DtnNode, DtnPolicy, EncounterBudget, PolicySummary};
use pfr::sync::{HostContext, SendDecision, SyncReport, SyncRequest};
use pfr::{Item, ItemId, ReplicaId, RoutingState, SimTime, SyncExtension, SyncLimits, SyncMode};
use traces::{bus_address, Encounter, UserAssignment};

use crate::scenario::{EmuInputs, FleetSpec, TraceInput};
use crate::util::ns_since;

/// Accumulated wall time (and call counts) of the five routing-policy
/// hooks across every node of a traced replay.
#[derive(Default)]
pub struct HookClock {
    pub generate_ns: AtomicU64,
    pub routing_bytes: AtomicU64,
    pub process_ns: AtomicU64,
    pub to_send_ns: AtomicU64,
    pub to_send_calls: AtomicU64,
    pub prepare_outgoing_ns: AtomicU64,
    pub on_delivered_ns: AtomicU64,
}

impl HookClock {
    fn add(counter: &AtomicU64, value: u64) {
        counter.fetch_add(value, Ordering::Relaxed);
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Total hook time so far; a span subtracts the growth of this over
    /// its interval to get its own self time.
    pub fn total_ns(&self) -> u64 {
        [
            &self.generate_ns,
            &self.process_ns,
            &self.to_send_ns,
            &self.prepare_outgoing_ns,
            &self.on_delivered_ns,
        ]
        .iter()
        .map(|c| Self::get(c))
        .sum()
    }
}

/// A `DtnPolicy` decorator that times the five `SyncExtension` hooks of
/// the policy it wraps and forwards everything else unchanged.
pub struct TimedPolicy {
    inner: Box<dyn DtnPolicy>,
    clock: Arc<HookClock>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn DtnPolicy>, clock: Arc<HookClock>) -> TimedPolicy {
        TimedPolicy { inner, clock }
    }
}

impl SyncExtension for TimedPolicy {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn generate_request(&mut self, cx: &mut HostContext<'_>) -> RoutingState {
        let start = Instant::now();
        let state = self.inner.generate_request(cx);
        HookClock::add(&self.clock.generate_ns, ns_since(start));
        HookClock::add(&self.clock.routing_bytes, state.as_bytes().len() as u64);
        state
    }

    fn process_request(&mut self, cx: &mut HostContext<'_>, request: &SyncRequest<'_>) {
        let start = Instant::now();
        self.inner.process_request(cx, request);
        HookClock::add(&self.clock.process_ns, ns_since(start));
    }

    fn to_send(
        &mut self,
        cx: &mut HostContext<'_>,
        item_id: ItemId,
        request: &SyncRequest<'_>,
    ) -> SendDecision {
        let start = Instant::now();
        let decision = self.inner.to_send(cx, item_id, request);
        HookClock::add(&self.clock.to_send_ns, ns_since(start));
        HookClock::add(&self.clock.to_send_calls, 1);
        decision
    }

    fn prepare_outgoing(
        &mut self,
        cx: &mut HostContext<'_>,
        item: &mut Item,
        target: ReplicaId,
        matched_filter: bool,
    ) {
        let start = Instant::now();
        self.inner
            .prepare_outgoing(cx, item, target, matched_filter);
        HookClock::add(&self.clock.prepare_outgoing_ns, ns_since(start));
    }

    fn on_delivered(&mut self, cx: &mut HostContext<'_>, delivered: &[ItemId]) {
        let start = Instant::now();
        self.inner.on_delivered(cx, delivered);
        HookClock::add(&self.clock.on_delivered_ns, ns_since(start));
    }
}

impl DtnPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn summary(&self) -> PolicySummary {
        self.inner.summary()
    }

    fn set_local_addresses(&mut self, addrs: std::collections::BTreeSet<String>) {
        self.inner.set_local_addresses(addrs);
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.inner.restore_state(bytes);
    }
}

/// Per-span-name aggregate over a whole traced replay.
#[derive(Clone, Copy, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct SpanRec {
    trace: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
}

/// Spans of a traced replay. Aggregates cover every span; the first
/// `keep` encounters are also kept span by span, in memory, and written
/// out once the replay ends.
pub struct SpanLog {
    base: Instant,
    keep: u64,
    spans: Vec<SpanRec>,
    pub agg: BTreeMap<&'static str, SpanAgg>,
    /// Running sum of every non-root span's duration, so a root span can
    /// subtract the part of its interval its children cover.
    child_total_ns: u64,
}

/// An open span: its start and the hook clock reading at its start.
pub struct Open {
    start_ns: u64,
    hooks_ns: u64,
}

impl SpanLog {
    pub fn new(keep: u64) -> SpanLog {
        SpanLog {
            base: Instant::now(),
            keep,
            spans: Vec::new(),
            agg: BTreeMap::new(),
            child_total_ns: 0,
        }
    }

    pub fn open(&self, clock: &HookClock) -> Open {
        Open {
            hooks_ns: clock.total_ns(),
            start_ns: ns_since(self.base),
        }
    }

    /// Closes a span whose children are the policy hooks it called: its
    /// self time is its duration minus the hook time inside it.
    pub fn close(&mut self, open: Open, name: &'static str, trace: u64, clock: &HookClock) {
        let end_ns = ns_since(self.base);
        let hooks = clock.total_ns() - open.hooks_ns;
        self.record(trace, name, open.start_ns, end_ns, hooks);
    }

    /// Records a span with an explicit child time.
    pub fn record(
        &mut self,
        trace: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        child_ns: u64,
    ) {
        let total = end_ns.saturating_sub(start_ns);
        if name != "encounter" {
            self.child_total_ns += total;
        }
        let self_ns = total.saturating_sub(child_ns);
        let agg = self.agg.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += total;
        agg.self_ns += self_ns;
        if trace < self.keep {
            self.spans.push(SpanRec {
                trace,
                name,
                start_ns,
                end_ns,
                self_ns,
            });
        }
    }

    pub fn now_ns(&self) -> u64 {
        ns_since(self.base)
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.agg.get(name).map_or(0, |a| a.self_ns)
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.agg.get(name).map_or(0, |a| a.total_ns)
    }

    /// Writes the kept spans as JSON lines (one span per line, children
    /// naming `encounter` of the same trace id as parent), followed by one
    /// aggregate line per span name.
    pub fn write_jsonl(&self, out: &mut impl Write, label: &str) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.name == "encounter" {
                "null"
            } else {
                "\"encounter\""
            };
            writeln!(
                out,
                "{{\"replay\": \"{label}\", \"trace\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.trace, s.name, s.start_ns, s.end_ns, s.self_ns
            )?;
        }
        for (name, a) in &self.agg {
            writeln!(
                out,
                "{{\"replay\": \"{label}\", \"aggregate\": \"{name}\", \"count\": {}, \
                 \"total_ns\": {}, \"self_ns\": {}}}",
                a.count, a.total_ns, a.self_ns
            )?;
        }
        Ok(())
    }
}

/// How the replayer runs each encounter.
pub enum Mode<'a> {
    /// `DtnNode::encounter`, timed per call into `latencies_ns`.
    Plain {
        latencies_ns: &'a mut Vec<u64>,
        /// In full sync mode, also sample the encoded size of the two
        /// sync requests every this many encounters (0 = never).
        meta_every: u64,
    },
    /// Layer-by-layer calls under spans; `full_sync` forces the full
    /// protocol even when the fleet runs digest mode (used to isolate the
    /// digest layer's cost by difference).
    Traced {
        log: &'a mut SpanLog,
        clock: Arc<HookClock>,
        full_sync: bool,
    },
}

/// Counts a replay produces; the engine's metrics must match them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub encounters: u64,
    pub transmissions: u64,
    pub deliveries: u64,
    pub duplicates: u64,
    pub injected: u64,
}

/// What one replay leaves behind besides its totals.
pub struct Replayed {
    pub totals: Totals,
    pub nodes: Vec<DtnNode>,
    /// Sampled sync-request metadata bytes per encounter (full mode,
    /// plain replays with sampling on).
    pub sampled_meta_bytes_per_enc: Option<f64>,
}

struct MeetResult {
    transmitted: usize,
    duplicates: usize,
    to_a: Vec<ItemId>,
    to_b: Vec<ItemId>,
}

/// Builds the fleet exactly as `emu::Emulation` does for the default
/// self-only filter strategy.
pub fn build_fleet(
    ids: &[ReplicaId],
    spec: &FleetSpec,
    clock: Option<&Arc<HookClock>>,
) -> Vec<DtnNode> {
    ids.iter()
        .map(|&id| {
            let policy: Box<dyn DtnPolicy> = match clock {
                Some(clock) => Box::new(TimedPolicy::new(spec.policy.build(), clock.clone())),
                None => spec.policy.build(),
            };
            let mut node = DtnNode::with_policy(id, &bus_address(id), policy);
            node.replica_mut().set_relay_limit(spec.relay_limit);
            node.set_sync_mode(spec.sync_mode);
            node
        })
        .collect()
}

fn pair_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    if i < j {
        let (lo, hi) = v.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// Encoded size of the full sync request `node` would send right now
/// (knowledge and filter; routing state is accounted separately).
pub fn request_bytes(node: &DtnNode) -> usize {
    let request = SyncRequest {
        target: node.id(),
        knowledge: Cow::Borrowed(node.replica().knowledge()),
        filter: Cow::Borrowed(node.replica().filter()),
        routing: RoutingState::empty(),
    };
    pfr::wire::to_bytes(&request).len()
}

/// Replays `inputs` under `spec` through the replayer.
pub fn replay(inputs: &EmuInputs, spec: &FleetSpec, mut mode: Mode<'_>) -> Replayed {
    let (ids, assignment): (Vec<ReplicaId>, UserAssignment) = match &inputs.trace {
        TraceInput::Memory(t) => (
            t.nodes().into_iter().collect(),
            UserAssignment::uniform(t, inputs.mail.users(), spec.assignment_seed),
        ),
        TraceInput::Spooled(t) => (
            t.nodes().iter().copied().collect(),
            UserAssignment::uniform_spooled(t, inputs.mail.users(), spec.assignment_seed),
        ),
    };
    let clock = match &mode {
        Mode::Traced { clock, .. } => Some(clock.clone()),
        Mode::Plain { .. } => None,
    };
    let mut nodes = build_fleet(&ids, spec, clock.as_ref());
    let index: HashMap<ReplicaId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    // Message id -> (destination address, delivered yet).
    let mut records: HashMap<ItemId, (String, bool)> = HashMap::new();
    let mut totals = Totals::default();
    let (mut meta_bytes, mut meta_samples) = (0u64, 0u64);

    let encounters: Box<dyn Iterator<Item = Encounter>> = match &inputs.trace {
        TraceInput::Memory(t) => Box::new(t.iter().copied()),
        TraceInput::Spooled(t) => Box::new(t.iter().expect("reopen the trace spool")),
    };
    let mut encounters = encounters.peekable();
    let mut injections = inputs.mail.events().iter().peekable();

    loop {
        let inject_next = match (injections.peek(), encounters.peek()) {
            (None, None) => break,
            (Some(i), Some(e)) => i.time <= e.time,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if inject_next {
            let event = injections.next().expect("peeked");
            let now = event.time;
            let day = now.day();
            let (Some(src_bus), Some(dst_bus)) = (
                assignment.bus_of(day, &event.src),
                assignment.bus_of(day, &event.dst),
            ) else {
                continue;
            };
            let (src_addr, dst_addr) = (bus_address(src_bus), bus_address(dst_bus));
            let Some(&i) = index.get(&src_bus) else {
                continue;
            };
            let payload = format!("{}->{}", event.src, event.dst).into_bytes();
            let Ok(id) = nodes[i].send_from(&src_addr, &dst_addr, payload, now) else {
                continue;
            };
            totals.injected += 1;
            let same_bus = src_bus == dst_bus;
            if same_bus {
                totals.deliveries += 1;
            }
            records.insert(id, (dst_addr, same_bus));
            continue;
        }

        let enc = encounters.next().expect("peeked");
        if enc.a == enc.b {
            continue;
        }
        let (Some(&ia), Some(&ib)) = (index.get(&enc.a), index.get(&enc.b)) else {
            continue;
        };
        let (a, b) = pair_mut(&mut nodes, ia, ib);
        let trace_id = totals.encounters;
        let met = match &mut mode {
            Mode::Plain {
                latencies_ns,
                meta_every,
            } => {
                if *meta_every > 0
                    && trace_id % *meta_every == 0
                    && spec.sync_mode == SyncMode::Full
                {
                    meta_bytes += (request_bytes(a) + request_bytes(b)) as u64;
                    meta_samples += 1;
                }
                let start = Instant::now();
                let report = a.encounter(b, enc.time, EncounterBudget::unlimited());
                latencies_ns.push(ns_since(start));
                MeetResult {
                    transmitted: report.transmitted,
                    duplicates: report.duplicates,
                    to_a: report.delivered_to_a,
                    to_b: report.delivered_to_b,
                }
            }
            Mode::Traced {
                log,
                clock,
                full_sync,
            } => {
                let digest = spec.sync_mode == SyncMode::Digest && !*full_sync;
                traced_encounter(a, b, enc.time, trace_id, log, clock, digest)
            }
        };

        totals.encounters += 1;
        totals.transmissions += met.transmitted as u64;
        totals.duplicates += met.duplicates as u64;
        for (receiver, ids) in [(enc.a, &met.to_a), (enc.b, &met.to_b)] {
            if ids.is_empty() {
                continue;
            }
            let addr = bus_address(receiver);
            for id in ids {
                if let Some((dst, delivered)) = records.get_mut(id) {
                    if *dst == addr && !*delivered {
                        *delivered = true;
                        totals.deliveries += 1;
                    }
                }
            }
        }
    }

    Replayed {
        totals,
        nodes,
        sampled_meta_bytes_per_enc: (meta_samples > 0)
            .then(|| meta_bytes as f64 / meta_samples as f64),
    }
}

/// One encounter split into its layer calls, in the order
/// `DtnNode::encounter` makes them: expiry on both sides, then a sync with
/// `a` as source and `b` as target, then the reverse.
fn traced_encounter(
    a: &mut DtnNode,
    b: &mut DtnNode,
    now: SimTime,
    trace: u64,
    log: &mut SpanLog,
    clock: &HookClock,
    digest: bool,
) -> MeetResult {
    let start = log.now_ns();
    let children_before = log.child_total_ns;
    let open = log.open(clock);
    a.expire_messages(now);
    b.expire_messages(now);
    log.close(open, "dtn.expire", trace, clock);

    let r1 = if digest {
        traced_digest_sync(a, b, now, trace, log, clock)
    } else {
        traced_full_sync(a, b, now, trace, log, clock)
    };
    let r2 = if digest {
        traced_digest_sync(b, a, now, trace, log, clock)
    } else {
        traced_full_sync(b, a, now, trace, log, clock)
    };
    let transmitted = r1.transmitted + r2.transmitted;
    if transmitted > 0 {
        // `DtnNode::encounter` re-arms both sides' expiry scan after any
        // transfer; `replica_mut` is the public call that does the same.
        let _ = a.replica_mut();
        let _ = b.replica_mut();
    }
    let end = log.now_ns();
    // The root span's children are the layer spans above; its self time is
    // the replayer's own glue between them.
    let children = log.child_total_ns - children_before;
    log.record(trace, "encounter", start, end, children);
    MeetResult {
        transmitted,
        duplicates: r1.duplicates + r2.duplicates,
        to_a: r2.delivered_ids,
        to_b: r1.delivered_ids,
    }
}

/// Full-protocol sync, `target` pulling from `source`.
fn traced_full_sync(
    source: &mut DtnNode,
    target: &mut DtnNode,
    now: SimTime,
    trace: u64,
    log: &mut SpanLog,
    clock: &HookClock,
) -> SyncReport {
    let source_id = source.id();
    let open = log.open(clock);
    let request = target.begin_sync_session(source_id, now);
    log.close(open, "pfr.begin_sync", trace, clock);

    let open = log.open(clock);
    let batch = source.respond_sync(&request, SyncLimits::unlimited(), now);
    log.close(open, "pfr.prepare", trace, clock);
    drop(request);

    let open = log.open(clock);
    let report = target.apply_sync(batch, now);
    log.close(open, "pfr.apply", trace, clock);
    report
}

/// Digest-protocol sync, `target` pulling from `source`, through the
/// split session calls a network transport makes (the wire round trips
/// become direct hand-offs).
fn traced_digest_sync(
    source: &mut DtnNode,
    target: &mut DtnNode,
    now: SimTime,
    trace: u64,
    log: &mut SpanLog,
    clock: &HookClock,
) -> SyncReport {
    let limits = SyncLimits::unlimited();
    let source_id = source.id();
    let open = log.open(clock);
    let (request, state) = target.begin_digest_session(source_id, now);
    log.close(open, "recon.begin_digest", trace, clock);
    let mut digest_bytes = pfr::wire::to_bytes(&request).len() as u64;
    let mut knowledge_shared = state.summary_kind() != "bloom";
    let (mut fallback_rounds, mut false_positives) = (0u64, 0u64);

    let open = log.open(clock);
    let response = source.respond_digest(&request, limits, now);
    log.close(open, "recon.respond_digest", trace, clock);
    let mut resync = false;
    let batch = match response {
        DigestResponse::Batch(batch) => Some(batch),
        DigestResponse::NeedVersions(query) => {
            fallback_rounds += 1;
            knowledge_shared = false;
            digest_bytes += pfr::wire::to_bytes(&query).len() as u64;
            let open = log.open(clock);
            let answer = target.answer_digest_query(&query);
            log.close(open, "recon.answer_query", trace, clock);
            false_positives = (0..answer.len()).filter(|&i| !answer.known(i)).count() as u64;
            digest_bytes += pfr::wire::to_bytes(&answer).len() as u64;
            let open = log.open(clock);
            let batch = source.respond_digest_answer(&request, &query, &answer, limits, now);
            log.close(open, "recon.respond_answer", trace, clock);
            if batch.is_none() {
                resync = true;
            }
            batch
        }
        DigestResponse::Resync => {
            resync = true;
            None
        }
    };
    let batch = match batch {
        Some(batch) => batch,
        None => {
            debug_assert!(resync);
            fallback_rounds += 1;
            knowledge_shared = true;
            digest_bytes += 1 + pfr::wire::to_bytes(state.full_request()).len() as u64;
            let open = log.open(clock);
            let batch = source.respond_digest_resync(state.full_request(), limits, now);
            log.close(open, "recon.respond_resync", trace, clock);
            batch
        }
    };

    let open = log.open(clock);
    let report = target.apply_sync(batch, now);
    log.close(open, "pfr.apply", trace, clock);

    let open = log.open(clock);
    target.commit_digest_session(
        source_id,
        state,
        knowledge_shared,
        digest_bytes,
        fallback_rounds,
        false_positives,
    );
    log.close(open, "recon.commit", trace, clock);
    report
}
