//! The virtual-time load engine.
//!
//! Replays a calibrated per-session operation script ([`Calibration`])
//! against a simulated server at scale. The engine owns a driver event
//! heap (arrivals, service completions) and a FIFO of retransmission
//! timeouts, and interleaves both with `teenet-netsim` deliveries via
//! [`Network::next_event_at`], so every network leg pays real latency,
//! bandwidth serialisation, FIFO queueing and (optionally) faults, while
//! service time derives from the calibrated SGX cycle cost at a fixed
//! clock rate. Everything — arrival times, fault outcomes, worker
//! assignment, event ordering — is deterministic in the seed.
//!
//! Request/response integrity: each datagram carries a checksummed header
//! `(session, op, attempt)`, zero-padded to the op's calibrated wire size.
//! The engine sends only the header and leaves the padding to
//! [`Network::send_padded`], which never materialises it. Corrupted
//! datagrams fail the check and are discarded at the receiver; the
//! client's retransmission timeout recovers them, exactly like drops. The
//! server keeps an idempotent-response cache per session so a
//! retransmitted request whose response was lost does not pay the
//! service cost twice.
//!
//! ## Streaming replay
//!
//! Sessions are generated lazily from the arrival process, live in a
//! recycled slab of slots sized by the number of *concurrently live*
//! sessions, and are retired (slot returned to the pool) the moment they
//! complete or fail. Open-loop arrivals are scheduled one at a time —
//! only the next pending arrival ever sits in the heap — so driving N
//! sessions costs O(live sessions) memory, not O(N). A live session is
//! addressed by a generation-tagged slot handle, carried in its events
//! and wire headers; retiring a slot bumps its generation, so stale
//! events and packets for a finished session miss. Nothing observable
//! depends on the handle's value.
//!
//! Driver events order by `(time, seq)`. Open-loop arrival `i` is pinned
//! to seq `i`, and the counter for every other event starts at
//! `sessions`, so the order is the one a heap loaded with every arrival
//! up front would give: arrival times strictly increase, so arrival
//! `i+1` is always scheduled (while handling arrival `i`) before any
//! event ordered after it can fire.
//!
//! `tests/support/naive_replay.rs` holds an independent, deliberately
//! naive simulator of the same system (every session in a `Vec`, every
//! arrival and timeout in one heap, a linear worker scan, full frames on
//! the wire); the integration tests hold this engine's reports
//! byte-identical to it.
//!
//! ## The timeout FIFO
//!
//! Every request arms a retransmission timeout of the same length
//! (`Engine::timeout`) at `net.now()`, which never goes back, with the
//! next seq; timeouts are therefore armed in `(at, seq)` order, and a
//! FIFO beside the heap holds them sorted. The driver takes whichever of
//! the two heads is smaller by `(at, seq)`, so events fire exactly in the
//! order one heap holding both would give. Before comparing heads, stale
//! timeouts are dropped from the FIFO front: a timeout is stale once its
//! session is retired or finished, or has moved past the `(op, attempt)`
//! it was armed for. Staleness is permanent — `(op, attempt)` only grows —
//! and dropping one early is unobservable: firing it would only have
//! advanced the network clock to a time no delivery is due at (the
//! network wins ties), which the next event's own `run_until` does anyway.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use bytes::Bytes;
use teenet_netsim::{FaultConfig, LinkConfig, Network, NodeId, SimDuration, SimTime};
use teenet_sgx::cost::CostModel;

use crate::arrival::{Arrival, ArrivalProcess};
use crate::metrics::{PhaseRollup, RunMetrics};
use crate::report::RunReport;
use crate::scenario::Calibration;

/// How load is injected.
#[derive(Debug, Clone, Copy)]
pub enum LoadMode {
    /// Open loop: Poisson arrivals. `rate_per_sec = None` auto-targets
    /// ~50% of the server's calibrated service capacity.
    Open {
        /// Arrival rate; `None` = auto from calibrated capacity.
        rate_per_sec: Option<f64>,
    },
    /// Closed loop: a fixed number of sessions in flight.
    Closed {
        /// Concurrent in-flight sessions.
        concurrency: u32,
    },
}

/// Knobs of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total sessions to drive.
    pub sessions: u64,
    /// Seed for arrivals and link faults.
    pub seed: u64,
    /// Open or closed loop.
    pub mode: LoadMode,
    /// Parallel service workers at the server (enclave worker threads).
    pub workers: u32,
    /// Distinct client nodes (sessions round-robin across them, each with
    /// its own link, so unrelated sessions don't serialise behind each
    /// other at the sender).
    pub clients: u32,
    /// One-way link propagation latency.
    pub latency: SimDuration,
    /// Link bandwidth in bytes/second (`None` = infinite).
    pub bandwidth_bps: Option<u64>,
    /// Fault injection applied to every link.
    pub faults: FaultConfig,
    /// Server clock rate used to convert calibrated cycles to service
    /// time.
    pub clock_hz: u64,
    /// Retransmission timeout (`None` = derived from latency and the
    /// slowest calibrated op).
    pub timeout: Option<SimDuration>,
    /// Retransmissions before a session is abandoned.
    pub max_retries: u32,
}

impl LoadConfig {
    /// A config with sensible defaults for `sessions` under `mode`.
    pub fn new(sessions: u64, seed: u64, mode: LoadMode) -> Self {
        LoadConfig {
            sessions,
            seed,
            mode,
            workers: 4,
            clients: 8,
            latency: SimDuration::from_micros(500),
            bandwidth_bps: Some(1_250_000_000), // 10 Gbit/s
            faults: FaultConfig::default(),
            clock_hz: 3_000_000_000,
            timeout: None,
            max_retries: 8,
        }
    }

    /// Checks every knob a run depends on, so invalid input is rejected
    /// instead of clamped or run into a nonsense report: an explicit
    /// open-loop rate must be finite and positive, each fault probability
    /// must lie in [0, 1], and the closed-loop concurrency, the worker
    /// count and the client count must be at least 1.
    pub fn validate(&self) -> Result<(), LoadError> {
        let invalid = |field, requirement| Err(LoadError::InvalidConfig { field, requirement });
        match self.mode {
            LoadMode::Open {
                rate_per_sec: Some(rate),
            } if !(rate.is_finite() && rate > 0.0) => {
                return invalid("rate_per_sec", "a finite number above 0");
            }
            LoadMode::Closed { concurrency: 0 } => return invalid("concurrency", "at least 1"),
            _ => {}
        }
        if self.workers == 0 {
            return invalid("workers", "at least 1");
        }
        if self.clients == 0 {
            return invalid("clients", "at least 1");
        }
        let f = &self.faults;
        for (field, p) in [
            ("faults.drop_chance", f.drop_chance),
            ("faults.corrupt_chance", f.corrupt_chance),
            ("faults.duplicate_chance", f.duplicate_chance),
            ("faults.reorder_chance", f.reorder_chance),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return invalid(field, "a probability in [0, 1]");
            }
        }
        Ok(())
    }
}

/// A load run that cannot start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// A [`LoadConfig`] field holds a value no run can use (see
    /// [`LoadConfig::validate`]).
    InvalidConfig {
        /// The offending field, as named in [`LoadConfig`].
        field: &'static str,
        /// What the field must be.
        requirement: &'static str,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::InvalidConfig { field, requirement } => {
                write!(f, "invalid load config: {field} must be {requirement}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Driver-side heap events, interleaved with network deliveries and
/// timeouts. `session` is the global session index; `key` is the
/// session's [`SessionTable`] key, the value its wire headers carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrive { session: u64 },
    ServiceDone { key: u64, op: u32 },
}

#[derive(PartialEq, Eq)]
struct DriverEvent {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl Ord for DriverEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for DriverEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A retransmission timeout for attempt `attempt` of op `op` of session
/// `key`, queued in the engine's timeout FIFO (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Timeout {
    at: SimTime,
    seq: u64,
    key: u64,
    op: u32,
    attempt: u32,
}

#[derive(Debug, Clone, Copy)]
struct Session {
    arrived_at: SimTime,
    client: NodeId,
    /// Current op index into the calibration script.
    op: u32,
    /// Retransmission attempt of the current op.
    attempt: u32,
    /// Highest op the server has fully serviced (`None` = none yet).
    serviced_through: Option<u32>,
    /// Op currently occupying a worker, if any.
    in_service: Option<u32>,
    done: bool,
    failed: bool,
}

/// Wire header: session key (8) + op (4) + attempt (4) + FNV-1a checksum (8).
pub(crate) const HEADER_LEN: usize = 24;

/// Mixed into the run seed to seed the engine's network.
const NETSIM_SALT: u64 = 0x6e65_7473_696d; // "netsim"

pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The checksummed wire header of `(key, op, attempt)`.
fn header(key: u64, op: u32, attempt: u32) -> [u8; HEADER_LEN] {
    let mut h = [0; HEADER_LEN];
    h[0..8].copy_from_slice(&key.to_le_bytes());
    h[8..12].copy_from_slice(&op.to_le_bytes());
    h[12..16].copy_from_slice(&attempt.to_le_bytes());
    let sum = fnv1a(&h[0..16]);
    h[16..24].copy_from_slice(&sum.to_le_bytes());
    h
}

fn decode(buf: &[u8]) -> Option<(u64, u32, u32)> {
    if buf.len() < HEADER_LEN {
        return None;
    }
    let sum = u64::from_le_bytes(buf[16..24].try_into().ok()?);
    if fnv1a(&buf[0..16]) != sum {
        return None;
    }
    let key = u64::from_le_bytes(buf[0..8].try_into().ok()?);
    let op = u32::from_le_bytes(buf[8..12].try_into().ok()?);
    let attempt = u32::from_le_bytes(buf[12..16].try_into().ok()?);
    Some((key, op, attempt))
}

/// Peak-resource diagnostics of one engine run. Never part of the
/// [`RunReport`]; used by the retirement and heap-bound regression tests
/// and by callers that want to confirm a run stayed O(live sessions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Most sessions ever live at once: live slab entries, bounded by
    /// concurrency + in-flight arrivals.
    pub peak_live_sessions: u64,
    /// Most driver events (arrivals, service completions, timeouts) ever
    /// queued at once, heap and timeout FIFO together. Open loop holds a
    /// single pending arrival plus O(live) timeouts.
    pub peak_heap_events: u64,
    /// Distinct session slots ever allocated: how well retirement
    /// recycles.
    pub slots_allocated: u64,
}

/// One slab slot: the live session it holds and the generation that
/// tells its occupants apart. Recycled when a later session reuses it.
struct Slot {
    /// Bumped on every retirement, so handles to earlier occupants miss.
    generation: u32,
    sess: Session,
}

/// The key of `slot` in `generation`: the slot index in the low 32
/// bits, the generation in the high 32.
fn slot_handle(slot: u32, generation: u32) -> u64 {
    u64::from(slot) | u64::from(generation) << 32
}

/// The slab of live sessions, in recycled slots.
///
/// Sessions are found by a `u64` key, which driver events and wire
/// headers carry: a generation-tagged slot handle ([`slot_handle`]).
/// Retiring a slot bumps its generation, so a stale event or packet for
/// a retired session misses, even after a new session took the slot.
#[derive(Default)]
struct SessionTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: u64,
}

impl SessionTable {
    /// Inserts a newly arrived session; returns its key and the live
    /// count after.
    fn insert(&mut self, sess: Session, allocated: &mut u64) -> (u64, u64) {
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize].sess = sess;
                i
            }
            None => {
                *allocated += 1;
                self.slots.push(Slot {
                    generation: 0,
                    sess,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        (
            slot_handle(slot, self.slots[slot as usize].generation),
            self.live,
        )
    }

    /// The slot `key` names, if its generation is current.
    fn slot(&self, key: u64) -> Option<usize> {
        let slot = key as u32 as usize;
        let generation = (key >> 32) as u32;
        self.slots
            .get(slot)
            .filter(|s| s.generation == generation)
            .map(|_| slot)
    }

    fn get(&self, key: u64) -> Option<&Session> {
        self.slot(key).map(|i| &self.slots[i].sess)
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut Session> {
        self.slot(key).map(|i| &mut self.slots[i].sess)
    }

    /// Frames a `len`-byte message for `key`: the header to send and the
    /// zero padding [`Network::send_padded`] appends on the wire, so no
    /// padding is ever allocated.
    fn frame(&self, key: u64, op: u32, attempt: u32, len: usize) -> Option<(Bytes, usize)> {
        self.slot(key)?;
        let padding = len.saturating_sub(HEADER_LEN);
        Some((Bytes::from(header(key, op, attempt)), padding))
    }

    /// Returns a finished session's slot to the pool and bumps its
    /// generation: events and packets still carrying the old handle miss
    /// from now on.
    fn retire(&mut self, key: u64) {
        if let Some(i) = self.slot(key) {
            let s = &mut self.slots[i];
            s.generation = s.generation.wrapping_add(1);
            self.free.push(i as u32);
            self.live -= 1;
        }
    }

    /// Retires every slot at once (the pooled sharded engine's rewind).
    fn clear(&mut self) {
        self.free.clear();
        for (i, s) in self.slots.iter_mut().enumerate() {
            s.generation = s.generation.wrapping_add(1);
            self.free.push(i as u32);
        }
        self.live = 0;
    }
}

/// The server's service workers, as a min-heap of `(free_at, index)`.
/// Its top is the earliest-free worker, lowest index on ties: the worker
/// a linear scan for the least `(free_at, index)` picks, found in
/// O(log workers) instead of O(workers).
struct WorkerPool(BinaryHeap<Reverse<(SimTime, u32)>>);

impl WorkerPool {
    fn new(workers: u32) -> Self {
        let mut pool = WorkerPool(BinaryHeap::new());
        pool.reset(workers);
        pool
    }

    /// Frees all `workers` at t=0, reusing the heap's storage.
    fn reset(&mut self, workers: u32) {
        let mut v = std::mem::take(&mut self.0).into_vec();
        v.clear();
        v.extend((0..workers).map(|i| Reverse((SimTime::ZERO, i))));
        self.0 = BinaryHeap::from(v);
    }

    /// Books the earliest-free worker for a job that arrives at `at` and
    /// takes `service`; returns the worker's index and when it finishes.
    fn assign(&mut self, at: SimTime, service: SimDuration) -> (u32, SimTime) {
        let mut top = self.0.peek_mut().expect("the pool is never empty");
        let Reverse((free_at, index)) = *top;
        let done_at = free_at.max(at) + service;
        *top = Reverse((done_at, index));
        (index, done_at)
    }
}

/// The load engine. Construct with a [`LoadConfig`], then [`LoadRunner::run`]
/// a calibrated scenario script through it.
pub struct LoadRunner {
    config: LoadConfig,
}

pub(crate) struct Engine<'a> {
    cfg: &'a LoadConfig,
    cal: &'a Calibration,
    model: &'a CostModel,
    net: Network,
    server: NodeId,
    client_nodes: Vec<NodeId>,
    /// Buffer the network's ready list is taken into each step.
    ready: Vec<NodeId>,
    heap: BinaryHeap<Reverse<DriverEvent>>,
    /// Armed retransmission timeouts in `(at, seq)` order (see the module
    /// docs); never in `heap`.
    timeouts: VecDeque<Timeout>,
    next_seq: u64,
    table: SessionTable,
    arrivals: ArrivalProcess,
    workers: WorkerPool,
    timeout: SimDuration,
    /// Every outcome accumulator, extracted into one mergeable value so
    /// the sharded runner can combine per-shard engines.
    metrics: RunMetrics,
    stats: EngineStats,
}

impl LoadRunner {
    /// A runner for `config`. The cost model is not fixed here: each run
    /// prices cycles with the model of the calibration's TEE backend
    /// ([`Calibration::cost_model`]).
    pub fn new(config: LoadConfig) -> Self {
        LoadRunner { config }
    }

    /// The config, checked before a run of `calibration`: panics, with the
    /// [`LoadError`] text, on a config [`LoadConfig::validate`] rejects and
    /// on a calibration with no op.
    pub(crate) fn checked_config(&self, calibration: &Calibration) -> &LoadConfig {
        assert!(
            !calibration.ops.is_empty(),
            "calibration must contain at least one op"
        );
        if let Err(e) = self.config.validate() {
            panic!("{e}");
        }
        &self.config
    }

    /// Drives `calibration`'s per-session script under this runner's
    /// config through the engine and returns the full report.
    /// `scenario` names the run. Memory is O(live sessions), not
    /// O(`sessions`).
    ///
    /// # Panics
    ///
    /// On a config [`LoadConfig::validate`] rejects, with its error's
    /// text, and on a calibration with no op. The same holds for every
    /// `run*` method.
    pub fn run(&self, scenario: &str, calibration: &Calibration) -> RunReport {
        self.run_with_stats(scenario, calibration).0
    }

    /// [`LoadRunner::run`], also returning the engine's peak-resource
    /// diagnostics (never part of the report).
    pub fn run_with_stats(
        &self,
        scenario: &str,
        calibration: &Calibration,
    ) -> (RunReport, EngineStats) {
        let cfg = self.checked_config(calibration);
        let model = calibration.cost_model();
        let mut engine = Engine::new(cfg, calibration, &model);
        engine.prime();
        engine.drain();
        let stats = engine.stats();
        (engine.into_report(scenario, cfg), stats)
    }
}

impl<'a> Engine<'a> {
    /// The engine for one run of `cfg`: slab-of-live-sessions storage
    /// and (open loop) one-ahead arrival scheduling.
    pub(crate) fn new(cfg: &'a LoadConfig, cal: &'a Calibration, model: &'a CostModel) -> Self {
        let mut net = Network::new(cfg.seed ^ NETSIM_SALT);
        // The engine never reads the packet trace; recording it would be
        // the one remaining O(total packets) buffer in a streaming run.
        net.set_tracing(false);
        let server = net.add_node();
        let link = LinkConfig {
            latency: cfg.latency,
            bandwidth_bps: cfg.bandwidth_bps,
            faults: cfg.faults.clone(),
        };
        let client_nodes: Vec<NodeId> = (0..cfg.clients)
            .map(|_| {
                let c = net.add_node();
                net.add_duplex_link(c, server, link.clone());
                c
            })
            .collect();

        // Retransmission timeout: a full round trip plus the slowest op's
        // service time, with 4× headroom for queueing, unless pinned.
        let slowest_op = cal
            .ops
            .iter()
            .map(|op| op.service_nanos(model, cfg.clock_hz))
            .max()
            .unwrap_or(0);
        let timeout = cfg.timeout.unwrap_or_else(|| {
            SimDuration(
                (2 * cfg.latency.as_nanos() + slowest_op)
                    .saturating_mul(4)
                    .max(1_000_000),
            )
        });

        Engine {
            cfg,
            cal,
            model,
            net,
            server,
            client_nodes,
            ready: Vec::new(),
            heap: BinaryHeap::new(),
            timeouts: VecDeque::new(),
            // Open-loop arrival i is pinned to seq i; the counter for
            // everything else therefore starts past the arrival block.
            next_seq: cfg.sessions,
            table: SessionTable::default(),
            arrivals: arrival_process(cfg, cal, model, cfg.seed),
            workers: WorkerPool::new(cfg.workers),
            timeout,
            metrics: RunMetrics::new(),
            stats: EngineStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> EngineStats {
        self.stats
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Updates the peak of driver events queued at once.
    fn note_queued(&mut self) {
        let queued = (self.heap.len() + self.timeouts.len()) as u64;
        self.stats.peak_heap_events = self.stats.peak_heap_events.max(queued);
    }

    fn push_raw(&mut self, at: SimTime, seq: u64, ev: Ev) {
        self.heap.push(Reverse(DriverEvent { at, seq, ev }));
        self.note_queued();
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.take_seq();
        self.push_raw(at, seq, ev);
    }

    /// Arms the retransmission timeout of `(key, op, attempt)`, one
    /// timeout length from now.
    fn arm_timeout(&mut self, key: u64, op: u32, attempt: u32) {
        let at = self.net.now() + self.timeout;
        let seq = self.take_seq();
        debug_assert!(
            self.timeouts
                .back()
                .is_none_or(|t| (t.at, t.seq) < (at, seq)),
            "timeouts are armed in (at, seq) order"
        );
        self.timeouts.push_back(Timeout {
            at,
            seq,
            key,
            op,
            attempt,
        });
        self.note_queued();
    }

    /// Whether `t` can still fire: its session is live and unfinished and
    /// still on the `(op, attempt)` the timeout was armed for.
    fn is_live(&self, t: &Timeout) -> bool {
        self.table
            .get(t.key)
            .is_some_and(|s| !s.done && !s.failed && s.op == t.op && s.attempt == t.attempt)
    }

    /// The next driver event's time, and whether it is the timeout FIFO's
    /// front (rather than the heap's top), after dropping stale timeouts
    /// from the front.
    fn next_driver_event(&mut self) -> Option<(SimTime, bool)> {
        while self.timeouts.front().is_some_and(|t| !self.is_live(t)) {
            self.timeouts.pop_front();
        }
        let timeout = self.timeouts.front().map(|t| (t.at, t.seq));
        let event = self.heap.peek().map(|Reverse(e)| (e.at, e.seq));
        match (timeout, event) {
            (Some(t), Some(e)) if t < e => Some((t.0, true)),
            (Some(t), None) => Some((t.0, true)),
            (_, Some(e)) => Some((e.0, false)),
            (None, None) => None,
        }
    }

    /// Schedules the next open-loop arrival: exactly one pending arrival
    /// in the heap at any time, pinned to seq = index.
    fn schedule_next_arrival(&mut self) {
        if let Some((idx, at)) = self.arrivals.next_arrival() {
            self.push_raw(at, idx, Ev::Arrive { session: idx });
        }
    }

    /// Queues the initial arrivals. Open loop: only the first (each
    /// arrival schedules its successor). Closed loop: the initial batch,
    /// O(concurrency).
    pub(crate) fn prime(&mut self) {
        match self.cfg.mode {
            LoadMode::Open { .. } => self.schedule_next_arrival(),
            LoadMode::Closed { .. } => {
                while let Some((idx, at)) = self.arrivals.next_arrival() {
                    self.push(at, Ev::Arrive { session: idx });
                }
            }
        }
    }

    /// The main event loop: repeatedly handle whichever comes first — the
    /// next network delivery or the next driver event. Network wins ties
    /// so a response arriving at time t beats a timeout firing at t.
    pub(crate) fn drain(&mut self) {
        while self.step() {}
    }

    /// Handles the next network delivery or driver event; `false` once
    /// neither is left.
    fn step(&mut self) -> bool {
        match (self.next_driver_event(), self.net.next_event_at()) {
            (None, None) => return false,
            (Some((d, _)), Some(n)) if n <= d => self.step_network(n),
            (None, Some(n)) => self.step_network(n),
            (Some((d, timeout)), _) => self.step_driver(d, timeout),
        }
        true
    }

    /// Delivers everything due by `until`, then handles each packet: the
    /// nodes with packets waiting come off the network's ready list in
    /// ascending id order, so the server (node 0) goes first and clients
    /// follow by index, and no idle client inbox is polled.
    fn step_network(&mut self, until: SimTime) {
        self.net.run_until(until);
        let mut ready = std::mem::take(&mut self.ready);
        self.net.take_ready(&mut ready);
        for &node in &ready {
            while let Some((at, packet)) = self.net.recv_timed(node) {
                match decode(&packet.payload) {
                    Some((key, op, attempt)) if node == self.server => {
                        self.on_request(at, key, op, attempt)
                    }
                    Some((key, op, _)) => self.on_response(at, key, op),
                    None => self.metrics.corrupt_rx += 1,
                }
            }
        }
        self.ready = ready;
    }

    /// Fires the driver event due at `at`: the timeout FIFO's front if
    /// `timeout`, else the heap's top.
    fn step_driver(&mut self, at: SimTime, timeout: bool) {
        self.net.run_until(at);
        if timeout {
            let t = self.timeouts.pop_front().expect("the front was peeked");
            self.on_timeout(at, t);
            return;
        }
        let Some(Reverse(event)) = self.heap.pop() else {
            return;
        };
        match event.ev {
            Ev::Arrive { session } => self.on_arrive(at, session),
            Ev::ServiceDone { key, op } => self.on_service_done(key, op),
        }
    }

    fn on_arrive(&mut self, at: SimTime, session: u64) {
        if let LoadMode::Open { .. } = self.cfg.mode {
            self.schedule_next_arrival();
        }
        let client = self.client_nodes[(session % self.client_nodes.len() as u64) as usize];
        let (key, live) = self.table.insert(
            Session {
                arrived_at: at,
                client,
                op: 0,
                attempt: 0,
                serviced_through: None,
                in_service: None,
                done: false,
                failed: false,
            },
            &mut self.stats.slots_allocated,
        );
        self.stats.peak_live_sessions = self.stats.peak_live_sessions.max(live);
        self.send_request(key);
    }

    /// Transmits the current op's request for `key` and arms its
    /// retransmission timeout.
    fn send_request(&mut self, key: u64) {
        let Some(sess) = self.table.get(key).copied() else {
            return;
        };
        let op = &self.cal.ops[sess.op as usize];
        if sess.attempt == 0 {
            self.metrics.steady_client.fold(op.client);
        }
        let request_bytes = op.request_bytes;
        let frame = self.table.frame(key, sess.op, sess.attempt, request_bytes);
        let Some((payload, padding)) = frame else {
            return;
        };
        self.net
            .send_padded(sess.client, self.server, payload, padding);
        self.arm_timeout(key, sess.op, sess.attempt);
    }

    fn on_request(&mut self, at: SimTime, key: u64, op: u32, _attempt: u32) {
        // A miss is a retired session (its handle's generation is stale)
        // or stray bytes — either way the datagram is dropped.
        let Some(sess) = self.table.get_mut(key) else {
            return;
        };
        if sess.done || sess.failed || op != sess.op {
            return; // stale or duplicate of a finished op
        }
        if sess.in_service == Some(op) {
            return; // duplicate while a worker is already on it
        }
        if sess.serviced_through.is_some_and(|t| t >= op) {
            // Serviced before but the response was lost: resend from the
            // idempotent cache without paying the service cost again.
            self.send_response(key, op);
            return;
        }
        sess.in_service = Some(op);
        let profile = self.cal.ops[op as usize];
        let service = SimDuration(profile.service_nanos(self.model, self.cfg.clock_hz));
        let (_, done_at) = self.workers.assign(at, service);
        self.metrics.steady_server.fold(profile.server);
        self.metrics.transitions.merge(profile.transitions);
        self.push(done_at, Ev::ServiceDone { key, op });
    }

    fn on_service_done(&mut self, key: u64, op: u32) {
        let Some(sess) = self.table.get_mut(key) else {
            return; // session retired while the op was in service
        };
        if sess.done || sess.failed {
            return;
        }
        sess.in_service = None;
        sess.serviced_through = Some(op);
        self.send_response(key, op);
    }

    fn send_response(&mut self, key: u64, op: u32) {
        let Some(client) = self.table.get(key).map(|s| s.client) else {
            return;
        };
        let response_bytes = self.cal.ops[op as usize].response_bytes;
        let Some((payload, padding)) = self.table.frame(key, op, 0, response_bytes) else {
            return;
        };
        self.net.send_padded(self.server, client, payload, padding);
    }

    fn on_response(&mut self, at: SimTime, key: u64, op: u32) {
        let ops = self.cal.ops.len();
        let Some(sess) = self.table.get_mut(key) else {
            return; // response to a retired session
        };
        if sess.done || sess.failed || op != sess.op {
            return; // duplicate or stale response
        }
        sess.op += 1;
        sess.attempt = 0;
        if (sess.op as usize) < ops {
            self.send_request(key);
            return;
        }
        sess.done = true;
        let took = at - sess.arrived_at;
        self.metrics.latency.record(took.as_nanos());
        self.metrics.completed += 1;
        self.metrics.last_done_ns = self.metrics.last_done_ns.max(at.as_nanos());
        self.next_closed_loop_arrival(at);
        self.table.retire(key);
    }

    /// Retransmits, or abandons the session after `max_retries`. `t` is
    /// live: stale timeouts were dropped before it reached the front.
    fn on_timeout(&mut self, at: SimTime, t: Timeout) {
        let max_retries = self.cfg.max_retries;
        let (key, attempt) = (t.key, t.attempt);
        let sess = self
            .table
            .get_mut(key)
            .expect("stale timeouts are dropped before they fire");
        if attempt >= max_retries {
            sess.failed = true;
            self.metrics.failed += 1;
            self.metrics.last_done_ns = self.metrics.last_done_ns.max(at.as_nanos());
            self.next_closed_loop_arrival(at);
            self.table.retire(key);
            return;
        }
        sess.attempt = attempt + 1;
        self.metrics.retries += 1;
        self.send_request(key);
    }

    /// Closed loop replaces each finished session with a new arrival.
    fn next_closed_loop_arrival(&mut self, at: SimTime) {
        if let Some((idx, when)) = self.arrivals.completion_arrival(at) {
            self.push(when, Ev::Arrive { session: idx });
        }
    }

    /// Folds the network's fault totals and server queue high-watermark
    /// into the accumulated metrics. Once per network lifetime: a run's
    /// end, or each sharded session's.
    fn fold_network(&mut self) {
        self.metrics.net.merge(&self.net.fault_totals());
        self.metrics.max_server_queue = self
            .metrics
            .max_server_queue
            .max(self.net.max_queue_depth(self.server) as u64);
    }

    /// Finishes a run: folds in the network's totals and returns the
    /// metrics.
    pub(crate) fn into_metrics(mut self) -> RunMetrics {
        self.fold_network();
        self.metrics
    }

    /// Replays one session of the sharded model on this engine, rewound
    /// to the state [`Engine::new`] would produce for its config with
    /// the seed replaced by `seed`. Every allocation is reused: the
    /// network topology (and its cleared inboxes), the session slab, the
    /// event and worker heaps, the timeout FIFO, and the metrics,
    /// which accumulate across sessions instead of being rebuilt and
    /// merged per session. The session's network totals are folded in
    /// before it returns; [`Engine::into_accumulated`] hands out the sum.
    ///
    /// Returns the session's duration: one session from t=0 resolves at
    /// its duration, completed or abandoned. (The accumulated
    /// `last_done_ns` is therefore the last session's and means nothing
    /// to the sharded scheduler, which rebuilds global time itself.)
    pub(crate) fn replay_session(&mut self, seed: u64) -> u64 {
        self.net.reset(seed ^ NETSIM_SALT);
        self.heap.clear();
        self.timeouts.clear();
        self.next_seq = self.cfg.sessions;
        // Drained runs retire every session, but clearing the whole slab
        // keeps a partially drained engine from leaking live slots into
        // the next session.
        self.table.clear();
        self.arrivals = arrival_process(self.cfg, self.cal, self.model, seed);
        self.workers.reset(self.cfg.workers);
        self.metrics.last_done_ns = 0;
        self.prime();
        self.drain();
        self.fold_network();
        self.metrics.last_done_ns
    }

    /// The metrics accumulated by [`Engine::replay_session`] calls, each
    /// session's network totals already folded in.
    pub(crate) fn into_accumulated(self) -> RunMetrics {
        self.metrics
    }

    fn into_report(self, scenario: &str, cfg: &LoadConfig) -> RunReport {
        let cal = self.cal;
        let model = self.model;
        report_from_metrics(scenario, cfg, cal, model, self.into_metrics())
    }
}

/// The arrival process of a run of `cfg` seeded with `seed`. Only open
/// loop derives an RNG (the seed's `fork(b"arrivals")`).
fn arrival_process(
    cfg: &LoadConfig,
    cal: &Calibration,
    model: &CostModel,
    seed: u64,
) -> ArrivalProcess {
    let kind = match cfg.mode {
        LoadMode::Open { .. } => Arrival::OpenLoop {
            rate_per_sec: effective_rate(cfg, cal, model),
        },
        LoadMode::Closed { concurrency } => Arrival::ClosedLoop { concurrency },
    };
    ArrivalProcess::seeded(kind, cfg.sessions, seed)
}

/// Assembles the byte-stable [`RunReport`] from finished run metrics —
/// shared by the serial engine and the sharded runner, so both paths
/// format one identical way.
pub(crate) fn report_from_metrics(
    scenario: &str,
    cfg: &LoadConfig,
    cal: &Calibration,
    model: &CostModel,
    metrics: RunMetrics,
) -> RunReport {
    let duration_ns = metrics.last_done_ns.max(1);
    let throughput = metrics.completed as f64 / (duration_ns as f64 / 1e9);
    let mut calibration_phase = PhaseRollup::new("calibration");
    calibration_phase.fold(cal.setup);
    let mut total = calibration_phase.counters;
    total.merge(metrics.steady_client.counters);
    total.merge(metrics.steady_server.counters);
    let total_cycles = total.cycles(model);
    let (mode, rate, concurrency) = match cfg.mode {
        LoadMode::Open { .. } => ("open", effective_rate(cfg, cal, model), 0u32),
        LoadMode::Closed { concurrency } => ("closed", 0.0, concurrency),
    };
    RunReport {
        scenario: scenario.to_string(),
        mode: mode.to_string(),
        transition_mode: cal.mode.as_str().to_string(),
        backend: cal.backend,
        seed: cfg.seed,
        rate_per_sec: rate,
        concurrency,
        sessions: cfg.sessions,
        completed: metrics.completed,
        failed: metrics.failed,
        retries: metrics.retries,
        corrupt_rx: metrics.corrupt_rx,
        duration_ns,
        throughput_per_sec: throughput,
        latency: metrics.latency,
        net: metrics.net,
        max_server_queue: metrics.max_server_queue,
        phases: vec![
            calibration_phase,
            metrics.steady_client,
            metrics.steady_server,
        ],
        total,
        total_cycles,
        transitions: metrics.transitions,
        switchless_workers: cal.switchless.workers.max(1),
    }
}

/// The open-loop arrival rate: the configured one, or 50% of the server's
/// calibrated service capacity (`workers / per-session busy time`).
pub(crate) fn effective_rate(cfg: &LoadConfig, cal: &Calibration, model: &CostModel) -> f64 {
    match cfg.mode {
        LoadMode::Open {
            rate_per_sec: Some(r),
        } => r,
        LoadMode::Open { rate_per_sec: None } => {
            let busy_ns = cal.session_service_nanos(model, cfg.clock_hz);
            if busy_ns == 0 {
                1_000.0
            } else {
                0.5 * cfg.workers as f64 / (busy_ns as f64 / 1e9)
            }
        }
        LoadMode::Closed { .. } => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::OpProfile;
    use proptest::prelude::*;
    use teenet_sgx::cost::Counters;
    use teenet_sgx::TransitionStats;

    fn c(sgx: u64, normal: u64) -> Counters {
        Counters {
            sgx_instr: sgx,
            normal_instr: normal,
        }
    }

    /// A synthetic two-op script: a cheap handshake then a pricier body.
    fn toy_calibration() -> Calibration {
        Calibration {
            setup: c(10, 1_000_000),
            ops: vec![
                OpProfile {
                    name: "hello",
                    client: c(0, 50_000),
                    server: c(4, 500_000),
                    request_bytes: 128,
                    response_bytes: 64,
                    transitions: TransitionStats {
                        taken: 2,
                        elided: 0,
                        fallbacks: 0,
                        idle_spins: 0,
                    },
                },
                OpProfile {
                    name: "work",
                    client: c(0, 10_000),
                    server: c(8, 2_000_000),
                    request_bytes: 256,
                    response_bytes: 1024,
                    transitions: TransitionStats {
                        taken: 4,
                        elided: 0,
                        fallbacks: 0,
                        idle_spins: 0,
                    },
                },
            ],
            mode: Default::default(),
            backend: teenet_sgx::TeeBackend::Sgx,
            switchless: Default::default(),
        }
    }

    #[test]
    fn open_loop_completes_all_sessions() {
        let cfg = LoadConfig::new(200, 7, LoadMode::Open { rate_per_sec: None });
        let report = LoadRunner::new(cfg).run("toy", &toy_calibration());
        assert_eq!(report.completed, 200);
        assert_eq!(report.failed, 0);
        assert_eq!(report.latency.count(), 200);
        assert!(report.throughput_per_sec > 0.0);
        // Each session = 2 requests + 2 responses on clean links.
        assert_eq!(report.net.sent, 800);
        assert_eq!(report.net.delivered, 800);
        // Server phase folded both ops per session.
        let server = report
            .phases
            .iter()
            .find(|p| p.name == "steady.server")
            .unwrap();
        assert_eq!(server.ops, 400);
        assert_eq!(server.counters.sgx_instr, 200 * 12);
        // Transition stats accumulate per serviced op: 2 + 4 pairs/session.
        assert_eq!(report.transitions.taken, 200 * 6);
        assert_eq!(report.transitions.elided, 0);
        assert_eq!(report.transition_mode, "classic");
    }

    /// Locks in the documented tie-break: "network wins ties so a response
    /// arriving at time t beats a timeout firing at t". With zero service
    /// time, latency L and timeout exactly 2L, both events land on the
    /// identical `SimTime`; the response must win, so the session completes
    /// with no retransmission and exactly one request/response pair on the
    /// wire. (An inverted tie-break would fire the timeout first and
    /// resend: retries = 1, sent = 3.)
    #[test]
    fn response_at_t_beats_timeout_at_t() {
        let mut cfg = LoadConfig::new(1, 1, LoadMode::Closed { concurrency: 1 });
        cfg.latency = SimDuration::from_millis(1);
        cfg.bandwidth_bps = None; // delivery at exactly send + latency
        cfg.timeout = Some(SimDuration(2_000_000)); // exactly one round trip
        let cal = Calibration {
            setup: c(0, 0),
            ops: vec![OpProfile {
                name: "ping",
                client: c(0, 0),
                server: c(0, 0), // zero service time: response at t = 2L
                request_bytes: 64,
                response_bytes: 64,
                transitions: TransitionStats::default(),
            }],
            mode: Default::default(),
            backend: teenet_sgx::TeeBackend::Sgx,
            switchless: Default::default(),
        };
        let report = LoadRunner::new(cfg).run("tie", &cal);
        assert_eq!(report.completed, 1);
        assert_eq!(report.retries, 0, "timeout at t must lose to response at t");
        assert_eq!(report.net.sent, 2, "no duplicate retransmission");
        assert_eq!(report.net.delivered, 2);
    }

    #[test]
    fn closed_loop_completes_all_sessions() {
        let cfg = LoadConfig::new(150, 3, LoadMode::Closed { concurrency: 16 });
        let report = LoadRunner::new(cfg).run("toy", &toy_calibration());
        assert_eq!(report.completed, 150);
        assert_eq!(report.failed, 0);
        assert_eq!(report.concurrency, 16);
    }

    #[test]
    fn latency_includes_network_and_service() {
        // One session, no queueing: latency = 2 round trips + service.
        let mut cfg = LoadConfig::new(1, 1, LoadMode::Closed { concurrency: 1 });
        cfg.latency = SimDuration::from_millis(1);
        cfg.bandwidth_bps = None;
        let cal = toy_calibration();
        let model = CostModel::paper();
        let service: u64 = cal.session_service_nanos(&model, cfg.clock_hz);
        let report = LoadRunner::new(cfg).run("toy", &cal);
        let expect = 4 * 1_000_000 + service;
        let got = report.latency.max();
        // Histogram bucketing gives ≤ 1/32 relative error.
        assert!(
            got >= expect && got <= expect + expect / 32 + 1,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn faulty_links_recover_via_retransmission() {
        let mut cfg = LoadConfig::new(80, 11, LoadMode::Open { rate_per_sec: None });
        cfg.faults = FaultConfig {
            drop_chance: 0.08,
            corrupt_chance: 0.05,
            duplicate_chance: 0.05,
            ..Default::default()
        };
        let report = LoadRunner::new(cfg).run("toy", &toy_calibration());
        assert_eq!(
            report.completed + report.failed,
            80,
            "every session resolves"
        );
        assert!(report.completed >= 78, "retries recover most faults");
        assert!(report.retries > 0, "faults actually fired");
        assert!(report.net.dropped > 0);
    }

    #[test]
    fn same_seed_byte_identical_reports() {
        let run = || {
            let mut cfg = LoadConfig::new(60, 99, LoadMode::Open { rate_per_sec: None });
            cfg.faults = FaultConfig {
                drop_chance: 0.05,
                ..Default::default()
            };
            LoadRunner::new(cfg).run("toy", &toy_calibration()).json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let cfg = LoadConfig::new(50, seed, LoadMode::Open { rate_per_sec: None });
            LoadRunner::new(cfg).run("toy", &toy_calibration()).json()
        };
        assert_ne!(run(1), run(2), "seed must actually drive the run");
    }

    #[test]
    fn open_loop_saturation_grows_latency() {
        // Driving arrivals at 4× capacity must show queueing in the tail
        // relative to a lightly loaded run.
        let run = |rate_scale: f64| {
            let cal = toy_calibration();
            let model = CostModel::paper();
            let base = LoadConfig::new(300, 5, LoadMode::Open { rate_per_sec: None });
            let capacity = base.workers as f64
                / (cal.session_service_nanos(&model, base.clock_hz) as f64 / 1e9);
            let mut cfg = base;
            cfg.mode = LoadMode::Open {
                rate_per_sec: Some(capacity * rate_scale),
            };
            cfg.timeout = Some(SimDuration::from_secs(3600)); // isolate queueing
            LoadRunner::new(cfg).run("toy", &cal)
        };
        let light = run(0.3);
        let heavy = run(4.0);
        assert!(
            heavy.latency.quantile(0.99) > 2 * light.latency.quantile(0.99),
            "p99 {} vs {}",
            heavy.latency.quantile(0.99),
            light.latency.quantile(0.99)
        );
    }

    /// The driver fires whichever head is smaller by `(at, seq)`: at equal
    /// times the event armed first wins, whichever queue holds it (heavy
    /// closed-loop runs do produce such ties). A stale front is dropped.
    #[test]
    fn driver_merges_heap_and_timeouts_by_time_then_seq() {
        let cfg = LoadConfig::new(1, 1, LoadMode::Closed { concurrency: 1 });
        let cal = toy_calibration();
        let model = cal.cost_model();
        let mut engine = Engine::new(&cfg, &cal, &model);
        let (key, _) = engine.table.insert(fresh_session(), &mut 0);
        let at = SimTime(500);
        engine.push_raw(at, 7, Ev::ServiceDone { key, op: 0 });
        engine.timeouts.push_back(Timeout {
            at,
            seq: 3,
            key,
            op: 0,
            attempt: 0,
        });
        assert_eq!(engine.next_driver_event(), Some((at, true)));
        engine.timeouts[0].seq = 9;
        assert_eq!(engine.next_driver_event(), Some((at, false)));
        engine.timeouts[0].at = SimTime(499);
        assert_eq!(engine.next_driver_event(), Some((SimTime(499), true)));
        engine.table.get_mut(key).expect("live").attempt = 1;
        assert_eq!(engine.next_driver_event(), Some((at, false)));
        assert!(engine.timeouts.is_empty(), "the stale timeout was dropped");
    }

    /// On a lossy closed-loop run that retransmits and abandons sessions,
    /// no stale timeout is ever at the FIFO front when heads are compared,
    /// and `peak_heap_events` counts the queued timeouts beside the heap.
    #[test]
    fn stale_timeouts_never_reach_the_front() {
        let concurrency = 8u32;
        let mut cfg = LoadConfig::new(300, 4, LoadMode::Closed { concurrency });
        cfg.max_retries = 1;
        cfg.faults = FaultConfig {
            drop_chance: 0.3,
            duplicate_chance: 0.1,
            ..Default::default()
        };
        let cal = toy_calibration();
        let model = cal.cost_model();
        let mut engine = Engine::new(&cfg, &cal, &model);
        engine.prime();
        let (mut peak_heap, mut stale_seen) = (0, false);
        loop {
            peak_heap = peak_heap.max(engine.heap.len());
            stale_seen |= engine.timeouts.iter().any(|t| !engine.is_live(t));
            engine.next_driver_event();
            if let Some(front) = engine.timeouts.front() {
                assert!(engine.is_live(front), "a stale timeout reached the front");
            }
            if !engine.step() {
                break;
            }
        }
        let stats = engine.stats();
        let report = engine.into_report("toy", &cfg);
        assert_eq!(report.completed + report.failed, 300);
        assert!(report.failed > 0 && report.retries > 0, "faults fired");
        assert!(stale_seen, "the run left timeouts stale behind the front");
        assert!(stats.peak_heap_events as usize > peak_heap, "{stats:?}");
    }

    #[test]
    fn closed_loop_retires_sessions_slots_bounded_by_concurrency() {
        let concurrency = 16u32;
        let cfg = LoadConfig::new(500, 9, LoadMode::Closed { concurrency });
        let (report, stats) = LoadRunner::new(cfg).run_with_stats("toy", &toy_calibration());
        assert_eq!(report.completed, 500);
        assert_eq!(
            stats.peak_live_sessions, concurrency as u64,
            "a retired session's slot is reused by its replacement"
        );
        assert_eq!(stats.slots_allocated, concurrency as u64);
    }

    #[test]
    fn open_loop_heap_holds_one_pending_arrival_not_all() {
        let n = 4000u64;
        let cfg = LoadConfig::new(n, 3, LoadMode::Open { rate_per_sec: None });
        let (report, stream) = LoadRunner::new(cfg).run_with_stats("toy", &toy_calibration());
        assert_eq!(report.completed, n);
        // One pending arrival + O(live) timeouts. At ~50% utilisation
        // live sessions stay far below the total.
        assert!(
            stream.peak_heap_events < n / 8,
            "streaming heap stayed O(live): {} events for {n} sessions",
            stream.peak_heap_events
        );
        assert!(
            stream.peak_live_sessions < n / 8,
            "sessions retire as they complete: {} live peak",
            stream.peak_live_sessions
        );
    }

    /// The config a field test breaks one knob of; valid as it stands.
    fn valid_config() -> LoadConfig {
        let cfg = LoadConfig::new(10, 1, LoadMode::Closed { concurrency: 4 });
        assert_eq!(cfg.validate(), Ok(()));
        cfg
    }

    fn rejected_field(cfg: &LoadConfig) -> &'static str {
        match cfg.validate() {
            Err(LoadError::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_a_bad_rate() {
        for rate in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut cfg = valid_config();
            cfg.mode = LoadMode::Open {
                rate_per_sec: Some(rate),
            };
            assert_eq!(rejected_field(&cfg), "rate_per_sec", "rate {rate}");
        }
        let mut cfg = valid_config();
        cfg.mode = LoadMode::Open { rate_per_sec: None };
        assert_eq!(cfg.validate(), Ok(()), "the automatic rate is valid");
        let err = LoadError::InvalidConfig {
            field: "rate_per_sec",
            requirement: "a finite number above 0",
        };
        assert_eq!(
            err.to_string(),
            "invalid load config: rate_per_sec must be a finite number above 0"
        );
    }

    #[test]
    fn validate_rejects_zero_concurrency() {
        let mut cfg = valid_config();
        cfg.mode = LoadMode::Closed { concurrency: 0 };
        assert_eq!(rejected_field(&cfg), "concurrency");
    }

    #[test]
    fn validate_rejects_zero_workers() {
        let mut cfg = valid_config();
        cfg.workers = 0;
        assert_eq!(rejected_field(&cfg), "workers");
    }

    #[test]
    fn validate_rejects_zero_clients() {
        let mut cfg = valid_config();
        cfg.clients = 0;
        assert_eq!(rejected_field(&cfg), "clients");
    }

    /// Sets one fault probability of `cfg` by field name.
    fn set_fault(cfg: &mut LoadConfig, field: &str, p: f64) {
        let f = &mut cfg.faults;
        match field {
            "faults.drop_chance" => f.drop_chance = p,
            "faults.corrupt_chance" => f.corrupt_chance = p,
            "faults.duplicate_chance" => f.duplicate_chance = p,
            "faults.reorder_chance" => f.reorder_chance = p,
            other => unreachable!("{other}"),
        }
    }

    fn assert_probability_checked(field: &'static str) {
        for bad in [-0.1, 1.5, f64::NAN] {
            let mut cfg = valid_config();
            set_fault(&mut cfg, field, bad);
            assert_eq!(rejected_field(&cfg), field, "{field} = {bad}");
        }
        for good in [0.0, 0.25, 1.0] {
            let mut cfg = valid_config();
            set_fault(&mut cfg, field, good);
            assert_eq!(cfg.validate(), Ok(()), "{field} = {good}");
        }
    }

    #[test]
    fn validate_rejects_a_bad_drop_chance() {
        assert_probability_checked("faults.drop_chance");
    }

    #[test]
    fn validate_rejects_a_bad_corrupt_chance() {
        assert_probability_checked("faults.corrupt_chance");
    }

    #[test]
    fn validate_rejects_a_bad_duplicate_chance() {
        assert_probability_checked("faults.duplicate_chance");
    }

    #[test]
    fn validate_rejects_a_bad_reorder_chance() {
        assert_probability_checked("faults.reorder_chance");
    }

    /// Runs `valid_config()` broken by `breaks` on the streaming engine.
    fn run_broken(breaks: impl FnOnce(&mut LoadConfig)) {
        let mut cfg = valid_config();
        breaks(&mut cfg);
        LoadRunner::new(cfg).run("toy", &toy_calibration());
    }

    #[test]
    #[should_panic(expected = "invalid load config: rate_per_sec must be a finite number above 0")]
    fn run_refuses_a_bad_rate() {
        run_broken(|cfg| {
            cfg.mode = LoadMode::Open {
                rate_per_sec: Some(0.0),
            }
        });
    }

    #[test]
    #[should_panic(expected = "invalid load config: concurrency must be at least 1")]
    fn run_refuses_zero_concurrency() {
        run_broken(|cfg| cfg.mode = LoadMode::Closed { concurrency: 0 });
    }

    #[test]
    #[should_panic(expected = "invalid load config: workers must be at least 1")]
    fn run_refuses_zero_workers() {
        run_broken(|cfg| cfg.workers = 0);
    }

    #[test]
    #[should_panic(expected = "invalid load config: clients must be at least 1")]
    fn run_refuses_zero_clients() {
        run_broken(|cfg| cfg.clients = 0);
    }

    #[test]
    #[should_panic(expected = "invalid load config: faults.drop_chance must be")]
    fn run_refuses_a_bad_drop_chance() {
        run_broken(|cfg| set_fault(cfg, "faults.drop_chance", 1.5));
    }

    #[test]
    #[should_panic(expected = "invalid load config: faults.corrupt_chance must be")]
    fn run_refuses_a_bad_corrupt_chance() {
        run_broken(|cfg| set_fault(cfg, "faults.corrupt_chance", -0.1));
    }

    #[test]
    #[should_panic(expected = "invalid load config: faults.duplicate_chance must be")]
    fn run_refuses_a_bad_duplicate_chance() {
        run_broken(|cfg| set_fault(cfg, "faults.duplicate_chance", f64::NAN));
    }

    #[test]
    #[should_panic(expected = "invalid load config: faults.reorder_chance must be")]
    fn run_refuses_a_bad_reorder_chance() {
        run_broken(|cfg| set_fault(cfg, "faults.reorder_chance", 2.0));
    }

    fn fresh_session() -> Session {
        Session {
            arrived_at: SimTime::ZERO,
            client: NodeId(1),
            op: 0,
            attempt: 0,
            serviced_through: None,
            in_service: None,
            done: false,
            failed: false,
        }
    }

    /// A retired session's handle misses once its slot holds a new
    /// session: lookups, framing and a second retirement all ignore it,
    /// while the new occupant's handle hits.
    #[test]
    fn stale_handle_misses_after_its_slot_is_reused() {
        let mut table = SessionTable::default();
        let mut allocated = 0;
        let (old, live) = table.insert(fresh_session(), &mut allocated);
        assert_eq!(live, 1);
        assert!(table.get(old).is_some());
        table.retire(old);
        assert!(table.get(old).is_none(), "retired");

        let (new, live) = table.insert(fresh_session(), &mut allocated);
        assert_eq!((live, allocated), (1, 1), "the slot was reused");
        assert_eq!(new as u32, old as u32, "same slot index");
        assert_ne!(new, old, "different generation");
        assert!(table.get(old).is_none());
        assert!(table.get_mut(old).is_none());
        assert!(table.frame(old, 0, 0, 32).is_none());
        table.retire(old);
        assert!(
            table.get(new).is_some(),
            "a stale retire leaves the occupant"
        );
        let (frame, _) = table.frame(new, 0, 0, 32).expect("live handle frames");
        assert_eq!(
            decode(&frame),
            Some((new, 0, 0)),
            "the handle is on the wire"
        );

        table.clear();
        assert!(table.get(new).is_none(), "clearing retires every slot");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The worker heap books the same worker as a linear scan for the
        /// least `(free_at, index)`, the rule it replaced, over random
        /// arrival and service times. Short services make ties common.
        #[test]
        fn worker_heap_matches_linear_scan(
            workers in 1u32..12,
            gaps in proptest::collection::vec(0u64..40, 1..200),
            services in proptest::collection::vec(0u64..6, 1..200),
        ) {
            let mut pool = WorkerPool::new(workers);
            let mut scan = vec![SimTime::ZERO; workers as usize];
            let mut at = SimTime::ZERO;
            for (gap, service) in gaps.into_iter().zip(services) {
                at += SimDuration(gap);
                let (idx, _) = scan
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, t)| (*t, i))
                    .expect("non-empty");
                let done = scan[idx].max(at) + SimDuration(service);
                scan[idx] = done;
                prop_assert_eq!(pool.assign(at, SimDuration(service)), (idx as u32, done));
            }
        }
    }
}
