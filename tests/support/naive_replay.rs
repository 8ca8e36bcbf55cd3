//! A deliberately naive simulator of the system `teenet_load::LoadRunner`
//! replays, kept as the engine's test oracle. Include it with
//! `#[path = "support/naive_replay.rs"] mod naive_replay;`.
//!
//! It models the same system — sessions of calibrated request/response
//! ops, sent from round-robin clients to one multi-worker server over
//! `teenet-netsim` links, with retransmission timeouts and a per-session
//! idempotent-response cache at the server — in the plainest form that
//! fixes the same event order. It shares no code with the engine:
//!
//! * sessions live in a `Vec` indexed by session number for the whole
//!   run, with `done`/`failed` flags;
//! * every open-loop arrival goes into the event heap at t=0, and one
//!   running seq counter orders every event that ties in time;
//! * retransmission timeouts go into the same heap and are checked for
//!   staleness when they fire;
//! * the earliest-free worker is found by a linear scan over
//!   `(free_at, index)`;
//! * after each network step every inbox is polled, server first;
//! * every message is a full zero-padded frame sent with
//!   [`Network::send`], under the oracle's own checksummed header;
//! * the report is built field by field from the oracle's own tallies.
//!
//! From `teenet-load` it takes only public data types and
//! [`ArrivalProcess::seeded`], so open-loop Poisson draws match.
//!
//! [`assert_matches_oracle`] is what tests call: byte equality with the
//! oracle, plus the operational laws every correct serial run obeys.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use teenet_load::{
    Arrival, ArrivalProcess, Calibration, Histogram, LoadConfig, LoadMode, PhaseRollup, RunReport,
};
use teenet_netsim::{LinkConfig, Network, NodeId, SimTime};
use teenet_sgx::cost::{CostModel, Counters};
use teenet_sgx::TransitionStats;

/// Mixed into the run seed to seed the network (the engine's constant:
/// fault outcomes depend on it).
const NETSIM_SALT: u64 = 0x6e65_7473_696d;

/// Frame header: check word (8) + session (8) + op (4) + attempt (4).
/// Every frame is at least this long.
const HEADER_LEN: usize = 24;

/// A frame of `len` bytes (never shorter than the header): the header,
/// then zeros.
fn frame(session: u64, op: u32, attempt: u32, len: usize) -> Vec<u8> {
    let mut f = vec![0u8; len.max(HEADER_LEN)];
    f[8..16].copy_from_slice(&session.to_le_bytes());
    f[16..20].copy_from_slice(&op.to_le_bytes());
    f[20..24].copy_from_slice(&attempt.to_le_bytes());
    f[0..8].copy_from_slice(&check_word(session, op, attempt).to_le_bytes());
    f
}

/// XOR of the fields, so flipping any single header bit — all a
/// corrupting link fault does — breaks the check.
fn check_word(session: u64, op: u32, attempt: u32) -> u64 {
    session ^ (u64::from(op) << 32 | u64::from(attempt)) ^ 0xa5a5_a5a5_a5a5_a5a5
}

/// `(session, op, attempt)` of an intact frame; `None` if the check fails.
fn parse(f: &[u8]) -> Option<(u64, u32, u32)> {
    let word = |r: std::ops::Range<usize>| {
        let mut b = [0u8; 8];
        b[..r.len()].copy_from_slice(&f[r]);
        u64::from_le_bytes(b)
    };
    let (check, session) = (word(0..8), word(8..16));
    let (op, attempt) = (word(16..20) as u32, word(20..24) as u32);
    (check == check_word(session, op, attempt)).then_some((session, op, attempt))
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Arrive { session: u64 },
    ServiceDone { session: u64, op: u32 },
    Timeout { session: u64, op: u32, attempt: u32 },
}

struct Session {
    arrived_at: u64,
    client: NodeId,
    /// The op the client is waiting on, and its retransmission attempt.
    op: u32,
    attempt: u32,
    /// Server side: the highest op serviced, and the op on a worker now.
    serviced_through: Option<u32>,
    in_service: Option<u32>,
    done: bool,
    failed: bool,
}

struct Sim<'a> {
    cfg: &'a LoadConfig,
    cal: &'a Calibration,
    net: Network,
    server: NodeId,
    clients: Vec<NodeId>,
    /// Every pending arrival, service completion and timeout, by
    /// `(time in ns, seq)`.
    events: BinaryHeap<Reverse<(u64, u64, Event)>>,
    seq: u64,
    sessions: Vec<Session>,
    /// Closed loop: the next session index to start.
    next_session: u64,
    /// When each worker is next free, in ns.
    workers: Vec<u64>,
    /// Service time of each op, in ns.
    service: Vec<u64>,
    timeout: u64,
    latency: Histogram,
    completed: u64,
    failed: u64,
    retries: u64,
    corrupt_rx: u64,
    last_done: u64,
    client_phase: PhaseRollup,
    server_phase: PhaseRollup,
    transitions: TransitionStats,
}

/// The open-loop arrival rate: the configured one, or half the server's
/// capacity (`workers` sessions per session's service time).
fn open_rate(cfg: &LoadConfig, rate: Option<f64>, service: &[u64]) -> f64 {
    match rate {
        Some(r) => r,
        None => {
            let busy_ns: u64 = service.iter().sum();
            if busy_ns == 0 {
                1_000.0
            } else {
                0.5 * cfg.workers as f64 / (busy_ns as f64 / 1e9)
            }
        }
    }
}

/// Replays `cal`'s script under `cfg` and reports it as `scenario`.
pub fn replay(scenario: &str, cfg: &LoadConfig, cal: &Calibration) -> RunReport {
    let model = cal.cost_model();
    let service: Vec<u64> = cal
        .ops
        .iter()
        .map(|op| op.service_nanos(&model, cfg.clock_hz))
        .collect();
    let slowest = service.iter().copied().max().unwrap_or(0);
    let timeout = match cfg.timeout {
        Some(t) => t.as_nanos(),
        None => (2 * cfg.latency.as_nanos() + slowest)
            .saturating_mul(4)
            .max(1_000_000),
    };

    let mut net = Network::new(cfg.seed ^ NETSIM_SALT);
    let server = net.add_node();
    let clients: Vec<NodeId> = (0..cfg.clients).map(|_| net.add_node()).collect();
    let link = LinkConfig {
        latency: cfg.latency,
        bandwidth_bps: cfg.bandwidth_bps,
        faults: cfg.faults.clone(),
    };
    for &c in &clients {
        net.add_duplex_link(c, server, link.clone());
    }

    let mut sim = Sim {
        cfg,
        cal,
        net,
        server,
        clients,
        events: BinaryHeap::new(),
        seq: 0,
        sessions: Vec::new(),
        next_session: 0,
        workers: vec![0; cfg.workers as usize],
        service,
        timeout,
        latency: Histogram::new(),
        completed: 0,
        failed: 0,
        retries: 0,
        corrupt_rx: 0,
        last_done: 0,
        client_phase: PhaseRollup::new("steady.client"),
        server_phase: PhaseRollup::new("steady.server"),
        transitions: TransitionStats::default(),
    };

    let (mode, rate, concurrency) = match cfg.mode {
        LoadMode::Open { rate_per_sec } => {
            let rate = open_rate(cfg, rate_per_sec, &sim.service);
            let open = Arrival::OpenLoop { rate_per_sec: rate };
            let mut arrivals = ArrivalProcess::seeded(open, cfg.sessions, cfg.seed);
            while let Some((session, at)) = arrivals.next_arrival() {
                sim.push(at.as_nanos(), Event::Arrive { session });
            }
            ("open", rate, 0)
        }
        LoadMode::Closed { concurrency } => {
            for _ in 0..u64::from(concurrency).min(cfg.sessions) {
                sim.start_next_session(0);
            }
            ("closed", 0.0, concurrency)
        }
    };
    sim.run();
    sim.report(scenario, &model, mode, rate, concurrency)
}

impl Sim<'_> {
    fn push(&mut self, at: u64, event: Event) {
        self.events.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }

    /// Closed loop: queues the next session's arrival at `at`, if any
    /// session is left to start.
    fn start_next_session(&mut self, at: u64) {
        if self.next_session < self.cfg.sessions {
            let session = self.next_session;
            self.next_session += 1;
            self.push(at, Event::Arrive { session });
        }
    }

    /// Handles whichever comes first, a delivery or an event, until
    /// neither is left. The network wins ties.
    fn run(&mut self) {
        loop {
            let event_at = self.events.peek().map(|Reverse((at, _, _))| *at);
            let delivery_at = self.net.next_event_at().map(SimTime::as_nanos);
            match (event_at, delivery_at) {
                (None, None) => return,
                (Some(e), Some(d)) if d <= e => self.deliver(d),
                (None, Some(d)) => self.deliver(d),
                (Some(_), _) => {
                    let Reverse((at, _, event)) = self.events.pop().expect("peeked");
                    self.net.run_until(SimTime(at));
                    self.fire(at, event);
                }
            }
        }
    }

    fn deliver(&mut self, until: u64) {
        self.net.run_until(SimTime(until));
        let nodes: Vec<NodeId> = std::iter::once(self.server)
            .chain(self.clients.iter().copied())
            .collect();
        for node in nodes {
            while let Some((at, packet)) = self.net.recv_timed(node) {
                match parse(&packet.payload) {
                    None => self.corrupt_rx += 1,
                    Some((session, op, _)) if node == self.server => {
                        self.on_request(at.as_nanos(), session, op)
                    }
                    Some((session, op, _)) => self.on_response(at.as_nanos(), session, op),
                }
            }
        }
    }

    fn fire(&mut self, at: u64, event: Event) {
        match event {
            Event::Arrive { session } => {
                assert_eq!(
                    session,
                    self.sessions.len() as u64,
                    "arrivals in index order"
                );
                let client = self.clients[(session % self.clients.len() as u64) as usize];
                self.sessions.push(Session {
                    arrived_at: at,
                    client,
                    op: 0,
                    attempt: 0,
                    serviced_through: None,
                    in_service: None,
                    done: false,
                    failed: false,
                });
                self.send_request(session);
            }
            Event::ServiceDone { session, op } => {
                let s = &mut self.sessions[session as usize];
                if s.done || s.failed {
                    return;
                }
                s.in_service = None;
                s.serviced_through = Some(op);
                self.send_response(session, op);
            }
            Event::Timeout {
                session,
                op,
                attempt,
            } => {
                let max_retries = self.cfg.max_retries;
                let s = &mut self.sessions[session as usize];
                if s.done || s.failed || s.op != op || s.attempt != attempt {
                    return; // stale: the session moved on or finished
                }
                if attempt >= max_retries {
                    s.failed = true;
                    self.failed += 1;
                    self.last_done = self.last_done.max(at);
                    self.start_next_closed_loop(at);
                } else {
                    s.attempt += 1;
                    self.retries += 1;
                    self.send_request(session);
                }
            }
        }
    }

    fn start_next_closed_loop(&mut self, at: u64) {
        if let LoadMode::Closed { .. } = self.cfg.mode {
            self.start_next_session(at);
        }
    }

    /// Sends the session's current request and arms its timeout.
    fn send_request(&mut self, session: u64) {
        let s = &self.sessions[session as usize];
        let (client, op, attempt) = (s.client, s.op, s.attempt);
        let profile = &self.cal.ops[op as usize];
        if attempt == 0 {
            self.client_phase.fold(profile.client);
        }
        let f = frame(session, op, attempt, profile.request_bytes);
        self.net.send(client, self.server, f);
        let at = self.net.now().as_nanos() + self.timeout;
        self.push(
            at,
            Event::Timeout {
                session,
                op,
                attempt,
            },
        );
    }

    fn on_request(&mut self, at: u64, session: u64, op: u32) {
        let s = &mut self.sessions[session as usize];
        if s.done || s.failed || op != s.op || s.in_service == Some(op) {
            return; // stale, or a duplicate of a request being serviced
        }
        if s.serviced_through.is_some_and(|t| t >= op) {
            // The response was lost: resend it without servicing again.
            self.send_response(session, op);
            return;
        }
        s.in_service = Some(op);
        let worker = (0..self.workers.len())
            .min_by_key(|&w| (self.workers[w], w))
            .expect("at least one worker");
        let done_at = self.workers[worker].max(at) + self.service[op as usize];
        self.workers[worker] = done_at;
        let profile = &self.cal.ops[op as usize];
        self.server_phase.fold(profile.server);
        self.transitions.merge(profile.transitions);
        self.push(done_at, Event::ServiceDone { session, op });
    }

    fn send_response(&mut self, session: u64, op: u32) {
        let client = self.sessions[session as usize].client;
        let f = frame(session, op, 0, self.cal.ops[op as usize].response_bytes);
        self.net.send(self.server, client, f);
    }

    fn on_response(&mut self, at: u64, session: u64, op: u32) {
        let s = &mut self.sessions[session as usize];
        if s.done || s.failed || op != s.op {
            return; // stale or duplicate
        }
        s.op += 1;
        s.attempt = 0;
        if (s.op as usize) < self.cal.ops.len() {
            self.send_request(session);
            return;
        }
        s.done = true;
        let took = at - s.arrived_at;
        self.latency.record(took);
        self.completed += 1;
        self.last_done = self.last_done.max(at);
        self.start_next_closed_loop(at);
    }

    fn report(
        self,
        scenario: &str,
        model: &CostModel,
        mode: &str,
        rate: f64,
        concurrency: u32,
    ) -> RunReport {
        let duration_ns = self.last_done.max(1);
        let mut calibration = PhaseRollup::new("calibration");
        calibration.fold(self.cal.setup);
        let mut total = Counters::new();
        total.merge(calibration.counters);
        total.merge(self.client_phase.counters);
        total.merge(self.server_phase.counters);
        RunReport {
            scenario: scenario.to_string(),
            mode: mode.to_string(),
            transition_mode: self.cal.mode.as_str().to_string(),
            backend: self.cal.backend,
            seed: self.cfg.seed,
            rate_per_sec: rate,
            concurrency,
            sessions: self.cfg.sessions,
            completed: self.completed,
            failed: self.failed,
            retries: self.retries,
            corrupt_rx: self.corrupt_rx,
            duration_ns,
            throughput_per_sec: self.completed as f64 / (duration_ns as f64 / 1e9),
            latency: self.latency,
            net: self.net.fault_totals(),
            max_server_queue: self.net.max_queue_depth(self.server) as u64,
            phases: vec![calibration, self.client_phase, self.server_phase],
            total,
            total_cycles: total.cycles(model),
            transitions: self.transitions,
            switchless_workers: self.cal.switchless.workers.max(1),
        }
    }
}

/// Checks the operational laws (Denning & Buzen, 1978) that hold for any
/// correct serial run, whatever the distributions:
///
/// * utilisation: completed sessions × per-session service demand fits
///   in `workers × duration`;
/// * Little's law, closed loop: the summed latency of completed sessions
///   fits in `concurrency × duration` (at most `concurrency` are ever in
///   flight);
/// * demand bound: no session completes faster than two link latencies
///   plus its service time per op.
pub fn check_operational_laws(label: &str, cfg: &LoadConfig, cal: &Calibration, r: &RunReport) {
    let model = cal.cost_model();
    let demand = cal.session_service_nanos(&model, cfg.clock_hz);
    let busy = u128::from(r.completed) * u128::from(demand);
    let capacity = u128::from(cfg.workers) * u128::from(r.duration_ns);
    assert!(
        busy <= capacity,
        "{label}: utilisation law: {} sessions × {demand} ns > {} workers × {} ns",
        r.completed,
        cfg.workers,
        r.duration_ns
    );
    if let LoadMode::Closed { concurrency } = cfg.mode {
        let in_flight = r.latency.mean() * r.latency.count() as f64;
        let bound = f64::from(concurrency) * r.duration_ns as f64;
        assert!(
            in_flight <= bound * (1.0 + 1e-9),
            "{label}: Little's law: Σ latency {in_flight} ns > {concurrency} × {} ns",
            r.duration_ns
        );
    }
    if r.completed > 0 {
        let round_trip = 2 * cfg.latency.as_nanos();
        let least: u64 = cal
            .ops
            .iter()
            .map(|op| round_trip + op.service_nanos(&model, cfg.clock_hz))
            .sum();
        assert!(
            r.latency.min() >= least,
            "{label}: demand bound: a session took {} ns, less than its {least} ns of \
             round trips and service",
            r.latency.min()
        );
    }
}

/// Asserts that `engine`, a report of `cfg` over `cal`, is byte for byte
/// the oracle's (JSON and text) and obeys the operational laws.
pub fn assert_matches_oracle(label: &str, cfg: &LoadConfig, cal: &Calibration, engine: &RunReport) {
    let oracle = replay(&engine.scenario, cfg, cal);
    assert_eq!(
        engine.json(),
        oracle.json(),
        "{label}: JSON differs from the oracle's"
    );
    assert_eq!(
        engine.text(),
        oracle.text(),
        "{label}: text differs from the oracle's"
    );
    check_operational_laws(label, cfg, cal, engine);
}
