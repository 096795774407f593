//! The three workloads. Each run generates every input from the seed,
//! starts the real DKNP front-end on loopback (several times, for
//! `setup_s`), drives it with at most two client connections, checks the
//! answers and the durable state, and recovers from the WAL it left.
//!
//! | workload        | data        | timed traffic                                      |
//! |-----------------|-------------|----------------------------------------------------|
//! | `read-hot`      | XMark 0.2   | 2 closed-loop readers (50 %), then 2 writers (50 %) |
//! | `write-durable` | XMark 0.02  | 2 closed-loop readers (25 %), then 2 writers (75 %) |
//! | `churn-adapt`   | XMark 0.02  | 1 closed-loop reader + 1 writer paced at 250/s     |
//!
//! Every phase is preceded by an untimed warm-up. Closed-loop writers send
//! a fixed list of edges and stop early when it runs out.

use crate::loadgen::{
    paced_writer, query_client, update_client, AnswerCosts, Expect, Pacer, QueryTraffic, Tally,
};
use crate::setup::{self, Pool};
use crate::stats::{median, ratio, Summary};
use dkindex_core::{
    mine_requirements, snapshot_bytes, DkIndex, Requirements, ServeConfig, TuneStats,
};
use dkindex_graph::DataGraph;
use dkindex_pathexpr::PathExpr;
use dkindex_server::{Frame, NetClient};
use dkindex_telemetry as telemetry;
use rand::RngCore;
use std::net::SocketAddr;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

/// Which traffic mix to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-only, memo-hot queries on the large graph; then a write burst.
    ReadHot,
    /// Durable closed-loop edge updates; then queries on the eroded index.
    WriteDurable,
    /// Paced durable updates beside a reader whose query mix shifts, with
    /// live tuning on.
    ChurnAdapt,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "read-hot" => Some(Workload::ReadHot),
            "write-durable" => Some(Workload::WriteDurable),
            "churn-adapt" => Some(Workload::ChurnAdapt),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::WriteDurable => "write-durable",
            Workload::ChurnAdapt => "churn-adapt",
        }
    }

    fn scale(self) -> f64 {
        match self {
            Workload::ReadHot => 0.2,
            Workload::WriteDurable | Workload::ChurnAdapt => 0.02,
        }
    }

    /// Live tuning is on for `write-durable` too: its read phase fills the
    /// load monitor and the first write batches harvest it, so the tuner
    /// layer is measured on a workload steady enough to gate.
    fn serve_config(self) -> ServeConfig {
        match self {
            Workload::ChurnAdapt | Workload::WriteDurable => ServeConfig {
                tune_interval: 4,
                tune_window: 256,
                ..ServeConfig::default()
            },
            Workload::ReadHot => ServeConfig::default(),
        }
    }
}

/// Closed-loop client connections per phase (the machine's 2 cores).
pub const CLIENTS: usize = 2;
/// churn-adapt's paced update rate, per second.
pub const PACED_RATE: f64 = 250.0;
/// Share of a run given to its query phase; the update phase gets the
/// rest. churn-adapt runs both side by side for the whole run.
fn query_share(workload: Workload) -> f64 {
    match workload {
        Workload::ReadHot => 0.5,
        Workload::WriteDurable => 0.25,
        Workload::ChurnAdapt => 1.0,
    }
}

/// Timed rounds of the query and update phases. Each round opens fresh
/// connections, so one unlucky thread placement moves one round, not the
/// run; the reported figures are medians over rounds.
fn rounds(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::ReadHot => (9, 5),
        Workload::WriteDurable => (9, 9),
        Workload::ChurnAdapt => (1, 1),
    }
}

/// Edges per second of closed-loop update phase. The writers stop when
/// the list runs out, so the WAL a run leaves (and so `recovery_s` and the
/// eroded index) does not grow when updates get faster. Set below the
/// rate one fsync per group commit allows on a 2-core ext4 box.
fn edge_quota(workload: Workload) -> f64 {
    match workload {
        Workload::ReadHot => 700.0,
        Workload::WriteDurable => 2_000.0,
        Workload::ChurnAdapt => PACED_RATE,
    }
}

/// Longest untimed warm-up before a phase.
const WARMUP_MAX_S: f64 = 0.5;

/// How a run is measured.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    /// Timed traffic, seconds (split between phases).
    pub seconds: f64,
    /// Server starts for `setup_s`.
    pub setup_reps: usize,
    /// Recoveries for `recovery_s` (0: skip recovery).
    pub recovery_reps: usize,
    /// Record telemetry and keep request/reply samples for the replays.
    pub traced: bool,
}

/// Requests and replies kept per client in a traced run.
const KEEP: usize = 20_000;
/// One PING per this many queries on the first client of a traced run.
const PING_EVERY: usize = 100;

/// One timed round of a phase.
#[derive(Clone, Debug)]
pub struct Round {
    /// Latency summary of the round (`None`: nothing completed).
    pub lat: Option<Summary>,
    /// Completed operations per second.
    pub rate: f64,
    /// Timed span of the round.
    pub elapsed: Duration,
}

impl Round {
    fn of(lat_ns: &[u64], elapsed: Duration) -> Round {
        Round {
            lat: Summary::of(lat_ns.to_vec()),
            rate: lat_ns.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            elapsed,
        }
    }
}

/// Mean latency over every round's samples, ns.
pub fn mean_latency_ns(rounds: &[Round]) -> f64 {
    let (sum, n) = rounds
        .iter()
        .filter_map(|r| r.lat.as_ref())
        .fold((0.0, 0usize), |(sum, n), s| {
            (sum + s.mean * s.n as f64, n + s.n)
        });
    ratio(sum, n as f64)
}

/// What the query side of a run saw.
#[derive(Default)]
pub struct QueryPhase {
    /// The timed rounds.
    pub rounds: Vec<Round>,
    /// PING round trips, ns.
    pub ping_ns: Vec<u64>,
    /// Costs off the ANSWER frames.
    pub costs: AnswerCosts,
    /// Leading query ids sent, clients interleaved.
    pub sent: Vec<u16>,
    /// Leading reply frames.
    pub replies: Vec<Frame>,
}

/// What the update side of a run saw.
#[derive(Default)]
pub struct UpdatePhase {
    /// Lateness of paced sends, ns (empty for closed loops).
    pub late_ns: Vec<u64>,
    /// Acknowledged edges in acknowledgment order (warm-up included).
    pub acked: Vec<(u64, u64)>,
    /// The timed rounds.
    pub rounds: Vec<Round>,
    /// Some round's share of the edge list ran out before its deadline.
    pub exhausted: bool,
    /// Leading reply frames.
    pub replies: Vec<Frame>,
}

/// Everything one run measured and kept.
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Start-up time of each server start, s.
    pub setup_s: Vec<f64>,
    /// Query side.
    pub query: QueryPhase,
    /// Update side.
    pub update: UpdatePhase,
    /// Whole recovery, snapshot load and WAL replay, s, per recovery.
    pub recoveries: Vec<(f64, f64, f64)>,
    /// Every attempted operation and its failures.
    pub tally: Tally,
    /// Failed correctness checks.
    pub checks: Vec<String>,
    /// Query texts by id.
    pub texts: Vec<String>,
    /// Parsed queries by id.
    pub exprs: Vec<PathExpr>,
    /// Requirements the index was built for.
    pub reqs: Requirements,
    /// The data graph and index as built.
    pub initial: (DkIndex, DataGraph),
    /// The state the timed queries ran against (at its end).
    pub query_state: (DkIndex, DataGraph),
    /// The drained final state.
    pub final_state: (DkIndex, DataGraph),
    /// The run's WAL file contents.
    pub wal: Vec<u8>,
    /// Filesystem the WAL lived on.
    pub wal_fs: String,
    /// Live tuner activity.
    pub tuning: Option<TuneStats>,
}

impl Run {
    /// Throughput of the workload's main operation, per second.
    pub fn primary_rate(&self) -> f64 {
        match self.workload {
            Workload::WriteDurable => self.updates_per_s(),
            Workload::ReadHot | Workload::ChurnAdapt => self.queries_per_s(),
        }
    }

    /// Answered queries per second: the median over query rounds.
    pub fn queries_per_s(&self) -> f64 {
        median_rate(&self.query.rounds)
    }

    /// Acknowledged updates per second: the median over update rounds.
    pub fn updates_per_s(&self) -> f64 {
        median_rate(&self.update.rounds)
    }
}

fn median_rate(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(|r| r.rate).collect::<Vec<_>>())
}

fn warmup(phase_s: f64) -> Duration {
    Duration::from_secs_f64((phase_s * 0.1).min(WARMUP_MAX_S))
}

/// Run one closed-loop query client per stream for `dur`, split into
/// `rounds` rounds with fresh connections, after an untimed warm-up.
#[allow(clippy::too_many_arguments)]
fn query_phase(
    addr: SocketAddr,
    texts: &[String],
    expect: &[Expect],
    streams: &[Vec<u16>],
    dur: Duration,
    rounds: usize,
    traced: bool,
    tally: &mut Tally,
) -> QueryPhase {
    let run = |dur: Duration, round: usize, keep: usize, ping: usize| {
        let start = Instant::now();
        let deadline = start + dur;
        let outs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(c, seq)| {
                    // Each round sends its own stretch of the stream.
                    let from = round * seq.len() / rounds.max(1);
                    let traffic = QueryTraffic {
                        texts,
                        expect: Some(expect),
                        first: &seq[from..],
                        second: &seq[from..],
                        switch_at: None,
                        deadline,
                        ping_every: if c == 0 { ping } else { 0 },
                        keep,
                    };
                    s.spawn(move || query_client(addr, &traffic))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query client panicked"))
                .collect::<Vec<_>>()
        });
        (start, outs)
    };
    for w in &run(warmup(dur.as_secs_f64()), 0, 0, 0).1 {
        tally.merge(&w.tally);
    }
    let mut phase = QueryPhase::default();
    let ping = if traced { PING_EVERY } else { 0 };
    for round in 0..rounds {
        let keep = if traced && round == 0 { KEEP } else { 0 };
        let (start, outs) = run(dur / rounds as u32, round, keep, ping);
        let mut end = start;
        let mut lat = Vec::new();
        for out in &outs {
            tally.merge(&out.tally);
            phase.costs.merge(&out.costs);
            lat.extend_from_slice(&out.lat_ns);
            phase.ping_ns.extend_from_slice(&out.ping_ns);
            end = end.max(out.end.unwrap_or(start));
        }
        phase.rounds.push(Round::of(&lat, end - start));
        // Interleave the clients' streams: the request order the server
        // saw, up to the sampling of concurrency.
        let longest = outs.iter().map(|o| o.sent.len()).max().unwrap_or(0);
        for i in 0..longest {
            for out in &outs {
                if let (Some(&id), Some(reply)) = (out.sent.get(i), out.replies.get(i)) {
                    phase.sent.push(id);
                    phase.replies.push(reply.clone());
                }
            }
        }
    }
    phase
}

/// Run `CLIENTS` closed-loop update clients for `dur`, split into `rounds`
/// rounds with fresh connections, after an untimed warm-up. The warm-up
/// takes the first `warm_edges` edges; each round then sends an equal
/// share of the rest and ends early if its share runs out.
fn update_phase(
    addr: SocketAddr,
    edges: &[(u64, u64)],
    warm_edges: usize,
    dur: Duration,
    rounds: usize,
    traced: bool,
    tally: &mut Tally,
) -> UpdatePhase {
    let run = |edges: &[(u64, u64)], dur: Duration, keep: usize| {
        let cursor = AtomicUsize::new(0);
        let start = Instant::now();
        let deadline = start + dur;
        let outs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| s.spawn(|| update_client(addr, edges, &cursor, deadline, keep)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("update client panicked"))
                .collect::<Vec<_>>()
        });
        (start, outs, cursor.into_inner() >= edges.len())
    };
    let mut phase = UpdatePhase::default();
    let mut acked = Vec::new();
    let (warm, rest) = edges.split_at(warm_edges.min(edges.len()));
    for w in &run(warm, warmup(dur.as_secs_f64()), 0).1 {
        tally.merge(&w.tally);
        acked.extend_from_slice(&w.acked);
    }
    let share = rest.len().div_ceil(rounds.max(1)).max(1);
    for (round, slice) in rest.chunks(share).enumerate() {
        let keep = if traced && round == 0 { KEEP } else { 0 };
        let (start, outs, exhausted) = run(slice, dur / rounds as u32, keep);
        let mut end = start;
        let mut lat = Vec::new();
        for out in &outs {
            tally.merge(&out.tally);
            lat.extend_from_slice(&out.lat_ns);
            phase.replies.extend_from_slice(&out.replies);
            acked.extend_from_slice(&out.acked);
            end = end.max(out.end.unwrap_or(start));
        }
        phase.exhausted |= exhausted;
        phase.rounds.push(Round::of(&lat, end - start));
    }
    acked.sort_by_key(|&(at, _)| at);
    phase.acked = acked.into_iter().map(|(_, e)| e).collect();
    phase
}

/// churn-adapt's traffic: one closed-loop reader whose mix moves from
/// pool A to pool B at the midpoint, beside one paced durable writer.
#[allow(clippy::too_many_arguments)]
fn churn_phase(
    addr: SocketAddr,
    texts: &[String],
    stream_a: &[u16],
    stream_b: &[u16],
    edges: &[(u64, u64)],
    dur: Duration,
    traced: bool,
    tally: &mut Tally,
) -> (QueryPhase, UpdatePhase) {
    // Warm-up: the reader alone, on pool A.
    let warm_traffic = QueryTraffic {
        texts,
        expect: None,
        first: stream_a,
        second: stream_a,
        switch_at: None,
        deadline: Instant::now() + warmup(dur.as_secs_f64()),
        ping_every: 0,
        keep: 0,
    };
    tally.merge(&query_client(addr, &warm_traffic).tally);

    let keep = if traced { KEEP } else { 0 };
    let start = Instant::now();
    let deadline = start + dur;
    let reader_traffic = QueryTraffic {
        texts,
        expect: None,
        first: stream_a,
        second: stream_b,
        switch_at: Some(start + dur / 2),
        deadline,
        ping_every: if traced { PING_EVERY } else { 0 },
        keep,
    };
    let pacer = Pacer::new(start, PACED_RATE);
    let (reader, writer) = std::thread::scope(|s| {
        let reader = s.spawn(|| query_client(addr, &reader_traffic));
        let writer = s.spawn(|| paced_writer(addr, edges, pacer, deadline, keep));
        (
            reader.join().expect("reader panicked"),
            writer.join().expect("writer panicked"),
        )
    });
    tally.merge(&reader.tally);
    tally.merge(&writer.tally);
    let query = QueryPhase {
        rounds: vec![Round::of(
            &reader.lat_ns,
            reader.end.unwrap_or(start) - start,
        )],
        ping_ns: reader.ping_ns,
        costs: reader.costs,
        sent: reader.sent,
        replies: reader.replies,
    };
    let update = UpdatePhase {
        rounds: vec![Round::of(
            &writer.lat_ns,
            writer.end.unwrap_or(start) - start,
        )],
        exhausted: false,
        late_ns: writer.late_ns,
        acked: writer.acked.into_iter().map(|(_, e)| e).collect(),
        replies: writer.replies,
    };
    (query, update)
}

/// Send every query once and check each ANSWER against `expect`.
fn check_all(addr: SocketAddr, texts: &[String], expect: &[Expect], tally: &mut Tally) {
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(err) => {
            tally.attempted += 1;
            tally.failed += 1;
            tally.notes.push(format!("post-drain check connect: {err}"));
            return;
        }
    };
    for i in 0..texts.len() {
        tally.attempted += 1;
        let ok = match client.query(&texts[i], 0) {
            Ok(Frame::Answer {
                match_count, ids, ..
            }) => {
                let good = match_count == expect[i].count && ids == expect[i].ids;
                if !good {
                    tally.mismatches += 1;
                }
                good
            }
            _ => false,
        };
        if !ok {
            tally.failed += 1;
            tally
                .notes
                .push(format!("post-drain answer to {} is wrong", texts[i]));
        }
    }
}

/// Run `workload` once under `mode` with inputs drawn from `seed`.
pub fn run(workload: Workload, mode: Mode, seed: u64) -> Result<Run, String> {
    // ---- inputs, all generated before any timing ----
    let data = setup::xmark(workload.scale());
    let pool_a = Pool::new(&data, setup::POOL_A_SEED);
    let reqs = mine_requirements(&pool_a.exprs);
    let pool_b = (workload == Workload::ChurnAdapt).then(|| Pool::new(&data, setup::POOL_B_SEED));
    let mut texts = pool_a.texts.clone();
    let mut exprs = pool_a.exprs.clone();
    if let Some(b) = &pool_b {
        texts.extend(b.texts.iter().cloned());
        exprs.extend(b.exprs.iter().cloned());
    }
    let readers = if workload == Workload::ChurnAdapt {
        1
    } else {
        CLIENTS
    };
    let streams_a: Vec<Vec<u16>> = (0..readers as u64)
        .map(|c| pool_a.stream(&mut setup::rng(seed, 10 + c), setup::STREAM_LEN, 0))
        .collect();
    let streams_b: Option<Vec<Vec<u16>>> = pool_b.as_ref().map(|b| {
        (0..readers as u64)
            .map(|c| {
                b.stream(
                    &mut setup::rng(seed, 20 + c),
                    setup::STREAM_LEN,
                    pool_a.exprs.len(),
                )
            })
            .collect()
    });
    let query_s = mode.seconds * query_share(workload);
    let update_s = match workload {
        Workload::ChurnAdapt => mode.seconds,
        Workload::ReadHot | Workload::WriteDurable => mode.seconds - query_s,
    };
    let warm_edges = (warmup(update_s).as_secs_f64() * edge_quota(workload)).ceil() as usize;
    let edge_count = match workload {
        Workload::ChurnAdapt => Pacer::new(Instant::now(), PACED_RATE)
            .due_before(Duration::from_secs_f64(update_s)) as usize,
        Workload::ReadHot | Workload::WriteDurable => {
            warm_edges + (update_s * edge_quota(workload)).ceil() as usize
        }
    };
    let edges = setup::update_edges(&data, edge_count, setup::rng(seed, 30).next_u64());
    let initial_expect = setup::oracle(&data, &pool_a.exprs);

    let dir = setup::ScratchDir::new(workload.name())?;
    let wal_path = dir.file("serve.wal");
    let snap_path = dir.file("initial.snap");
    let serve = workload.serve_config();

    // ---- set-up, timed ----
    if mode.traced {
        telemetry::reset();
        telemetry::enable();
    }
    let (started, setup_s) =
        setup::start_repeated(&data, &reqs, &serve, &snap_path, &wal_path, mode.setup_reps)?;
    let initial = started.initial;
    let net = started.net;
    let wal_fs = setup::fs_type(&wal_path);

    // ---- traffic, timed ----
    let mut tally = Tally::default();
    let mut checks = Vec::new();
    let query_dur = Duration::from_secs_f64(query_s);
    let update_dur = Duration::from_secs_f64(update_s);
    let (query, update, query_state) = match &streams_b {
        None => {
            let (query_rounds, update_rounds) = rounds(workload);
            let q = query_phase(
                net.local_addr(),
                &texts,
                &initial_expect,
                &streams_a,
                query_dur,
                query_rounds,
                mode.traced,
                &mut tally,
            );
            let u = update_phase(
                net.local_addr(),
                &edges,
                warm_edges,
                update_dur,
                update_rounds,
                mode.traced,
                &mut tally,
            );
            (q, u, initial.clone())
        }
        Some(streams_b) => {
            let addr = net.local_addr();
            let (q, u) = churn_phase(
                addr,
                &texts,
                &streams_a[0],
                &streams_b[0],
                &edges,
                update_dur,
                mode.traced,
                &mut tally,
            );
            net.dk_server().flush().map_err(|e| format!("flush: {e}"))?;
            let epoch = net.dk_server().handle().epoch();
            let expect = setup::oracle(epoch.data(), &exprs);
            check_all(addr, &texts, &expect, &mut tally);
            (q, u, (epoch.index().clone(), epoch.data().clone()))
        }
    };

    // ---- durable state checks ----
    net.dk_server().flush().map_err(|e| format!("flush: {e}"))?;
    let tuning = net.dk_server().handle().tuning_stats();
    let missing = setup::missing_edges(net.dk_server().handle().epoch().data(), &update.acked);
    if missing > 0 {
        checks.push(format!(
            "{missing} acknowledged edges missing from the served graph"
        ));
    }
    let shut = net.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if mode.traced {
        telemetry::disable();
    }
    let missing = setup::missing_edges(&shut.data, &update.acked);
    if missing > 0 {
        checks.push(format!(
            "{missing} acknowledged edges missing from the drained graph"
        ));
    }
    let final_state = (shut.index, shut.data);
    let wal = std::fs::read(&wal_path).map_err(|e| format!("read WAL: {e}"))?;

    let mut recoveries = Vec::new();
    if mode.recovery_reps > 0 {
        let drained = snapshot_bytes(&final_state.0, &final_state.1);
        for _ in 0..mode.recovery_reps {
            let r = setup::recover_in_child(&snap_path, &wal_path)?;
            if r.bytes != drained {
                checks.push("recovered state differs from the drained state".to_string());
            }
            recoveries.push((r.total_s, r.snapshot_load_s, r.wal_replay_s));
        }
    }
    if tally.mismatches > 0 {
        checks.push(format!(
            "{} answers disagreed with the oracle",
            tally.mismatches
        ));
    }
    drop(dir);

    Ok(Run {
        workload,
        setup_s,
        query,
        update,
        recoveries,
        tally,
        checks,
        texts,
        exprs,
        reqs,
        initial,
        query_state,
        final_state,
        wal,
        wal_fs,
        tuning,
    })
}
