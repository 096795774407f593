//! The load generator: closed-loop query and update clients, the paced
//! (open-loop) update writer, and the answer check every client applies.
//!
//! Every attempted operation is counted exactly once. It fails when the
//! transport fails, or when the server answers with an ERROR or SHED
//! frame, or when the answer disagrees with the oracle. Nothing is retried:
//! a failed operation is recorded and the client moves on to the next one
//! (after reconnecting, if the transport broke).

use dkindex_server::{Frame, NetClient};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Due times of an open-loop sender: request `i` is due at
/// `start + i × period`. Computed from the index, never by accumulating
/// sleeps, so lateness cannot drift into the schedule.
#[derive(Clone, Copy, Debug)]
pub struct Pacer {
    start: Instant,
    period_ns: u64,
}

impl Pacer {
    /// A schedule of `rate_per_s` requests per second from `start`.
    pub fn new(start: Instant, rate_per_s: f64) -> Pacer {
        let period_ns = (1e9 / rate_per_s).round().max(1.0) as u64;
        Pacer { start, period_ns }
    }

    /// Offset of request `i` from the schedule start.
    pub fn offset(&self, i: u64) -> Duration {
        Duration::from_nanos(i.saturating_mul(self.period_ns))
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.offset(i)
    }

    /// Requests due strictly before `horizon` after the start.
    pub fn due_before(&self, horizon: Duration) -> u64 {
        let h = horizon.as_nanos();
        let p = u128::from(self.period_ns);
        u64::try_from(h.div_ceil(p)).unwrap_or(u64::MAX)
    }
}

/// How far `at` is behind `due`, in nanoseconds (0 when early).
pub fn late_ns(due: Instant, at: Instant) -> u64 {
    nanos(at.saturating_duration_since(due))
}

/// A duration in whole nanoseconds, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What a correct ANSWER to one query carries: the true match count and
/// the leading (ascending) match ids the frame can hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Total matches.
    pub count: u32,
    /// Leading match ids, at most `MAX_ANSWER_IDS` of them.
    pub ids: Vec<u64>,
}

/// Failure and success tallies shared by every client kind.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (transport, ERROR, SHED or oracle mismatch).
    pub failed: u64,
    /// The subset of `failed` that were oracle mismatches.
    pub mismatches: u64,
    /// First few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 4 {
            self.notes.push(note);
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        for n in &other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n.clone());
            }
        }
    }
}

/// Per-query costs read off ANSWER frames.
#[derive(Clone, Debug, Default)]
pub struct AnswerCosts {
    /// ANSWER frames received.
    pub answers: u64,
    /// Sum of `index_visits`.
    pub index_visits: u64,
    /// Sum of `data_visits`.
    pub data_visits: u64,
    /// ANSWERs with the `validated` flag set.
    pub validated: u64,
}

impl AnswerCosts {
    fn add(&mut self, index_visits: u64, data_visits: u64, validated: bool) {
        self.answers += 1;
        self.index_visits += index_visits;
        self.data_visits += data_visits;
        self.validated += u64::from(validated);
    }

    /// Fold another client's costs into this one.
    pub fn merge(&mut self, other: &AnswerCosts) {
        self.answers += other.answers;
        self.index_visits += other.index_visits;
        self.data_visits += other.data_visits;
        self.validated += other.validated;
    }
}

/// One query client's traffic: which query ids to send, in which order.
pub struct QueryTraffic<'a> {
    /// Query text by id.
    pub texts: &'a [String],
    /// The expected answer by id, when the data cannot change under the
    /// client.
    pub expect: Option<&'a [Expect]>,
    /// Query ids to send before `switch_at`, cycled.
    pub first: &'a [u16],
    /// Query ids to send from `switch_at` on, cycled.
    pub second: &'a [u16],
    /// When to move from `first` to `second` (`None`: never).
    pub switch_at: Option<Instant>,
    /// Send no request after this instant.
    pub deadline: Instant,
    /// Interleave one PING every this many queries (0: never).
    pub ping_every: usize,
    /// Keep this many sent ids and reply frames for replay.
    pub keep: usize,
}

/// What one query client saw.
#[derive(Default)]
pub struct QueryOut {
    /// Latency of every answered query, ns.
    pub lat_ns: Vec<u64>,
    /// Round-trip time of every PING, ns.
    pub ping_ns: Vec<u64>,
    /// Costs from the ANSWER frames.
    pub costs: AnswerCosts,
    /// Failures.
    pub tally: Tally,
    /// Leading query ids sent, in order.
    pub sent: Vec<u16>,
    /// Leading reply frames, in order.
    pub replies: Vec<Frame>,
    /// When the last reply arrived.
    pub end: Option<Instant>,
}

/// Judge one QUERY reply; `Ok` carries the answer's costs.
fn judge_answer(reply: &Frame, expect: Option<&Expect>) -> Result<(u64, u64, bool), String> {
    match reply {
        Frame::Answer {
            index_visits,
            data_visits,
            validated,
            match_count,
            ids,
            ..
        } => {
            if let Some(e) = expect {
                if *match_count != e.count || *ids != e.ids {
                    return Err(format!(
                        "answer mismatch: {match_count} matches, expected {}",
                        e.count
                    ));
                }
            }
            Ok((*index_visits, *data_visits, *validated))
        }
        other => Err(format!("query refused: {other:?}")),
    }
}

/// Run one closed-loop query client until the deadline.
pub fn query_client(addr: SocketAddr, t: &QueryTraffic<'_>) -> QueryOut {
    let mut out = QueryOut::default();
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(err) => {
            out.tally.attempted += 1;
            out.tally.fail(format!("connect: {err}"));
            return out;
        }
    };
    let mut k = 0usize;
    loop {
        let now = Instant::now();
        if now >= t.deadline {
            break;
        }
        let seq = match t.switch_at {
            Some(at) if now >= at => t.second,
            _ => t.first,
        };
        let id = seq[k % seq.len()];
        k += 1;
        if t.ping_every > 0 && k.is_multiple_of(t.ping_every) {
            let start = Instant::now();
            match client.ping() {
                Ok(Frame::Pong { .. }) => out.ping_ns.push(nanos(start.elapsed())),
                other => {
                    out.tally.attempted += 1;
                    out.tally.fail(format!("ping: {other:?}"));
                }
            }
        }
        let text = &t.texts[usize::from(id)];
        out.tally.attempted += 1;
        let start = Instant::now();
        let reply = client.query(text, 0);
        let end = Instant::now();
        out.end = Some(end);
        match reply {
            Ok(frame) => {
                let expect = t.expect.map(|e| &e[usize::from(id)]);
                match judge_answer(&frame, expect) {
                    Ok((iv, dv, validated)) => {
                        out.lat_ns.push(nanos(end - start));
                        out.costs.add(iv, dv, validated);
                    }
                    Err(note) => {
                        if matches!(frame, Frame::Answer { .. }) {
                            out.tally.mismatches += 1;
                        }
                        out.tally.fail(format!("{text}: {note}"));
                    }
                }
                if out.sent.len() < t.keep {
                    out.sent.push(id);
                    out.replies.push(frame);
                }
            }
            Err(err) => {
                out.tally.fail(format!("{text}: transport: {err}"));
                match NetClient::connect(addr) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
    out
}

/// What one update client saw.
#[derive(Default)]
pub struct UpdateOut {
    /// Latency of every acknowledged update, ns (from send, or from the
    /// due time when paced).
    pub lat_ns: Vec<u64>,
    /// How late each paced send left, ns.
    pub late_ns: Vec<u64>,
    /// Acknowledged edges with the instant their UPDATE_OK arrived.
    pub acked: Vec<(Instant, (u64, u64))>,
    /// Failures.
    pub tally: Tally,
    /// Leading reply frames, in order.
    pub replies: Vec<Frame>,
    /// When the last reply arrived.
    pub end: Option<Instant>,
}

/// Send one UPDATE and judge the reply; reconnects after a transport
/// failure. Returns false when the client cannot continue.
fn send_update(
    addr: SocketAddr,
    client: &mut NetClient,
    edge: (u64, u64),
    timed_from: Instant,
    keep: usize,
    out: &mut UpdateOut,
) -> bool {
    out.tally.attempted += 1;
    let reply = client.update(edge.0, edge.1);
    let end = Instant::now();
    out.end = Some(end);
    match reply {
        Ok(Frame::UpdateOk { pending }) => {
            out.lat_ns
                .push(nanos(end.saturating_duration_since(timed_from)));
            out.acked.push((end, edge));
            if out.replies.len() < keep {
                out.replies.push(Frame::UpdateOk { pending });
            }
            true
        }
        Ok(other) => {
            out.tally
                .fail(format!("update {edge:?} refused: {other:?}"));
            true
        }
        Err(err) => {
            out.tally.fail(format!("update {edge:?}: transport: {err}"));
            match NetClient::connect(addr) {
                Ok(c) => {
                    *client = c;
                    true
                }
                Err(_) => false,
            }
        }
    }
}

/// Run one closed-loop update client: take the next unsent edge from the
/// shared cursor, send it, wait for the durable UPDATE_OK, repeat until
/// the deadline or the edges run out.
pub fn update_client(
    addr: SocketAddr,
    edges: &[(u64, u64)],
    cursor: &AtomicUsize,
    deadline: Instant,
    keep: usize,
) -> UpdateOut {
    let mut out = UpdateOut::default();
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(err) => {
            out.tally.attempted += 1;
            out.tally.fail(format!("connect: {err}"));
            return out;
        }
    };
    while Instant::now() < deadline {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&edge) = edges.get(i) else { break };
        if !send_update(addr, &mut client, edge, Instant::now(), keep, &mut out) {
            break;
        }
    }
    out
}

/// Run the paced writer: update `i` is due at `pacer.due(i)`; it is sent
/// at its due time, or at once when the previous reply came back late,
/// and its latency is timed from the due time so a stall is charged to
/// every update it delayed.
pub fn paced_writer(
    addr: SocketAddr,
    edges: &[(u64, u64)],
    pacer: Pacer,
    deadline: Instant,
    keep: usize,
) -> UpdateOut {
    let mut out = UpdateOut::default();
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(err) => {
            out.tally.attempted += 1;
            out.tally.fail(format!("connect: {err}"));
            return out;
        }
    };
    for (i, &edge) in edges.iter().enumerate() {
        let due = pacer.due(i as u64);
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.late_ns.push(late_ns(due, Instant::now()));
        if !send_update(addr, &mut client, edge, due, keep, &mut out) {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_come_from_the_index_without_drift() {
        let start = Instant::now();
        let p = Pacer::new(start, 250.0);
        assert_eq!(p.offset(0), Duration::ZERO);
        assert_eq!(p.offset(1), Duration::from_millis(4));
        assert_eq!(p.offset(250), Duration::from_secs(1));
        // A million periods later the schedule is still exact.
        assert_eq!(p.offset(1_000_000), Duration::from_secs(4_000));
        assert_eq!(p.due(3) - p.due(2), Duration::from_millis(4));
    }

    #[test]
    fn due_before_counts_sends_inside_the_horizon() {
        let p = Pacer::new(Instant::now(), 250.0);
        assert_eq!(p.due_before(Duration::ZERO), 0);
        // Sends at 0, 4, 8 ms are before 10 ms; the one at 12 ms is not.
        assert_eq!(p.due_before(Duration::from_millis(10)), 3);
        // Exactly on a due time: that send is not before the horizon.
        assert_eq!(p.due_before(Duration::from_millis(8)), 2);
        assert_eq!(p.due_before(Duration::from_secs(1)), 250);
    }

    #[test]
    fn odd_rates_round_the_period() {
        let p = Pacer::new(Instant::now(), 3.0);
        assert_eq!(p.offset(3), Duration::from_nanos(3 * 333_333_333));
    }

    #[test]
    fn lateness_is_zero_when_early_and_exact_when_late() {
        let due = Instant::now() + Duration::from_millis(5);
        assert_eq!(late_ns(due, due - Duration::from_millis(1)), 0);
        assert_eq!(late_ns(due, due), 0);
        assert_eq!(late_ns(due, due + Duration::from_micros(7)), 7_000);
    }

    #[test]
    fn answers_are_judged_against_the_oracle() {
        let answer = Frame::Answer {
            epoch: 1,
            index_visits: 10,
            data_visits: 2,
            validated: true,
            match_count: 2,
            ids: vec![3, 9],
        };
        let good = Expect {
            count: 2,
            ids: vec![3, 9],
        };
        let bad = Expect {
            count: 2,
            ids: vec![3, 8],
        };
        assert_eq!(judge_answer(&answer, Some(&good)), Ok((10, 2, true)));
        assert!(judge_answer(&answer, Some(&bad)).is_err());
        assert_eq!(judge_answer(&answer, None), Ok((10, 2, true)));
        let shed = Frame::Shed {
            reason: dkindex_server::ShedReason::MaintenanceLag,
            pending: 1,
            retry_after_ms: 5,
        };
        assert!(judge_answer(&shed, None).is_err());
    }
}
