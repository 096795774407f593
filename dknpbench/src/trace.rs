//! Per-layer metrics of a traced run.
//!
//! Two sources, both recorded from this benchmark's own files:
//!
//! * **Counters** the program already keeps (`serve.*`, `serve.net.*`,
//!   `pathexpr.*`, `dk.*`, `partition.*`, `wal.*`, `tuner.live.*`), read
//!   after the traced run with the recorder on. Histograms contribute
//!   their count, sum, min and max only ([`LayerMean`]).
//! * **Replays**: the run's own inputs, in request order, fed to each
//!   layer's public function under a span timed here.
//!
//! The QUERY and UPDATE residuals are the traced end-to-end mean minus the
//! sum of the layer means on that request's path, so the share no layer
//! explains stays visible.

use crate::report::Metric;
use crate::setup::{self, ScratchDir};
use crate::stats::{mean, ratio, LayerMean, Summary};
use crate::workloads::{mean_latency_ns, Run};
use dkindex_core::{
    DkIndex, DkServer, IndexEvaluator, LoadMonitor, ServeConfig, ServeOp, WalWriter,
};
use dkindex_graph::NodeId;
use dkindex_pathexpr::parse;
use dkindex_server::{protocol, Frame};
use dkindex_telemetry::metrics as m;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Visit budget of the replayed evaluations: the server's default.
const BUDGET: u64 = 1_000_000;
/// Most index walks replayed through `IndexEvaluator`.
const EVAL_REPLAYS: usize = 5_000;
/// Most edge updates replayed through `DkIndex::add_edge` and COW clone.
const EDGE_REPLAYS: usize = 2_000;
/// Most durable acks and WAL batches replayed (each costs an fsync).
const DURABLE_REPLAYS: usize = 400;

/// Mean nanoseconds per call of `f` over `items`.
fn loop_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for item in items {
        f(item);
    }
    start.elapsed().as_nanos() as f64 / items.len() as f64
}

fn node(i: u64) -> NodeId {
    NodeId::from_index(usize::try_from(i).expect("node ids fit in usize"))
}

/// Batch sizes of a v2 WAL, read off its commit fences in file order.
pub fn wal_batch_sizes(bytes: &[u8]) -> Vec<u32> {
    const HEADER: usize = 8;
    const TAG_COMMIT: u8 = 6;
    let mut sizes = Vec::new();
    let mut at = HEADER;
    let read_u32 = |at: usize| -> Option<u32> {
        let b = bytes.get(at..at + 4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    };
    while let Some(len) = read_u32(at) {
        let len = len as usize;
        // A record counts only with its CRC present: a cut-off tail ends
        // the scan.
        let (Some(body), true) = (bytes.get(at + 4..at + 4 + len), at + 8 + len <= bytes.len())
        else {
            break;
        };
        if body.first() == Some(&TAG_COMMIT) {
            if let Some(count) = body.get(1..5) {
                sizes.push(u32::from_le_bytes([count[0], count[1], count[2], count[3]]));
            }
        }
        at += 4 + len + 4;
    }
    sizes
}

/// Every per-layer metric of the traced `run`; `untraced_rate` is the
/// primary throughput of the untraced run of the same seed.
pub fn layers(run: &Run, untraced_rate: f64) -> Result<Vec<Metric>, String> {
    let dir = ScratchDir::new(&format!("{}-replay", run.workload.name()))?;
    let mut out = Vec::new();

    // ---- requests as the server saw them ----
    let query_ids: &[u16] = &run.query.sent;
    let query_frames: Vec<Vec<u8>> = query_ids
        .iter()
        .map(|&id| {
            protocol::encode(&Frame::Query {
                budget: 0,
                text: run.texts[usize::from(id)].clone(),
            })
        })
        .collect();
    let acked = &run.update.acked;
    let update_frames: Vec<Vec<u8>> = acked
        .iter()
        .map(|&(from, to)| protocol::encode(&Frame::Update { from, to }))
        .collect();
    let answers: Vec<&Frame> = run
        .query
        .replies
        .iter()
        .filter(|f| matches!(f, Frame::Answer { .. }))
        .collect();

    // ---- server::protocol ----
    let decode = |bytes: &Vec<u8>| {
        let _ = black_box(protocol::decode_body(black_box(&bytes[4..])));
    };
    let decode_query_ns = loop_ns(&query_frames, decode);
    let decode_update_ns = loop_ns(&update_frames, decode);
    let encode_answer_ns = loop_ns(&answers, |f| {
        black_box(protocol::encode(black_box(f)));
    });
    let acks: Vec<&Frame> = run.update.replies.iter().collect();
    let encode_ack_ns = loop_ns(&acks, |f| {
        black_box(protocol::encode(black_box(f)));
    });
    let answer_bytes: Vec<u64> = answers
        .iter()
        .map(|f| protocol::encode(f).len() as u64)
        .collect();
    out.push(
        Metric::new("protocol.decode_ns", decode_query_ns, "ns").note(format!(
            "QUERY decode_body, n={}; UPDATE {:.1} ns",
            query_frames.len(),
            decode_update_ns
        )),
    );
    out.push(
        Metric::new("protocol.encode_ns", encode_answer_ns, "ns").note(format!(
            "ANSWER encode, n={}; UPDATE_OK {:.1} ns",
            answers.len(),
            encode_ack_ns
        )),
    );
    out.push(Metric::new(
        "protocol.answer_bytes",
        mean(&answer_bytes),
        "bytes",
    ));

    // ---- server (connections, worker pool) ----
    let pings = Summary::of(run.query.ping_ns.clone());
    out.push(
        Metric::new(
            "server.ping_rtt_us",
            pings.as_ref().map_or(0.0, |s| s.mean / 1e3),
            "us",
        )
        .note(format!("mean, n={}", pings.as_ref().map_or(0, |s| s.n))),
    );
    out.push(Metric::new(
        "server.requests",
        m::SERVE_NET_REQUESTS.get() as f64,
        "count",
    ));
    out.push(Metric::new(
        "server.bytes_read",
        m::SERVE_NET_BYTES_READ.get() as f64,
        "bytes",
    ));
    out.push(Metric::new(
        "server.bytes_written",
        m::SERVE_NET_BYTES_WRITTEN.get() as f64,
        "bytes",
    ));
    out.push(Metric::new(
        "server.sheds",
        (m::SERVE_NET_RESPONSES_SHED.get() + m::SERVE_NET_CONNECTIONS_SHED.get()) as f64,
        "count",
    ));
    out.push(Metric::new(
        "server.errors",
        m::SERVE_NET_RESPONSES_ERROR.get() as f64,
        "count",
    ));

    // ---- pathexpr ----
    let parse_ns = loop_ns(query_ids, |&id| {
        let _ = black_box(parse(black_box(&run.texts[usize::from(id)])));
    });
    out.push(Metric::new("pathexpr.parse_ns", parse_ns, "ns"));
    out.push(Metric::new(
        "pathexpr.activations_per_eval",
        ratio(
            m::PATHEXPR_ACTIVATIONS.get() as f64,
            m::PATHEXPR_EVALUATIONS.get() as f64,
        ),
        "count",
    ));

    // ---- core::serve: replay against the state the queries ran on ----
    let (q_dk, q_data) = &run.query_state;
    let replay_server = DkServer::start(q_data.clone(), q_dk.clone(), ServeConfig::default());
    let handle = replay_server.handle();
    let epoch_load_ns = loop_ns(query_ids, |_| {
        black_box(handle.epoch());
    });
    let epoch = handle.epoch();
    // Ids with the same text share one memo entry: a miss is the first
    // sight of a text.
    let mut first_seen = HashSet::new();
    let distinct: Vec<u16> = query_ids
        .iter()
        .copied()
        .filter(|&id| first_seen.insert(&run.texts[usize::from(id)]))
        .collect();
    let eval = |&id: &u16| {
        let _ = black_box(epoch.evaluate_bounded(&run.exprs[usize::from(id)], BUDGET));
    };
    let miss_ns = loop_ns(&distinct, eval);
    let hit_ns = loop_ns(query_ids, eval);
    drop(epoch);
    replay_server
        .shutdown()
        .map_err(|e| format!("replay server: {e}"))?;
    let hits = m::SERVE_CACHE_HITS.get() as f64;
    let hit_ratio = ratio(hits, hits + m::SERVE_CACHE_MISSES.get() as f64);
    let publishes = LayerMean::of(&m::SERVE_BATCH_OPS);
    out.push(Metric::new("serve.epoch_load_ns", epoch_load_ns, "ns"));
    out.push(
        Metric::new("serve.evaluate_hit_ns", hit_ns, "ns").note(format!("n={}", query_ids.len())),
    );
    out.push(
        Metric::new("serve.evaluate_miss_ns", miss_ns, "ns").note(format!("n={}", distinct.len())),
    );
    out.push(
        Metric::new("serve.memo_hit_ratio", hit_ratio, "ratio").note(format!(
            "base {} lookups",
            hits + m::SERVE_CACHE_MISSES.get() as f64
        )),
    );
    out.push(Metric::new(
        "serve.publishes",
        publishes.count as f64,
        "count",
    ));
    out.push(Metric::new(
        "serve.ops_per_publish",
        publishes.mean(),
        "count",
    ));
    let publish = LayerMean::of(&m::SERVE_PUBLISH_NS);
    out.push(
        Metric::new("serve.publish_ns", publish.mean(), "ns")
            .note(format!("min {} max {}", publish.min, publish.max)),
    );

    // serve.ack_us: submit_logged + DurableAck::wait on an in-process
    // WAL-backed server, the run's acked edges in order.
    let (dk0, data0) = &run.initial;
    let wal = WalWriter::create(&dir.file("ack.wal")).map_err(|e| format!("ack WAL: {e}"))?;
    let logged = DkServer::start_logged(
        data0.clone(),
        dk0.clone(),
        ServeConfig::default(),
        Box::new(wal),
    );
    let durable: Vec<(u64, u64)> = acked.iter().copied().take(DURABLE_REPLAYS).collect();
    let mut ack_failures = 0;
    let ack_ns = loop_ns(&durable, |&(from, to)| {
        let op = ServeOp::AddEdge {
            from: node(from),
            to: node(to),
        };
        if logged.submit_logged(op).and_then(|ack| ack.wait()).is_err() {
            ack_failures += 1;
        }
    });
    logged.shutdown().map_err(|e| format!("ack server: {e}"))?;
    if ack_failures > 0 {
        return Err(format!("{ack_failures} replayed durable acks failed"));
    }
    out.push(Metric::new("serve.ack_us", ack_ns / 1e3, "us").note(format!("n={}", durable.len())));

    // ---- core::eval ----
    let costs = &run.query.costs;
    out.push(Metric::new(
        "eval.index_visits_per_query",
        ratio(costs.index_visits as f64, costs.answers as f64),
        "count",
    ));
    out.push(Metric::new(
        "eval.data_visits_per_query",
        ratio(costs.data_visits as f64, costs.answers as f64),
        "count",
    ));
    out.push(
        Metric::new(
            "eval.validated_ratio",
            ratio(costs.validated as f64, costs.answers as f64),
            "ratio",
        )
        .note(format!("base {} answers", costs.answers)),
    );
    let walks = &query_ids[..query_ids.len().min(EVAL_REPLAYS)];
    let evaluate_ns = loop_ns(walks, |&id| {
        let mut evaluator = IndexEvaluator::new(q_dk.index(), q_data);
        let _ = black_box(evaluator.evaluate_bounded(&run.exprs[usize::from(id)], BUDGET));
    });
    out.push(Metric::new("eval.evaluate_ns", evaluate_ns, "ns").note(format!("n={}", walks.len())));

    // ---- core::dk, core::block_store, graph::segvec ----
    let (built, build_ns) = setup::time_ns(|| DkIndex::build(data0, run.reqs.clone()));
    drop(built);
    out.push(Metric::new("dk.build_s", build_ns as f64 / 1e9, "s"));
    out.push(Metric::new("dk.blocks_start", dk0.size() as f64, "count"));
    out.push(Metric::new(
        "dk.blocks_end",
        run.final_state.0.size() as f64,
        "count",
    ));
    let mut dk = dk0.clone();
    let mut data = data0.clone();
    let mut prev = dk.clone();
    let (mut edge_ns, mut clone_ns) = (0u64, 0u64);
    let replayed: Vec<(u64, u64)> = acked.iter().copied().take(EDGE_REPLAYS).collect();
    for &(from, to) in &replayed {
        let ((), ns) = setup::time_ns(|| {
            black_box(dk.add_edge(&mut data, node(from), node(to)));
        });
        edge_ns += ns;
        let (next, ns) = setup::time_ns(|| {
            let next = dk.clone();
            black_box(data.clone());
            black_box(next.index().shared_blocks_with(prev.index()));
            next
        });
        clone_ns += ns;
        prev = next;
    }
    let n_edges = replayed.len() as f64;
    out.push(
        Metric::new("dk.edge_update_ns", ratio(edge_ns as f64, n_edges), "ns")
            .note(format!("n={}", replayed.len())),
    );
    out.push(Metric::new(
        "dk.nodes_lowered_per_update",
        ratio(
            m::DK_EDGE_NODES_LOWERED.get() as f64,
            m::DK_EDGE_UPDATES.get() as f64,
        ),
        "count",
    ));
    let promote = LayerMean::of(&m::DK_PROMOTE_NS);
    out.push(
        Metric::new("dk.promote_ns", promote.mean(), "ns")
            .note(format!("n={} max {}", promote.count, promote.max)),
    );
    out.push(Metric::new(
        "dk.promote_splits",
        m::DK_PROMOTE_SPLITS.get() as f64,
        "count",
    ));

    // ---- partition ----
    out.push(Metric::new(
        "partition.rounds",
        m::PARTITION_ROUNDS.get() as f64,
        "count",
    ));
    let rounds = LayerMean::of(&m::PARTITION_ROUND_NS);
    out.push(
        Metric::new("partition.round_ns", rounds.mean(), "ns")
            .note(format!("min {} max {}", rounds.min, rounds.max)),
    );

    let shared = m::SERVE_PUBLISH_BLOCKS_SHARED.get() as f64;
    let rebuilt = m::SERVE_PUBLISH_BLOCKS_REBUILT.get() as f64;
    let batches = publishes.count as f64;
    out.push(Metric::new(
        "cow.blocks_rebuilt_per_publish",
        ratio(rebuilt, batches),
        "count",
    ));
    out.push(Metric::new(
        "cow.blocks_per_publish",
        ratio(shared + rebuilt, batches),
        "count",
    ));
    out.push(
        Metric::new(
            "cow.rebuilt_ratio",
            ratio(rebuilt, shared + rebuilt),
            "ratio",
        )
        .note(format!(
            "base {} blocks over {} publishes",
            shared + rebuilt,
            batches
        )),
    );
    out.push(Metric::new(
        "cow.clone_ns",
        ratio(clone_ns as f64, n_edges),
        "ns",
    ));

    // ---- core::wal ----
    let sizes = wal_batch_sizes(&run.wal);
    let mut writer =
        WalWriter::create(&dir.file("batches.wal")).map_err(|e| format!("batch WAL: {e}"))?;
    let ops: Vec<ServeOp> = acked
        .iter()
        .take(256)
        .map(|&(from, to)| ServeOp::AddEdge {
            from: node(from),
            to: node(to),
        })
        .collect();
    let batch_sizes: Vec<usize> = sizes
        .iter()
        .take(DURABLE_REPLAYS)
        .map(|&s| (s as usize).clamp(1, ops.len().max(1)))
        .collect();
    let mut append_failures = 0;
    let append_ns = if ops.is_empty() {
        0.0
    } else {
        loop_ns(&batch_sizes, |&n| {
            if writer.append_batch(&ops[..n]).is_err() {
                append_failures += 1;
            }
        })
    };
    if append_failures > 0 {
        return Err(format!("{append_failures} replayed WAL batches failed"));
    }
    out.push(
        Metric::new("wal.append_batch_us", append_ns / 1e3, "us").note(format!(
            "n={} batches, {} fs",
            batch_sizes.len(),
            run.wal_fs
        )),
    );
    let commits = m::WAL_GROUP_COMMITS.get() as f64;
    let updates = acked.len() as f64;
    out.push(Metric::new(
        "wal.ops_per_commit",
        ratio(m::WAL_RECORDS_APPENDED.get() as f64, commits),
        "count",
    ));
    out.push(Metric::new(
        "wal.fsyncs_per_update",
        ratio(commits, updates),
        "count",
    ));
    out.push(Metric::new(
        "wal.bytes_per_update",
        ratio(run.wal.len() as f64, updates),
        "bytes",
    ));
    let (_, load_s, replay_s) = run.recoveries.first().copied().unwrap_or_default();
    out.push(Metric::new("wal.replay_s", replay_s, "s"));
    out.push(Metric::new("snapshot.load_s", load_s, "s"));

    // ---- core::tuner, core::load_monitor ----
    let (windows, promotions, demotions) = run
        .tuning
        .map_or((0, 0, 0), |t| (t.windows, t.promotions, t.demotions));
    out.push(Metric::new("tuner.windows", windows as f64, "count"));
    out.push(Metric::new("tuner.promotions", promotions as f64, "count"));
    out.push(Metric::new("tuner.demotions", demotions as f64, "count"));
    out.push(Metric::new(
        "tuner.plan_ns",
        LayerMean::of(&m::TUNER_LIVE_PLAN_NS).mean(),
        "ns",
    ));
    let monitor = LoadMonitor::new(q_data.labels_shared());
    let record_ns = loop_ns(query_ids, |&id| {
        monitor.record(black_box(&run.exprs[usize::from(id)]), false, true);
    });
    out.push(Metric::new("monitor.record_ns", record_ns, "ns"));

    // ---- load generator and trace sanity ----
    let late = Summary::of(run.update.late_ns.clone());
    out.push(
        Metric::new(
            "loadgen.late_p99_us",
            late.as_ref().map_or(0.0, |s| s.p99 as f64 / 1e3),
            "us",
        )
        .note(late.map_or("closed loop".to_string(), |s| format!("n={}", s.n))),
    );
    let traced_rate = run.primary_rate();
    out.push(
        Metric::new(
            "trace.overhead_pct",
            ratio(untraced_rate - traced_rate, untraced_rate) * 100.0,
            "%",
        )
        .note(format!(
            "untraced {untraced_rate:.1}/s, traced {traced_rate:.1}/s"
        )),
    );
    let query_mean_us = mean_latency_ns(&run.query.rounds) / 1e3;
    let query_layers_ns = decode_query_ns
        + parse_ns
        + epoch_load_ns
        + hit_ratio * hit_ns
        + (1.0 - hit_ratio) * miss_ns
        + encode_answer_ns;
    out.push(
        Metric::new(
            "trace.query_residual_us",
            query_mean_us - query_layers_ns / 1e3,
            "us",
        )
        .note(format!("e2e mean {query_mean_us:.2} us")),
    );
    let update_mean_us = mean_latency_ns(&run.update.rounds) / 1e3;
    let update_layers_us = (decode_update_ns + encode_ack_ns) / 1e3 + ack_ns / 1e3;
    out.push(
        Metric::new(
            "trace.update_residual_us",
            update_mean_us - update_layers_us,
            "us",
        )
        .note(format!("e2e mean {update_mean_us:.2} us")),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_core::wal::{encode_commit, encode_header, encode_record};
    use dkindex_core::WalRecord;

    #[test]
    fn batch_sizes_come_from_commit_fences() {
        let edge = WalRecord::AddEdge {
            from: node(1),
            to: node(2),
        };
        let mut bytes = encode_header().to_vec();
        for batch in [2u32, 1, 3] {
            for _ in 0..batch {
                bytes.extend(encode_record(&edge));
            }
            bytes.extend(encode_commit(batch));
        }
        assert_eq!(wal_batch_sizes(&bytes), vec![2, 1, 3]);
        // A torn tail ends the scan.
        bytes.truncate(bytes.len() - 2);
        assert_eq!(wal_batch_sizes(&bytes), vec![2, 1]);
    }
}
