//! Inputs and plumbing shared by the workloads: data and query pools,
//! seeded request streams and update edges, the answer oracle, server
//! start-up, crash recovery, and facts about the host.

use crate::loadgen::{nanos, Expect};
use dkindex_core::{
    evaluate_on_data, read_snapshot, save_snapshot_file, snapshot_bytes, wal, DkIndex, DkServer,
    Requirements, ServeConfig, WalWriter,
};
use dkindex_datagen::{xmark_graph, XmarkConfig};
use dkindex_graph::{DataGraph, NodeId};
use dkindex_pathexpr::PathExpr;
use dkindex_server::{protocol::MAX_ANSWER_IDS, Frame, NetClient, NetConfig, NetServer};
use dkindex_workload::{
    generate_test_paths, generate_update_edges, weighted_stream, WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The paper's standard 100-path workload seed; pool A.
pub const POOL_A_SEED: u64 = 2003;
/// A second 100-path workload; pool B (churn-adapt's shifted mix).
pub const POOL_B_SEED: u64 = 2004;
/// Fixed seed of the Zipf rank permutation: every `--seed` draws its
/// requests from the same query distribution.
const ZIPF_SEED: u64 = 0x5EED;
/// Zipf exponent of the query mix.
const ZIPF_S: f64 = 1.0;
/// Weight resolution of the Zipf mix.
const ZIPF_TOTAL: u64 = 1_000_000;
/// Requests pre-generated per client stream (cycled when exhausted).
pub const STREAM_LEN: usize = 1 << 20;

/// XMark-like data at `scale`, with the generator's fixed document seed.
pub fn xmark(scale: f64) -> DataGraph {
    xmark_graph(&XmarkConfig::scale(scale))
}

/// One query pool: the 100-path workload, Zipf-weighted.
pub struct Pool {
    /// Queries in rank order.
    pub exprs: Vec<PathExpr>,
    /// Each query's text, as sent on the wire.
    pub texts: Vec<String>,
    /// Cumulative weights, for sampling.
    cumulative: Vec<u64>,
}

impl Pool {
    /// The `pool_seed` 100-path workload over `data` with Zipf weights.
    pub fn new(data: &DataGraph, pool_seed: u64) -> Pool {
        let workload = generate_test_paths(
            data,
            &WorkloadConfig {
                seed: pool_seed,
                ..WorkloadConfig::default()
            },
        );
        let weighted = weighted_stream(&workload, ZIPF_TOTAL, ZIPF_S, ZIPF_SEED);
        let mut acc = 0u64;
        let mut cumulative = Vec::with_capacity(weighted.len());
        let mut exprs = Vec::with_capacity(weighted.len());
        for (expr, weight) in weighted {
            acc += weight;
            cumulative.push(acc);
            exprs.push(expr);
        }
        let texts = exprs.iter().map(ToString::to_string).collect();
        Pool {
            exprs,
            texts,
            cumulative,
        }
    }

    /// Draw `len` query ids from the Zipf mix, shifted by `base`.
    pub fn stream(&self, rng: &mut StdRng, len: usize, base: usize) -> Vec<u16> {
        let total = self.cumulative.last().copied().unwrap_or(1);
        (0..len)
            .map(|_| {
                let x = rng.gen_range(0..total);
                let rank = self.cumulative.partition_point(|&c| c <= x);
                u16::try_from(base + rank).expect("query ids fit in u16")
            })
            .collect()
    }
}

/// A seeded RNG for one purpose within one run.
pub fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Distinct new ID/IDREF-style edges, drawn with `generate_update_edges`
/// in seeded chunks (it de-duplicates quadratically within a call).
pub fn update_edges(data: &DataGraph, count: usize, seed: u64) -> Vec<(u64, u64)> {
    const CHUNK: usize = 4096;
    let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut chunk = 0u64;
    while out.len() < count {
        let drawn = generate_update_edges(data, CHUNK, seed.wrapping_add(chunk << 32));
        assert!(!drawn.is_empty(), "the data admits no new reference edges");
        chunk += 1;
        for e in drawn {
            if out.len() < count && seen.insert(e) {
                out.push((e.0.index() as u64, e.1.index() as u64));
            }
        }
    }
    out
}

/// The answer each query must get on `data`, by ground-truth evaluation
/// on the data graph itself (no index).
pub fn oracle(data: &DataGraph, exprs: &[PathExpr]) -> Vec<Expect> {
    exprs
        .iter()
        .map(|expr| {
            let (mut matches, _) = evaluate_on_data(data, expr);
            matches.sort_unstable();
            Expect {
                count: u32::try_from(matches.len()).expect("match count fits in u32"),
                ids: matches
                    .iter()
                    .take(MAX_ANSWER_IDS)
                    .map(|n| n.index() as u64)
                    .collect(),
            }
        })
        .collect()
}

/// A started DKNP server and what it took to start it.
pub struct Started {
    /// The front-end, serving on loopback.
    pub net: NetServer,
    /// The served state before any update, as loaded from its snapshot.
    pub initial: (DkIndex, DataGraph),
    /// Build, snapshot save and load, WAL create, serve start and net
    /// start, until the first PING is answered.
    pub setup: Duration,
}

/// Start the way `dkindex build` + `dkindex serve --listen` do: build the
/// D(k)-index for `reqs`, save it to the snapshot file `snap`, load it
/// back, start a WAL-backed `DkServer` on the loaded state and the DKNP
/// front-end on an ephemeral loopback port. Timed up to the first
/// answered PING.
pub fn start_server(
    data: &DataGraph,
    reqs: &Requirements,
    serve: ServeConfig,
    snap: &Path,
    wal_path: &Path,
) -> Result<Started, String> {
    let start = Instant::now();
    let built = DkIndex::build(data, reqs.clone());
    save_snapshot_file(&built, data, snap).map_err(|e| format!("save snapshot: {e}"))?;
    let bytes = std::fs::read(snap).map_err(|e| format!("read snapshot: {e}"))?;
    let (dk, loaded) = read_snapshot(&bytes).map_err(|e| format!("load snapshot: {e}"))?;
    let wal = WalWriter::create(wal_path).map_err(|e| format!("create WAL: {e}"))?;
    let initial = (dk.clone(), loaded.clone());
    let server = DkServer::start_logged(loaded, dk, serve, Box::new(wal));
    let net = NetServer::start(server, "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind loopback: {e}"))?;
    let mut client = NetClient::connect(net.local_addr()).map_err(|e| format!("connect: {e}"))?;
    match client.ping() {
        Ok(Frame::Pong { .. }) => {}
        other => return Err(format!("first PING: {other:?}")),
    }
    let setup = start.elapsed();
    Ok(Started {
        net,
        initial,
        setup,
    })
}

/// Start the server `reps` times (at least once), shutting down all but
/// the last start. Returns the last server and every start-up time.
pub fn start_repeated(
    data: &DataGraph,
    reqs: &Requirements,
    serve: &ServeConfig,
    snap: &Path,
    wal_path: &Path,
    reps: usize,
) -> Result<(Started, Vec<f64>), String> {
    let mut times = Vec::new();
    for rep in 0..reps.max(1) {
        let started = start_server(data, reqs, serve.clone(), snap, wal_path)?;
        times.push(started.setup.as_secs_f64());
        if rep + 1 == reps.max(1) {
            return Ok((started, times));
        }
        started
            .net
            .shutdown()
            .map_err(|e| format!("shutdown after setup: {e}"))?;
    }
    unreachable!("the loop returns on its last repetition")
}

/// One crash recovery: initial snapshot + the run's WAL to a ready server.
pub struct Recovered {
    /// Whole recovery, read through ready, s.
    pub total_s: f64,
    /// Reading and decoding the snapshot, s.
    pub snapshot_load_s: f64,
    /// Reading and replaying the WAL, s.
    pub wal_replay_s: f64,
    /// Snapshot bytes of the recovered state.
    pub bytes: Vec<u8>,
}

/// Recover from `snap` + `wal_path` as a restarted server would:
/// `read_snapshot`, `wal::replay`, `DkServer::start`, first epoch loaded.
/// Writes the recovered state's snapshot bytes to `out` (untimed) and
/// returns the three timings.
pub fn recover(snap: &Path, wal_path: &Path, out: &Path) -> Result<(f64, f64, f64), String> {
    let start = Instant::now();
    let bytes = std::fs::read(snap).map_err(|e| format!("read snapshot: {e}"))?;
    let (mut dk, mut data) = read_snapshot(&bytes).map_err(|e| format!("load snapshot: {e}"))?;
    let loaded = Instant::now();
    let log = std::fs::read(wal_path).map_err(|e| format!("read WAL: {e}"))?;
    wal::replay(&mut dk, &mut data, &log).map_err(|e| format!("replay WAL: {e}"))?;
    let replayed = Instant::now();
    let server = DkServer::start(data, dk, ServeConfig::default());
    std::hint::black_box(server.handle().epoch().id());
    let ready = Instant::now();
    let (dk, data) = server
        .shutdown()
        .map_err(|e| format!("recovered shutdown: {e}"))?;
    std::fs::write(out, snapshot_bytes(&dk, &data)).map_err(|e| format!("write {e}"))?;
    Ok((
        (ready - start).as_secs_f64(),
        (loaded - start).as_secs_f64(),
        (replayed - loaded).as_secs_f64(),
    ))
}

/// Run [`recover`] in a fresh child process of this program
/// (`--recover <snap> <wal> <out>`), as a restarted server pays it: a new
/// heap, not one the benchmark has churned for the whole run.
pub fn recover_in_child(snap: &Path, wal_path: &Path) -> Result<Recovered, String> {
    let out = snap.with_file_name("recovered.snap");
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let child = std::process::Command::new(exe)
        .arg("--recover")
        .args([snap, wal_path, &out])
        .output()
        .map_err(|e| format!("run recovery child: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "recovery child failed: {}",
            String::from_utf8_lossy(&child.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&child.stdout);
    let times: Vec<f64> = text
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    let [total_s, snapshot_load_s, wal_replay_s] = times[..] else {
        return Err(format!("recovery child printed {text:?}"));
    };
    let bytes = std::fs::read(&out).map_err(|e| format!("read recovered state: {e}"))?;
    Ok(Recovered {
        total_s,
        snapshot_load_s,
        wal_replay_s,
        bytes,
    })
}

/// Acknowledged edges missing from `data`.
pub fn missing_edges(data: &DataGraph, acked: &[(u64, u64)]) -> usize {
    acked
        .iter()
        .filter(|&&(u, v)| {
            !data.has_edge(
                NodeId::from_index(u as usize),
                NodeId::from_index(v as usize),
            )
        })
        .count()
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `.bench_tmp/<name>-<pid>` under the current directory.
    pub fn new(name: &str) -> Result<ScratchDir, String> {
        let path = Path::new(".bench_tmp").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave `.bench_tmp` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// The filesystem type holding `path`, from the mount table.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(kind)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if abs.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// This process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f` once, in nanoseconds.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, nanos(start.elapsed()))
}
