//! Drives a 3-node `ThreadedCluster` through the public session API with
//! closed-loop clients, then checks every replica against the clients'
//! own count of committed writes.

use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use zeus_core::{NodeId, NodeStats, Session, ThreadedCluster, ThreadedSession};
use zeus_core::{TxCtx, TxError, ZeusConfig};

use crate::ops::{object_id, Op, OBJECTS};
use crate::trace::{Interval, Stamps, TxTrace};

/// Nodes in the cluster; with replication degree 3 every node holds every
/// object.
pub const NODES: usize = 3;
/// Bytes per account object; the first 8 hold the write counter.
const ACCOUNT_BYTES: usize = 64;
/// Measured time of one trial. A run splits its measured time into trials,
/// each on a fresh cluster with its own set-up and warm-up, and reports the
/// median trial, which keeps one trial's scheduling luck out of the result.
pub const TRIAL: Duration = Duration::from_secs(3);
/// Closed-loop time before each trial's measured window, so ownership and
/// the commit pipeline reach their steady state.
const WARMUP: Duration = Duration::from_millis(500);
/// A traced run alternates untraced and traced slices of this length, so
/// both see the same drift and their throughputs compare directly.
pub const SLICE: Duration = Duration::from_millis(250);
/// How long replicas may take to converge once the clients stop.
const CONVERGE: Duration = Duration::from_secs(5);

/// What one client measured.
#[derive(Debug, Default)]
pub struct ClientResult {
    /// Transactions submitted, warm-up included.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Transactions committed in the window, per slice parity (even =
    /// untraced).
    pub committed_by_parity: [u64; 2],
    /// Latency of committed write transactions in the window, ns.
    pub write_ns: Vec<u64>,
    /// Latency of committed read-only transactions in the window, ns.
    pub read_ns: Vec<u64>,
    /// Traced transactions (traced slices only).
    pub traces: Vec<TxTrace>,
    /// Committed counter bumps per object, warm-up included.
    pub bumps: Vec<u32>,
    /// The first error a failed transaction returned, if any.
    pub first_error: Option<TxError>,
    /// When the client's last transaction in the window returned.
    pub last_done: Option<Instant>,
}

impl ClientResult {
    /// Counts `op`'s outcome; a commit adds its bumps, a failure keeps the
    /// first error for the report.
    fn note(&mut self, op: &Op, result: &Result<(), TxError>) {
        self.attempted += 1;
        match result {
            Ok(()) => {
                for &object in op.writes() {
                    self.bumps[object as usize] += 1;
                }
            }
            Err(error) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| error.clone());
            }
        }
    }

    /// Transactions committed in the window.
    pub fn committed(&self) -> u64 {
        self.committed_by_parity.iter().sum()
    }
}

/// What one trial measured.
#[derive(Debug)]
pub struct Trial {
    /// Wall time of the trial's cluster set-up.
    pub setup: Duration,
    /// Start of the measured window.
    pub start: Instant,
    /// Start of the window to the last client's last result.
    pub elapsed: Duration,
    /// Per-client results.
    pub clients: Vec<ClientResult>,
    /// Node counters at the window's start and end.
    pub stats: (NodeStats, NodeStats),
    /// Transport counters at the window's start and end.
    pub net: (zeus_net::NetStats, zeus_net::NetStats),
    /// The replica check's verdict.
    pub check: Result<(), String>,
}

/// Starts a cluster and loads the population at `homes`. Returns once every
/// node has applied every load: commands are FIFO per node, so one `stats`
/// round trip per node is the barrier.
pub fn setup(homes: &[NodeId]) -> (ThreadedCluster, Duration) {
    let started = Instant::now();
    let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(NODES));
    for (index, &home) in homes.iter().enumerate() {
        cluster.create_object(object_id(index as u32), vec![0u8; ACCOUNT_BYTES], home);
    }
    for node in 0..NODES as u16 {
        cluster
            .handle(NodeId(node))
            .stats()
            .expect("a freshly started node answers");
    }
    (cluster, started.elapsed())
}

/// Reads the write counter at the head of an account.
fn counter(account: &[u8]) -> u64 {
    u64::from_le_bytes(account[..8].try_into().expect("accounts hold a counter"))
}

fn bump(account: &[u8]) -> Vec<u8> {
    let mut next = account.to_vec();
    next[..8].copy_from_slice(&(counter(account) + 1).to_le_bytes());
    next
}

/// The transaction body: read the read set, bump the write set's counters.
/// With `store`, the `TxCtx` calls are timed.
fn body(tx: &mut TxCtx<'_>, op: &Op, mut store: Option<&mut Interval>) -> Result<(), TxError> {
    let mut call = |f: &mut dyn FnMut() -> Result<(), TxError>| match store.as_deref_mut() {
        Some(interval) => interval.time(f),
        None => f(),
    };
    for &object in op.reads() {
        call(&mut || tx.read(object_id(object)).map(drop))?;
    }
    for &object in op.writes() {
        call(&mut || tx.update(object_id(object), bump))?;
    }
    Ok(())
}

/// Runs `op` untraced, returning its result.
fn execute(session: &ThreadedSession, op: Op) -> Result<(), TxError> {
    let run = move |tx: &mut TxCtx<'_>| body(tx, &op, None);
    if op.read_only {
        session.read_txn(run)
    } else {
        session.write_txn(run)
    }
}

/// Runs `op` with its closure stamping into `stamps`, returning its result
/// and, for writes, the node-side resolve instant.
fn execute_traced(
    session: &ThreadedSession,
    op: Op,
    stamps: &Arc<Mutex<Stamps>>,
) -> (Result<(), TxError>, Option<Instant>) {
    *stamps.lock().expect("no stamping closure panicked") = Stamps::default();
    let stamps = Arc::clone(stamps);
    let run = move |tx: &mut TxCtx<'_>| {
        let entry = Instant::now();
        let mut store = Interval::default();
        let result = body(tx, &op, Some(&mut store));
        let exit = Instant::now();
        stamps
            .lock()
            .expect("no stamping closure panicked")
            .record(entry, store, exit, &result);
        result
    };
    if op.read_only {
        (session.read_txn(run), None)
    } else {
        let (result, resolved) = session.submit_write(run).wait_timed();
        (result, Some(resolved))
    }
}

/// The shared timeline of a run's clients.
struct Timeline {
    warm_end: Instant,
    barrier: Barrier,
    start: OnceLock<Instant>,
    window: Duration,
    traced: bool,
}

impl Timeline {
    fn parity(&self, at: Instant) -> usize {
        let start = *self.start.get().expect("the window has started");
        ((at - start).as_nanos() / SLICE.as_nanos()) as usize % 2
    }
}

fn client(cluster: &ThreadedCluster, stream: &[Op], timeline: &Timeline) -> ClientResult {
    let sessions: Vec<ThreadedSession> = (0..NODES as u16)
        .map(|n| cluster.handle(NodeId(n)))
        .collect();
    let stamps = Arc::new(Mutex::new(Stamps::default()));
    let mut out = ClientResult {
        bumps: vec![0; OBJECTS],
        ..ClientResult::default()
    };
    let mut next = stream.iter().cycle();
    while Instant::now() < timeline.warm_end {
        let op = *next.next().expect("streams are not empty");
        let result = execute(&sessions[op.node.index()], op);
        out.note(&op, &result);
    }
    // Hold still while the counters are read, then start together.
    timeline.barrier.wait();
    timeline.barrier.wait();
    let end = *timeline.start.get().expect("the window has started") + timeline.window;
    loop {
        let submit = Instant::now();
        if submit >= end {
            break;
        }
        let op = *next.next().expect("streams are not empty");
        let session = &sessions[op.node.index()];
        let parity = timeline.parity(submit);
        let traced = timeline.traced && parity == 1;
        let (result, resolved) = if traced {
            execute_traced(session, op, &stamps)
        } else {
            (execute(session, op), None)
        };
        let woke = Instant::now();
        out.last_done = Some(woke);
        out.note(&op, &result);
        if result.is_err() {
            continue;
        }
        out.committed_by_parity[parity] += 1;
        let latency = (woke - submit).as_nanos() as u64;
        if op.read_only {
            out.read_ns.push(latency);
        } else {
            out.write_ns.push(latency);
        }
        if traced {
            out.traces.push(TxTrace {
                read_only: op.read_only,
                submit,
                resolved,
                woke,
                stamps: *stamps.lock().expect("no stamping closure panicked"),
            });
        }
    }
    out
}

/// Reads every object's counter on every node and compares it with the
/// committed bumps the clients counted. Replicas apply a commit's R-VAL
/// shortly after the owner resolves it, so the check waits up to
/// [`CONVERGE`] for them before failing.
pub fn check_replicas(cluster: &ThreadedCluster, expected: &[u32]) -> Result<(), String> {
    let deadline = Instant::now() + CONVERGE;
    loop {
        let verdict = (0..NODES as u16).try_for_each(|n| {
            let session = cluster.handle(NodeId(n));
            for chunk in (0..expected.len() as u32).collect::<Vec<_>>().chunks(500) {
                let objects = chunk.to_vec();
                let counters: Vec<u8> = session
                    .read_txn(move |tx| {
                        let mut out = Vec::with_capacity(8 * objects.len());
                        for &object in &objects {
                            out.extend_from_slice(&tx.read(object_id(object))?[..8]);
                        }
                        Ok(out)
                    })
                    .map_err(|e| format!("node {n}: reading counters failed: {e:?}"))?;
                for (&object, bytes) in chunk.iter().zip(counters.chunks(8)) {
                    let seen = counter(bytes);
                    let want = u64::from(expected[object as usize]);
                    if seen != want {
                        return Err(format!(
                            "node {n}: object {object} has counter {seen}, \
                             clients committed {want} bumps"
                        ));
                    }
                }
            }
            Ok(())
        });
        if verdict.is_ok() || Instant::now() >= deadline {
            return verdict;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One trial: set up a fresh cluster, run the workload's closed-loop
/// clients through a warm-up and a measured `window`, then check the
/// replicas and shut the cluster down.
pub fn trial(streams: &[Vec<Op>], homes: &[NodeId], window: Duration, traced: bool) -> Trial {
    let (cluster, setup) = setup(homes);
    let timeline = Timeline {
        warm_end: Instant::now() + WARMUP,
        barrier: Barrier::new(streams.len() + 1),
        start: OnceLock::new(),
        window,
        traced,
    };
    let (clients, stats, net, start) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| scope.spawn(|| client(&cluster, stream, &timeline)))
            .collect();
        timeline.barrier.wait();
        let before = (cluster.aggregate_stats(), cluster.net_stats());
        let start = *timeline.start.get_or_init(Instant::now);
        timeline.barrier.wait();
        let clients: Vec<ClientResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let after = (cluster.aggregate_stats(), cluster.net_stats());
        (clients, (before.0, after.0), (before.1, after.1), start)
    });
    let elapsed = clients
        .iter()
        .filter_map(|c| c.last_done)
        .max()
        .map_or(window, |done| done - start);

    let mut expected = vec![0u32; OBJECTS];
    for c in &clients {
        for (total, bumps) in expected.iter_mut().zip(&c.bumps) {
            *total += bumps;
        }
    }
    let check = check_replicas(&cluster, &expected);
    cluster.shutdown();
    Trial {
        setup,
        start,
        elapsed,
        clients,
        stats,
        net,
        check,
    }
}

/// Time the measured `window` spends in slices of parity 0 (untraced) and
/// 1 (traced).
pub fn parity_time(window: Duration) -> [Duration; 2] {
    let slices = (window.as_nanos() / SLICE.as_nanos()) as u32;
    let rest = window - SLICE * slices;
    let mut time = [SLICE * slices.div_ceil(2), SLICE * (slices / 2)];
    time[(slices % 2) as usize] += rest;
    time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, Workload};
    use crate::trace;

    #[test]
    fn parity_time_splits_the_window_between_untraced_and_traced_slices() {
        assert_eq!(parity_time(SLICE * 4), [SLICE * 2, SLICE * 2]);
        let odd = SLICE * 3 + Duration::from_millis(10);
        assert_eq!(
            parity_time(odd),
            [SLICE * 2, SLICE + Duration::from_millis(10)]
        );
    }

    #[test]
    fn traced_writes_nest_and_every_replica_matches_the_committed_bumps() {
        let balancer = ops::balancer(NODES);
        let streams = ops::streams(Workload::OwnershipChurn, 9, &balancer);
        let trial = trial(&streams, &ops::homes(&balancer), SLICE * 3, true);
        trial
            .check
            .as_ref()
            .expect("replicas agree with the clients");
        let traces = &trial.clients[0].traces;
        let writes: Vec<_> = traces.iter().filter(|t| !t.read_only).collect();
        assert!(!writes.is_empty(), "the traced slice committed writes");
        let mut handovers = 0;
        for (id, tx) in writes.iter().enumerate() {
            let spans = trace::spans(id as u64, tx, trial.start).expect("stamped");
            trace::check_nesting(&spans).unwrap();
            let kinds: Vec<_> = spans.iter().map(|s| s.kind).collect();
            assert!(kinds.contains(&trace::Kind::CommitBegin), "{kinds:?}");
            handovers += usize::from(kinds.contains(&trace::Kind::Acquire));
        }
        assert!(handovers > 0, "cross-group writes acquired ownership");
    }
}
