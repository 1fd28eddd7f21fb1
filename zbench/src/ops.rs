//! Workloads and their seeded operation streams.
//!
//! Every workload runs over the same Smallbank population — 20k customers
//! in 600 groups, a checking and a savings account each, 64-byte accounts —
//! homed by the `LoadBalancer`'s hash placement, so a transaction routed by
//! its group key finds its objects owned by the node it lands on unless the
//! workload deliberately reaches across groups. Streams are generated from
//! the seed before the clock starts; the system under test only ever sees
//! the generated operations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zeus_core::{LoadBalancer, NodeId, ObjectId};
use zeus_workloads::{SmallbankWorkload, Workload as _, Zipf};

/// Customers in the population.
pub const CUSTOMERS: u64 = 20_000;
/// Affinity groups; a group is one load-balancer key.
pub const GROUPS: u64 = 600;
/// Objects in the population: a checking and a savings account per customer.
pub const OBJECTS: usize = 2 * CUSTOMERS as usize;
/// Operations generated per client. Clients cycle through their stream if a
/// run outlasts it, which keeps generation time and memory independent of
/// the run length.
pub const STREAM_LEN: usize = 1 << 18;

/// Share of `ownership_churn` transactions whose partner is drawn from
/// another group. At this share the write p99 lies in the body of clean
/// handovers (p99.5 is about 1.4 times p99), and handovers stay above 0.05
/// per transaction. At 0.3 the p99 sat on the steep edge of the slower tail
/// of second ownership rounds and retries (p99.5 about twice p99), where
/// small shifts in that tail moved it by a quarter between runs.
pub const CHURN_REMOTE: f64 = 0.2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Smallbank mix, every transaction local: the node loop, the store and
    /// the pipelined commit carry the time while ownership stays idle.
    LocalOltp,
    /// Smallbank mix with [`CHURN_REMOTE`] cross-group partners: ownership
    /// handovers on the write path. One client, because two contending
    /// clients turn it into back-off stalls that do not repeat between runs.
    OwnershipChurn,
    /// 90% two-account balance reads, 10% single-account deposits on a
    /// Zipf 0.99 customer skew: reads of hot keys race the commits still in
    /// flight for them. One client: a write resolves when its commit starts,
    /// so the client's own next reads meet its in-flight commits and retry;
    /// with a second client, cross-client conflicts put p99 on a retry tail
    /// that swung by half between runs.
    ReadMostly,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::LocalOltp,
        Workload::OwnershipChurn,
        Workload::ReadMostly,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalOltp => "local_oltp",
            Workload::OwnershipChurn => "ownership_churn",
            Workload::ReadMostly => "read_mostly",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads driving the workload (at most the two
    /// cores the benchmark is sized for).
    pub fn clients(self) -> usize {
        match self {
            Workload::OwnershipChurn | Workload::ReadMostly => 1,
            Workload::LocalOltp => 2,
        }
    }
}

/// One transaction of a stream: the node it is routed to and the dense
/// indices (see [`object_id`]) of the objects it reads and writes. A write
/// transaction bumps the counter of every object in its write set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Node the load balancer routes the transaction to.
    pub node: NodeId,
    /// Whether the transaction is read-only.
    pub read_only: bool,
    reads: [u32; 2],
    nreads: u8,
    writes: [u32; 3],
    nwrites: u8,
}

impl Op {
    fn new(node: NodeId, read_only: bool, reads: &[u32], writes: &[u32]) -> Op {
        let mut op = Op {
            node,
            read_only,
            reads: [0; 2],
            nreads: reads.len() as u8,
            writes: [0; 3],
            nwrites: writes.len() as u8,
        };
        op.reads[..reads.len()].copy_from_slice(reads);
        op.writes[..writes.len()].copy_from_slice(writes);
        op
    }

    /// Objects read and not written.
    pub fn reads(&self) -> &[u32] {
        &self.reads[..usize::from(self.nreads)]
    }

    /// Objects written.
    pub fn writes(&self) -> &[u32] {
        &self.writes[..usize::from(self.nwrites)]
    }
}

/// The object with dense index `index`: checking accounts first, then
/// savings accounts.
pub fn object_id(index: u32) -> ObjectId {
    let index = u64::from(index);
    if index < CUSTOMERS {
        SmallbankWorkload::checking(index)
    } else {
        SmallbankWorkload::savings(index - CUSTOMERS)
    }
}

fn index_of(object: ObjectId) -> u32 {
    let base = if object == SmallbankWorkload::checking(object.row()) {
        0
    } else {
        CUSTOMERS
    };
    (base + object.row()) as u32
}

/// The population's home placement: every object's routing key is its
/// customer's group, hashed onto a node.
pub fn balancer(nodes: usize) -> LoadBalancer {
    LoadBalancer::new(nodes, zeus_core::balancer::PlacementPolicy::Hash)
}

/// The home node of every object, by dense index.
pub fn homes(balancer: &LoadBalancer) -> Vec<NodeId> {
    (0..OBJECTS as u32)
        .map(|i| balancer.route(u64::from(i) % CUSTOMERS % GROUPS))
        .collect()
}

/// The per-client operation streams of `workload` for `seed`.
pub fn streams(workload: Workload, seed: u64, balancer: &LoadBalancer) -> Vec<Vec<Op>> {
    (0..workload.clients() as u64)
        .map(|client| {
            let client_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(client);
            match workload {
                Workload::LocalOltp => smallbank(0.0, client_seed, balancer),
                Workload::OwnershipChurn => smallbank(CHURN_REMOTE, client_seed, balancer),
                Workload::ReadMostly => read_mostly(client_seed, balancer),
            }
        })
        .collect()
}

fn smallbank(remote_fraction: f64, seed: u64, balancer: &LoadBalancer) -> Vec<Op> {
    let mut generator = SmallbankWorkload::new(CUSTOMERS, GROUPS, remote_fraction, seed);
    (0..STREAM_LEN)
        .map(|_| {
            let op = generator.next_operation();
            let reads: Vec<u32> = op.reads.iter().map(|&o| index_of(o)).collect();
            let writes: Vec<u32> = op.writes.iter().map(|&(o, _)| index_of(o)).collect();
            Op::new(
                balancer.route(op.routing_key),
                op.read_only,
                &reads,
                &writes,
            )
        })
        .collect()
}

fn read_mostly(seed: u64, balancer: &LoadBalancer) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(CUSTOMERS, 0.99);
    (0..STREAM_LEN)
        .map(|_| {
            let customer = zipf.sample(&mut rng);
            let node = balancer.route(customer % GROUPS);
            let checking = customer as u32;
            let savings = (CUSTOMERS + customer) as u32;
            if rng.gen_bool(0.9) {
                Op::new(node, true, &[checking, savings], &[])
            } else {
                Op::new(node, false, &[], &[checking])
            }
        })
        .collect()
}

/// FNV-1a digest of the streams, printed with every result so two runs can
/// be shown to have replayed the same inputs.
pub fn digest(streams: &[Vec<Op>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (client, stream) in streams.iter().enumerate() {
        eat(client as u64);
        for op in stream {
            eat(u64::from(op.node.0));
            eat(u64::from(op.read_only));
            for &object in op.reads() {
                eat(u64::from(object));
            }
            eat(u64::MAX);
            for &object in op.writes() {
                eat(u64::from(object));
            }
            eat(u64::MAX);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let balancer = balancer(3);
        for workload in Workload::ALL {
            let a = streams(workload, 7, &balancer);
            let b = streams(workload, 7, &balancer);
            let c = streams(workload, 8, &balancer);
            assert_eq!(a, b, "{}", workload.name());
            assert_eq!(digest(&a), digest(&b));
            assert_ne!(a, c, "{}", workload.name());
            assert_ne!(digest(&a), digest(&c));
        }
    }

    #[test]
    fn object_indices_round_trip() {
        for index in [
            0,
            1,
            CUSTOMERS as u32 - 1,
            CUSTOMERS as u32,
            OBJECTS as u32 - 1,
        ] {
            assert_eq!(index_of(object_id(index)), index);
        }
    }

    #[test]
    fn local_oltp_stays_on_the_home_node_and_churn_leaves_it() {
        let balancer = balancer(3);
        let homes = homes(&balancer);
        let off_home = |workload| {
            let streams = streams(workload, 1, &balancer);
            let ops = &streams[0];
            let remote = ops
                .iter()
                .filter(|op| {
                    op.reads()
                        .iter()
                        .chain(op.writes())
                        .any(|&o| homes[o as usize] != op.node)
                })
                .count();
            remote as f64 / ops.len() as f64
        };
        // Smallbank's fallback partner `(c + groups) % customers` wraps into
        // another group for the last few customers, so a remote fraction of 0
        // still leaves a trickle of cross-group transactions.
        let local = off_home(Workload::LocalOltp);
        assert!(local < 0.005, "local_oltp remote share {local}");
        // Only the two-account Smallbank transactions take a partner, so
        // about a fifth of CHURN_REMOTE of all transactions leave home.
        let churn = off_home(Workload::OwnershipChurn);
        assert!((0.03..0.1).contains(&churn), "churn remote share {churn}");
    }

    #[test]
    fn read_mostly_is_ninety_percent_reads() {
        let balancer = balancer(3);
        let streams = streams(Workload::ReadMostly, 3, &balancer);
        let reads = streams[0].iter().filter(|op| op.read_only).count();
        let share = reads as f64 / streams[0].len() as f64;
        assert!((share - 0.9).abs() < 0.01, "read share {share}");
    }
}
