//! The four workloads and their seeded inputs.
//!
//! Everything a run feeds the index — keys, values, each simulated
//! client's operation list — is generated here from `--seed` before any
//! timer starts. The same seed gives byte-identical inputs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ycsb::{value_for, KeySpace, OpStream, SharedInsertCursor, VALUE_LEN};

/// Memory nodes and compute nodes: the paper's 3 CN + 3 MN testbed.
pub const MNS: u16 = 3;
pub const CNS: u16 = 3;
/// Simulated clients per compute node.
pub const CLIENTS_PER_CN: usize = 8;
pub const CLIENTS: usize = CNS as usize * CLIENTS_PER_CN;
/// Keys preloaded before the read/update/scan mixes, and inserted by LOAD.
pub const KEYS: u32 = 200_000;
/// Pipelined read depth (`get_many_pipelined`).
pub const DEPTH: usize = 8;
/// Consecutive reads one pipelined call carries: four pipeline-fulls, so
/// admission keeps the window full between fences.
pub const READ_BATCH: usize = 4 * DEPTH;

/// The paper's CN cache budget (20 MB for 60 M keys) scaled to the keys
/// actually loaded: `keys / 3` bytes.
pub fn cache_bytes() -> usize {
    (KEYS as usize / 3).max(4 << 10)
}

/// How each client's operations are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// A YCSB mix over the preloaded keys: every client draws from its own
    /// `ycsb::OpStream`, and inserts take fresh items from one shared
    /// cursor.
    Ycsb(fn() -> ycsb::Workload),
    /// YCSB LOAD: every key inserted once into an empty index, in a seeded
    /// order dealt out round-robin to the clients.
    Load,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub keyspace: KeySpace,
    pub mix: Mix,
    /// Warm-up operations per client, run inside set-up.
    pub warmup_per_client: usize,
    /// Measured operations per client; 0 for LOAD, whose window is all
    /// [`KEYS`] dealt out to the clients.
    pub window_per_client: usize,
}

impl Workload {
    pub fn preloaded(&self) -> u32 {
        match self.mix {
            Mix::Ycsb(_) => KEYS,
            Mix::Load => 0,
        }
    }

    /// Whether the mix scans (the oracle then keeps its keys in order).
    pub fn scans(&self) -> bool {
        matches!(self.mix, Mix::Ycsb(mix) if mix().scan > 0.0)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ycsb_c_email",
        keyspace: KeySpace::Email,
        mix: Mix::Ycsb(ycsb::Workload::c),
        warmup_per_client: 20_000,
        window_per_client: 20_000,
    },
    Workload {
        name: "ycsb_a_u64",
        keyspace: KeySpace::U64,
        mix: Mix::Ycsb(ycsb::Workload::a),
        warmup_per_client: 20_000,
        window_per_client: 20_000,
    },
    Workload {
        name: "ycsb_load_email",
        keyspace: KeySpace::Email,
        mix: Mix::Load,
        warmup_per_client: 0,
        window_per_client: 0,
    },
    Workload {
        name: "ycsb_e_u64",
        keyspace: KeySpace::U64,
        mix: Mix::Ycsb(ycsb::Workload::e),
        warmup_per_client: 500,
        window_per_client: 2_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One operation, in item ids (indexes into [`Inputs::keys`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read(u32),
    /// Overwrite `item` with `Inputs::updates[val]`.
    Update {
        item: u32,
        val: u32,
    },
    /// Insert `item` with its initial value.
    Insert(u32),
    /// Up to `len` records from `item`'s key upward.
    Scan {
        item: u32,
        len: u16,
    },
}

pub type Value = [u8; VALUE_LEN];

pub struct Inputs {
    /// Item id -> key bytes.
    pub keys: Vec<Vec<u8>>,
    /// Item id -> the value it is inserted with.
    pub initial: Vec<Value>,
    /// Update id -> the value that update writes.
    pub updates: Vec<Value>,
    /// Per client: inserts that preload the index in set-up.
    pub preload: Vec<Vec<Op>>,
    /// Per client: warm-up operations (run in set-up).
    pub warmup: Vec<Vec<Op>>,
    /// Per client: measured operations.
    pub window: Vec<Vec<Op>>,
}

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn to_value(bytes: Vec<u8>) -> Value {
    bytes.try_into().expect("ycsb values are VALUE_LEN bytes")
}

/// Converts one `ycsb::OpStream` draw; each update gets the next update id.
fn convert(op: ycsb::Op, update_keys: &mut Vec<u32>) -> Op {
    match op {
        ycsb::Op::Read(i) => Op::Read(i as u32),
        ycsb::Op::Update(i) => {
            update_keys.push(i as u32);
            Op::Update {
                item: i as u32,
                val: update_keys.len() as u32 - 1,
            }
        }
        ycsb::Op::Insert(i) => Op::Insert(i as u32),
        ycsb::Op::Scan(i, len) => Op::Scan {
            item: i as u32,
            len: len as u16,
        },
        ycsb::Op::ReadModifyWrite(_) => unreachable!("no workload here is YCSB-F"),
    }
}

pub fn generate(w: &Workload, seed: u64) -> Inputs {
    // The key set is fixed, like a YCSB dataset: item i is key i of the
    // key space. The seed drives every client's operation stream and the
    // LOAD order. (Seeding the key set instead would change which key is
    // hottest, and under zipfian 0.99 the hottest key alone carries ~8% of
    // the operations: its path shape swung bytes per op by up to 28%.)
    let preloaded = w.preloaded();
    // Update id -> the item it overwrites.
    let mut update_keys: Vec<u32> = Vec::new();
    let mut warmup = Vec::with_capacity(CLIENTS);
    let mut window = Vec::with_capacity(CLIENTS);
    let items = match w.mix {
        Mix::Load => {
            let mut order: Vec<u32> = (0..KEYS).collect();
            let mut rng = SmallRng::seed_from_u64(mix64(seed ^ 0x10AD));
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for c in 0..CLIENTS {
                warmup.push(Vec::new());
                window.push(
                    order
                        .iter()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|&i| Op::Insert(i))
                        .collect(),
                );
            }
            KEYS
        }
        Mix::Ycsb(mix) => {
            let cursor = SharedInsertCursor::new(u64::from(preloaded));
            for c in 0..CLIENTS {
                let client_seed = mix64(seed ^ mix64(c as u64 + 1));
                let mut stream =
                    OpStream::with_cursor(mix(), u64::from(preloaded), client_seed, cursor.clone());
                let mut draw = |n: usize| -> Vec<Op> {
                    (&mut stream)
                        .take(n)
                        .map(|op| convert(op, &mut update_keys))
                        .collect()
                };
                warmup.push(draw(w.warmup_per_client));
                window.push(draw(w.window_per_client));
            }
            u32::try_from(cursor.population()).expect("item ids fit in u32")
        }
    };

    let keys = (0..items).map(|i| w.keyspace.key(u64::from(i))).collect();
    let initial = (0..items)
        .map(|i| to_value(value_for(u64::from(i), 0)))
        .collect();
    let updates = update_keys
        .iter()
        .enumerate()
        .map(|(id, &item)| to_value(value_for(u64::from(item), id as u32 + 1)))
        .collect();
    Inputs {
        keys,
        initial,
        updates,
        preload: (0..CLIENTS)
            .map(|c| {
                (c as u32..preloaded)
                    .step_by(CLIENTS)
                    .map(Op::Insert)
                    .collect()
            })
            .collect(),
        warmup,
        window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in &WORKLOADS[2..] {
            let a = generate(w, 7);
            let b = generate(w, 7);
            assert_eq!(a.keys, b.keys);
            assert_eq!(a.window, b.window);
            let c = generate(w, 8);
            assert_ne!(a.window, c.window);
        }
    }
}
