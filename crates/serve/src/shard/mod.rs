//! The multi-process shard fabric: cell placement, the wire protocol,
//! the headless shard worker, and the front-end coordinator pool.
//!
//! # Placement
//!
//! With `--shards k`, cell `c` of every job belongs to the worker process
//! with `shard_id = c mod k`. Placement is **output-invisible**: trial
//! `t` of cell `c` always draws from the RNG stream
//! `Xoshiro256pp::new(trial_seed(master(c), t))`, so which process runs a
//! cell (like which thread, and like whether it was resumed from a
//! checkpoint) cannot change a single byte of its record. The front-end
//! merges the `k` per-shard record streams back into global cell order
//! with the same blocking per-cell iterator the in-process pool uses, so
//! clients cannot tell `k = 1` from `k = 4` — or from `k = 0`.
//!
//! # Pieces
//!
//! * [`proto`] — length-prefixed frames (`Hello`/`Assign`/`Record`/…)
//!   over one persistent TCP connection per shard;
//! * [`worker`] — the headless worker session behind the
//!   `dispersion-shard-worker` binary (also runnable in-thread by tests);
//!   its runner thread is the serve crate's one cell executor, the same
//!   claim order and claim → run → land loop as the in-process pool;
//! * [`pool`] — the coordinator: spawns/adopts `k` workers, re-assigns
//!   live jobs after a crash with a `Resume` offset, feeds records back
//!   into the [`JobStore`](crate::jobs::JobStore)'s one landing step.
//!
//! # Shard checkpoint files
//!
//! Each worker persists its own `job-<id>.shard<i>.ndjson` next to the
//! front-end's files: its owned records in ascending cell order, appended
//! and flushed before the record is ever streamed. A restarted worker (or
//! a restarted front-end) reads them with the same
//! [`read_checkpoint`](dispersion_sim::sink::read_checkpoint) as
//! `job-<id>.ndjson`: whole records replay and a torn final line is
//! truncated — the durability contract of `k = 0` mode, extended across
//! the process boundary.

pub mod pool;
pub mod proto;
pub mod worker;

pub use pool::{ShardLaunch, ShardPool};

use std::path::{Path, PathBuf};

/// Does shard `shard` (of `shards`) own cell `cell`?
pub fn owns(cell: usize, shard: u64, shards: u64) -> bool {
    shards > 0 && cell as u64 % shards == shard
}

/// The cells of an `n_cells`-cell job owned by `shard`, ascending.
pub fn owned_cells(n_cells: usize, shard: u64, shards: u64) -> Vec<usize> {
    (0..n_cells).filter(|&c| owns(c, shard, shards)).collect()
}

/// The checkpoint file shard `shard` keeps for job `id`.
pub fn shard_ckpt_path(dir: &Path, id: u64, shard: u64) -> PathBuf {
    dir.join(format!("job-{id}.shard{shard}.ndjson"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_mod_k() {
        assert_eq!(owned_cells(6, 0, 2), vec![0, 2, 4]);
        assert_eq!(owned_cells(6, 1, 2), vec![1, 3, 5]);
        assert_eq!(owned_cells(5, 3, 4), vec![3]);
        assert_eq!(owned_cells(3, 3, 4), Vec::<usize>::new());
        assert!(!owns(0, 0, 0), "k = 0 owns nothing (in-process mode)");
        // every cell owned by exactly one shard
        for n in [1usize, 5, 16] {
            for k in [1u64, 2, 3, 7] {
                for c in 0..n {
                    let owners = (0..k).filter(|&s| owns(c, s, k)).count();
                    assert_eq!(owners, 1, "cell {c} of {n} at k={k}");
                }
            }
        }
    }
}
