//! Intra-run sharding: conflict-free parallel application of event batches.
//!
//! The run-level executor (`gossip-exec`) parallelizes *across* independent
//! runs; this module parallelizes *inside* one run.  The engine draws a
//! batch of edge-tick events serially (the RNG stream is inherently
//! sequential), then hands the delivered events to [`BatchPlanner`], which
//!
//! 1. assigns every event a **wavefront round** — `round(e) = 1 +
//!    max(round(u), round(v))` over the endpoints' latest rounds — so the
//!    events of one round touch pairwise-disjoint nodes and can be applied
//!    concurrently without conflicts;
//! 2. splits each round into fixed [`LANE_EVENTS`]-sized contiguous lanes
//!    and fans the lanes out over the executor, each lane applying its
//!    events through the handler's pairwise kernel and accumulating a
//!    `(Δsum, Δsum²)` moment delta in event order;
//! 3. merges the lane deltas **in lane-index order** (the executor returns
//!    ordered results), so the float schedule is a pure function of the
//!    event sequence — independent of worker count, scheduling, and timing.
//!
//! That merge-order invariant is what makes a sharded run bit-identical for
//! every shard count: `shards = 1`, `2`, and `4` execute the *same* additions
//! in the *same* order, merely on different threads.  (The schedule does
//! differ from the serial engine's one-tracker-update-per-set order, which is
//! why `SimulationConfig::shards = None` keeps the serial loop untouched and
//! byte-stable.)
//!
//! Values live in a [`SharedValues`] array of `AtomicU64` bit patterns —
//! safe-Rust shared mutation (the crate forbids `unsafe`).  All accesses are
//! `Relaxed`: within a round, lanes write disjoint nodes and read only nodes
//! last written in earlier rounds, and the executor's join (a mutex/condvar
//! hand-off in the worker pool) provides the cross-round happens-before edge.

use crate::engine::Snapshot;
use crate::moments::shifted_delta;
use crate::values::NodeValues;
use gossip_exec::Executor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Events drawn per sharded batch (the engine cuts batches earlier at
/// moment-refresh boundaries and the event cap).  Large enough that the
/// wavefront rounds of a big graph hold thousands of independent events;
/// small enough that batch-granularity stopping checks stay responsive.
pub(crate) const BATCH_TICKS: u64 = 4096;

/// Events per lane: the fixed chunk size whose boundaries define the merge
/// schedule.  Must not depend on worker count, or bit-stability across shard
/// counts would break.
const LANE_EVENTS: usize = 128;

/// Rounds smaller than this are applied inline by the calling thread (same
/// lane arithmetic, no dispatch) — fanning out a handful of events costs
/// more than it saves.  Depends only on the round size, so the cutover is
/// deterministic.
const MIN_PARALLEL_EVENTS: usize = 256;

/// The node state as shared atomic bit patterns, so lanes on several workers
/// can update disjoint nodes of one vector without locks or `unsafe`.
pub(crate) struct SharedValues {
    bits: Vec<AtomicU64>,
}

impl SharedValues {
    pub(crate) fn from_values(values: &NodeValues) -> Self {
        SharedValues {
            bits: values
                .as_slice()
                .iter()
                .map(|v| AtomicU64::new(v.to_bits()))
                .collect(),
        }
    }

    /// Reads one node.  `pub(crate)` so the engine can classify and apply
    /// adversary-involved contacts serially between parallel batches.
    #[inline]
    pub(crate) fn get(&self, node: usize) -> f64 {
        f64::from_bits(self.bits[node].load(Ordering::Relaxed))
    }

    /// Writes one node (see [`Self::get`] for the `pub(crate)` rationale).
    #[inline]
    pub(crate) fn set(&self, node: usize, value: f64) {
        self.bits[node].store(value.to_bits(), Ordering::Relaxed);
    }
}

impl Snapshot for SharedValues {
    fn snapshot_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.bits
                .iter()
                .map(|b| f64::from_bits(b.load(Ordering::Relaxed))),
        );
    }
}

/// Reusable per-run planner: computes wavefront rounds for a batch of
/// delivered events and applies them lane-parallel.
pub(crate) struct BatchPlanner {
    /// Delivered events of the current batch as `(u, v)` node indices, in
    /// draw order.
    events: Vec<(u32, u32)>,
    /// Wavefront round of each event (parallel to `events`; rounds start
    /// at 1).
    rounds: Vec<u32>,
    /// Highest round assigned in the current batch.
    max_round: usize,
    /// Epoch stamp per node: `node_round` is valid only where the stamp
    /// matches the current batch epoch, making `clear` O(1) in `n`.
    node_epoch: Vec<u64>,
    node_round: Vec<u32>,
    epoch: u64,
    /// Events regrouped by round (draw order preserved within a round).
    ordered: Vec<(u32, u32)>,
    /// `ordered[offsets[r]..offsets[r + 1]]` is round `r`.
    offsets: Vec<usize>,
    /// Counting-sort workspace (counts, then scatter cursors).
    cursors: Vec<usize>,
}

impl BatchPlanner {
    pub(crate) fn new(nodes: usize) -> Self {
        BatchPlanner {
            events: Vec::new(),
            rounds: Vec::new(),
            max_round: 0,
            node_epoch: vec![0; nodes],
            node_round: vec![0; nodes],
            epoch: 0,
            ordered: Vec::new(),
            offsets: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Starts a new batch, forgetting all per-node round state.
    pub(crate) fn clear(&mut self) {
        self.epoch += 1;
        self.events.clear();
        self.rounds.clear();
        self.max_round = 0;
    }

    /// Records a delivered event and assigns its wavefront round.
    pub(crate) fn push(&mut self, u: usize, v: usize) {
        let round_u = if self.node_epoch[u] == self.epoch {
            self.node_round[u]
        } else {
            0
        };
        let round_v = if self.node_epoch[v] == self.epoch {
            self.node_round[v]
        } else {
            0
        };
        let round = 1 + round_u.max(round_v);
        self.node_epoch[u] = self.epoch;
        self.node_round[u] = round;
        self.node_epoch[v] = self.epoch;
        self.node_round[v] = round;
        self.events.push((u as u32, v as u32));
        self.rounds.push(round);
        self.max_round = self.max_round.max(round as usize);
    }

    /// Number of delivered events recorded since the last [`Self::clear`].
    #[cfg(test)]
    fn len(&self) -> usize {
        self.events.len()
    }

    /// Applies the batch round by round, each round lane-parallel over
    /// `executor`, and returns the accumulated `(Δsum, Δsum²)` relative to
    /// `shift` — merged in (round, lane, event) order, so the result is
    /// bit-identical for every worker count.
    pub(crate) fn apply(
        &mut self,
        executor: &Executor,
        values: &SharedValues,
        kernel: fn(f64, f64) -> (f64, f64),
        shift: f64,
    ) -> (f64, f64) {
        // Counting sort by round, stable in draw order.
        self.cursors.clear();
        self.cursors.resize(self.max_round + 1, 0);
        for &round in &self.rounds {
            self.cursors[round as usize] += 1;
        }
        self.offsets.clear();
        self.offsets.resize(self.max_round + 2, 0);
        for round in 1..=self.max_round {
            self.offsets[round + 1] = self.offsets[round] + self.cursors[round];
        }
        self.cursors[..].copy_from_slice(&self.offsets[..self.max_round + 1]);
        self.ordered.clear();
        self.ordered.resize(self.events.len(), (0, 0));
        for (index, &event) in self.events.iter().enumerate() {
            let round = self.rounds[index] as usize;
            self.ordered[self.cursors[round]] = event;
            self.cursors[round] += 1;
        }

        let mut d_sum = 0.0;
        let mut d_sum_sq = 0.0;
        for round in 1..=self.max_round {
            let span = &self.ordered[self.offsets[round]..self.offsets[round + 1]];
            let lanes = span.len().div_ceil(LANE_EVENTS);
            if span.len() < MIN_PARALLEL_EVENTS || executor.jobs() == 1 {
                for lane in 0..lanes {
                    let (a, b) = apply_lane(span, lane, values, kernel, shift);
                    d_sum += a;
                    d_sum_sq += b;
                }
            } else {
                for (a, b) in executor
                    .map_indexed(lanes, |lane| apply_lane(span, lane, values, kernel, shift))
                {
                    d_sum += a;
                    d_sum_sq += b;
                }
            }
        }
        (d_sum, d_sum_sq)
    }
}

/// Applies one lane of a round and returns its `(Δsum, Δsum²)` partial,
/// accumulated in event order with exactly `MomentTracker::record_update`'s
/// per-entry arithmetic.
fn apply_lane(
    span: &[(u32, u32)],
    lane: usize,
    values: &SharedValues,
    kernel: fn(f64, f64) -> (f64, f64),
    shift: f64,
) -> (f64, f64) {
    let start = lane * LANE_EVENTS;
    let end = (start + LANE_EVENTS).min(span.len());
    let mut d_sum = 0.0;
    let mut d_sum_sq = 0.0;
    for &(u, v) in &span[start..end] {
        let (u, v) = (u as usize, v as usize);
        let xu = values.get(u);
        let xv = values.get(v);
        let (nu, nv) = kernel(xu, xv);
        values.set(u, nu);
        values.set(v, nv);
        for (old, new) in [(xu, nu), (xv, nv)] {
            let (delta, delta_sq) = shifted_delta(old, new, shift);
            d_sum += delta;
            d_sum_sq += delta_sq;
        }
    }
    (d_sum, d_sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn average_kernel() -> fn(f64, f64) -> (f64, f64) {
        |xu, xv| {
            let avg = 0.5 * (xu + xv);
            (avg, avg)
        }
    }

    #[test]
    fn wavefront_rounds_chain_on_shared_nodes() {
        let mut planner = BatchPlanner::new(6);
        planner.clear();
        planner.push(0, 1); // round 1
        planner.push(2, 3); // round 1 (disjoint)
        planner.push(1, 2); // round 2 (touches both chains)
        planner.push(4, 5); // round 1
        planner.push(1, 4); // round 3 (1 is at round 2, 4 at round 1)
        assert_eq!(planner.rounds, vec![1, 1, 2, 1, 3]);
        assert_eq!(planner.max_round, 3);
        // A new batch forgets all node rounds in O(1).
        planner.clear();
        assert_eq!(planner.len(), 0);
        planner.push(1, 2);
        assert_eq!(planner.rounds, vec![1]);
    }

    #[test]
    fn apply_matches_a_serial_replay_bitwise_at_any_job_count() {
        // A deterministic pseudo-random event sequence over 32 nodes, long
        // enough to span several rounds and lanes; the sharded application
        // must produce the exact same values and moment deltas as replaying
        // the planner's (round, lane, event) schedule by hand — at every
        // worker count.
        let nodes = 32;
        let initial: Vec<f64> = (0..nodes).map(|i| (i as f64 * 0.73).sin()).collect();
        let events: Vec<(usize, usize)> = (0..1500usize)
            .map(|i| {
                let u = (i * 7 + i * i * 3) % nodes;
                let v = (u + 1 + (i * 5) % (nodes - 1)) % nodes;
                (u.min(v), u.max(v))
            })
            .filter(|(u, v)| u != v)
            .collect();
        let shift = 0.1875;

        let run = |jobs: usize| {
            let executor = Executor::new(jobs);
            let state = NodeValues::from_values(initial.clone()).unwrap();
            let shared = SharedValues::from_values(&state);
            let mut planner = BatchPlanner::new(nodes);
            planner.clear();
            for &(u, v) in &events {
                planner.push(u, v);
            }
            let delta = planner.apply(&executor, &shared, average_kernel(), shift);
            let mut out = Vec::new();
            shared.snapshot_into(&mut out);
            (delta, out)
        };

        let (delta_1, values_1) = run(1);
        for jobs in [2, 4] {
            let (delta_n, values_n) = run(jobs);
            assert_eq!(delta_1.0.to_bits(), delta_n.0.to_bits(), "jobs = {jobs}");
            assert_eq!(delta_1.1.to_bits(), delta_n.1.to_bits(), "jobs = {jobs}");
            for (a, b) in values_1.iter().zip(values_n.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "jobs = {jobs}");
            }
        }

        // Reference replay: same schedule, applied serially by hand.
        let mut reference = initial.clone();
        let mut planner = BatchPlanner::new(nodes);
        planner.clear();
        for &(u, v) in &events {
            planner.push(u, v);
        }
        // Regroup by round exactly as the planner does.
        let mut by_round: Vec<Vec<(usize, usize)>> = vec![Vec::new(); planner.max_round + 1];
        for (i, &(u, v)) in planner.events.iter().enumerate() {
            by_round[planner.rounds[i] as usize].push((u as usize, v as usize));
        }
        let kernel = average_kernel();
        let (mut d_sum, mut d_sq) = (0.0, 0.0);
        for round in by_round.iter().skip(1) {
            // Within a round, lanes of 128 accumulate locally, merged in
            // lane order.
            for lane in round.chunks(LANE_EVENTS) {
                let (mut lane_sum, mut lane_sq) = (0.0, 0.0);
                for &(u, v) in lane {
                    let (xu, xv) = (reference[u], reference[v]);
                    let (nu, nv) = kernel(xu, xv);
                    reference[u] = nu;
                    reference[v] = nv;
                    for (old, new) in [(xu, nu), (xv, nv)] {
                        let d_old = old - shift;
                        let d_new = new - shift;
                        lane_sum += d_new - d_old;
                        lane_sq += d_new * d_new - d_old * d_old;
                    }
                }
                d_sum += lane_sum;
                d_sq += lane_sq;
            }
        }
        assert_eq!(delta_1.0.to_bits(), d_sum.to_bits());
        assert_eq!(delta_1.1.to_bits(), d_sq.to_bits());
        for (a, b) in values_1.iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rounds_within_a_batch_are_node_disjoint() {
        let nodes = 16;
        let mut planner = BatchPlanner::new(nodes);
        planner.clear();
        for i in 0..400usize {
            let u = (i * 11) % nodes;
            let v = (i * 11 + 1 + i % (nodes - 1)) % nodes;
            if u != v {
                planner.push(u, v);
            }
        }
        let mut seen_in_round = vec![std::collections::HashSet::new(); planner.max_round + 1];
        for (i, &(u, v)) in planner.events.iter().enumerate() {
            let round = planner.rounds[i] as usize;
            assert!(seen_in_round[round].insert(u), "node {u} twice in {round}");
            assert!(seen_in_round[round].insert(v), "node {v} twice in {round}");
        }
    }
}
