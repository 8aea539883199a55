//! The benchmark's three stages, each driven only through the library's
//! public functions:
//!
//! - **relax**: flat-layout f64 vanilla relaxations to the Definition-1 stop
//!   on a chordal ring, each with its own seed, each followed by an f32
//!   relaxation under the default error oracle;
//! - **estimate**: the paper's comparison, Definition-1 averaging time of
//!   vanilla gossip against Algorithm A on an expander dumbbell;
//! - **hostile**: a durable run under message loss and stale-replay
//!   adversaries that checkpoints into a run store, then reopens the store,
//!   restores from the newest checkpoint and finishes.
//!
//! Each stage splits into inputs built during set-up and an operation that
//! is timed.  Every operation returns its own correctness verdict.

use crate::speed::{Speed, Timed};
use crate::trace::Tracer;
use crate::Result;
use gossip_core::{
    AveragingTimeEstimate, AveragingTimeEstimator, EstimatorConfig, SparseCutAlgorithm,
    SparseCutConfig, VanillaGossip,
};
use gossip_graph::partition::Block;
use gossip_graph::spectral::{SpectralProfile, SPARSE_DISPATCH_THRESHOLD};
use gossip_graph::Graph;
use gossip_linalg::SymmetricEigen;
use gossip_sim::clock::{GlobalTickProcess, TickProcess};
use gossip_sim::engine::ClockModel;
use gossip_sim::stopping::{StopReason, StoppingRule, DEFINITION1_THRESHOLD};
use gossip_sim::{
    AdversaryPlan, AsyncSimulator, EdgeTickHandler, EngineCheckpoint, F32Oracle, FaultPlan,
    NodeValues, SimError, SimulationConfig, SimulationOutcome,
};
use gossip_store::{trial_key, CheckpointRecord, RunStore, TrialKey, TrialRecord};
use gossip_workloads::{
    AdversaryProfile, FaultProfile, InitialCondition, Scenario, ScenarioInstance,
};
use serde::json::Value;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Derives an independent stream seed from the workload seed and a salt.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    gossip_store::hash::splitmix64(seed ^ gossip_store::hash::splitmix64(salt))
}

/// Seconds elapsed since `start`.
fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// relax
// ---------------------------------------------------------------------------

/// Set-up products of the relax stage: the chordal ring and one uniform
/// start vector shared by every relaxation.
pub struct RelaxInputs {
    /// The chordal ring.
    pub instance: ScenarioInstance,
    /// Uniform start in `[-1, 1]`.
    pub initial: NodeValues,
}

impl RelaxInputs {
    /// Builds the ring on `n` nodes and the start vector.
    pub fn build(n: usize, seed: u64, tracer: &mut Tracer) -> Result<Self> {
        let instance = tracer.span("workloads.instantiate", |_| {
            Scenario::ChordalRing { n }.instantiate(derive_seed(seed, 1))
        })?;
        let initial = tracer.span("workloads.initial", |_| {
            InitialCondition::Uniform { lo: -1.0, hi: 1.0 }.generate(n, None, derive_seed(seed, 2))
        })?;
        Ok(RelaxInputs { instance, initial })
    }

    /// Simulation config of relaxation `op_seed`: global uniform clock,
    /// Definition-1 stop, flat layout.
    pub fn config(&self, op_seed: u64) -> SimulationConfig {
        let guard = 400 * self.instance.graph.node_count() as u64 + 1_000_000;
        SimulationConfig::new(op_seed)
            .with_clock_model(ClockModel::GlobalUniform)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(guard))
            .with_max_events(2 * guard)
            .with_flat_layout()
    }
}

/// One timed relaxation.
#[derive(Debug, Clone)]
pub struct RelaxRecord {
    /// Ticks to the stop.
    pub ticks: u64,
    /// Wall seconds of `AsyncSimulator::new` plus `run` (f64) or of
    /// `run_f32` (f32).
    pub seconds: f64,
    /// Exact moment refreshes of the run.
    pub moment_refreshes: u64,
    /// Bits of the final variance ratio.
    pub ratio_bits: u64,
    /// The verdict: converged below the Definition-1 threshold (and, for
    /// f32, within the oracle's bounds).
    pub ok: bool,
}

/// Runs one flat-layout f64 relaxation.
pub fn relax_f64(inputs: &RelaxInputs, op_seed: u64, tracer: &mut Tracer) -> Result<RelaxRecord> {
    let graph = &inputs.instance.graph;
    let config = inputs.config(op_seed);
    let start = Instant::now();
    let mut sim = tracer.span("sim.new", |_| {
        AsyncSimulator::new(graph, inputs.initial.clone(), VanillaGossip::new(), config)
    })?;
    let outcome = tracer.span("sim.run", |_| sim.run())?;
    let seconds = since(start);
    Ok(RelaxRecord {
        ticks: outcome.total_ticks,
        seconds,
        moment_refreshes: outcome.moment_refreshes,
        ratio_bits: outcome.variance_ratio().to_bits(),
        ok: outcome.stop_reason == StopReason::Converged
            && outcome.variance_ratio() <= DEFINITION1_THRESHOLD,
    })
}

/// Runs one f32 relaxation under the default error oracle.  An oracle
/// violation is a failed verdict, not an error.
pub fn relax_f32(inputs: &RelaxInputs, op_seed: u64, tracer: &mut Tracer) -> Result<RelaxRecord> {
    let graph = &inputs.instance.graph;
    let config = inputs.config(op_seed);
    let kernel = VanillaGossip::new()
        .pairwise_kernel()
        .expect("vanilla gossip exposes its pairwise kernel");
    let start = Instant::now();
    let outcome = tracer.span("sim.run_f32", |_| {
        gossip_sim::run_f32(
            graph,
            &inputs.initial,
            kernel,
            &config,
            &F32Oracle::default(),
        )
    });
    let seconds = since(start);
    match outcome {
        Ok(outcome) => Ok(RelaxRecord {
            ticks: outcome.total_ticks,
            seconds,
            moment_refreshes: outcome.moment_refreshes,
            ratio_bits: outcome.variance_ratio().to_bits(),
            ok: outcome.stop_reason == StopReason::Converged
                && outcome.variance_ratio() <= DEFINITION1_THRESHOLD,
        }),
        Err(SimError::PrecisionOracle { .. }) => Ok(RelaxRecord {
            ticks: 0,
            seconds,
            moment_refreshes: 0,
            ratio_bits: 0,
            ok: false,
        }),
        Err(other) => Err(other.into()),
    }
}

// ---------------------------------------------------------------------------
// estimate
// ---------------------------------------------------------------------------

/// Set-up products of the estimate stage: the expander dumbbell and
/// Algorithm A built for its canonical partition.
pub struct EstimateInputs {
    /// The expander dumbbell.
    pub instance: ScenarioInstance,
    /// Algorithm A with epoch constant 2; cloned fresh for every run.
    pub algo: SparseCutAlgorithm,
}

/// Algorithm A's epoch constant in every estimate.
const EPOCH_CONSTANT: f64 = 2.0;

impl EstimateInputs {
    /// Builds the dumbbell and Algorithm A.
    pub fn build(half: usize, seed: u64, tracer: &mut Tracer) -> Result<Self> {
        let instance = tracer.span("workloads.instantiate", |_| {
            Scenario::ExpanderDumbbell { half }.instantiate(derive_seed(seed, 3))
        })?;
        let config = SparseCutConfig::new().with_epoch_constant(EPOCH_CONSTANT);
        let algo = tracer.span("core.algo_a_build", |_| {
            SparseCutAlgorithm::from_partition(&instance.graph, &instance.partition, config)
        })?;
        Ok(EstimateInputs { instance, algo })
    }

    /// Number of blocks the spectral dispatch sends down the dense path.
    pub fn dense_blocks(&self) -> usize {
        [Block::One, Block::Two]
            .into_iter()
            .filter(|&b| self.instance.partition.block(b).len() <= SPARSE_DISPATCH_THRESHOLD)
            .count()
    }

    fn estimator(&self, seed: u64, runs: usize, jobs: usize) -> AveragingTimeEstimator {
        AveragingTimeEstimator::new(
            EstimatorConfig::new(derive_seed(seed, 4))
                .with_runs(runs)
                .with_clock_model(ClockModel::GlobalUniform)
                .with_jobs(Some(jobs)),
        )
    }

    /// The vanilla estimate alone, at `jobs` workers.
    pub fn estimate_vanilla(
        &self,
        seed: u64,
        runs: usize,
        jobs: usize,
    ) -> Result<AveragingTimeEstimate> {
        let instance = &self.instance;
        Ok(self.estimator(seed, runs, jobs).estimate(
            &instance.graph,
            &instance.partition,
            VanillaGossip::new,
        )?)
    }

    /// One Algorithm A run from the adversarial start to the estimator's
    /// confirmation level; returns the transfers it performed.
    pub fn algo_a_transfers(&self, seed: u64) -> Result<u64> {
        let instance = &self.instance;
        let initial = AveragingTimeEstimator::adversarial_initial(&instance.partition);
        let defaults = EstimatorConfig::new(seed);
        let config = SimulationConfig::new(derive_seed(seed, 5))
            .with_clock_model(ClockModel::GlobalUniform)
            .with_stopping_rule(
                StoppingRule::variance_ratio_below(
                    defaults.threshold * defaults.confirmation_factor,
                )
                .or_max_time(defaults.max_time),
            )
            .with_max_events(defaults.max_events);
        let mut sim = AsyncSimulator::new(&instance.graph, initial, self.algo.clone(), config)?;
        sim.run()?;
        Ok(sim.handler().transfers())
    }

    /// Per block, the calls `SparseCutAlgorithm::from_partition` makes to
    /// estimate `T_van`, each in its own span: `Graph::induced_subgraph`,
    /// `SpectralProfile::compute` and, for blocks the spectral dispatch
    /// sends down the dense path, `SymmetricEigen::compute` on the block's
    /// Laplacian.
    pub fn block_probes(&self, tracer: &mut Tracer) -> Result<()> {
        let instance = &self.instance;
        for block in [Block::One, Block::Two] {
            let nodes = instance.partition.block(block);
            let (sub, _) = tracer.span("graph.induced_subgraph", |_| {
                instance.graph.induced_subgraph(nodes)
            })?;
            let profile = tracer.span("graph.spectral", |_| SpectralProfile::compute(&sub))?;
            black_box(profile);
            if nodes.len() <= SPARSE_DISPATCH_THRESHOLD {
                let laplacian = gossip_graph::laplacian::laplacian(&sub);
                let eigen = tracer.span("linalg.eigen", |_| SymmetricEigen::compute(&laplacian))?;
                black_box(eigen);
            }
        }
        Ok(())
    }
}

/// One timed estimate pair.
#[derive(Debug, Clone)]
pub struct EstimateRecord {
    /// Time of the vanilla estimate.
    pub vanilla: Timed,
    /// Time of each repeat of the Algorithm A estimate.
    pub algo: Vec<Timed>,
    /// Vanilla averaging time.
    pub vanilla_t_av: f64,
    /// Algorithm A averaging time.
    pub algo_t_av: f64,
    /// Confirmed vanilla runs.
    pub vanilla_confirmed: usize,
    /// Confirmed Algorithm A runs.
    pub algo_confirmed: usize,
    /// The verdict: every run confirmed, every Algorithm A repeat identical
    /// and `T_av(A) < T_av(vanilla)`.
    pub ok: bool,
}

/// Estimates both averaging times with `runs` runs each at `jobs` workers,
/// the Algorithm A estimate `algo_repeats` times, timing each estimate
/// against `speed`.
#[allow(clippy::too_many_arguments)]
pub fn estimate_pair(
    inputs: &EstimateInputs,
    seed: u64,
    runs: usize,
    algo_repeats: usize,
    jobs: usize,
    speed: &mut Speed,
    tracer: &mut Tracer,
) -> Result<EstimateRecord> {
    let instance = &inputs.instance;
    let estimator = inputs.estimator(seed, runs, jobs);
    let (vanilla, vanilla_time) = speed.time(|| {
        tracer.span("core.estimate_vanilla", |_| {
            estimator.estimate(&instance.graph, &instance.partition, VanillaGossip::new)
        })
    });
    let vanilla = vanilla?;
    let mut algo_times = Vec::with_capacity(algo_repeats);
    let mut algos = Vec::with_capacity(algo_repeats);
    for _ in 0..algo_repeats.max(1) {
        let (algo, time) = speed.time(|| {
            tracer.span("core.estimate_algo_a", |_| {
                estimator.estimate(&instance.graph, &instance.partition, || inputs.algo.clone())
            })
        });
        algos.push(algo?);
        algo_times.push(time);
    }
    let algo = &algos[0];
    let repeats_agree = algos.iter().all(|a| {
        a.averaging_time.to_bits() == algo.averaging_time.to_bits()
            && a.confirmed_runs == algo.confirmed_runs
    });
    Ok(EstimateRecord {
        vanilla: vanilla_time,
        algo: algo_times,
        vanilla_t_av: vanilla.averaging_time,
        algo_t_av: algo.averaging_time,
        vanilla_confirmed: vanilla.confirmed_runs,
        algo_confirmed: algo.confirmed_runs,
        ok: vanilla.confirmed_runs == runs
            && algo.confirmed_runs == runs
            && repeats_agree
            && algo.averaging_time < vanilla.averaging_time,
    })
}

// ---------------------------------------------------------------------------
// hostile
// ---------------------------------------------------------------------------

/// The run-store tier token of the hostile stage.
const HOSTILE_TOKEN: &str = "HOSTILE_RESUME";

/// Set-up products of the hostile stage: the dumbbell, the arc-adversarial
/// start and both compiled plans.
pub struct HostileInputs {
    /// The expander dumbbell.
    pub instance: ScenarioInstance,
    /// `+1` on block one, `-n1/n2` on block two.
    pub initial: NodeValues,
    /// Message loss with probability 0.1.
    pub fault_plan: FaultPlan,
    /// Stale replay on 1 % of the nodes.
    pub adversary_plan: AdversaryPlan,
    /// Tick budget; every run stops at this tick limit.
    pub ticks: u64,
    /// Checkpoint cadence in ticks.
    pub checkpoint_every: u64,
}

impl HostileInputs {
    /// Builds the dumbbell, the start vector and both plans.
    pub fn build(
        half: usize,
        ticks: u64,
        checkpoint_every: u64,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Result<Self> {
        let instance = tracer.span("workloads.instantiate", |_| {
            Scenario::ExpanderDumbbell { half }.instantiate(derive_seed(seed, 6))
        })?;
        let n = instance.graph.node_count();
        let initial = tracer.span("workloads.initial", |_| {
            InitialCondition::AdversarialCut.generate(n, Some(&instance.partition), 0)
        })?;
        let (fault_plan, adversary_plan) = tracer.span("workloads.plan_compile", |_| {
            let fault =
                FaultProfile::MessageLoss { p: 0.1 }.compile(&instance, derive_seed(seed, 7));
            let adversary = AdversaryProfile::StaleReplay {
                count: (n / 100).max(1),
                delay_ticks: n as u64,
            }
            .compile(&instance, derive_seed(seed, 8));
            (fault, adversary)
        });
        Ok(HostileInputs {
            instance,
            initial,
            fault_plan,
            adversary_plan,
            ticks,
            checkpoint_every,
        })
    }

    /// Config of the hostile run `op_seed`, with or without the two planes.
    fn config(&self, op_seed: u64, planes: bool) -> SimulationConfig {
        let config = SimulationConfig::new(op_seed)
            .with_clock_model(ClockModel::GlobalUniform)
            .with_stopping_rule(StoppingRule::max_ticks(self.ticks))
            .with_max_events(2 * self.ticks);
        if planes {
            config
                .with_fault_plan(self.fault_plan.clone())
                .with_adversary_plan(self.adversary_plan.clone())
        } else {
            config
        }
    }

    /// Runs the budget once without checkpoints and returns the wall
    /// seconds of `run`.
    pub fn plain_run_seconds(&self, op_seed: u64, planes: bool) -> Result<f64> {
        let mut sim = AsyncSimulator::new(
            &self.instance.graph,
            self.initial.clone(),
            VanillaGossip::new(),
            self.config(op_seed, planes),
        )?;
        let start = Instant::now();
        black_box(sim.run()?);
        Ok(since(start))
    }
}

/// A fresh directory under `.perfbench-tmp/` in the working directory,
/// removed (with the parent, when empty) on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a directory no earlier operation used.
    pub fn fresh(tag: &str) -> Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let index = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::current_dir()?
            .join(".perfbench-tmp")
            .join(format!("{tag}-{}-{index}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Fails while another scratch directory is still alive.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One timed hostile operation.
#[derive(Debug, Clone)]
pub struct HostileRecord {
    /// Ticks of the uninterrupted run (the tick budget).
    pub ticks: u64,
    /// Time of each repeat of `AsyncSimulator::new` plus the checkpointing
    /// run, capture and commit included.
    pub run: Vec<Timed>,
    /// Time from `RunStore::open(dir, true)` to a restored simulator.
    pub resume: Timed,
    /// Length of every checkpoint line written, in order.
    pub checkpoint_lines: Vec<u64>,
    /// Size of the checkpoint log.
    pub log_bytes: u64,
    /// Tick of the checkpoint the run resumed from.
    pub resumed_from: u64,
    /// Fault counters of the uninterrupted run.
    pub dropped: u64,
    /// Contacts the fault plane classified.
    pub contacts: u64,
    /// Contacts in which an adversary's report was falsified.
    pub falsified: u64,
    /// Bits of the final variance.
    pub final_variance_bits: u64,
    /// The verdict: every repeat of the run and the restored finish are
    /// bit-identical, and both planes acted.
    pub ok: bool,
}

fn identical(a: &SimulationOutcome, b: &SimulationOutcome) -> bool {
    a.total_ticks == b.total_ticks
        && a.stop_reason == b.stop_reason
        && a.elapsed_time.to_bits() == b.elapsed_time.to_bits()
        && a.final_variance.to_bits() == b.final_variance.to_bits()
        && a.moment_refreshes == b.moment_refreshes
        && a.fault_stats == b.fault_stats
        && a.adversary_stats == b.adversary_stats
        && a.final_values.len() == b.final_values.len()
        && a.final_values
            .as_slice()
            .iter()
            .zip(b.final_values.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn checkpoint_record(
    key: TrialKey,
    checkpoint: &EngineCheckpoint,
    blob: Value,
) -> CheckpointRecord {
    CheckpointRecord {
        key,
        experiment: HOSTILE_TOKEN.to_string(),
        tick: checkpoint.tick(),
        blob,
    }
}

/// Runs the hostile budget with checkpoints into a fresh store
/// `run_repeats` times, reopens the store, restores from the newest
/// checkpoint, finishes, compares, and commits the trial row.  The runs are
/// timed against `run_speed`, the resume against `resume_speed`.
pub fn hostile_op(
    inputs: &HostileInputs,
    op_seed: u64,
    run_repeats: usize,
    run_speed: &mut Speed,
    resume_speed: &mut Speed,
    tracer: &mut Tracer,
) -> Result<HostileRecord> {
    let dir = ScratchDir::fresh("hostile")?;
    let graph = &inputs.instance.graph;
    let config = inputs
        .config(op_seed, true)
        .with_checkpoint_every_ticks(inputs.checkpoint_every);
    let fingerprint = format!("{}/{}", inputs.instance.name, inputs.ticks);
    let key = trial_key(HOSTILE_TOKEN, &fingerprint, op_seed, "perfbench");

    let mut runs = Vec::with_capacity(run_repeats);
    let mut outcomes: Vec<SimulationOutcome> = Vec::with_capacity(run_repeats);
    for _ in 0..run_repeats.max(1) {
        // A fresh store resets the log at its first commit, so every repeat
        // leaves the same log behind.
        let mut store = RunStore::open(dir.path(), false)?;
        let mut store_failure = None;
        let (outcome, run) = run_speed.time(|| -> std::result::Result<_, SimError> {
            let mut sim = AsyncSimulator::new(
                graph,
                inputs.initial.clone(),
                VanillaGossip::new(),
                config.clone(),
            )?;
            tracer.span("sim.run_checkpointed", |t| {
                sim.run_with_checkpoints(&mut |checkpoint| {
                    let blob = t.span("sim.checkpoint_encode", |_| checkpoint.to_value());
                    let record = checkpoint_record(key, &checkpoint, blob);
                    t.span("store.commit_checkpoint", |_| {
                        store.commit_checkpoint(record)
                    })
                    .map_err(|error| {
                        let reason = format!("checkpoint commit failed: {error}");
                        store_failure = Some(error);
                        SimError::InvalidConfig { reason }
                    })
                })
            })
        });
        outcomes.push(match (outcome, store_failure) {
            (Ok(outcome), _) => outcome,
            (Err(_), Some(store_error)) => return Err(store_error.into()),
            (Err(sim_error), None) => return Err(sim_error.into()),
        });
        runs.push(run);
    }
    let uninterrupted = &outcomes[0];
    let repeats_agree = outcomes.iter().all(|o| identical(uninterrupted, o));

    let log = std::fs::read(
        dir.path()
            .join(format!("{}.ckpt.jsonl", HOSTILE_TOKEN.to_lowercase())),
    )?;
    let checkpoint_lines: Vec<u64> = log
        .split(|&b| b == b'\n')
        .filter(|line| !line.is_empty())
        .map(|line| line.len() as u64)
        .collect();

    let (resumed, resume) = resume_speed.time(|| {
        tracer.span("hostile.resume", |t| -> Result<_> {
            let store = t.span("store.open_resume", |_| RunStore::open(dir.path(), true))?;
            let record = store
                .latest_checkpoint(key)
                .ok_or("the reopened store holds no checkpoint of the run")?;
            let checkpoint = t.span("sim.checkpoint_decode", |_| {
                EngineCheckpoint::from_value(&record.blob)
            })?;
            let restored = t.span("sim.restore", |_| {
                AsyncSimulator::restore(graph, VanillaGossip::new(), config.clone(), &checkpoint)
            })?;
            Ok((store, restored, checkpoint.tick()))
        })
    });
    let (mut store, mut restored, resumed_from) = resumed?;
    let finished = tracer.span("sim.finish", |_| restored.run())?;

    let fault = uninterrupted.fault_stats;
    let adversary = uninterrupted.adversary_stats;
    let ok = identical(uninterrupted, &finished)
        && repeats_agree
        && fault.dropped > 0
        && adversary.falsified_contacts > 0
        && adversary.stale_reports > 0
        && !checkpoint_lines.is_empty();
    let row = Value::Object(vec![
        (
            "ticks".into(),
            Value::Number(uninterrupted.total_ticks as f64),
        ),
        ("resumed_from".into(), Value::Number(resumed_from as f64)),
        ("dropped".into(), Value::Number(fault.dropped as f64)),
        (
            "falsified".into(),
            Value::Number(adversary.falsified_contacts as f64),
        ),
        ("identical".into(), Value::Bool(ok)),
    ]);
    tracer.span("store.commit", |_| {
        store.commit(TrialRecord {
            key,
            experiment: HOSTILE_TOKEN.to_string(),
            fingerprint,
            seed: op_seed,
            row,
        })
    })?;

    Ok(HostileRecord {
        ticks: uninterrupted.total_ticks,
        run: runs,
        resume,
        log_bytes: log.len() as u64,
        checkpoint_lines,
        resumed_from,
        dropped: fault.dropped,
        contacts: fault.total_contacts(),
        falsified: adversary.falsified_contacts,
        final_variance_bits: uninterrupted.final_variance.to_bits(),
        ok,
    })
}

// ---------------------------------------------------------------------------
// tick-pipeline probes
// ---------------------------------------------------------------------------

/// Nanoseconds per tick of the sampler alone: `GlobalTickProcess::next_tick`.
pub fn clock_ns_per_tick(graph: &Graph, seed: u64, ticks: u64) -> Result<f64> {
    let mut clock = GlobalTickProcess::new(graph, seed)?;
    let start = Instant::now();
    for _ in 0..ticks {
        black_box(clock.next_tick());
    }
    Ok(since(start) * 1e9 / ticks as f64)
}

/// Nanoseconds per tick of sampler, endpoint fetch and pairwise average:
/// `next_tick`, `Graph::edge`, `NodeValues::average_pair`.
pub fn update_ns_per_tick(
    graph: &Graph,
    initial: &NodeValues,
    seed: u64,
    ticks: u64,
) -> Result<f64> {
    let mut clock = GlobalTickProcess::new(graph, seed)?;
    let mut values = initial.clone();
    let start = Instant::now();
    for _ in 0..ticks {
        let edge = graph.edge(clock.next_tick().edge)?;
        values.average_pair(edge.u(), edge.v());
    }
    let seconds = since(start);
    black_box(values);
    Ok(seconds * 1e9 / ticks as f64)
}

/// Nanoseconds per tick of `AsyncSimulator::run` (legacy layout, vanilla
/// handler) for exactly `ticks` ticks, checking the stop rule every
/// `check_every` ticks.
pub fn engine_ns_per_tick(
    graph: &Graph,
    initial: &NodeValues,
    seed: u64,
    ticks: u64,
    check_every: u64,
) -> Result<f64> {
    let config = SimulationConfig::new(seed)
        .with_clock_model(ClockModel::GlobalUniform)
        .with_stopping_rule(StoppingRule::max_ticks(ticks))
        .with_max_events(2 * ticks)
        .with_check_every_ticks(check_every);
    let mut sim = AsyncSimulator::new(graph, initial.clone(), VanillaGossip::new(), config)?;
    let start = Instant::now();
    let outcome = sim.run()?;
    let seconds = since(start);
    Ok(seconds * 1e9 / outcome.total_ticks.max(1) as f64)
}
