//! Outside-in benchmark of the sparse-cut averaging library.
//!
//! Every workload runs the same three stages (see [`stages`]): relax,
//! estimate and hostile.  A workload names the stage it is about and runs
//! that stage at full size; the other stages run at one fixed small size, so
//! that every workload reports every metric.  Inputs are made from the
//! workload seed.
//!
//! A run first sets up all three stages several times (the median is
//! `setup_s`), then runs estimate and hostile operations closed loop, one at
//! a time, in rounds that interleave the two until the measured time is up,
//! then a few relaxations after the measured window, and checks every
//! operation's output.  With tracing on, spans recorded around the library
//! calls give the per-layer metrics instead, and extra probes split one tick
//! into its stages.

pub mod speed;
pub mod stages;
pub mod trace;

use speed::{Speed, Timed};
use stages::{
    derive_seed, estimate_pair, hostile_op, relax_f32, relax_f64, EstimateInputs, EstimateRecord,
    HostileInputs, HostileRecord, RelaxInputs, RelaxRecord,
};
use std::time::Instant;
use trace::Tracer;

/// Error type of the benchmark: any library error, reported as-is.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's estimate comparison on an in-cache dumbbell.
    PaperDumbbell,
    /// A durable run under faults and adversaries, checkpointed and resumed.
    HostileResume,
}

/// The stage a workload is about.  Relaxations are not a stage of the
/// measured rounds: no end-to-end metric comes from them, so they run after
/// the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Averaging-time estimates on an expander dumbbell.
    Estimate,
    /// Checkpointed hostile run plus resume.
    Hostile,
}

/// Sizes of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The stage that runs for the measured time.
    pub headline: Stage,
    /// Chordal-ring nodes of the relax stage.
    pub relax_n: usize,
    /// Dumbbell block size of the estimate stage.
    pub estimate_half: usize,
    /// Runs per estimate.
    pub estimate_runs: usize,
    /// Algorithm A estimates per vanilla estimate: the Algorithm A estimate
    /// is the shorter, and repeats give its statistic more samples.
    pub algo_repeats: usize,
    /// Dumbbell block size of the hostile stage.
    pub hostile_half: usize,
    /// Tick budget of the hostile stage.
    pub hostile_ticks: u64,
    /// Checkpoint cadence of the hostile stage.
    pub checkpoint_every: u64,
    /// Checkpointed runs per hostile operation (one resume each): repeats
    /// keep each timed run short and give its quartile more samples.
    pub hostile_run_repeats: usize,
    /// Operations per round of the stage that is not the headline: enough
    /// that it spends a comparable time per round.
    pub side_ops: usize,
    /// Relaxations (f64 then f32) after the measured window.
    pub relax_ops: usize,
    /// Rounds (one headline operation each) to run at least, however short
    /// the measured time.
    pub min_ops: usize,
    /// Ticks of each tick-pipeline probe (traced run only).
    pub probe_ticks: u64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
}

/// Small fixed sizes of the stages a workload is not about.
const SIDE_RELAX_N: usize = 20_000;
const SIDE_ESTIMATE_HALF: usize = 64;
const SIDE_ESTIMATE_RUNS: usize = 24;
const SIDE_HOSTILE_HALF: usize = 250;
const SIDE_HOSTILE_TICKS: u64 = 600_000;
const SIDE_CHECKPOINT_EVERY: u64 = 250_000;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperDumbbell, Workload::HostileResume];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDumbbell => "paper-dumbbell",
            Workload::HostileResume => "hostile-resume",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size profile the benchmark runs.
    pub fn profile(self) -> Profile {
        let small = |headline, side_ops, setups| Profile {
            headline,
            relax_n: SIDE_RELAX_N,
            estimate_half: SIDE_ESTIMATE_HALF,
            estimate_runs: SIDE_ESTIMATE_RUNS,
            algo_repeats: 3,
            hostile_half: SIDE_HOSTILE_HALF,
            hostile_ticks: SIDE_HOSTILE_TICKS,
            checkpoint_every: SIDE_CHECKPOINT_EVERY,
            hostile_run_repeats: 1,
            side_ops,
            relax_ops: 8,
            min_ops: 3,
            probe_ticks: 2_000_000,
            setups,
        };
        match self {
            // Set-up is dense Jacobi, ~2 s a time.
            Workload::PaperDumbbell => Profile {
                estimate_half: 256,
                estimate_runs: 16,
                ..small(Stage::Estimate, 2, 3)
            },
            // The checkpoint lands late so the restored finish is short;
            // each run is short and repeated, so that the reference around
            // it sees the host speed it ran at.  Set-up is ~0.06 s, so take
            // many.
            Workload::HostileResume => Profile {
                hostile_half: 2_500,
                hostile_ticks: 3_000_000,
                checkpoint_every: 2_400_000,
                hostile_run_repeats: 4,
                ..small(Stage::Hostile, 3, 25)
            },
        }
    }

    /// A toy profile with the same shape, for the benchmark's own test.
    pub fn toy_profile(self) -> Profile {
        Profile {
            headline: self.profile().headline,
            relax_n: 3_000,
            // Algorithm A's separation from vanilla gossip needs n ≳ 100.
            estimate_half: SIDE_ESTIMATE_HALF,
            estimate_runs: SIDE_ESTIMATE_RUNS,
            algo_repeats: 2,
            hostile_half: 40,
            hostile_ticks: 30_000,
            checkpoint_every: 10_000,
            hostile_run_repeats: 2,
            side_ops: 1,
            relax_ops: 2,
            min_ops: 2,
            probe_ticks: 20_000,
            setups: 2,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run produces.
#[derive(Debug)]
pub struct RunReport {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: host facts, computed working sets,
    /// deterministic fingerprints and, when traced, the span table.
    pub notes: Vec<String>,
    /// The recorded spans as JSON lines (empty when untraced).
    pub spans: String,
}

struct Inputs {
    relax: RelaxInputs,
    estimate: EstimateInputs,
    hostile: HostileInputs,
}

impl Inputs {
    fn build(profile: &Profile, seed: u64, tracer: &mut Tracer) -> Result<Self> {
        Ok(Inputs {
            relax: RelaxInputs::build(profile.relax_n, seed, tracer)?,
            estimate: EstimateInputs::build(profile.estimate_half, seed, tracer)?,
            hostile: HostileInputs::build(
                profile.hostile_half,
                profile.hostile_ticks,
                profile.checkpoint_every,
                seed,
                tracer,
            )?,
        })
    }
}

/// Timed records of every operation, with whether it was traced.
#[derive(Default)]
struct Records {
    relax: Vec<(RelaxRecord, RelaxRecord)>,
    estimate: Vec<(bool, EstimateRecord)>,
    hostile: Vec<(bool, HostileRecord)>,
}

impl Records {
    fn verdicts(&self) -> impl Iterator<Item = bool> + '_ {
        let relax = self.relax.iter().flat_map(|(a, b)| [a.ok, b.ok]);
        let estimate = self.estimate.iter().map(|(_, r)| r.ok);
        let hostile = self.hostile.iter().map(|(_, r)| r.ok);
        relax.chain(estimate).chain(hostile)
    }
}

/// Host-speed references, one per timed phase: the estimate keeps `jobs`
/// threads busy over its dumbbell, the hostile run one thread over its
/// dumbbell, and the resume stays in cache (so does set-up, timed against
/// its own in-cache reference).
struct Speeds {
    estimate: Speed,
    hostile_run: Speed,
    resume: Speed,
}

/// Runs operation `index` of `stage` and appends its record.
#[allow(clippy::too_many_arguments)]
fn run_op(
    stage: Stage,
    index: u64,
    traced_op: bool,
    profile: &Profile,
    seed: u64,
    jobs: usize,
    inputs: &Inputs,
    speeds: &mut Speeds,
    records: &mut Records,
    tracer: &mut Tracer,
) -> Result<()> {
    tracer.next_op();
    match stage {
        Stage::Estimate => {
            let speed = &mut speeds.estimate;
            let mut record = tracer.span("estimate.op", |t| {
                estimate_pair(
                    &inputs.estimate,
                    seed,
                    profile.estimate_runs,
                    profile.algo_repeats,
                    jobs,
                    speed,
                    t,
                )
            })?;
            // Every estimate repeats the same seeded work, so its averaging
            // times must repeat bit for bit.
            if let Some((_, first)) = records.estimate.first() {
                record.ok &= record.vanilla_t_av.to_bits() == first.vanilla_t_av.to_bits()
                    && record.algo_t_av.to_bits() == first.algo_t_av.to_bits();
            }
            records.estimate.push((traced_op, record));
        }
        Stage::Hostile => {
            let op_seed = derive_seed(seed, 200 + index);
            let record = tracer.span("hostile.op", |t| {
                hostile_op(
                    &inputs.hostile,
                    op_seed,
                    profile.hostile_run_repeats,
                    &mut speeds.hostile_run,
                    &mut speeds.resume,
                    t,
                )
            })?;
            records.hostile.push((traced_op, record));
        }
    }
    Ok(())
}

/// Median of `values` (which must be non-empty).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Mean of the faster half of `values` (which must be non-empty) without
/// its fastest tenth: the values ranked from the 10th to the 50th
/// percentile, or the smallest one when there are too few.
pub fn faster_half_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let from = sorted.len() / 10;
    let to = (sorted.len() / 2).max(from + 1);
    sorted[from..to].iter().sum::<f64>() / (to - from) as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

/// Size of the last-level cache as the kernel reports it, if it does.
fn llc_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let text = text.trim();
    let (digits, scale) = match text.strip_suffix('K') {
        Some(d) => (d, 1024),
        None => match text.strip_suffix('M') {
            Some(d) => (d, 1024 * 1024),
            None => (text, 1),
        },
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// Bytes a simulation of `graph` touches, computed from the library's
/// layouts: the graph (edge list and CSR adjacency) and, per run, the value
/// vector, the sampler's per-edge tick counters and the flat endpoint table.
fn working_set_bytes(graph: &gossip_graph::Graph) -> (usize, usize) {
    use std::mem::size_of;
    let n = graph.node_count();
    let m = graph.edge_count();
    let graph_bytes = m * size_of::<gossip_graph::Edge>()
        + 2 * m * size_of::<(gossip_graph::NodeId, gossip_graph::EdgeId)>()
        + (n + 1) * size_of::<usize>();
    let run_bytes = n * size_of::<f64>() + m * (size_of::<u64>() + size_of::<u64>());
    (graph_bytes, run_bytes)
}

/// Median over operations of each operation's summed time in spans named
/// `name`.
fn span_median(tracer: &Tracer, name: &str) -> Result<f64> {
    let per_op = tracer.per_op_seconds(name);
    if per_op.is_empty() {
        return Err(format!("no span named {name} was recorded").into());
    }
    Ok(median(&per_op))
}

/// Runs `workload` at `profile` sizes.
///
/// `seconds` is how long operations run (at least `profile.min_ops`
/// rounds); `traced` selects the traced run.
pub fn run(
    workload: Workload,
    profile: &Profile,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunReport> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tracer = Tracer::new(traced);
    let mut notes = vec![format!(
        "host nproc={jobs} llc_bytes={}",
        llc_bytes().map_or_else(|| "unknown".to_string(), |b| b.to_string())
    )];

    // Set-up, repeated; the previous repetition's inputs are dropped first
    // so the peak footprint is one set of inputs.
    let mut setup_speed = Speed::new(1, 0);
    let mut setup_times = Vec::with_capacity(profile.setups);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..profile.setups {
        drop(inputs.take());
        tracer.next_op();
        let (built, time) =
            setup_speed.time(|| tracer.span("setup", |t| Inputs::build(profile, seed, t)));
        setup_times.push(time);
        inputs = Some(built?);
    }
    let inputs = inputs.ok_or("a run sets up at least once")?;

    let mut working_sets = Vec::new();
    for (stage, graph) in [
        ("relax", &inputs.relax.instance.graph),
        ("estimate", &inputs.estimate.instance.graph),
        ("hostile", &inputs.hostile.instance.graph),
    ] {
        let (graph_bytes, run_bytes) = working_set_bytes(graph);
        notes.push(format!(
            "working set (computed) {stage}: nodes={} edges={} graph_bytes={graph_bytes} per_run_bytes={run_bytes}",
            graph.node_count(),
            graph.edge_count()
        ));
        working_sets.push(graph_bytes + run_bytes);
    }
    let mut speeds = Speeds {
        estimate: Speed::new(jobs, working_sets[1]),
        hostile_run: Speed::new(1, working_sets[2]),
        resume: Speed::new(1, 0),
    };

    // Timed operations, closed loop, in rounds until `seconds` have passed.
    // A round runs one operation of the headline stage and `side_ops`
    // operations of the other stage, so that both stages sample the whole
    // measured window.  The traced run alternates tracing off and on across
    // headline operations to measure its own overhead.
    let mut records = Records::default();
    let mut counts = [0u64; 2];
    let start = Instant::now();
    let mut round = 0;
    while round < profile.min_ops || start.elapsed().as_secs_f64() < seconds {
        for stage in [Stage::Estimate, Stage::Hostile] {
            let headline = stage == profile.headline;
            for _ in 0..if headline { 1 } else { profile.side_ops } {
                let traced_op = traced && !(headline && round % 2 == 0);
                tracer.set_enabled(traced_op);
                let index = &mut counts[stage as usize];
                run_op(
                    stage,
                    *index,
                    traced_op,
                    profile,
                    seed,
                    jobs,
                    &inputs,
                    &mut speeds,
                    &mut records,
                    &mut tracer,
                )?;
                *index += 1;
            }
        }
        round += 1;
    }
    tracer.set_enabled(traced);

    // Relaxations, for their verdicts and (traced) their per-layer times.
    for index in 0..profile.relax_ops as u64 {
        tracer.next_op();
        let op_seed = derive_seed(seed, 100 + index);
        let f64_record = tracer.span("relax.op", |t| relax_f64(&inputs.relax, op_seed, t))?;
        let f32_record = tracer.span("relax.op_f32", |t| relax_f32(&inputs.relax, op_seed, t))?;
        records.relax.push((f64_record, f32_record));
    }

    let attempted = records.verdicts().count() as u64;
    let failed = records.verdicts().filter(|ok| !ok).count() as u64;
    notes.push(fingerprint(&inputs, &records));
    notes.push(op_times(&setup_times, &records));

    let metrics = if traced {
        let metrics = per_layer(profile, seed, &inputs, &records, &mut tracer)?;
        for (name, count, total, own) in tracer.summary() {
            notes.push(format!(
                "span {name:<28} count={count:<4} total_s={total:.6} self_s={own:.6}"
            ));
        }
        metrics
    } else {
        end_to_end(&setup_times, &records)?
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name).into());
    }
    let run_id = format!("{}-{seed}-{}", workload.name(), std::process::id());
    Ok(RunReport {
        attempted,
        failed,
        metrics,
        notes,
        spans: tracer.to_json_lines(&run_id),
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// End-to-end metrics.  Every time is taken at the reference host speed
/// (see [`speed`]).  `setup_s` is the median over set-ups; every other time
/// is [`faster_half_mean`] over the run's operations, which are spread
/// evenly over the measured window.  The host alternates between a crowded
/// and an uncrowded state, and the operations timed in the crowded state
/// still read slower after scaling: the faster half holds the uncrowded
/// state whenever half of the operations ran in it, where the median would
/// flip between the two states from run to run, and dropping the fastest
/// tenth drops operations whose reference happened to run slow.
fn end_to_end(setup_times: &[Timed], records: &Records) -> Result<Vec<Metric>> {
    let scaled = |times: Vec<Timed>| -> Vec<f64> { times.iter().map(Timed::seconds).collect() };
    let vanilla = scaled(records.estimate.iter().map(|(_, r)| r.vanilla).collect());
    let algo = scaled(
        records
            .estimate
            .iter()
            .flat_map(|(_, r)| r.algo.iter().copied())
            .collect(),
    );
    let hostile_run = scaled(
        records
            .hostile
            .iter()
            .flat_map(|(_, r)| r.run.iter().copied())
            .collect(),
    );
    let resume = scaled(records.hostile.iter().map(|(_, r)| r.resume).collect());
    // Every hostile run has the same tick budget.
    let ticks = records
        .hostile
        .first()
        .ok_or("no hostile operation ran")?
        .1
        .ticks;
    Ok(vec![
        metric("setup_s", median(&scaled(setup_times.to_vec())), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
        metric("vanilla_estimate_s", faster_half_mean(&vanilla), "s"),
        metric("algo_a_estimate_s", faster_half_mean(&algo), "s"),
        metric(
            "hostile_ticks_per_s",
            ticks as f64 / faster_half_mean(&hostile_run),
            "1/s",
        ),
        metric("resume_s", faster_half_mean(&resume), "s"),
    ])
}

fn per_layer(
    profile: &Profile,
    seed: u64,
    inputs: &Inputs,
    records: &Records,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>> {
    let estimate = &inputs.estimate;
    let hostile = &inputs.hostile;

    // Probes that only the traced run makes.
    tracer.next_op();
    estimate.block_probes(tracer)?;
    let transfers = estimate.algo_a_transfers(seed)?;
    let start = Instant::now();
    tracer.span("exec.estimate_serial", |_| {
        estimate.estimate_vanilla(seed, profile.estimate_runs, 1)
    })?;
    let serial_seconds = start.elapsed().as_secs_f64();

    let (graph, probe_initial) = match profile.headline {
        Stage::Estimate => (
            &estimate.instance.graph,
            uniform(estimate.instance.graph.node_count(), seed)?,
        ),
        Stage::Hostile => (
            &hostile.instance.graph,
            uniform(hostile.instance.graph.node_count(), seed)?,
        ),
    };
    let ticks = profile.probe_ticks;
    let probe_seed = derive_seed(seed, 9);
    let clock = stages::clock_ns_per_tick(graph, probe_seed, ticks)?;
    let update = stages::update_ns_per_tick(graph, &probe_initial, probe_seed, ticks)?;
    let engine = stages::engine_ns_per_tick(graph, &probe_initial, probe_seed, ticks, 1)?;
    let engine_sparse_checks =
        stages::engine_ns_per_tick(graph, &probe_initial, probe_seed, ticks, 1024)?;
    let hostile_seed = derive_seed(seed, 10);
    let plain = hostile.plain_run_seconds(hostile_seed, false)?;
    let planes = hostile.plain_run_seconds(hostile_seed, true)?;

    let ns_per_tick = |r: &RelaxRecord| r.seconds * 1e9 / r.ticks.max(1) as f64;
    let flat_ns: Vec<f64> = records.relax.iter().map(|(r, _)| ns_per_tick(r)).collect();
    let f32_ns: Vec<f64> = records.relax.iter().map(|(_, r)| ns_per_tick(r)).collect();
    let vanilla_seconds: Vec<f64> = records
        .estimate
        .iter()
        .map(|(_, r)| r.vanilla.wall)
        .collect();
    let estimate_runs = (records.estimate.len() * profile.estimate_runs) as f64;
    let vanilla_confirmed: usize = records
        .estimate
        .iter()
        .map(|(_, r)| r.vanilla_confirmed)
        .sum();
    let algo_confirmed: usize = records.estimate.iter().map(|(_, r)| r.algo_confirmed).sum();
    let first_relax = &records.relax.first().ok_or("no relax operation ran")?.0;
    let first_hostile = &records.hostile.first().ok_or("no hostile operation ran")?.1;
    let open_resume = span_median(tracer, "store.open_resume")?;

    // Tracing overhead: headline operations alternate untraced and traced.
    let op_seconds = |traced_op: bool| -> Vec<f64> {
        match profile.headline {
            Stage::Estimate => records
                .estimate
                .iter()
                .filter(|r| r.0 == traced_op)
                .map(|(_, r)| r.vanilla.wall + r.algo.iter().map(|t| t.wall).sum::<f64>())
                .collect(),
            Stage::Hostile => records
                .hostile
                .iter()
                .filter(|r| r.0 == traced_op)
                .map(|(_, r)| r.run.iter().map(|t| t.wall).sum::<f64>() + r.resume.wall)
                .collect(),
        }
    };
    let (traced_ops, untraced_ops) = (op_seconds(true), op_seconds(false));
    if traced_ops.is_empty() || untraced_ops.is_empty() {
        return Err("the traced run needs at least two headline operations".into());
    }

    Ok(vec![
        metric(
            "workloads.instantiate_s",
            span_median(tracer, "workloads.instantiate")?,
            "s",
        ),
        metric(
            "workloads.initial_s",
            span_median(tracer, "workloads.initial")?,
            "s",
        ),
        metric(
            "workloads.plan_compile_s",
            span_median(tracer, "workloads.plan_compile")?,
            "s",
        ),
        metric("graph.nodes", graph.node_count() as f64, "count"),
        metric("graph.edges", graph.edge_count() as f64, "count"),
        metric(
            "graph.induced_subgraph_s",
            span_median(tracer, "graph.induced_subgraph")?,
            "s",
        ),
        metric(
            "graph.spectral_s",
            span_median(tracer, "graph.spectral")?,
            "s",
        ),
        metric(
            "graph.spectral_dense_blocks",
            estimate.dense_blocks() as f64,
            "count",
        ),
        metric("linalg.eigen_s", span_median(tracer, "linalg.eigen")?, "s"),
        metric(
            "core.algo_a_build_s",
            span_median(tracer, "core.algo_a_build")?,
            "s",
        ),
        metric(
            "core.algo_a_epoch_ticks",
            estimate.algo.epoch_ticks() as f64,
            "count",
        ),
        metric("core.algo_a_transfers", transfers as f64, "count"),
        metric(
            "core.vanilla_confirmed_ratio",
            vanilla_confirmed as f64 / estimate_runs,
            "ratio",
        ),
        metric(
            "core.algo_a_confirmed_ratio",
            algo_confirmed as f64 / estimate_runs,
            "ratio",
        ),
        metric("exec.estimate_serial_s", serial_seconds, "s"),
        metric(
            "exec.speedup",
            serial_seconds / median(&vanilla_seconds),
            "ratio",
        ),
        metric("sim.new_s", span_median(tracer, "sim.new")?, "s"),
        metric("sim.clock_ns_per_tick", clock, "ns"),
        metric("sim.update_ns_per_tick", update, "ns"),
        metric("sim.engine_ns_per_tick", engine, "ns"),
        metric(
            "sim.stop_check_ns_per_tick",
            engine - engine_sparse_checks,
            "ns",
        ),
        metric("sim.flat_ns_per_tick", median(&flat_ns), "ns"),
        metric("sim.f32_ns_per_tick", median(&f32_ns), "ns"),
        metric(
            "sim.moment_refreshes",
            first_relax.moment_refreshes as f64,
            "count",
        ),
        metric(
            "sim.hostile_overhead_ns_per_tick",
            (planes - plain) * 1e9 / hostile.ticks as f64,
            "ns",
        ),
        metric(
            "sim.fault_drop_ratio",
            first_hostile.dropped as f64 / first_hostile.contacts.max(1) as f64,
            "ratio",
        ),
        metric(
            "sim.adversary_falsified",
            first_hostile.falsified as f64,
            "count",
        ),
        metric(
            "sim.checkpoints",
            first_hostile.checkpoint_lines.len() as f64,
            "count",
        ),
        metric(
            "sim.checkpoint_bytes",
            first_hostile.checkpoint_lines.last().copied().unwrap_or(0) as f64,
            "bytes",
        ),
        metric(
            "sim.checkpoint_encode_s",
            span_median(tracer, "sim.checkpoint_encode")?,
            "s",
        ),
        metric(
            "sim.checkpoint_decode_s",
            span_median(tracer, "sim.checkpoint_decode")?,
            "s",
        ),
        metric("sim.restore_s", span_median(tracer, "sim.restore")?, "s"),
        metric(
            "store.commit_checkpoint_s",
            span_median(tracer, "store.commit_checkpoint")?,
            "s",
        ),
        metric("store.commit_s", span_median(tracer, "store.commit")?, "s"),
        metric("store.log_bytes", first_hostile.log_bytes as f64, "bytes"),
        metric("store.open_resume_s", open_resume, "s"),
        metric(
            "store.load_mb_per_s",
            first_hostile.log_bytes as f64 / 1e6 / open_resume,
            "MB/s",
        ),
        metric(
            "trace.overhead_ratio",
            median(&traced_ops) / median(&untraced_ops),
            "ratio",
        ),
    ])
}

fn uniform(n: usize, seed: u64) -> Result<gossip_sim::NodeValues> {
    Ok(
        gossip_workloads::InitialCondition::Uniform { lo: -1.0, hi: 1.0 }.generate(
            n,
            None,
            derive_seed(seed, 11),
        )?,
    )
}

/// The deterministic outputs of the run, for exact comparison across
/// commits: a change that moves any of these changed a stream.  How many
/// operations fit in the measured window depends on timing, so only the
/// relaxations (a fixed count), the first estimate (every repeat must match
/// it bit for bit) and the first hostile operation are listed.
fn fingerprint(inputs: &Inputs, records: &Records) -> String {
    let list = |values: Vec<String>| format!("[{}]", values.join(","));
    let relax_ticks = list(
        records
            .relax
            .iter()
            .map(|(r, _)| r.ticks.to_string())
            .collect(),
    );
    let relax_ratio = list(
        records
            .relax
            .iter()
            .map(|(r, _)| format!("\"{:016x}\"", r.ratio_bits))
            .collect(),
    );
    let f32_ticks = list(
        records
            .relax
            .iter()
            .map(|(_, r)| r.ticks.to_string())
            .collect(),
    );
    let t_av = list(
        records
            .estimate
            .iter()
            .take(1)
            .map(|(_, r)| {
                format!(
                    "[\"{:016x}\",\"{:016x}\"]",
                    r.vanilla_t_av.to_bits(),
                    r.algo_t_av.to_bits()
                )
            })
            .collect(),
    );
    let hostile = list(
        records
            .hostile
            .iter()
            .take(1)
            .map(|(_, r)| {
                format!(
                    "{{\"ticks\":{},\"resumed_from\":{},\"checkpoint_lines\":{},\"log_bytes\":{},\"dropped\":{},\"contacts\":{},\"falsified\":{},\"final_variance\":\"{:016x}\"}}",
                    r.ticks,
                    r.resumed_from,
                    list(r.checkpoint_lines.iter().map(u64::to_string).collect()),
                    r.log_bytes,
                    r.dropped,
                    r.contacts,
                    r.falsified,
                    r.final_variance_bits
                )
            })
            .collect(),
    );
    format!(
        "fingerprint {{\"relax_ticks\":{relax_ticks},\"relax_ratio_bits\":{relax_ratio},\"f32_ticks\":{f32_ticks},\"epoch_ticks\":{},\"t_av_bits\":{t_av},\"hostile\":{hostile}}}",
        inputs.estimate.algo.epoch_ticks()
    )
}

/// Wall seconds and reference-kernel seconds of every set-up and
/// operation, in order, for reading how the host's speed drifted.
fn op_times(setup_times: &[Timed], records: &Records) -> String {
    let list = |times: Vec<Timed>| {
        let parts: Vec<String> = times
            .iter()
            .map(|t| format!("{:.6}/{:.6}", t.wall, t.reference))
            .collect();
        format!("[{}]", parts.join(","))
    };
    format!(
        "op_seconds wall/reference setup={} vanilla={} algo_a={} hostile_run={} resume={}",
        list(setup_times.to_vec()),
        list(records.estimate.iter().map(|(_, r)| r.vanilla).collect()),
        list(
            records
                .estimate
                .iter()
                .flat_map(|(_, r)| r.algo.iter().copied())
                .collect()
        ),
        list(
            records
                .hostile
                .iter()
                .flat_map(|(_, r)| r.run.iter().copied())
                .collect()
        ),
        list(records.hostile.iter().map(|(_, r)| r.resume).collect()),
    )
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn result_line(report: &RunReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_half_mean_skips_the_fastest_tenth_and_the_slower_half() {
        let values: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        // Ranks 2..10 of 20: the values 3 to 10.
        assert_eq!(faster_half_mean(&values), 6.5);
        assert_eq!(faster_half_mean(&[4.0]), 4.0);
        assert_eq!(faster_half_mean(&[5.0, 3.0]), 3.0);
    }
}
