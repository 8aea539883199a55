//! Host-speed reference for the end-to-end times.
//!
//! The benchmark runs on shared virtual machines whose speed can change by
//! 1.5–2.5× within seconds and stay changed for minutes, with nothing in the
//! machine itself to show it.  No run length averages that out.  So every
//! timed phase is bracketed by a fixed reference kernel, owned by the
//! benchmark and independent of the library: random pairwise averages over
//! a table, the same mix of integer hashing, loads and f64 arithmetic as a
//! gossip tick, then formatting short hex strings into fresh allocations,
//! the same kind of work as encoding and parsing a checkpoint.  The table is
//! as large as the phase's working set, so that it sits at the same level
//! of the cache hierarchy and slows down with it when other tenants crowd
//! that level.  A phase's reported time is its wall
//! time scaled by `REFERENCE_SECONDS / reference`, where `reference` is the
//! kernel's time around the phase: the seconds the phase would take at the
//! host speed the constant was taken at.  A change to the library moves the
//! phase and not the kernel, so it moves the scaled time in full.

use std::hint::black_box;
use std::time::Instant;

/// Smallest table: 256 KiB, the reference of phases that stay in cache.
pub const MIN_TABLE_BYTES: usize = 256 << 10;
/// Pairwise averages per kernel run.
const ROUNDS: u32 = 300_000;
/// Strings formatted and allocated per kernel run.
const STRINGS: u64 = 3_000;
/// Kernel runs per sample; the sample is their median.
const RUNS: usize = 7;
/// The kernel's time at the reference speed: its time with the smallest
/// table on a 2.0 GHz Xeon vCPU in the host's uncrowded state.  It only sets
/// the scale of the reported numbers: in-cache phases read as their wall
/// seconds on that host, phases with a larger table somewhat less, since
/// their kernel runs longer.
pub const REFERENCE_SECONDS: f64 = 0.001;

/// The reference kernel and its table.
pub struct Speed {
    table: Vec<f64>,
    threads: usize,
}

/// A phase's wall time together with the reference around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall seconds of the phase.
    pub wall: f64,
    /// Reference kernel seconds, the mean of the samples before and after.
    pub reference: f64,
}

impl Timed {
    /// Wall seconds at the reference speed.
    pub fn seconds(&self) -> f64 {
        self.wall * REFERENCE_SECONDS / self.reference
    }
}

impl Speed {
    /// A reference for a phase that keeps `threads` threads busy and
    /// touches `working_set` bytes: it samples on as many threads at once,
    /// each over a table of at least that size (a power of two).
    pub fn new(threads: usize, working_set: usize) -> Self {
        let slots = (working_set.max(MIN_TABLE_BYTES) / 8).next_power_of_two();
        Speed {
            table: table(slots),
            threads: threads.max(1),
        }
    }

    /// Seconds of one kernel run: the median of `RUNS` runs, averaged over
    /// the threads.
    pub fn sample(&mut self) -> f64 {
        if self.threads == 1 {
            return kernel_median(&mut self.table);
        }
        let per_thread: Vec<f64> = std::thread::scope(|scope| {
            let slots = self.table.len();
            let workers: Vec<_> = (1..self.threads)
                .map(|_| scope.spawn(move || kernel_median(&mut table(slots))))
                .collect();
            let mut times = vec![kernel_median(&mut self.table)];
            times.extend(
                workers
                    .into_iter()
                    .map(|w| w.join().expect("the reference kernel does not panic")),
            );
            times
        });
        per_thread.iter().sum::<f64>() / per_thread.len() as f64
    }

    /// Runs `phase`, timing it and sampling the reference before and after.
    pub fn time<T>(&mut self, phase: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.sample();
        let start = Instant::now();
        let value = phase();
        let wall = start.elapsed().as_secs_f64();
        let after = self.sample();
        let reference = 0.5 * (before + after);
        (value, Timed { wall, reference })
    }
}

fn table(slots: usize) -> Vec<f64> {
    (0..slots).map(|i| i as f64).collect()
}

fn kernel_median(table: &mut [f64]) -> f64 {
    let mut times = [0.0; RUNS];
    for time in &mut times {
        *time = kernel(table);
    }
    crate::median(&times)
}

/// One kernel run: `ROUNDS` splitmix64 draws, each averaging two slots,
/// then `STRINGS` hex strings, each in its own allocation.
fn kernel(table: &mut [f64]) -> f64 {
    let mask = (table.len() - 1) as u64;
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let a = (z & mask) as usize;
        let b = ((z >> 32) & mask) as usize;
        let mean = 0.5 * (table[a] + table[b]);
        table[a] = mean;
        table[b] = mean;
    }
    black_box(&table);
    let strings: Vec<String> = (0..STRINGS)
        .map(|i| format!("{:016x}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    black_box(strings);
    start.elapsed().as_secs_f64()
}
