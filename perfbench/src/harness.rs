//! Pass accounting shared by every workload: timed calls, artifact
//! checks, panics counted as failed passes, and the runner and memory
//! readings taken from outside the program.

use std::any::Any;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Every pass a run attempted, the wall of each one that passed its
/// check, and a line per failure.
#[derive(Debug, Default)]
pub struct Passes {
    /// Passes attempted (warm-up and untimed reference passes included).
    pub attempted: u64,
    /// Passes that panicked or whose artifact did not match.
    pub failed: u64,
    /// One line per failed pass.
    pub problems: Vec<String>,
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl Passes {
    /// Times `call`, then checks its output with `check` outside the
    /// timed interval. Returns the wall in seconds and what the check
    /// extracted, or `None` (counted as failed) on a panic or mismatch.
    pub fn run<T, U>(
        &mut self,
        label: &str,
        call: impl FnOnce() -> T,
        check: impl FnOnce(T) -> Result<U, String>,
    ) -> Option<(f64, U)> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let t0 = Instant::now();
            let out = black_box(call());
            let wall = t0.elapsed().as_secs_f64();
            check(out).map(|u| (wall, u))
        }));
        let problem = match outcome {
            Ok(Ok(done)) => return Some(done),
            Ok(Err(mismatch)) => format!("{label}: {mismatch}"),
            Err(payload) => format!("{label}: panicked: {}", panic_message(payload.as_ref())),
        };
        self.failed += 1;
        self.problems.push(problem);
        None
    }

    /// Records a failure found after the passes ran (a cross-check
    /// between passes, or against a reference built afterwards).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Repeats `pass` until `budget` has elapsed and at least `min`
    /// passes ran, collecting what each successful pass returned.
    pub fn repeat<U>(
        &mut self,
        budget: Duration,
        min: usize,
        mut pass: impl FnMut(&mut Passes) -> Option<U>,
    ) -> Vec<U> {
        let start = Instant::now();
        let mut out = Vec::new();
        let mut tries = 0;
        while tries < min || start.elapsed() < budget {
            tries += 1;
            if let Some(u) = pass(self) {
                out.push(u);
            }
        }
        out
    }
}

/// Busy time per pool worker for one parallel pass, from per-item
/// `(worker thread, busy ns)` records.
#[derive(Debug, Clone, Copy)]
pub struct RunnerStats {
    /// `(jobs × wall − Σ item busy) / (jobs × wall)`.
    pub idle_frac: f64,
    /// Busiest worker's busy time over the mean worker's.
    pub imbalance: f64,
}

impl RunnerStats {
    /// Folds item records from a pass of `wall_ns` over `jobs` workers.
    #[must_use]
    pub fn from_items(jobs: usize, wall_ns: u64, items: &[(ThreadId, u64)]) -> RunnerStats {
        let mut workers: Vec<(ThreadId, u64)> = Vec::new();
        for &(id, busy) in items {
            match workers.iter_mut().find(|(w, _)| *w == id) {
                Some((_, total)) => *total += busy,
                None => workers.push((id, busy)),
            }
        }
        let jobs = jobs.max(workers.len());
        let busy: u64 = workers.iter().map(|(_, b)| b).sum();
        let max = workers.iter().map(|(_, b)| *b).max().unwrap_or(0);
        let capacity = jobs as f64 * wall_ns as f64;
        RunnerStats {
            idle_frac: (capacity - busy as f64) / capacity,
            imbalance: max as f64 / (busy as f64 / jobs as f64),
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("unparsable VmHWM line `{line}`: {e}"))?;
    Ok(kb / 1024.0)
}

/// Nanoseconds elapsed since `t0`.
#[must_use]
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}
