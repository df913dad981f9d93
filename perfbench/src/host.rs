//! Host-speed normalization for the end-to-end times.
//!
//! On a shared virtual host the same pass can take a third longer a
//! minute later: the speed of the whole machine drifts while the program
//! does not change. The untraced run therefore interleaves a fixed
//! reference kernel — benchmark code the program never runs — between
//! its timed units, and scales its times by how fast the kernel ran over
//! the run. A change to the program moves the scaled time exactly as it
//! moves the raw one; a change in host speed moves both the program and
//! the kernel and cancels out. Raw times are printed beside every scaled
//! figure.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's wall on the host the baseline was recorded
/// on; a scaled time reads as host seconds at that speed.
pub const REFERENCE_S: f64 = 0.006;

/// One thread's share of the kernel: generate, sort and index a block of
/// pseudo-random keys — allocation, branchy compute and pointer chasing,
/// the mix the simulator itself runs.
fn kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut keys: Vec<u64> = (0..1 << 16)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        })
        .collect();
    keys.sort_unstable();
    let index: BTreeMap<u64, usize> = keys
        .iter()
        .enumerate()
        .step_by(7)
        .map(|(i, k)| (*k, i))
        .collect();
    keys.iter()
        .step_by(13)
        .filter_map(|k| index.get(k))
        .sum::<usize>() as u64
        + keys[100]
}

/// Runs the kernel on `jobs` threads at once (the pools' width, so every
/// core the workload uses is sampled); returns the threads' mean time in
/// seconds, each timed inside its own thread so spawn latency and
/// waiting on the slower thread stay out of the reading.
#[must_use]
pub fn kernel_s(jobs: usize) -> f64 {
    let total: f64 = std::thread::scope(|s| {
        let threads: Vec<_> = (0..jobs as u64)
            .map(|t| {
                s.spawn(move || {
                    let t0 = Instant::now();
                    for rep in 0..3 {
                        black_box(kernel(black_box(t * 16 + rep)));
                    }
                    t0.elapsed().as_secs_f64()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().expect("the reference kernel does not panic"))
            .sum()
    });
    total / jobs as f64
}

/// Host-speed readings taken between a run's timed units.
pub struct HostSpeed {
    jobs: usize,
    /// Every kernel wall measured, in seconds.
    pub kernels: Vec<f64>,
}

impl HostSpeed {
    /// No readings yet; the kernel will run on `jobs` threads.
    #[must_use]
    pub fn new(jobs: usize) -> HostSpeed {
        HostSpeed {
            jobs,
            kernels: Vec::new(),
        }
    }

    /// Takes `readings` readings.
    pub fn read(&mut self, readings: usize) {
        for _ in 0..readings {
            self.kernels.push(kernel_s(self.jobs));
        }
    }

    /// The run's mean kernel wall.
    #[must_use]
    pub fn kernel(&self) -> f64 {
        self.kernels.iter().sum::<f64>() / self.kernels.len() as f64
    }

    /// The factor that scales a host time measured during this run to
    /// reference host speed: the reference kernel wall over the run's
    /// median one. The median over the whole run, not the reading next
    /// to a unit: one short reading is noisier than the drift it tracks.
    #[must_use]
    pub fn factor(&self) -> f64 {
        REFERENCE_S / self.kernel()
    }
}
