//! Host-speed calibration. While a child runs, a probe thread in the
//! parent process runs a fixed kernel at a low duty cycle and records
//! the thread CPU time of each pass. The parent rescales the child's
//! time metrics by the mean pass time, so a change in the machine's
//! speed does not read as a change in the program.

use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Thread CPU seconds one probe pass takes on the reference host, a
/// 2-vCPU Xeon VM at 2.1 GHz, with a paper-scale workload running
/// beside it.
pub const PROBE_REF_S: f64 = 0.0025;

/// Pause between probe passes: one pass in about forty, so the probe
/// takes about 1% of a two-CPU host from the child.
const PROBE_GAP: Duration = Duration::from_millis(100);

/// Thread CPU time of the calling thread, seconds.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// A fixed kernel that touches none of the program's code, shaped like
/// the workloads' hot loops: a small dense floating-point layer with a
/// rational squash (predictor training and scoring) and dependent
/// probes into a 256 KiB table (the match and lease bookkeeping). Its
/// working set stays in the core's caches.
struct Kernel {
    weights: Vec<f64>,
    input: Vec<f64>,
    table: Vec<u64>,
    x: u64,
}

const WIDTH: usize = 48;
const SLOTS: usize = 1 << 15;
const ROUNDS: usize = 600;

impl Kernel {
    fn new() -> Self {
        Self {
            weights: (0..WIDTH * WIDTH)
                .map(|i| ((i * 7919 % 1000) as f64 - 500.0) * 1e-3)
                .collect(),
            input: (0..WIDTH).map(|i| i as f64 * 1e-2).collect(),
            table: vec![0; SLOTS],
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn pass(&mut self) {
        for _ in 0..ROUNDS {
            let mut out = [0.0f64; WIDTH];
            for (r, o) in out.iter_mut().enumerate() {
                let row = &self.weights[r * WIDTH..(r + 1) * WIDTH];
                let s: f64 = row.iter().zip(&self.input).map(|(w, v)| w * v).sum();
                *o = s / (1.0 + s.abs());
            }
            for (r, o) in out.iter().enumerate() {
                self.weights[r * WIDTH + (r * 5) % WIDTH] += 1e-6 * o;
            }
            self.input.copy_from_slice(&out);
            for _ in 0..256 {
                self.x = self
                    .x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let j = (self.x >> 40) as usize & (SLOTS - 1);
                let k = (self.table[j] ^ self.x) as usize & (SLOTS - 1);
                if self.table[k] & 1 == 0 {
                    self.table[j] = self.table[j].wrapping_add(self.x);
                } else {
                    self.table[k] ^= self.x >> 7;
                }
            }
        }
        std::hint::black_box(&self.input);
    }
}

/// The probe thread running beside one child.
///
/// Passes are timed in thread CPU time, not wall time: the child keeps
/// both CPUs busy, so the probe waits for a CPU, and that wait says
/// nothing about the machine's speed. What the pass time does track is
/// how fast the CPU runs while the child runs, which on a shared host
/// drifts by tens of percent within seconds. A kernel timed only
/// between children misses that drift.
pub struct Probe {
    stop: Sender<()>,
    thread: JoinHandle<(f64, usize)>,
}

impl Probe {
    /// Starts probing.
    #[must_use]
    pub fn start() -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            let mut kernel = Kernel::new();
            kernel.pass(); // warms caches; not counted
            let (mut total, mut passes) = (0.0, 0);
            loop {
                let start = thread_cpu_s();
                kernel.pass();
                total += thread_cpu_s() - start;
                passes += 1;
                match stopped.recv_timeout(PROBE_GAP) {
                    Err(RecvTimeoutError::Timeout) => {}
                    _ => break,
                }
            }
            (total, passes)
        });
        Self { stop, thread }
    }

    /// Stops probing and returns the mean pass time, seconds.
    #[must_use]
    pub fn finish(self) -> f64 {
        drop(self.stop);
        let (total, passes) = self.thread.join().expect("probe thread panicked");
        total / passes as f64
    }
}

/// Rescales metric values by `speed` (reference pass time over the
/// measured one) according to their units: times (`s`, `us`) are
/// multiplied, rates (`1/s`) divided, everything else is left alone.
pub fn rescale(values: &mut BTreeMap<String, f64>, units: &[(&str, &str)], speed: f64) {
    for (name, unit) in units {
        if let Some(v) = values.get_mut(*name) {
            match *unit {
                "s" | "us" => *v *= speed,
                "1/s" => *v /= speed,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescale_scales_times_and_rates_only() {
        let mut v = BTreeMap::from([
            ("wall_s".to_string(), 2.0),
            ("rate".to_string(), 10.0),
            ("calls".to_string(), 7.0),
        ]);
        rescale(
            &mut v,
            &[("wall_s", "s"), ("rate", "1/s"), ("calls", "count")],
            0.5,
        );
        assert_eq!((v["wall_s"], v["rate"], v["calls"]), (1.0, 20.0, 7.0));
    }

    #[test]
    fn probe_reports_a_positive_pass_time() {
        let probe = Probe::start();
        std::thread::sleep(Duration::from_millis(20));
        let pass = probe.finish();
        assert!(pass > 0.0 && pass.is_finite(), "{pass}");
    }
}
