//! Machine-speed calibration, and pinning the benchmark to one CPU.
//!
//! The small virtual machines this benchmark runs on change speed from
//! second to second: a fixed register-only loop runs 6.4–8.2 ms on the same
//! vCPU within half a minute, with no steal reported. Timed phases
//! therefore interleave their operations with a fixed calibration kernel on
//! the same CPU, and report each operation's time scaled to the speed at
//! which the kernel takes [`REFERENCE_NS`]. The kernel is the benchmark's
//! own code, so no change to the workspace can speed it up or slow it
//! down.

use std::time::Instant;

/// Time the calibration kernel takes on the reference machine (2 vCPUs of
/// an x86-64 virtual machine at 2.1 GHz), in ns.
pub const REFERENCE_NS: f64 = 3.2e6;

/// Instructions of the kernel's stack machine.
#[derive(Clone, Copy)]
enum Op {
    Load(usize),
    Const(f64),
    Add,
    Mul,
    Sub,
    /// Pops `b`, `a`; pushes `a` if `a < b`, else `b`.
    Min,
}

/// A three-species epidemic drift spelled as stack programs, one per
/// coordinate: interpreted rate evaluation, like the workspace's rate VM,
/// without sharing a line of it.
const PROGRAMS: [&[Op]; 3] = [
    &[
        Op::Const(0.0),
        Op::Load(0),
        Op::Load(1),
        Op::Mul,
        Op::Const(2.5),
        Op::Mul,
        Op::Sub,
        Op::Load(2),
        Op::Const(0.1),
        Op::Mul,
        Op::Add,
    ],
    &[
        Op::Load(0),
        Op::Load(1),
        Op::Mul,
        Op::Const(2.5),
        Op::Mul,
        Op::Load(1),
        Op::Const(1.0),
        Op::Min,
        Op::Const(0.8),
        Op::Mul,
        Op::Sub,
    ],
    &[
        Op::Load(1),
        Op::Const(0.8),
        Op::Mul,
        Op::Load(2),
        Op::Const(0.1),
        Op::Mul,
        Op::Sub,
    ],
];

fn eval(program: &[Op], x: &[f64], stack: &mut Vec<f64>) -> f64 {
    stack.clear();
    for op in program {
        match *op {
            Op::Load(i) => stack.push(x[i]),
            Op::Const(c) => stack.push(c),
            Op::Add | Op::Mul | Op::Sub | Op::Min => {
                let b = stack.pop().unwrap_or(0.0);
                let a = stack.pop().unwrap_or(0.0);
                stack.push(match *op {
                    Op::Add => a + b,
                    Op::Mul => a * b,
                    Op::Sub => a - b,
                    _ => a.min(b),
                });
            }
        }
    }
    stack.pop().unwrap_or(0.0)
}

fn drift(x: &[f64; 3], dx: &mut [f64; 3], stack: &mut Vec<f64>) {
    for (d, program) in dx.iter_mut().zip(PROGRAMS) {
        *d = eval(program, x, stack);
    }
}

/// RK4 steps of one kernel call.
const STEPS: usize = 9_000;

/// The calibration kernel: a fixed RK4 integration of [`PROGRAMS`].
/// Returns the final state's sum, so the work cannot be optimised away.
/// Never inlined, so its code does not move with its callers.
#[must_use]
#[inline(never)]
pub fn kernel() -> f64 {
    let h = 1e-3;
    let mut x = [0.99, 0.01, 0.0];
    let mut stack = Vec::with_capacity(8);
    let (mut k1, mut k2, mut k3, mut k4) = ([0.0; 3], [0.0; 3], [0.0; 3], [0.0; 3]);
    let stage = |x: &[f64; 3], k: &[f64; 3], a: f64| std::array::from_fn(|i| x[i] + a * h * k[i]);
    for _ in 0..STEPS {
        drift(&x, &mut k1, &mut stack);
        drift(&stage(&x, &k1, 0.5), &mut k2, &mut stack);
        drift(&stage(&x, &k2, 0.5), &mut k3, &mut stack);
        drift(&stage(&x, &k3, 1.0), &mut k4, &mut stack);
        for i in 0..3 {
            x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
    x.iter().sum()
}

/// Runs the kernel once and returns its wall time in ns.
#[must_use]
pub fn measure() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_nanos() as f64
}

/// Factor that turns a time measured next to `calibration_ns` of kernel
/// time into reference time.
#[must_use]
pub fn scale(calibration_ns: f64) -> f64 {
    REFERENCE_NS / calibration_ns
}

/// Runs `make` `count` times, tearing down all but the last result, and
/// returns the last result with the median set-up time in seconds, each
/// set-up scaled by the mean of the calibrations on either side of it.
///
/// # Errors
///
/// Returns the first failure of `make` or `teardown`.
pub fn setups<S>(
    count: usize,
    mut make: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S) -> Result<(), String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(count);
    let mut before = measure();
    loop {
        let start = Instant::now();
        let setup = make()?;
        let seconds = start.elapsed().as_secs_f64();
        let after = measure();
        times.push(seconds * scale((before + after) / 2.0));
        before = after;
        if times.len() >= count {
            return Ok((setup, crate::stats::median(&mut times)));
        }
        teardown(setup)?;
    }
}

/// Prints the median of a run's calibrations beside the reference, so the
/// unscaled times can be recovered from the report.
pub fn print_summary(calibrations: &[f64]) {
    let mut sorted = calibrations.to_vec();
    println!(
        "  calibration median {:.4} ms over {} runs (reference {:.4} ms)",
        crate::stats::median(&mut sorted) / 1e6,
        sorted.len(),
        REFERENCE_NS / 1e6,
    );
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on, so that an operation and the
/// calibration next to it share one CPU. Returns that CPU, or `None` where
/// the affinity cannot be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer, and pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer, and pid 0 is
    // the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        let x = kernel();
        assert!(x.is_finite());
        assert_eq!(x.to_bits(), kernel().to_bits());
        assert!(measure() > 0.0);
    }
}
