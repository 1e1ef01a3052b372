//! Thread placement: confining a workload's threads to one core.
//!
//! The sharded DES puts its threads to sleep and wakes them at every
//! barrier window. On this sandbox a window costs 29 µs with the three
//! threads on one core and 55–80 µs once they spread over both virtual
//! cores — a wake-up of the other core goes through the hypervisor —
//! and the second figure drifts by a quarter over minutes with the
//! host's load. Confined to one core, the sharded workload reads the
//! window protocol's own cost and nothing of the host's.

// The C library `std` already links; no crate is needed for two calls.
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Cores a mask can name: the size of glibc's `cpu_set_t`.
const MASK_BITS: usize = 1024;

/// The core the calling thread is running on.
pub fn current_core() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    let core = unsafe { sched_getcpu() };
    usize::try_from(core).map_err(|_| "sched_getcpu failed".to_owned())
}

/// Confines the calling thread to the core it is running on. Threads
/// it spawns afterwards inherit the confinement; threads that already
/// exist are not affected. Returns the core.
pub fn pin_to_current_core() -> Result<usize, String> {
    let core = current_core()?;
    if core >= MASK_BITS {
        return Err(format!("core {core} is beyond a {MASK_BITS}-bit mask"));
    }
    let mut mask = [0u64; MASK_BITS / 64];
    mask[core / 64] |= 1 << (core % 64);
    // SAFETY: `mask` is a live array of exactly the `cpusetsize` bytes
    // passed, which the call only reads; pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status != 0 {
        return Err(format!(
            "sched_setaffinity to core {core} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(core)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawned_threads_inherit_the_one_core() {
        // In a thread of its own: the confinement must not leak into
        // the test harness's other threads.
        std::thread::spawn(|| {
            let core = pin_to_current_core().unwrap();
            assert_eq!(current_core(), Ok(core));
            let allowed = || {
                let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
                let line = status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
                line.unwrap().trim().to_owned()
            };
            assert_eq!(allowed(), core.to_string());
            let child = std::thread::spawn(move || (allowed(), current_core()));
            assert_eq!(child.join().unwrap(), (core.to_string(), Ok(core)));
        })
        .join()
        .unwrap();
    }
}
