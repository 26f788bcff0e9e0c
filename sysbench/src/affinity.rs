//! CPU placement for the serve workloads: the system under test and the
//! load generator get disjoint halves of the allowed CPUs.
//!
//! On a two-vCPU box the request path is a chain of six thread wake-ups.
//! Left to the scheduler, each of them is a same-CPU context switch or a
//! cross-CPU interrupt depending on where the threads happen to sit, which
//! moved the median latency by half from one run to the next. With the
//! server confined to its CPUs every wake-up inside it is of one kind, every
//! client/server wake-up of the other, and the generator no longer takes
//! cycles from the server it is measuring.
//!
//! The standard library has no affinity call, so this module declares the
//! two libc functions it needs (libc is already linked by `std`). Off Linux
//! nothing is pinned.

/// Words in a kernel CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on (empty when unknown).
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1u64 << (cpu % 64)) != 0)
        .collect()
}

/// Confines the calling thread — and every thread or process it creates
/// afterwards — to `cpus`. Returns whether the kernel accepted the mask.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|c| **c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1u64 << (cpu % 64);
    }
    if mask.iter().all(|w| *w == 0) {
        return false;
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpus: &[usize]) -> bool {
    false
}

/// Which CPUs the server and the generator run on.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuPlan {
    pub all: Vec<usize>,
    pub server: Vec<usize>,
    pub generator: Vec<usize>,
}

impl CpuPlan {
    /// Splits `allowed` in half; with fewer than two CPUs both sides share.
    pub fn split(allowed: Vec<usize>) -> Self {
        let half = allowed.len() / 2;
        let (server, generator) = if half == 0 {
            (allowed.clone(), allowed.clone())
        } else {
            (allowed[..half].to_vec(), allowed[half..].to_vec())
        };
        Self {
            all: allowed,
            server,
            generator,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_gives_each_side_its_own_cpus() {
        let plan = CpuPlan::split(vec![0, 1]);
        assert_eq!((plan.server, plan.generator), (vec![0], vec![1]));
        let plan = CpuPlan::split(vec![2, 3, 4, 5, 6]);
        assert_eq!((plan.server, plan.generator), (vec![2, 3], vec![4, 5, 6]));
        let plan = CpuPlan::split(vec![7]);
        assert_eq!((plan.server, plan.generator), (vec![7], vec![7]));
        assert!(CpuPlan::split(Vec::new()).server.is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_narrows_and_restores_the_calling_thread() {
        // On its own thread, so the test harness's threads keep their mask.
        std::thread::spawn(|| {
            let allowed = allowed_cpus();
            assert!(!allowed.is_empty());
            assert!(pin_current_thread(&allowed[..1]));
            assert_eq!(allowed_cpus(), allowed[..1]);
            assert!(pin_current_thread(&allowed));
            assert_eq!(allowed_cpus(), allowed);
            assert!(!pin_current_thread(&[]));
        })
        .join()
        .unwrap();
    }
}
