//! One CPU, borrowed: the calling thread narrows its affinity mask to the CPU
//! it is on while the guard lives, so threads it spawns meanwhile inherit it.
//! Linux only; elsewhere, or where the host refuses a call (seccomp, more
//! than 1024 CPUs), nothing is pinned and nothing is said.

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// The calling thread's saved mask, put back on drop (`None`: not pinned).
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
pub(crate) struct Pinned(Option<[u64; 16]>);

/// Pin the calling thread to the CPU it is running on.
pub(crate) fn pin_here() -> Pinned {
    #[cfg(target_os = "linux")]
    {
        let (mut saved, mut one) = ([0; 16], [0; 16]);
        // SAFETY: takes no argument; -1 (no such call) fails the range check.
        let cpu = unsafe { sched_getcpu() } as usize;
        // SAFETY: pid 0 is the calling thread; `saved` is 128 bytes long.
        if cpu < 1024 && unsafe { sched_getaffinity(0, 128, saved.as_mut_ptr()) } == 0 {
            one[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: as above; `one` is only read.
            let pinned = unsafe { sched_setaffinity(0, 128, one.as_ptr()) } == 0;
            return Pinned(pinned.then_some(saved));
        }
    }
    Pinned(None)
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(saved) = self.0 {
            // SAFETY: as in `pin_here`. A refusal leaves the thread where it is.
            unsafe { sched_setaffinity(0, 128, saved.as_ptr()) };
        }
    }
}

#[cfg(test)]
/// The CPUs the calling thread may run on (empty where nobody can tell).
pub(crate) fn allowed() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
    let ranges = list.into_iter().flat_map(|list| list.trim().split(','));
    ranges
        .flat_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            lo.parse::<usize>().unwrap()..=hi.parse().unwrap()
        })
        .collect()
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_pin_inside_a_pin_stays_put_and_neither_widens_the_mask() {
        let before = allowed();
        let outer = pin_here();
        let one = allowed();
        // One CPU of the caller's own — or, where the host refuses the
        // call, the mask as it was.
        assert!(one.iter().all(|cpu| before.contains(cpu)), "{one:?}");
        assert!(one.len() == 1 || one == before, "{one:?} of {before:?}");
        let inner = pin_here();
        assert_eq!(allowed(), one, "a caller on one CPU stays on it");
        drop(inner);
        assert_eq!(allowed(), one, "the inner guard gives back what it found");
        drop(outer);
        assert_eq!(allowed(), before);
    }
}
