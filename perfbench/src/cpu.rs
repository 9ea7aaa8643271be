//! CPU clocks of the calling thread and of the whole process.
//!
//! The end-to-end times are CPU time, not wall time. On a virtual machine that shares
//! its host, the wall time of one and the same run swings with what other tenants take
//! from the host. A CPU clock leaves out the time a thread waits for a core and, on
//! kernels that account steal time (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), the time the
//! hypervisor runs something else on the virtual CPU.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read(clock: c_int) -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has used since it started.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has used, summed.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    #[test]
    fn cpu_clocks_count_work_and_not_sleep() {
        let (wall, thread, process) = (Instant::now(), super::thread(), super::process());
        let mut x = 0u64;
        while wall.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let busy = super::thread() - thread;
        assert!(busy > Duration::from_millis(10), "{busy:?} of CPU in 50 ms of spinning");
        assert!(busy <= wall.elapsed());
        assert!(super::process() - process >= busy, "the process clock sums its threads");

        let before = super::thread();
        std::thread::sleep(Duration::from_millis(50));
        assert!(super::thread() - before < Duration::from_millis(10), "sleeping uses no CPU");
    }
}
