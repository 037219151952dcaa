//! Pin a run to one CPU.
//!
//! On the 2-vCPU host the benchmark was written on, runs with two busy
//! threads switch for minutes at a time between two speeds about 40%
//! apart (the host's placement of the vCPUs), while one-thread runs
//! do not. Every end-to-end run is therefore pinned to one CPU: the
//! threaded workloads then measure their total work and communication
//! cost, not parallel speed-up, and stay comparable run to run. Traced
//! runs stay unpinned so the kernel pool's lanes run side by side.

use std::os::raw::c_int;

/// glibc's `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Restrict the calling thread, and every thread it starts later, to
/// the first CPU it may run on now. Returns that CPU.
pub fn to_one_cpu() -> Result<usize, String> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes,
    // the layout the kernel fills; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|&c| allowed.0[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes; pid 0
    // is the calling thread.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
