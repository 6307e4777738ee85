//! Host probes: CPU time of the whole process (every thread, live or
//! joined) and its peak resident set, read from Linux `/proc`, and the
//! speed of the host itself, timed on a fixed reference kernel.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second in `/proc` times (`USER_HZ`, fixed at 100 by
/// the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far.
///
/// # Errors
///
/// Returns a message if `/proc/self/stat` cannot be read or parsed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may contain spaces; the fields after its closing
    // parenthesis start at field 3 (state), so utime (14) and stime (15)
    // are the 12th and 13th.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("/proc/self/stat: field {} unreadable", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Resets the peak resident set size to the current one, so that
/// [`peak_rss_mib`] reports the peak from now on.
///
/// # Errors
///
/// Returns a message if `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Seconds [`reference_s`] takes on the nominal host: a 2-vCPU x86-64
/// virtual machine, on which the bounds in `BENCHMARK.json` were set.
/// `setup_s` is set-up time scaled to this host speed, so that it stays in
/// seconds and still cancels drift.
pub const NOMINAL_REF_S: f64 = 0.2;

/// Seconds the host takes for the benchmark's fixed reference kernel.
///
/// A shared virtual machine runs the same code up to a third slower for
/// minutes at a time. Host time divided by the reference time measured in
/// the same run cancels part of that drift; the kernel is part of the benchmark,
/// so no change to the simulator moves it. It mixes the simulator's kinds
/// of host work: xorshift-driven read-modify-writes with data-dependent
/// branches over a 1 MiB table, every eighth step a dependent read from
/// a 64 MiB one (trace and cache-model lookups), then three streaming
/// copies of the 64 MiB table (trace recording and replay). Every table
/// is filled before the clock starts. The 64 MiB ones are above glibc's
/// largest mmap threshold, so freeing them unmaps them and they never
/// count in a later peak RSS.
pub fn reference_s() -> f64 {
    const SMALL: usize = 1 << 17;
    const LARGE: usize = 1 << 23;
    const STEPS: u32 = 6_000_000;
    let mut small = vec![0u64; SMALL];
    let large: Vec<u64> = (0..LARGE as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut copy = vec![1u64; LARGE];
    let t = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut small[(x as usize) & (SMALL - 1)];
        if *slot & 1 == 0 {
            *slot = slot.wrapping_add(x);
        } else {
            *slot ^= x >> 3;
        }
        if i % 8 == 0 {
            acc = acc.wrapping_add(large[((x ^ acc) >> 20) as usize & (LARGE - 1)]);
        }
    }
    for _ in 0..3 {
        copy.copy_from_slice(black_box(&large));
        black_box(&mut copy);
    }
    black_box((&small, acc));
    t.elapsed().as_secs_f64()
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
///
/// # Errors
///
/// Returns a message if `/proc/self/status` cannot be read or lacks
/// `VmHWM`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        assert!(cpu_seconds().expect("stat") >= 0.0);
        assert!(peak_rss_mib().expect("status") > 0.0);
    }
}
