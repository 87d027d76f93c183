//! Order statistics and the process probes the benchmark reads from
//! `/proc`: per-thread CPU time, host steal, resident set size and the CPUs
//! the process may use, which it pins its threads to.

use std::fs;
use std::sync::OnceLock;

/// The `q` quantile of an ascending slice (nearest rank), or NaN when empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The `q` quantile (nearest rank) of unordered measurements, or NaN when
/// empty.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// The median of a list of measurements (mean of the middle pair for an
/// even count), or NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The mean of `values` after cutting the `trim` share of them from each
/// end, or NaN when empty.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (trim * v.len() as f64) as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return f64::NAN;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// CPU time of one thread of this process, in nanoseconds: the first field
/// of `/proc/self/task/<tid>/schedstat`. Zero if the thread has exited.
fn task_cpu_ns(tid: &str) -> u64 {
    fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// CPU time of the generator (this process's main thread), in nanoseconds.
pub fn generator_cpu_ns() -> u64 {
    task_cpu_ns(&std::process::id().to_string())
}

/// Thread ids of this process except the generator (the main thread).
fn other_threads() -> Vec<String> {
    let main = std::process::id().to_string();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|tid| *tid != main)
        .collect()
}

/// CPU time summed over every thread of this process except the generator
/// (the main thread): with one engine worker, that is the worker.
pub fn other_threads_cpu_ns() -> u64 {
    other_threads().iter().map(|tid| task_cpu_ns(tid)).sum()
}

/// The CPUs this process was started on: `Cpus_allowed_list` of
/// `/proc/self/status`, such as `0-1` or `0,2-3`, read on the first call,
/// before any pin narrows it.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let Some(list) = status
            .lines()
            .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        else {
            return Vec::new();
        };
        list.trim()
            .split(',')
            .filter_map(|item| {
                let (first, last) = item.split_once('-').unwrap_or((item, item));
                Some(first.trim().parse::<usize>().ok()?..=last.trim().parse::<usize>().ok()?)
            })
            .flatten()
            .collect()
    })
}

/// Pins one thread of this process to `cpus` with `taskset`; whether that
/// worked.
fn pin(tid: &str, cpus: &[usize]) -> bool {
    let list: Vec<String> = cpus.iter().map(usize::to_string).collect();
    !cpus.is_empty()
        && std::process::Command::new("taskset")
            .args(["-p", "-c", &list.join(","), tid])
            .output()
            .is_ok_and(|out| out.status.success())
}

/// Pins the generator (the main thread) to `cpus`. Threads it starts later
/// inherit the pin.
pub fn pin_generator(cpus: &[usize]) -> bool {
    pin(&std::process::id().to_string(), cpus)
}

/// Pins every thread of this process except the generator to `cpu`.
pub fn pin_others(cpu: usize) -> bool {
    other_threads().iter().all(|tid| pin(tid, &[cpu]))
}

/// Time the host has taken from this process's CPUs, in clock ticks of
/// 10 ms: the `steal` column of `/proc/stat`, summed over the CPUs the
/// process was started on.
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpus = allowed_cpus();
    stat.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let cpu: usize = fields.next()?.strip_prefix("cpu")?.parse().ok()?;
            cpus.contains(&cpu)
                .then(|| fields.nth(7)?.parse::<u64>().ok())?
        })
        .sum()
}

/// Resident set size of this process in KiB. `smaps_rollup` walks the page
/// tables; `VmRSS` in `/proc/self/status` is a per-CPU-batched estimate that
/// drifts by tens of KiB between identical runs.
pub fn rss_kib() -> u64 {
    fs::read_to_string("/proc/self/smaps_rollup")
        .ok()
        .and_then(|rollup| {
            rollup
                .lines()
                .find(|line| line.starts_with("Rss:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.999), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_cuts_both_ends() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&v, 0.1), 5.5);
        assert_eq!(
            trimmed_mean(&[1.0, 2.0, 1e9, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 0.0], 0.1),
            4.5
        );
        assert!(trimmed_mean(&[], 0.1).is_nan());
    }

    #[test]
    fn proc_probes_read_this_process() {
        assert!(rss_kib() > 0);
        assert!(!allowed_cpus().is_empty());
        let worker = std::thread::spawn(|| {
            let spin = std::time::Instant::now();
            while spin.elapsed().as_millis() < 5 {}
        });
        worker.join().expect("no panic");
        assert!(generator_cpu_ns() > 0);
    }
}
