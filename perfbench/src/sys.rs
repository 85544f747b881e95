//! Process resource readings from procfs, for the workload process itself.

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used so far,
/// from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is readable");
    // The command name (field 2) may contain spaces; the fields after its
    // closing parenthesis start at field 3 (state).
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick field");
    // Fields 14 (utime) and 15 (stime) sit at offsets 11 and 12 here.
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM present in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn readings_are_positive() {
        assert!(super::peak_rss_mib() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(super::cpu_seconds() > 0.0);
    }
}
