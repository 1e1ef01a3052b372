//! Process CPU time and peak resident size from `/proc/self`.

/// Kernel clock ticks per second. `/proc/self/stat` reports in
/// `USER_HZ`, which Linux fixes at 100 on every architecture this
/// repository builds for.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/self/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in KiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has used. Resolution is one tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat") as f64 / TICKS_PER_S
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_hostile_command_name() {
        let stat = "4242 (led) ger (x)) R 1 4242 4242 0 -1 4194304 1093 0 0 0 \
                    37 5 0 0 20 0 3 0 123456 1000000 900 18446744073709551615 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("no paren"), None);
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tledger\nVmPeak:\t  999999 kB\nVmHWM:\t   75776 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(75776));
        assert_eq!(parse_vm_hwm_kib("Name:\tledger\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.5);
        assert!(cpu_seconds() >= 0.0);
    }
}
