//! Process memory read from outside the program: `VmHWM` (peak resident
//! set) and `VmRSS` (current resident set) from `/proc/self/status`.

/// Resident-set readings in MB (2²⁰ bytes).
#[derive(Debug, Clone, Copy)]
pub struct Mem {
    /// Peak resident set since the process started (`VmHWM`).
    pub peak_mb: f64,
    /// Current resident set (`VmRSS`).
    pub rss_mb: f64,
}

/// Read the calling process's `VmHWM` and `VmRSS`.
pub fn read() -> Result<Mem, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_status(&status).ok_or_else(|| "VmHWM/VmRSS missing from /proc/self/status".to_string())
}

fn parse_status(status: &str) -> Option<Mem> {
    let field_mb = |name: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(name))?;
        let kb: f64 = line[name.len()..]
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    };
    Some(Mem {
        peak_mb: field_mb("VmHWM:")?,
        rss_mb: field_mb("VmRSS:")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kernel_status_fields() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
        let m = parse_status(status).unwrap();
        assert_eq!(m.peak_mb, 20.0);
        assert_eq!(m.rss_mb, 10.0);
        assert!(parse_status("Name:\tx\n").is_none());
    }

    #[test]
    fn own_process_has_resident_memory() {
        let m = read().unwrap();
        assert!(m.rss_mb > 0.0 && m.peak_mb >= m.rss_mb);
    }
}
