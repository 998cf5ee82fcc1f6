//! Process and thread CPU time from procfs, with no new dependencies.
//!
//! `/proc/self/stat` and `/proc/thread-self/stat` report `utime` and
//! `stime` (fields 14 and 15) in clock ticks. The tick rate is read from
//! the `AT_CLKTCK` entry of `/proc/self/auxv`, so no `sysconf` call is
//! needed. Off Linux every probe is a typed [`CpuError::Unsupported`].

use std::fmt;
use std::time::Duration;

/// Why a CPU-time probe failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuError {
    /// The platform has no procfs CPU accounting.
    Unsupported,
    /// A procfs file could not be read.
    Io(String),
    /// A procfs file did not have the expected layout.
    Parse(String),
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::Unsupported => write!(f, "CPU time needs Linux procfs"),
            CpuError::Io(e) => write!(f, "reading procfs: {e}"),
            CpuError::Parse(e) => write!(f, "parsing procfs: {e}"),
        }
    }
}

impl std::error::Error for CpuError {}

/// Parses `utime + stime` (in ticks) from a `/proc/<pid>/stat` line.
///
/// The second field (the command name) is parenthesised and may itself
/// contain spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat_ticks(stat: &str) -> Result<u64, CpuError> {
    let close = stat
        .rfind(')')
        .ok_or_else(|| CpuError::Parse("no ')' after the command name".into()))?;
    // After ")": field 3 (state) is the first token, so utime (field 14)
    // is token 11 and stime (field 15) is token 12.
    let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let field = |i: usize, name: &str| -> Result<u64, CpuError> {
        rest.get(i)
            .ok_or_else(|| CpuError::Parse(format!("stat line too short for {name}")))?
            .parse::<u64>()
            .map_err(|e| CpuError::Parse(format!("{name}: {e}")))
    };
    Ok(field(11, "utime")? + field(12, "stime")?)
}

/// Reads `AT_CLKTCK` (auxv type 17) from a raw `/proc/self/auxv` blob of
/// native-endian `u64` (type, value) pairs.
pub fn parse_auxv_clk_tck(auxv: &[u8]) -> Result<u64, CpuError> {
    const AT_NULL: u64 = 0;
    const AT_CLKTCK: u64 = 17;
    for pair in auxv.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte slice"));
        let val = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte slice"));
        match key {
            AT_CLKTCK if val > 0 => return Ok(val),
            AT_NULL => break,
            _ => {}
        }
    }
    Err(CpuError::Parse("no AT_CLKTCK entry in auxv".into()))
}

#[cfg(target_os = "linux")]
fn read_ticks(path: &str) -> Result<u64, CpuError> {
    let text = std::fs::read_to_string(path).map_err(|e| CpuError::Io(format!("{path}: {e}")))?;
    parse_stat_ticks(&text)
}

#[cfg(target_os = "linux")]
fn clk_tck() -> Result<u64, CpuError> {
    static TCK: std::sync::OnceLock<Result<u64, CpuError>> = std::sync::OnceLock::new();
    TCK.get_or_init(|| {
        let raw = std::fs::read("/proc/self/auxv")
            .map_err(|e| CpuError::Io(format!("/proc/self/auxv: {e}")))?;
        parse_auxv_clk_tck(&raw)
    })
    .clone()
}

#[cfg(target_os = "linux")]
fn ticks_to_duration(ticks: u64) -> Result<Duration, CpuError> {
    let hz = clk_tck()?;
    Ok(Duration::from_nanos(
        (ticks as u128 * 1_000_000_000 / hz as u128) as u64,
    ))
}

/// CPU time (user + system) used so far by the whole process.
#[cfg(target_os = "linux")]
pub fn process_cpu() -> Result<Duration, CpuError> {
    ticks_to_duration(read_ticks("/proc/self/stat")?)
}

/// CPU time (user + system) used so far by the calling thread.
#[cfg(target_os = "linux")]
pub fn thread_cpu() -> Result<Duration, CpuError> {
    ticks_to_duration(read_ticks("/proc/thread-self/stat")?)
}

/// CPU time (user + system) used so far by the whole process.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu() -> Result<Duration, CpuError> {
    Err(CpuError::Unsupported)
}

/// CPU time (user + system) used so far by the calling thread.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu() -> Result<Duration, CpuError> {
    Err(CpuError::Unsupported)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        // A command name with spaces and a ')' must not shift the fields.
        let line = "4242 (a b) c)) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 1 0";
        assert_eq!(parse_stat_ticks(line), Ok(325));
    }

    #[test]
    fn truncated_stat_is_a_typed_error() {
        assert!(matches!(
            parse_stat_ticks("1 (x) S 1 2"),
            Err(CpuError::Parse(_))
        ));
        assert!(matches!(
            parse_stat_ticks("no paren here"),
            Err(CpuError::Parse(_))
        ));
    }

    #[test]
    fn auxv_clk_tck_is_found_and_absence_is_typed() {
        let mut raw = Vec::new();
        for (k, v) in [(6u64, 4096u64), (17, 100), (0, 0)] {
            raw.extend_from_slice(&k.to_ne_bytes());
            raw.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(parse_auxv_clk_tck(&raw), Ok(100));
        assert!(parse_auxv_clk_tck(&raw[..16]).is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_time_grows_with_work() {
        let p0 = process_cpu().expect("process cpu");
        let t0 = thread_cpu().expect("thread cpu");
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(120) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let dt = thread_cpu().expect("thread cpu") - t0;
        assert!(dt >= Duration::from_millis(30), "thread cpu {dt:?}");
        // Process time sums every thread's; allow one tick of rounding.
        let dp = process_cpu().expect("process cpu") - p0;
        assert!(
            dp + Duration::from_millis(20) >= dt,
            "process {dp:?} < thread {dt:?}"
        );
    }
}
