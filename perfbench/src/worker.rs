//! The line protocol between a run and its worker processes.
//!
//! A run without tracing measures in several fresh worker processes one
//! after another: the speed of one process differs from the next by more
//! than the passes inside one process differ from each other, so a run's
//! medians pool passes of several processes. A worker prints one `pass`
//! line per pass (with the share of CPU time the hypervisor stole during
//! it), a `failure` line per failed operation it logged, and a final
//! `done` line with its operation counts and its peak RSS after its first
//! pass.

use crate::workload::Pass;

fn list(values: &[f64]) -> String {
    match values.is_empty() {
        true => "-".to_string(),
        false => values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(","),
    }
}

fn parse_list(field: &str) -> Option<Vec<f64>> {
    match field {
        "-" => Some(Vec::new()),
        _ => field.split(',').map(|v| v.parse().ok()).collect(),
    }
}

/// A pass, and the CPU share stolen while it ran, as one line.
pub fn pass_line(p: &Pass, steal_share: f64) -> String {
    format!(
        "pass {steal_share} {} {} {} {} {} {}",
        p.wall_s,
        p.recovery_s,
        p.events,
        p.disk_bytes,
        list(&p.setup_s),
        list(&p.latencies_ms)
    )
}

/// A worker's closing counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Done {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Peak RSS after the first pass, KiB.
    pub peak_rss_kib: u64,
}

/// The closing line.
pub fn done_line(d: &Done) -> String {
    format!("done {} {} {}", d.attempted, d.failed, d.peak_rss_kib)
}

/// One parsed worker line.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// A measured pass and the CPU share stolen while it ran.
    Pass(f64, Pass),
    /// A failure the worker logged.
    Failure(String),
    /// The closing counts.
    Done(Done),
}

/// Parse one worker line; `None` for anything else.
pub fn parse(line: &str) -> Option<Line> {
    let (kind, rest) = line.split_once(' ')?;
    match kind {
        "failure" => Some(Line::Failure(rest.to_string())),
        "done" => {
            let f: Vec<u64> = rest
                .split(' ')
                .map(|v| v.parse().ok())
                .collect::<Option<_>>()?;
            let [attempted, failed, peak_rss_kib] = f[..] else {
                return None;
            };
            Some(Line::Done(Done {
                attempted,
                failed,
                peak_rss_kib,
            }))
        }
        "pass" => {
            let f: Vec<&str> = rest.split(' ').collect();
            let [steal, wall, recovery, events, disk, setups, latencies] = f[..] else {
                return None;
            };
            Some(Line::Pass(
                steal.parse().ok()?,
                Pass {
                    wall_s: wall.parse().ok()?,
                    recovery_s: recovery.parse().ok()?,
                    events: events.parse().ok()?,
                    disk_bytes: disk.parse().ok()?,
                    setup_s: parse_list(setups)?,
                    latencies_ms: parse_list(latencies)?,
                },
            ))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_exactly() {
        let pass = Pass {
            setup_s: vec![0.006_123_456_789, 0.1 + 0.2],
            wall_s: 0.712_345_678_901_234_5,
            events: 41_743,
            latencies_ms: vec![6.5, 10.000_000_000_000_002],
            recovery_s: 0.25,
            disk_bytes: 1_569_512,
        };
        assert_eq!(
            parse(&pass_line(&pass, 0.0625)),
            Some(Line::Pass(0.0625, pass.clone()))
        );
        let empty = Pass {
            latencies_ms: Vec::new(),
            ..pass
        };
        assert_eq!(parse(&pass_line(&empty, 0.0)), Some(Line::Pass(0.0, empty)));
        let done = Done {
            attempted: 1861,
            failed: 0,
            peak_rss_kib: 81_652,
        };
        assert_eq!(parse(&done_line(&done)), Some(Line::Done(done)));
        assert_eq!(
            parse("failure mismatch: a b"),
            Some(Line::Failure("mismatch: a b".into()))
        );
        assert_eq!(parse("pass 1 2"), None);
        assert_eq!(parse("noise"), None);
    }
}
