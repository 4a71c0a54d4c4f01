//! The perf-gate artifact: `results/BENCH_perf.json`.
//!
//! `perf_gate` times the Fig. 6 workloads end-to-end on the host and
//! records, per workload and mode, the wall-clock, the achieved stencil
//! throughput, and the heap-allocation ledger (see [`crate::alloc_counter`]).
//! Against a committed baseline it enforces two thresholds:
//!
//! * **allocation ratio** (tight, 1.5x): allocation counts are
//!   deterministic, so any hot-path change that reintroduces per-block
//!   heap traffic trips this gate even on a noisy machine;
//! * **throughput ratio** (loose, 0.35x): wall-clock varies across
//!   machines and CI load, so this only catches catastrophic slowdowns,
//!   not percent-level drift.
//!
//! The gate is strict about coverage: a malformed baseline record is an
//! error, every measured record needs a baseline record of the same
//! workload and mode, and every baseline record of a measured mode must
//! be measured.
//!
//! The codec is hand-rolled like [`crate::bench_json`], whose number
//! formatting it shares (the workspace's `serde` is an
//! API-compatibility stub).

use crate::bench_json::fmt_f64;
use crate::csv::{atomic_write, RESULTS_DIR};
use std::path::{Path, PathBuf};

/// Pre-optimization full-workload wall-clock (ms) measured on the
/// machine that recorded the first baseline, kept in the artifact so the
/// speedup trajectory stays visible after the slow path is gone.
pub const PRE_OPT_WALL_MS: [(&str, f64); 3] = [
    ("Heat-1D", 406.72),
    ("Box-2D9P", 510.42),
    ("Box-3D27P", 7807.26),
];

/// One perf-gate measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Fig. 6 workload label (e.g. `Box-2D9P`).
    pub workload: String,
    /// `quick` or `full` — records only gate against the same mode.
    pub mode: String,
    /// Host wall-clock of the measured run, milliseconds.
    pub wall_ms: f64,
    /// Stencil updates per second (points x steps / wall).
    pub points_per_sec: f64,
    /// Heap allocation calls during the measured run.
    pub allocs: u64,
    /// Heap bytes requested during the measured run.
    pub alloc_bytes: u64,
}

/// Gate: fail when `points_per_sec < MIN_POINTS_RATIO x baseline`.
pub const MIN_POINTS_RATIO: f64 = 0.35;
/// Gate: fail when `allocs > MAX_ALLOC_RATIO x baseline`.
pub const MAX_ALLOC_RATIO: f64 = 1.5;

impl PerfRecord {
    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"wall_ms\":{},\"points_per_sec\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
            self.workload,
            self.mode,
            fmt_f64(self.wall_ms),
            fmt_f64(self.points_per_sec),
            self.allocs,
            self.alloc_bytes
        )
    }
}

/// Render the full `BENCH_perf.json` body.
pub fn render_perf_json(records: &[PerfRecord]) -> String {
    let reference: Vec<String> = PRE_OPT_WALL_MS
        .iter()
        .map(|(name, ms)| format!("\"{name}\":{}", fmt_f64(*ms)))
        .collect();
    let body: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    format!(
        "{{\"bench\":\"perf\",\"pre_optimization_wall_ms\":{{{}}},\"records\":[\n{}\n]}}\n",
        reference.join(","),
        body.join(",\n")
    )
}

fn str_field(obj: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\":\"");
    let i = obj.find(&pat)? + pat.len();
    let j = obj[i..].find('"')? + i;
    Some(obj[i..j].to_string())
}

fn num_field(obj: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\":");
    let i = obj.find(&pat)? + pat.len();
    let rest = &obj[i..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse the records out of a `BENCH_perf.json` body. The scanner keys
/// on `{"workload":` so the reference map is skipped. Every record must
/// parse completely: a damaged baseline is an error, never a silently
/// smaller gate.
pub fn parse_perf_json(body: &str) -> Result<Vec<PerfRecord>, String> {
    let mut out = Vec::new();
    for (i, chunk) in body.split("{\"workload\":").skip(1).enumerate() {
        let obj = match chunk.find('}') {
            Some(end) => format!("{{\"workload\":{}", &chunk[..=end]),
            None => return Err(format!("record {i} is not a closed object")),
        };
        let parsed = (|| {
            Some(PerfRecord {
                workload: str_field(&obj, "workload")?,
                mode: str_field(&obj, "mode")?,
                wall_ms: num_field(&obj, "wall_ms")?,
                points_per_sec: num_field(&obj, "points_per_sec")?,
                allocs: num_field(&obj, "allocs")? as u64,
                alloc_bytes: num_field(&obj, "alloc_bytes")? as u64,
            })
        })();
        out.push(parsed.ok_or_else(|| format!("record {i} is malformed: {obj}"))?);
    }
    Ok(out)
}

/// Compare `current` against `baseline`; returns one human-readable line
/// per violation. Records match on (workload, mode). A current record
/// without a baseline record fails, and so does a baseline record of a
/// measured mode that the run did not produce — a quick run gates every
/// quick baseline record and ignores the full ones.
pub fn gate_violations(baseline: &[PerfRecord], current: &[PerfRecord]) -> Vec<String> {
    let same = |a: &PerfRecord, b: &PerfRecord| a.workload == b.workload && a.mode == b.mode;
    let mut violations = Vec::new();
    for cur in current {
        let Some(base) = baseline.iter().find(|b| same(b, cur)) else {
            violations.push(format!(
                "{} ({}): no baseline record to gate against",
                cur.workload, cur.mode
            ));
            continue;
        };
        let floor = MIN_POINTS_RATIO * base.points_per_sec;
        if cur.points_per_sec < floor {
            violations.push(format!(
                "{} ({}): throughput {:.3e} pts/s below gate {:.3e} ({}x baseline {:.3e})",
                cur.workload,
                cur.mode,
                cur.points_per_sec,
                floor,
                MIN_POINTS_RATIO,
                base.points_per_sec
            ));
        }
        let ceil = MAX_ALLOC_RATIO * base.allocs as f64;
        if cur.allocs as f64 > ceil {
            violations.push(format!(
                "{} ({}): {} heap allocations exceed gate {:.0} ({}x baseline {})",
                cur.workload, cur.mode, cur.allocs, ceil, MAX_ALLOC_RATIO, base.allocs
            ));
        }
    }
    for base in baseline {
        let mode_measured = current.iter().any(|c| c.mode == base.mode);
        if mode_measured && !current.iter().any(|c| same(c, base)) {
            violations.push(format!(
                "{} ({}): baseline record matches no measured workload",
                base.workload, base.mode
            ));
        }
    }
    violations
}

/// Default on-disk location of the committed baseline.
pub fn perf_baseline_path() -> PathBuf {
    Path::new(RESULTS_DIR).join("BENCH_perf.json")
}

/// Write `results/BENCH_perf.json` atomically. Returns the path.
pub fn write_perf_json(records: &[PerfRecord]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(RESULTS_DIR)?;
    let path = perf_baseline_path();
    atomic_write(&path, &render_perf_json(records))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, mode: &str, pps: f64, allocs: u64) -> PerfRecord {
        PerfRecord {
            workload: workload.to_string(),
            mode: mode.to_string(),
            wall_ms: 12.5,
            points_per_sec: pps,
            allocs,
            alloc_bytes: 4096,
        }
    }

    #[test]
    fn json_round_trips() {
        let records = vec![
            record("Heat-1D", "quick", 1.25e8, 1000),
            record("Box-2D9P", "full", 3.0e7, 250_000),
        ];
        let body = render_perf_json(&records);
        assert!(body.contains("\"pre_optimization_wall_ms\""));
        assert!(body.contains("\"Box-2D9P\":510.42"));
        assert_eq!(parse_perf_json(&body).unwrap(), records);
    }

    #[test]
    fn committed_baseline_renders_byte_for_byte() {
        let committed = include_str!("../../../results/BENCH_perf.json");
        let records = parse_perf_json(committed).unwrap();
        assert!(!records.is_empty());
        assert_eq!(render_perf_json(&records), committed);
    }

    #[test]
    fn reference_map_is_not_parsed_as_a_record() {
        let body = render_perf_json(&[]);
        assert!(parse_perf_json(&body).unwrap().is_empty());
    }

    #[test]
    fn gate_passes_when_metrics_hold() {
        let base = vec![record("Box-2D9P", "quick", 1.0e8, 1000)];
        let cur = vec![record("Box-2D9P", "quick", 0.9e8, 1100)];
        assert!(gate_violations(&base, &cur).is_empty());
    }

    #[test]
    fn gate_flags_throughput_collapse_and_alloc_blowup() {
        let base = vec![record("Box-2D9P", "quick", 1.0e8, 1000)];
        let cur = vec![record("Box-2D9P", "quick", 0.2e8, 2000)];
        let v = gate_violations(&base, &cur);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("throughput"));
        assert!(v[1].contains("allocations"));
    }

    #[test]
    fn gate_ignores_baseline_records_of_unmeasured_modes() {
        let base = vec![
            record("Box-2D9P", "quick", 1.0e8, 1000),
            record("Box-2D9P", "full", 1.0e8, 1000),
        ];
        let cur = vec![record("Box-2D9P", "quick", 1.0e8, 1000)];
        assert!(gate_violations(&base, &cur).is_empty());
    }

    #[test]
    fn malformed_baseline_record_is_an_error() {
        let body = "{\"records\":[{\"workload\":\"X\",\"mode\":\"quick\"},{\"workload\":\"Y\",\"mode\":\"full\",\"wall_ms\":1.0,\"points_per_sec\":2.0,\"allocs\":3,\"alloc_bytes\":4}]}";
        let err = parse_perf_json(body).unwrap_err();
        assert!(err.contains("record 0 is malformed"), "{err}");
        let truncated = "{\"records\":[{\"workload\":\"Y\",\"mode\":\"full\"";
        assert!(parse_perf_json(truncated).is_err());
    }

    #[test]
    fn missing_baseline_record_fails_the_gate() {
        let base = vec![record("Box-2D9P", "full", 1.0e8, 1000)];
        let cur = vec![
            record("Box-2D9P", "full", 1.0e8, 1000),
            record("Heat-1D", "full", 1.0e8, 1000),
        ];
        let v = gate_violations(&base, &cur);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].starts_with("Heat-1D (full): no baseline record"),
            "{v:?}"
        );
        // An empty baseline gates nothing, so it fails every record.
        assert_eq!(gate_violations(&[], &cur).len(), 2);
    }

    #[test]
    fn unmatched_baseline_record_fails_the_gate() {
        let base = vec![
            record("Box-2D9P", "quick", 1.0e8, 1000),
            record("Heat-3D", "quick", 1.0e8, 1000),
        ];
        let cur = vec![record("Box-2D9P", "quick", 1.0e8, 1000)];
        let v = gate_violations(&base, &cur);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("Heat-3D (quick): baseline record matches no"),
            "{v:?}"
        );
    }
}
