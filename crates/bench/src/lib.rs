//! The paper-table harness behind the `mvbc-bench` binary, plus the
//! workload helper the criterion benches in `benches/` share.
//!
//! Each entry of [`EXPERIMENTS`] regenerates one table or figure of the
//! paper (or of one of this workspace's extensions) in bits, rounds,
//! messages, virtual time or state digests: quantities a run fixes
//! exactly. Wall clock is the standalone `benchmark/` package's job.
//! An experiment renders a [`Report`] without touching the file system;
//! `mvbc-bench <name>` prints it and writes its tables as CSV into
//! `results/`, and `tests/paper_tables.rs` pins every report byte for
//! byte against `tests/golden/<name>.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use mvbc_bsb::{BsbDriver, PhaseKingDriver};
use mvbc_core::{simulate_consensus_with, ConsensusConfig, ProtocolHooks};
use mvbc_metrics::{MetricsSink, Snapshot};

mod experiments;

pub use experiments::{Experiment, EXPERIMENTS};

/// Deterministic pseudo-random value for workloads.
pub fn workload_value(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// The rendered output of one experiment: the text `mvbc-bench` prints
/// and the tables it saves as `results/<stem>.csv`.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything the experiment prints, one `\n` after each line.
    pub text: String,
    /// `(file stem, table)` pairs to save as CSV.
    pub csvs: Vec<(&'static str, Table)>,
}

impl Report {
    /// Appends `line` and a newline (what `println!` would print).
    pub(crate) fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Queues `table` to be saved as `results/<stem>.csv`.
    pub(crate) fn csv(&mut self, stem: &'static str, table: Table) {
        self.csvs.push((stem, table));
    }
}

/// Outcome of one measured consensus run.
#[derive(Debug)]
pub(crate) struct MeasuredRun {
    /// Total logical bits transmitted by all processors.
    pub(crate) total_bits: u64,
    /// Synchronous rounds.
    pub(crate) rounds: u64,
    /// Full metric snapshot (per-stage queries).
    pub(crate) snapshot: Snapshot,
    /// Diagnosis-stage executions (as seen by processor reports, max).
    pub(crate) diagnosis_invocations: u64,
    /// Processors isolated by the end.
    pub(crate) isolated: Vec<usize>,
}

/// Runs one unanimous-input consensus on the default Phase-King
/// substrate and measures it.
///
/// # Panics
///
/// Panics when honest processors disagree or miss validity — the
/// harness refuses to report numbers from an incorrect run.
pub(crate) fn measure_consensus(
    cfg: &ConsensusConfig,
    hooks: Vec<Box<dyn ProtocolHooks>>,
    faulty: &[usize],
    seed: u64,
) -> MeasuredRun {
    let drivers = (0..cfg.n).map(|_| Box::new(PhaseKingDriver) as Box<dyn BsbDriver>).collect();
    measure_consensus_with(cfg, hooks, drivers, faulty, seed)
}

/// As [`measure_consensus`] with one explicit `Broadcast_Single_Bit`
/// driver per processor.
///
/// # Panics
///
/// As [`measure_consensus`].
pub(crate) fn measure_consensus_with(
    cfg: &ConsensusConfig,
    hooks: Vec<Box<dyn ProtocolHooks>>,
    drivers: Vec<Box<dyn BsbDriver>>,
    faulty: &[usize],
    seed: u64,
) -> MeasuredRun {
    let v = workload_value(cfg.value_bytes, seed);
    let metrics = MetricsSink::new();
    let run = simulate_consensus_with(cfg, vec![v.clone(); cfg.n], hooks, drivers, metrics.clone());
    for id in 0..cfg.n {
        if !faulty.contains(&id) {
            assert_eq!(run.outputs[id], v, "harness: processor {id} decided wrongly");
        }
    }
    let honest = (0..cfg.n).find(|id| !faulty.contains(id)).expect("some honest");
    let snapshot = metrics.snapshot();
    MeasuredRun {
        total_bits: snapshot.total_logical_bits(),
        rounds: snapshot.rounds(),
        diagnosis_invocations: run.reports[honest].diagnosis_invocations,
        isolated: run.reports[honest].isolated.clone(),
        snapshot,
    }
}

/// A simple markdown/CSV table builder.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders as a markdown table.
    pub(crate) fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(out, "|{}|", self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// One plotted series: glyph, legend label, (x, y) points.
pub(crate) type ChartSeries = (char, String, Vec<(f64, f64)>);

/// A terminal line chart: the "figure" renderer for experiments whose
/// paper counterpart is a curve rather than a table.
///
/// Plots one glyph per series on a fixed character grid; callers pass
/// already-transformed coordinates (e.g. `log2` for the `L` axis) so
/// the chart itself stays a dumb, well-tested scaler.
#[derive(Debug)]
pub(crate) struct AsciiChart {
    width: usize,
    height: usize,
    series: Vec<ChartSeries>,
}

impl AsciiChart {
    /// Creates an empty chart grid of `width` x `height` characters.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is smaller than 2.
    pub(crate) fn new(width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "chart needs at least a 2x2 grid");
        AsciiChart {
            width,
            height,
            series: Vec::new(),
        }
    }

    /// Adds a series rendered with `glyph` and described by `label`.
    pub(crate) fn series(&mut self, glyph: char, label: &str, points: Vec<(f64, f64)>) -> &mut Self {
        self.series.push((glyph, label.to_string(), points));
        self
    }

    /// Renders the chart with a y-axis gutter and a legend line.
    ///
    /// Returns a plain string; empty charts render as an empty grid.
    pub(crate) fn render(&self) -> String {
        let points: Vec<(f64, f64)> =
            self.series.iter().flat_map(|(_, _, p)| p.iter().copied()).collect();
        let (x_min, x_max) =
            points.iter().map(|p| p.0).fold(None, min_max_fold).unwrap_or((0.0, 1.0));
        let (y_min, y_max) =
            points.iter().map(|p| p.1).fold(None, min_max_fold).unwrap_or((0.0, 1.0));
        let x_span = (x_max - x_min).max(f64::EPSILON);
        let y_span = (y_max - y_min).max(f64::EPSILON);

        let mut grid = vec![vec![' '; self.width]; self.height];
        for (glyph, _, pts) in &self.series {
            for &(x, y) in pts {
                let col = (((x - x_min) / x_span) * (self.width - 1) as f64).round() as usize;
                let row = (((y - y_min) / y_span) * (self.height - 1) as f64).round() as usize;
                grid[self.height - 1 - row][col.min(self.width - 1)] = *glyph;
            }
        }

        let mut out = String::new();
        for (i, row) in grid.iter().enumerate() {
            let y_val = y_max - y_span * i as f64 / (self.height - 1) as f64;
            let gutter = if i == 0 || i == self.height - 1 || i == (self.height - 1) / 2 {
                format!("{y_val:>9.1} |")
            } else {
                format!("{:>9} |", "")
            };
            let _ = writeln!(out, "{gutter}{}", row.iter().collect::<String>());
        }
        let _ = writeln!(out, "{:>10}{}", "+", "-".repeat(self.width));
        let _ = writeln!(out, "{:>10}{x_min:<12.1}{:>width$.1}", "", x_max, width = self.width.saturating_sub(12));
        let legend: Vec<String> = self
            .series
            .iter()
            .map(|(g, label, _)| format!("{g} = {label}"))
            .collect();
        let _ = writeln!(out, "{:>10}{}", "", legend.join("   "));
        out
    }
}

fn min_max_fold(acc: Option<(f64, f64)>, v: f64) -> Option<(f64, f64)> {
    Some(match acc {
        None => (v, v),
        Some((lo, hi)) => (lo.min(v), hi.max(v)),
    })
}

/// Formats a bit count with engineering suffixes for table readability.
pub(crate) fn fmt_bits(bits: f64) -> String {
    if bits >= 1e9 {
        format!("{:.2}G", bits / 1e9)
    } else if bits >= 1e6 {
        format!("{:.2}M", bits / 1e6)
    } else if bits >= 1e3 {
        format!("{:.1}k", bits / 1e3)
    } else {
        format!("{bits:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvbc_core::NoopHooks;

    #[test]
    fn measure_consensus_smoke() {
        let cfg = ConsensusConfig::new(4, 1, 64).unwrap();
        let hooks = (0..4).map(|_| NoopHooks::boxed()).collect();
        let m = measure_consensus(&cfg, hooks, &[], 1);
        assert!(m.total_bits > 0);
        assert_eq!(m.diagnosis_invocations, 0);
        assert!(m.isolated.is_empty());
    }

    #[test]
    fn table_render() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert!(t.to_markdown().contains("| 1 | 2 |"));
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn ascii_chart_places_extremes() {
        let mut chart = AsciiChart::new(20, 5);
        chart.series('o', "demo", vec![(0.0, 0.0), (10.0, 100.0)]);
        let render = chart.render();
        let rows: Vec<&str> = render.lines().collect();
        // Max lands top-right, min bottom-left (after the 11-char gutter).
        assert_eq!(rows[0].chars().last(), Some('o'));
        assert_eq!(rows[4].chars().nth(11), Some('o'));
        assert!(render.contains("o = demo"));
    }

    #[test]
    fn ascii_chart_multiple_series_glyphs() {
        let mut chart = AsciiChart::new(10, 4);
        chart.series('a', "first", vec![(0.0, 0.0)]);
        chart.series('b', "second", vec![(1.0, 1.0)]);
        let render = chart.render();
        assert!(render.contains('a') && render.contains('b'));
        assert!(render.contains("a = first   b = second"));
    }

    #[test]
    fn ascii_chart_empty_is_blank_grid() {
        let chart = AsciiChart::new(8, 3);
        let render = chart.render();
        assert_eq!(render.lines().count(), 3 + 3); // grid + axis + labels + legend
    }

    #[test]
    #[should_panic(expected = "2x2")]
    fn ascii_chart_rejects_tiny_grid() {
        let _ = AsciiChart::new(1, 5);
    }

    #[test]
    fn fmt_bits_suffixes() {
        assert_eq!(fmt_bits(10.0), "10");
        assert_eq!(fmt_bits(1500.0), "1.5k");
        assert_eq!(fmt_bits(2_500_000.0), "2.50M");
        assert_eq!(fmt_bits(3_000_000_000.0), "3.00G");
    }
}
