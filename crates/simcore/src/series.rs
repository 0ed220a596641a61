//! Data series and plain-text rendering for the figure-reproduction
//! harness.
//!
//! Each paper figure is regenerated as one or more [`Series`] (x = targeted
//! request rate, y = measured quantity). The harness renders them as CSV
//! for downstream plotting and as a quick ASCII chart for eyeballing the
//! shape in a terminal.

use core::fmt::Write as _;

/// One plotted point: x (e.g. targeted request rate) and y (e.g. measured
/// reply rate), plus an optional error bar (stddev).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
    /// Symmetric error bar; zero when not applicable.
    pub err: f64,
}

/// A named data series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"Average"` or `"using devpoll"`.
    pub label: String,
    /// Points in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point without an error bar.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point { x, y, err: 0.0 });
    }

    /// Appends a point with an error bar.
    pub fn push_err(&mut self, x: f64, y: f64, err: f64) {
        self.points.push(Point { x, y, err });
    }
}

/// A figure: a title, axis labels, and a set of series sharing axes.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure title, e.g. `"FIGURE 4. Normal thttpd using normal poll()"`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series plotted in this figure.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Figure {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn add(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Renders the figure as CSV: header row
    /// `x,<label1>,<label1>_err,<label2>,...`, one row per distinct x.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("invariant: x must not be NaN"));
        xs.dedup();

        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            let label = s.label.replace(',', ";");
            let _ = write!(out, ",{label},{label}_err");
        }
        out.push('\n');
        for x in xs {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.points.iter().find(|p| p.x == x) {
                    Some(p) => {
                        let _ = write!(out, ",{},{}", p.y, p.err);
                    }
                    None => out.push_str(",,"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders a rough ASCII chart, `width` columns by `height` rows.
    ///
    /// Each series gets a marker character (`*`, `+`, `o`, `x`, …). The
    /// chart is meant for eyeballing curve shapes, not for precision.
    pub fn to_ascii(&self, width: usize, height: usize) -> String {
        const MARKS: &[u8] = b"*+ox#@%&";
        let width = width.max(16);
        let height = height.max(4);

        let all: Vec<Point> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        if all.is_empty() {
            return format!("{}\n(empty figure)\n", self.title);
        }
        let x_min = all.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let x_max = all.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        let y_min = 0.0_f64.min(all.iter().map(|p| p.y).fold(f64::INFINITY, f64::min));
        let y_max = all.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max);
        let x_span = (x_max - x_min).max(1e-12);
        let y_span = (y_max - y_min).max(1e-12);

        let mut grid = vec![vec![b' '; width]; height];
        for (si, s) in self.series.iter().enumerate() {
            let mark = MARKS[si % MARKS.len()];
            for p in &s.points {
                let col = (((p.x - x_min) / x_span) * (width - 1) as f64).round() as usize;
                let row = (((p.y - y_min) / y_span) * (height - 1) as f64).round() as usize;
                let row = height - 1 - row.min(height - 1);
                grid[row][col.min(width - 1)] = mark;
            }
        }

        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "y: {} (max {:.1})", self.y_label, y_max);
        for row in &grid {
            out.push('|');
            out.push_str(core::str::from_utf8(row).expect("invariant: grid rows are ASCII"));
            out.push('\n');
        }
        out.push('+');
        out.push_str(&"-".repeat(width));
        out.push('\n');
        let _ = writeln!(out, "x: {} [{:.0}..{:.0}]", self.x_label, x_min, x_max);
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "  {} = {}", MARKS[si % MARKS.len()] as char, s.label);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> Figure {
        let mut f = Figure::new("t", "rate", "reply");
        let mut a = Series::new("avg");
        a.push_err(500.0, 490.0, 5.0);
        a.push_err(600.0, 580.0, 10.0);
        let mut m = Series::new("min");
        m.push(500.0, 400.0);
        f.add(a);
        f.add(m);
        f
    }

    #[test]
    fn series_push_appends_a_point_without_error_bar() {
        let mut s = Series::new("x");
        s.push(1.0, 2.0);
        let p = Point {
            x: 1.0,
            y: 2.0,
            err: 0.0,
        };
        assert_eq!(s.points, vec![p]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_figure().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("rate,avg,avg_err,min,min_err"));
        assert_eq!(lines.next(), Some("500,490,5,400,0"));
        assert_eq!(lines.next(), Some("600,580,10,,"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn csv_escapes_commas_in_labels() {
        let mut f = Figure::new("t", "a,b", "y");
        f.add(Series::new("l,1"));
        assert!(f.to_csv().starts_with("a;b,l;1,l;1_err"));
    }

    #[test]
    fn ascii_renders_without_panic() {
        let art = sample_figure().to_ascii(40, 10);
        assert!(art.contains('*'));
        assert!(art.contains("avg"));
    }

    #[test]
    fn ascii_empty_figure() {
        let f = Figure::new("empty", "x", "y");
        assert!(f.to_ascii(40, 10).contains("empty figure"));
    }
}
