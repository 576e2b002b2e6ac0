//! Result series and CSV output.

use std::fmt::Write as _;

use porsche::probe::CycleLedger;

/// One data point of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X value (typically the number of concurrent instances).
    pub x: f64,
    /// Y value (typically completion time in cycles).
    pub y: f64,
}

/// A named line on a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"Alpha, Round Robin, 10ms"`.
    pub name: String,
    /// Points in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), points: Vec::new() }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point { x, y });
    }

    /// The y value at the given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.y)
    }
}

/// A figure: a titled collection of series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSet {
    /// Figure identifier, e.g. `"fig2"`.
    pub figure: String,
    /// All series.
    pub series: Vec<Series>,
}

impl SeriesSet {
    /// An empty figure.
    pub fn new(figure: impl Into<String>) -> Self {
        Self { figure: figure.into(), series: Vec::new() }
    }

    /// Append a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Find a series by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Long-format CSV: `figure,series,x,y`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("figure,series,x,y\n");
        for s in &self.series {
            for p in &s.points {
                let _ = writeln!(out, "{},{},{},{}", self.figure, s.name, p.x, p.y);
            }
        }
        out
    }

    /// Render an ASCII summary table (x columns, one row per series) for
    /// terminal output.
    pub fn to_table(&self) -> String {
        let xs: Vec<f64> = {
            let mut xs: Vec<f64> = self.series.iter().flat_map(|s| s.points.iter().map(|p| p.x)).collect();
            xs.sort_by(f64::total_cmp);
            xs.dedup();
            xs
        };
        let name_w = self.series.iter().map(|s| s.name.len()).max().unwrap_or(6).max(6);
        let mut out = format!("{:<name_w$}", "series");
        for x in &xs {
            let _ = write!(out, " {:>12}", format!("x={x}"));
        }
        out.push('\n');
        for s in &self.series {
            let _ = write!(out, "{:<name_w$}", s.name);
            for x in &xs {
                match s.y_at(*x) {
                    Some(y) => {
                        let _ = write!(out, " {y:>12.0}");
                    }
                    None => {
                        let _ = write!(out, " {:>12}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

/// One job's cycle attribution: which series/x it belongs to and the
/// per-category ledger (whose total is the run's simulated cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Legend label of the series the job contributed to.
    pub series: String,
    /// X value of the corresponding [`Point`].
    pub x: f64,
    /// Per-category attribution.
    pub ledger: CycleLedger,
}

/// Per-figure cycle-attribution table, assembled in plan order so it is
/// byte-identical at any worker count (same guarantee as [`SeriesSet`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownSet {
    /// Figure identifier, e.g. `"fig2"`.
    pub figure: String,
    /// Rows in plan order.
    pub rows: Vec<BreakdownRow>,
}

impl BreakdownSet {
    /// An empty table for `figure`.
    pub fn new(figure: impl Into<String>) -> Self {
        Self { figure: figure.into(), rows: Vec::new() }
    }

    /// Long-format CSV: `figure,series,x,total,<one column per ledger
    /// category>` in [`CycleLedger::CATEGORIES`] order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("figure,series,x,total");
        for cat in CycleLedger::CATEGORIES {
            let _ = write!(out, ",{cat}");
        }
        out.push('\n');
        for row in &self.rows {
            let _ = write!(out, "{},{},{},{}", self.figure, row.series, row.x, row.ledger.total());
            for v in row.ledger.values() {
                let _ = write!(out, ",{v}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_csv_has_one_column_per_category() {
        let mut set = BreakdownSet::new("figX");
        let ledger = CycleLedger { user_compute: 70, idle: 30, ..CycleLedger::default() };
        set.rows.push(BreakdownRow { series: "a".into(), x: 2.0, ledger });
        let csv = set.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert_eq!(header.split(',').count(), 4 + CycleLedger::CATEGORIES.len());
        assert!(header.starts_with("figure,series,x,total,user_compute,"));
        let row = lines.next().expect("row");
        assert!(row.starts_with("figX,a,2,100,70,"));
    }

    #[test]
    fn csv_is_long_format() {
        let mut set = SeriesSet::new("figX");
        let mut s = Series::new("a");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        set.push(s);
        let csv = set.to_csv();
        assert!(csv.starts_with("figure,series,x,y\n"));
        assert!(csv.contains("figX,a,1,10"));
        assert!(csv.contains("figX,a,2,20"));
    }

    #[test]
    fn table_renders_missing_points_as_dash() {
        let mut set = SeriesSet::new("f");
        let mut a = Series::new("a");
        a.push(1.0, 5.0);
        let mut b = Series::new("b");
        b.push(2.0, 6.0);
        set.push(a);
        set.push(b);
        let t = set.to_table();
        assert!(t.contains('-'));
        assert!(t.contains("x=1"));
        assert!(t.contains("x=2"));
    }

    #[test]
    fn y_at_lookup() {
        let mut s = Series::new("s");
        s.push(3.0, 9.0);
        assert_eq!(s.y_at(3.0), Some(9.0));
        assert_eq!(s.y_at(4.0), None);
    }
}
