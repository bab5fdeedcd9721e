//! Plain-text table rendering for reports.

use splash4_parmacs::Json;
use std::fmt::Write as _;

/// A rendered experiment artifact: human-readable text plus machine-readable
/// JSON.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `F2-sim-epyc`).
    pub id: String,
    /// One-line title.
    pub title: String,
    /// The rendered table/figure text.
    pub text: String,
    /// Machine-readable payload.
    pub json: Json,
}

impl Report {
    /// A report whose text is one table's rendering.
    pub(crate) fn of_table(id: &str, title: impl Into<String>, t: &Table, json: Json) -> Report {
        Report {
            id: id.into(),
            title: title.into(),
            text: t.render(),
            json,
        }
    }

    /// Render id, title and body for terminal output.
    pub fn to_terminal(&self) -> String {
        format!("== {} — {} ==\n{}\n", self.id, self.title, self.text)
    }
}

/// Column-aligned text table builder.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for c in 0..ncols {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:width$}", cells[c], width = widths[c]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Geometric mean of positive values (ignores non-positive entries).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return f64::NAN;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Format a ratio as a percentage change, paper-style: 0.48 → "-52.0%".
pub fn pct_change(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]).row(vec!["longer", "22"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].split_whitespace().count(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        Table::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn pct_change_formats() {
        assert_eq!(pct_change(0.48), "-52.0%");
        assert_eq!(pct_change(1.10), "+10.0%");
    }
}
