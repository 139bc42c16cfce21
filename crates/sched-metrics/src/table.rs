//! Plain-text tables for the experiment binaries.

/// Column-aligned text table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                // Left-align the first column, right-align the rest.
                if i == 0 {
                    line.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", cells[i], w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "10000".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].starts_with("alpha"));
        // Right-aligned numeric column.
        assert!(lines[2].ends_with("    1"));
        assert!(lines[3].ends_with("10000"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new(&["a", "b"]).row(vec!["x".into()]);
    }
}
