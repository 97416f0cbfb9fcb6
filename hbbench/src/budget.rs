//! Budget tables: an end-to-end figure set against the layer figures that
//! should account for it, and the residual nothing measured explains.

/// One budget: rows of layer figures against an end-to-end figure.
#[derive(Debug, Clone)]
pub struct Budget {
    title: String,
    unit: &'static str,
    rows: Vec<(String, f64)>,
    end_to_end: (String, f64),
}

impl Budget {
    /// A budget accounting for `end_to_end` (named `label`), in `unit`.
    pub fn new(title: &str, unit: &'static str, label: &str, end_to_end: f64) -> Budget {
        Budget {
            title: title.to_string(),
            unit,
            rows: Vec::new(),
            end_to_end: (label.to_string(), end_to_end),
        }
    }

    /// Adds a layer row.
    pub fn row(mut self, name: &str, value: f64) -> Budget {
        self.rows.push((name.to_string(), value));
        self
    }

    /// Sum of the layer rows.
    pub fn sum(&self) -> f64 {
        self.rows.iter().map(|(_, v)| v).sum()
    }

    /// End-to-end figure minus the layer sum.
    pub fn residual(&self) -> f64 {
        self.end_to_end.1 - self.sum()
    }

    /// Residual as a share of the end-to-end figure.
    pub fn residual_share(&self) -> f64 {
        if self.end_to_end.1 > 0.0 {
            self.residual() / self.end_to_end.1
        } else {
            0.0
        }
    }

    /// The table, one line per row.
    pub fn render(&self) -> Vec<String> {
        let mut lines = vec![format!("{} ({})", self.title, self.unit)];
        for (name, value) in &self.rows {
            lines.push(format!("  {name:<44} {value:>12.3}"));
        }
        lines.push(format!("  {:<44} {:>12.3}", "= layer sum", self.sum()));
        lines.push(format!(
            "  {:<44} {:>12.3}",
            self.end_to_end.0, self.end_to_end.1
        ));
        lines.push(format!(
            "  {:<44} {:>12.3}  ({:+.1}%)",
            "residual",
            self.residual(),
            100.0 * self.residual_share()
        ));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_what_rows_leave_unexplained() {
        let budget = Budget::new("lag", "ms", "observe p50", 10.0)
            .row("ship", 0.5)
            .row("push", 9.0);
        assert_eq!(budget.sum(), 9.5);
        assert!((budget.residual() - 0.5).abs() < 1e-12);
        assert!((budget.residual_share() - 0.05).abs() < 1e-12);
        assert_eq!(budget.render().len(), 1 + 2 + 3);
    }
}
