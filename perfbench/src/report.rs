//! Sample statistics and the metric report: a human-readable table of
//! every metric (name, value, unit, sample count, note) followed by
//! the one-line JSON result.

use std::fmt::Write as _;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of `v`: the highest percentile with at least ten samples
/// beyond it, as `(value, percentile)`. With fewer than eleven
/// samples no such percentile exists; the maximum is reported as the
/// 100th percentile instead.
pub fn tail(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "tail of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 11 {
        return (s[n - 1], 100.0);
    }
    let i = n - 11;
    (s[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// One named measurement.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
}

/// Every metric a run produced, in insertion order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric; `samples` is how many measurements it
    /// summarises (1 for an exact count).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, note: &str) {
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} recorded twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: note.to_string(),
        });
    }

    /// Prints the table, one `metric` line per entry.
    pub fn print_table(&self) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  # {}", m.note)
            };
            println!(
                "metric {:<36} {:>16} {:<6} n={}{}",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples,
                note
            );
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// metrics named in `names` (each must have been recorded).
    pub fn json(&self, names: &[&str], correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("declared metric {name} was not measured"));
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                format_value(m.value),
                m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

/// Full-precision rendering that is also valid JSON (`{}` on `f64`
/// prints the shortest round-tripping form, e.g. `65536` or `0.125`).
fn format_value(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 10 samples (91..=100) lie beyond the 90th value.
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
    }

    #[test]
    fn json_lists_declared_metrics_only() {
        let mut r = Report::default();
        r.put("a", 1.5, "ms", 3, "");
        r.put("b", 2.0, "count", 1, "exact");
        let line = r.json(&["b"], true, 4, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }
}
