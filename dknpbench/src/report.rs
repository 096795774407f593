//! Named metrics and the result line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Free-text context for the human report (sample counts, bases).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// Attach a note for the human report.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// One human-readable report line.
pub fn human_line(m: &Metric) -> String {
    if m.note.is_empty() {
        format!("{:<34} {:>16.4} {}", m.name, m.value, m.unit)
    } else {
        format!(
            "{:<34} {:>16.4} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("setup_s", 0.8125, "s"),
                Metric::new("x", f64::NAN, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
