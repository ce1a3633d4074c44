//! Metric values and their two renderings: an aligned table for people and
//! the one-line JSON result the last line of output carries.

use std::fmt::Write;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json` or the docs.
    pub name: &'static str,
    /// Value; `None` when the sample is too small to support it.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric with a value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: Some(value),
            unit,
            samples: None,
        }
    }

    /// A statistic over `samples` values (`None` if unsupported).
    pub fn stat(
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
        samples: usize,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: Some(samples),
        }
    }
}

/// Renders `metrics` as an aligned `name value unit samples` table.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut s = format!("# {title}\n");
    let _ = writeln!(
        s,
        "{:<38} {:>16} {:<14} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        let value = m
            .value
            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
        let samples = m.samples.map_or_else(|| "-".to_string(), |n| n.to_string());
        let _ = writeln!(
            s,
            "{:<38} {:>16} {:<14} {:>9}",
            m.name, value, m.unit, samples
        );
    }
    s
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the named metrics.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value.map_or_else(|| "null".into(), json_number),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
