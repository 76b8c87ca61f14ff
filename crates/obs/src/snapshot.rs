//! Metric snapshots and their one export, JSON lines.
//!
//! The JSON-lines form is the archival format: one flat JSON object per
//! metric, hand-rolled with `write!` (the workspace has no JSON
//! dependency) and parseable back via [`MetricsSnapshot::parse_jsonl`] —
//! the round-trip is what CI archives and what the snapshot tests gate
//! on. Unrecognized lines (per-query trace events) are skipped on parse,
//! so one `.jsonl` file can interleave a snapshot and traces.

use crate::hist::HistogramSnapshot;
use std::fmt::Write as _;

/// One metric's point-in-time value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Signed gauge.
    Gauge(i64),
    /// Log-bucketed histogram.
    Histogram(HistogramSnapshot),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// Dotted metric name (see [`crate::names`]).
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time copy of a whole [`crate::MetricsRegistry`],
/// name-sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All registered metrics, ascending by name.
    pub entries: Vec<MetricSnapshot>,
}

impl MetricsSnapshot {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// Convenience: a counter's value (`None` when absent or of a
    /// different kind).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: a histogram's snapshot.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Serializes to JSON lines: one object per metric.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"name\":\"{}\",\"kind\":\"counter\",\"value\":{v}}}",
                        e.name
                    );
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"name\":\"{}\",\"kind\":\"gauge\",\"value\":{v}}}",
                        e.name
                    );
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                        e.name, h.count, h.sum, h.max
                    );
                    for (i, (lower, n)) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{lower},{n}]");
                    }
                    out.push_str("]}\n");
                }
            }
        }
        out
    }

    /// Parses the JSON-lines form back (the inverse of
    /// [`MetricsSnapshot::to_jsonl`]). Lines that are not metric objects
    /// (no `"kind"` key — e.g. interleaved trace events) are skipped;
    /// malformed lines are an error.
    pub fn parse_jsonl(text: &str) -> Result<MetricsSnapshot, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields = parse_flat_object(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let Some(JsonValue::Str(kind)) =
                fields.iter().find(|(k, _)| k == "kind").map(|(_, v)| v)
            else {
                continue;
            };
            let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let name = match get("name") {
                Some(JsonValue::Str(s)) => s.clone(),
                _ => return Err(format!("line {}: metric without a name", i + 1)),
            };
            let int = |key: &str| -> Result<i64, String> {
                match get(key) {
                    Some(JsonValue::Int(v)) => Ok(*v),
                    _ => Err(format!("line {}: `{name}` missing numeric `{key}`", i + 1)),
                }
            };
            let value = match kind.as_str() {
                "counter" => MetricValue::Counter(int("value")? as u64),
                "gauge" => MetricValue::Gauge(int("value")?),
                "histogram" => {
                    let buckets = match get("buckets") {
                        Some(JsonValue::Pairs(p)) => p.clone(),
                        _ => return Err(format!("line {}: `{name}` missing buckets", i + 1)),
                    };
                    MetricValue::Histogram(HistogramSnapshot {
                        count: int("count")? as u64,
                        sum: int("sum")? as u64,
                        max: int("max")? as u64,
                        buckets,
                    })
                }
                other => return Err(format!("line {}: unknown metric kind `{other}`", i + 1)),
            };
            entries.push(MetricSnapshot { name, value });
        }
        Ok(MetricsSnapshot { entries })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Str(String),
    Int(i64),
    Pairs(Vec<(u64, u64)>),
}

/// Parses one flat `{"key":value,...}` object of the snapshot dialect:
/// string / integer / `[[u64,u64],...]` values only. Not a general JSON
/// parser — exactly the inverse of what [`MetricsSnapshot::to_jsonl`] and
/// [`crate::QueryTrace::to_json`] emit.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let key_start = rest.strip_prefix('"').ok_or("expected a quoted key")?;
        let key_end = key_start.find('"').ok_or("unterminated key")?;
        let key = &key_start[..key_end];
        rest = key_start[key_end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or("expected `:` after key")?
            .trim_start();
        let (value, remainder) = parse_value(rest)?;
        fields.push((key.to_string(), value));
        rest = remainder.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("trailing content `{rest}`"));
        }
    }
    Ok(fields)
}

fn parse_value(rest: &str) -> Result<(JsonValue, &str), String> {
    if let Some(s) = rest.strip_prefix('"') {
        let end = s.find('"').ok_or("unterminated string")?;
        return Ok((JsonValue::Str(s[..end].to_string()), &s[end + 1..]));
    }
    if let Some(list) = rest.strip_prefix('[') {
        let end = list.find("]]").map(|i| i + 1).unwrap_or(
            // Empty bucket list: "[]".
            list.find(']').ok_or("unterminated array")?,
        );
        let (body, remainder) = (&list[..end], &list[end + 1..]);
        let mut pairs = Vec::new();
        for pair in body.split("],").filter(|p| !p.trim().is_empty()) {
            let pair = pair.trim().trim_start_matches('[').trim_end_matches(']');
            let (a, b) = pair
                .split_once(',')
                .ok_or_else(|| format!("malformed bucket pair `{pair}`"))?;
            let a: u64 = a.trim().parse().map_err(|_| "bad bucket bound")?;
            let b: u64 = b.trim().parse().map_err(|_| "bad bucket count")?;
            pairs.push((a, b));
        }
        return Ok((JsonValue::Pairs(pairs), remainder));
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-'))
        .unwrap_or(rest.len());
    if end == 0 {
        return Err(format!("unexpected value at `{rest}`"));
    }
    let v: i64 = rest[..end].parse().map_err(|_| "bad integer")?;
    Ok((JsonValue::Int(v), &rest[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter("cache.hits").add(123);
        r.gauge("serve.queue_depth").set(-4);
        let h = r.histogram("serve.service_nanos");
        for v in [3u64, 3, 70, 5_000, 123_456] {
            h.record(v);
        }
        r.histogram("serve.queue_wait_nanos"); // empty histogram
        r.snapshot()
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let snap = sample();
        let text = snap.to_jsonl();
        assert_eq!(text.lines().count(), snap.entries.len());
        let parsed = MetricsSnapshot::parse_jsonl(&text).expect("parse back");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_skips_non_metric_lines_and_blanks() {
        let snap = sample();
        let mut text = String::from("{\"snapshot\":1,\"elapsed_nanos\":99}\n\n");
        text.push_str(&snap.to_jsonl());
        text.push_str("{\"trace_id\":7,\"worker\":0,\"queue_wait_nanos\":5,\"service_nanos\":10,\"pool_hits\":1,\"pool_misses\":2,\"result_ids\":3}\n");
        let parsed = MetricsSnapshot::parse_jsonl(&text).expect("parse with extras");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MetricsSnapshot::parse_jsonl("not json").is_err());
        assert!(MetricsSnapshot::parse_jsonl("{\"kind\":\"counter\"}").is_err());
        assert!(
            MetricsSnapshot::parse_jsonl("{\"name\":\"x\",\"kind\":\"wobble\",\"value\":1}")
                .is_err()
        );
    }

    #[test]
    fn accessors_find_metrics_by_name() {
        let snap = sample();
        assert_eq!(snap.counter("cache.hits"), Some(123));
        assert_eq!(snap.counter("cache.misses"), None);
        assert_eq!(snap.counter("serve.queue_depth"), None, "kind mismatch");
        let h = snap.histogram("serve.service_nanos").expect("histogram");
        assert_eq!(h.count, 5);
        assert_eq!(h.max, 123_456);
    }
}
