//! A tiny Prometheus text-exposition parser/checker — enough to
//! validate our own `/metrics` output: `tm-query --metrics` uses it to
//! pretty-print and to assert required series exist, and the CI smoke
//! uses that flag as its in-repo format checker.
//!
//! Checked invariants:
//!
//! * every non-comment line is `name[{labels}] value` with a parsable
//!   float value and well-formed label syntax;
//! * every sample's base name was declared by a preceding `# TYPE` line,
//!   no family is declared twice, and no series (name plus label set)
//!   appears twice;
//! * histogram `_bucket` series are cumulative (non-decreasing in `le`
//!   order as emitted) and end with an `+Inf` bucket equal to `_count`.

use std::collections::{HashMap, HashSet};

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// The full sample name (including `_bucket`/`_sum`/`_count`
    /// suffixes for histogram series).
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A fully parsed exposition: samples plus declared metric types.
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    /// Every sample line, in source order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: base name → kind.
    pub types: HashMap<String, String>,
}

impl Exposition {
    /// All samples with the given name.
    pub fn series(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// `true` if at least one sample with this name exists. For
    /// histograms pass the base name: declared histogram types count as
    /// present when their `_count` series exists.
    pub fn has_series(&self, name: &str) -> bool {
        self.samples.iter().any(|s| s.name == name)
            || (self.types.get(name).is_some_and(|k| k == "histogram")
                && self.samples.iter().any(|s| s.name == format!("{name}_count")))
    }
}

fn parse_labels(block: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let key = rest[..eq].trim().to_owned();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("line {line_no}: bad label name {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("line {line_no}: label value must be quoted"))?;
        // Scan to the closing quote, honoring backslash escapes.
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return Err(format!("line {line_no}: dangling escape")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((key, value));
        rest = rest[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(labels)
}

fn parse_value(text: &str, line_no: usize) -> Result<f64, String> {
    match text {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse()
            .map_err(|e| format!("line {line_no}: bad value {other:?}: {e}")),
    }
}

/// The base metric name a sample belongs to (strips histogram
/// suffixes when the stripped name was declared as a histogram).
fn base_name<'a>(sample: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = sample.strip_suffix(suffix) {
            if types.get(stripped).is_some_and(|k| k == "histogram") {
                return stripped;
            }
        }
    }
    sample
}

/// Parses a full text exposition, validating structure (see the module
/// docs for the checked invariants).
pub fn parse_prometheus(text: &str) -> Result<Exposition, String> {
    let mut exposition = Exposition::default();
    let mut seen: HashSet<(String, Vec<(String, String)>)> = HashSet::new();
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without a name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without a kind"))?;
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {line_no}: unknown TYPE kind {kind:?}"));
                }
                if exposition.types.insert(name.to_owned(), kind.to_owned()).is_some() {
                    return Err(format!("line {line_no}: family {name:?} declared twice"));
                }
            }
            continue;
        }
        // Sample: name[{labels}] value
        let (name_part, value_part) = match line.find('{') {
            Some(open) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unterminated label block"))?;
                (
                    (&line[..open], parse_labels(&line[open + 1..close], line_no)?),
                    line[close + 1..].trim(),
                )
            }
            None => {
                let mut parts = line.splitn(2, char::is_whitespace);
                let name = parts.next().unwrap_or_default();
                let value = parts
                    .next()
                    .ok_or_else(|| format!("line {line_no}: sample without a value"))?;
                ((name, Vec::new()), value.trim())
            }
        };
        let (name, labels) = name_part;
        let name = name.trim();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {line_no}: bad metric name {name:?}"));
        }
        let base = base_name(name, &exposition.types);
        if !exposition.types.contains_key(base) {
            return Err(format!("line {line_no}: sample {name:?} has no TYPE declaration"));
        }
        let mut series = labels.clone();
        series.sort();
        if !seen.insert((name.to_owned(), series)) {
            return Err(format!("line {line_no}: series {name:?} repeated"));
        }
        exposition.samples.push(Sample {
            name: name.to_owned(),
            labels,
            value: parse_value(value_part, line_no)?,
        });
    }
    check_histograms(&exposition)?;
    Ok(exposition)
}

/// Validates the cumulative-bucket invariant of every declared
/// histogram: within one label set (ignoring `le`), bucket values are
/// non-decreasing in emission order, an `+Inf` bucket exists, and it
/// equals the `_count` sample.
fn check_histograms(exposition: &Exposition) -> Result<(), String> {
    // A sample's label set without `le`, as one comparable string.
    let labels_of = |sample: &Sample| -> String {
        let labels: Vec<String> = sample
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        labels.join(",")
    };
    for (name, kind) in &exposition.types {
        if kind != "histogram" {
            continue;
        }
        // Group buckets by their non-`le` label signature.
        let mut groups: HashMap<String, Vec<&Sample>> = HashMap::new();
        for sample in &exposition.samples {
            if sample.name == format!("{name}_bucket") {
                groups.entry(labels_of(sample)).or_default().push(sample);
            }
        }
        if groups.is_empty() {
            // A declared histogram with no buckets yet is fine (no
            // observations, no series registered) unless count exists.
            continue;
        }
        for (signature, buckets) in &groups {
            let mut previous = 0.0f64;
            for bucket in buckets {
                if bucket.value < previous {
                    return Err(format!(
                        "histogram {name}{{{signature}}}: bucket values not cumulative"
                    ));
                }
                previous = bucket.value;
            }
            let last = buckets.last().expect("non-empty group");
            if last.label("le") != Some("+Inf") {
                return Err(format!("histogram {name}{{{signature}}}: missing +Inf bucket"));
            }
            let count = exposition
                .samples
                .iter()
                .find(|s| s.name == format!("{name}_count") && labels_of(s) == *signature)
                .ok_or_else(|| format!("histogram {name}{{{signature}}}: missing _count"))?;
            if (last.value - count.value).abs() > 0.0 {
                return Err(format!(
                    "histogram {name}{{{signature}}}: +Inf bucket {} != count {}",
                    last.value, count.value
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_gauges_and_histograms() {
        let text = "\
# HELP tm_queries_total total queries
# TYPE tm_queries_total counter
tm_queries_total{result=\"ok\"} 41
tm_queries_total{result=\"aborted\"} 1
# TYPE tm_tracked_bytes gauge
tm_tracked_bytes 123456
# TYPE tm_query_seconds histogram
tm_query_seconds_bucket{le=\"0.001\"} 2
tm_query_seconds_bucket{le=\"+Inf\"} 3
tm_query_seconds_sum 0.25
tm_query_seconds_count 3
";
        let exposition = parse_prometheus(text).expect("valid exposition");
        assert_eq!(exposition.series("tm_queries_total").len(), 2);
        assert!(exposition.has_series("tm_tracked_bytes"));
        assert!(exposition.has_series("tm_query_seconds"));
        assert!(!exposition.has_series("tm_nope"));
        let ok = &exposition.series("tm_queries_total")[0];
        assert_eq!(ok.label("result"), Some("ok"));
        assert_eq!(ok.value, 41.0);
    }

    #[test]
    fn rejects_undeclared_and_malformed_samples() {
        assert!(parse_prometheus("tm_x 1\n").is_err(), "no TYPE declaration");
        assert!(
            parse_prometheus("# TYPE tm_x counter\ntm_x notanumber\n").is_err(),
            "bad value"
        );
        assert!(
            parse_prometheus("# TYPE tm_x counter\ntm_x{l=unquoted} 1\n").is_err(),
            "unquoted label"
        );
        assert!(
            parse_prometheus("# TYPE tm_x wibble\n").is_err(),
            "unknown kind"
        );
    }

    #[test]
    fn rejects_repeated_families_and_series() {
        let registry = crate::Registry::new();
        registry.counter("tm_x_total", "x", &[("k", "a")]).inc();
        let one = registry.render_prometheus();
        assert!(parse_prometheus(&one).is_ok());
        // Two concatenated renders declare every family twice.
        let twice = format!("{one}{one}");
        assert!(parse_prometheus(&twice).unwrap_err().contains("declared twice"));
        // A repeated series is caught even when its labels are reordered.
        let text = "\
# TYPE tm_y_total counter
tm_y_total{a=\"1\",b=\"2\"} 1
tm_y_total{b=\"2\",a=\"1\"} 1
";
        assert!(parse_prometheus(text).unwrap_err().contains("repeated"));
        // Distinct label sets of one family are fine.
        let text = "\
# TYPE tm_y_total counter
tm_y_total{a=\"1\"} 1
tm_y_total{a=\"2\"} 1
";
        assert_eq!(parse_prometheus(text).unwrap().series("tm_y_total").len(), 2);
    }

    #[test]
    fn rejects_non_cumulative_histograms() {
        let text = "\
# TYPE tm_h histogram
tm_h_bucket{le=\"1\"} 5
tm_h_bucket{le=\"2\"} 3
tm_h_bucket{le=\"+Inf\"} 5
tm_h_sum 9
tm_h_count 5
";
        assert!(parse_prometheus(text).unwrap_err().contains("not cumulative"));
        let text = "\
# TYPE tm_h histogram
tm_h_bucket{le=\"1\"} 5
tm_h_bucket{le=\"+Inf\"} 5
tm_h_sum 9
tm_h_count 6
";
        assert!(parse_prometheus(text).unwrap_err().contains("!= count"));
    }
}
