//! What the `bench_*` gate binaries share: the verdict of a gate and the
//! JSON report each one writes.
//!
//! A binary reads its options from its usage synopsis with
//! [`crate::args::Args::from_env`] (an unknown or malformed option exits
//! 2), measures, writes its report with [`write_report`] (which adds the
//! `"scale"`, `"host"` and `"gates"` fields), prints its summary and ends
//! with [`finish`]: one `gate NAME: VERDICT` line per gate, and the exit
//! code.

use std::fmt::{Display, Write as _};

/// Outcome of one acceptance gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// The gate held.
    Pass,
    /// The gate did not hold; the process exits 1.
    Fail,
    /// The host cannot decide the question, for the reason given. It is
    /// recorded but never fails the run.
    Inconclusive(&'static str),
}

impl From<bool> for Gate {
    fn from(ok: bool) -> Self {
        if ok {
            Gate::Pass
        } else {
            Gate::Fail
        }
    }
}

/// A JSON value. Objects keep their fields in the order given; strings
/// are escaped when rendered.
#[derive(Debug)]
pub enum Json {
    /// A number or boolean, already formatted.
    Raw(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A number (or boolean) as `Display` writes it.
    pub fn num(x: impl Display) -> Json {
        Json::Raw(x.to_string())
    }

    /// A duration in microseconds with two decimals.
    pub fn micros(d: std::time::Duration) -> Json {
        Json::fixed(d.as_secs_f64() * 1e6, 2)
    }

    /// Each of `xs` with `decimals` digits after the point.
    pub fn fixed_list(xs: &[f64], decimals: usize) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::fixed(x, decimals)).collect())
    }

    /// `x` with `decimals` digits after the point; `null` if not finite.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        if x.is_finite() {
            Json::Raw(format!("{x:.decimals$}"))
        } else {
            Json::Raw("null".into())
        }
    }

    /// Indented text. An object or array that holds only numbers,
    /// booleans and strings stays on one line.
    fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out, 0);
        out + "\n"
    }

    fn write_to(&self, out: &mut String, depth: usize) {
        let items: Vec<(Option<&str>, &Json)> = match self {
            Json::Raw(s) => return out.push_str(s),
            Json::Str(s) => return escape_into(out, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
        };
        let array = matches!(self, Json::Arr(_));
        let inline = (items.iter()).all(|(_, v)| matches!(v, Json::Raw(_) | Json::Str(_)));
        let (sep, indent) = match inline {
            true => (", ", String::new()),
            false => (",", format!("\n{}", "  ".repeat(depth))),
        };
        out.push(if array { '[' } else { '{' });
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            if !inline {
                out.push_str(&indent);
                out.push_str("  ");
            }
            if let Some(key) = key {
                escape_into(out, key);
                out.push_str(": ");
            }
            value.write_to(out, depth + 1);
        }
        if !items.is_empty() {
            out.push_str(&indent);
        }
        out.push(if array { ']' } else { '}' });
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `"scale"` (for a binary that scales with `TFM_SCALE`) and `"host"`
/// (hardware threads and CPU model, so a checked-in report documents the
/// machine it came from), then `body`, then `"gates"` (`true`, `false` or
/// `"inconclusive"` per gate) unless there are none.
fn report(
    scale: Option<f64>,
    body: Vec<(&'static str, Json)>,
    gates: &[(&'static str, Gate)],
) -> Json {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = vec![
        ("threads", Json::num(threads)),
        ("cpu_model", Json::Str(host_cpu_model())),
    ];
    let verdicts = gates.iter().map(|&(name, gate)| match gate {
        Gate::Inconclusive(_) => (name, Json::Str("inconclusive".into())),
        gate => (name, Json::num(gate == Gate::Pass)),
    });
    let gates = Some(("gates", Json::Obj(verdicts.collect()))).filter(|_| !gates.is_empty());
    let scale = scale.map(|s| ("scale", Json::num(s)));
    let header = scale.into_iter().chain([("host", Json::Obj(host))]);
    Json::Obj(header.chain(body).chain(gates).collect())
}

/// Writes the report to `path`; a write error ends the process.
pub fn write_report(
    path: &str,
    scale: Option<f64>,
    body: Vec<(&'static str, Json)>,
    gates: &[(&'static str, Gate)],
) {
    if let Err(e) = std::fs::write(path, report(scale, body, gates).render()) {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    }
}

/// Prints `gate NAME: VERDICT` per gate and `wrote WHAT`, then ends the
/// process: exit code 1 when a gate failed, 0 otherwise.
pub fn finish(gates: &[(&'static str, Gate)], wrote: &str) -> ! {
    for (name, gate) in gates {
        match gate {
            Gate::Pass => println!("gate {name}: PASS"),
            Gate::Fail => println!("gate {name}: FAIL"),
            Gate::Inconclusive(why) => println!("gate {name}: INCONCLUSIVE ({why})"),
        }
    }
    println!("wrote {wrote}");
    let failed = gates.iter().any(|(_, gate)| *gate == Gate::Fail);
    std::process::exit(i32::from(failed))
}

/// The host's CPU model string (`/proc/cpuinfo` on Linux).
fn host_cpu_model() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo.lines().find(|l| l.starts_with("model name"));
    let model = model.and_then(|l| l.split(':').nth(1)).map(str::trim);
    model.unwrap_or("unknown").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dir_with_quotes_and_backslashes_stays_valid_json() {
        let dir = "/tmp/a \"quoted\" dir\\x\t\u{1}";
        let json = Json::Obj(vec![("store_dir", Json::Str(dir.into()))]).render();
        let want = r#"{"store_dir": "/tmp/a \"quoted\" dir\\x\t\u0001"}"#;
        assert_eq!(json, format!("{want}\n"));
    }

    #[test]
    fn report_has_the_header_then_the_body_then_the_gates() {
        let gates = [
            ("holds", Gate::Pass),
            ("broke", Gate::Fail),
            ("cannot_tell", Gate::Inconclusive("one core")),
        ];
        let rows = Json::Arr(vec![Json::Obj(vec![("wall_s", Json::fixed(0.5, 3))])]);
        let body = vec![
            ("rows", rows),
            ("qps", Json::fixed_list(&[1.0, f64::NAN], 1)),
        ];
        let json = report(Some(0.05), body, &gates).render();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines[..2], ["{", r#"  "scale": 0.05,"#]);
        assert!(lines[2].starts_with(r#"  "host": {"threads": "#), "{json}");
        assert_eq!(
            lines[3..],
            [
                r#"  "rows": ["#,
                r#"    {"wall_s": 0.500}"#,
                r#"  ],"#,
                r#"  "qps": [1.0, null],"#,
                r#"  "gates": {"holds": true, "broke": false, "cannot_tell": "inconclusive"}"#,
                "}",
            ]
        );
        let bare = report(None, vec![], &[]).render();
        assert!(!bare.contains("scale") && !bare.contains("gates"), "{bare}");
    }
}
