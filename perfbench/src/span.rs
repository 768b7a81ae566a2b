//! In-memory spans around the benchmark's calls into each layer,
//! written out as JSON lines when the traced run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start and end (ns since the recorder started).
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u128,
    /// End, ns since the recorder was created.
    pub end_ns: u128,
}

/// Collects spans in the order they end.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Runs `f` inside a span named `name`; returns its value and its
    /// wall seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let value = f();
        let t1 = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: t0.duration_since(self.origin).as_nanos(),
            end_ns: t1.duration_since(self.origin).as_nanos(),
        });
        (value, (t1 - t0).as_secs_f64())
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span, then each `(name, value)` summary record, as
    /// one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn write_jsonl(&self, path: &Path, summary: &[(String, f64)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, value) in summary {
            writeln!(
                out,
                "{{\"metric\": \"{name}\", \"value\": {}}}",
                json_number(*value)
            )?;
        }
        out.flush()
    }
}

/// A JSON number with every digit Rust prints for the `f64`; `null`
/// when it is not finite.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
