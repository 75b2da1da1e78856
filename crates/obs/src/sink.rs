//! Output sinks: human-readable text and machine-readable JSONL.

use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::event::{EventRecord, Level};

/// A destination for event records.
///
/// Sinks run under the pipeline's sink mutex, so implementations may
/// hold internal state without further locking. Write failures are
/// swallowed — observability must never take the flow down.
pub trait Sink: Send {
    /// Consumes one record.
    fn emit(&mut self, rec: &EventRecord);
    /// Flushes buffered output (best-effort).
    fn flush(&mut self) {}
}

/// Human-readable line-per-event sink with its own level filter.
pub struct TextSink {
    out: Box<dyn Write + Send>,
    max_level: Level,
}

impl TextSink {
    /// A text sink writing records at or below `max_level` to `out`.
    pub fn new(out: Box<dyn Write + Send>, max_level: Level) -> Self {
        Self { out, max_level }
    }

    /// A text sink on stderr.
    pub fn stderr(max_level: Level) -> Self {
        Self::new(Box::new(std::io::stderr()), max_level)
    }
}

impl Sink for TextSink {
    fn emit(&mut self, rec: &EventRecord) {
        if rec.level <= self.max_level {
            let _ = writeln!(self.out, "{}", rec.to_text());
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// One-JSON-object-per-line sink; emits every record it receives (the
/// pipeline's verbosity already filtered upstream).
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
}

impl JsonlSink {
    /// A JSONL sink writing to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self { out }
    }

    /// A JSONL sink appending to the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `File::create` error.
    pub fn file(path: &std::path::Path) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(f))))
    }
}

impl Sink for JsonlSink {
    fn emit(&mut self, rec: &EventRecord) {
        let _ = writeln!(self.out, "{}", rec.to_json().to_json());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// A clonable in-memory byte buffer usable as a sink target — lets
/// tests and the report gate capture a JSONL stream without touching the
/// filesystem.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer contents decoded as UTF-8 (lossy).
    pub fn contents(&self) -> String {
        let buf = self
            .buf
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        String::from_utf8_lossy(&buf).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::json;

    fn rec(level: Level, name: &str) -> EventRecord {
        EventRecord {
            kind: EventKind::Event,
            seq: 1,
            ts_ms: 0.5,
            span: None,
            parent: None,
            level,
            name: name.to_string(),
            elapsed_ms: None,
            fields: vec![],
        }
    }

    #[test]
    fn text_sink_filters_by_level() {
        let buf = SharedBuf::new();
        let mut sink = TextSink::new(Box::new(buf.clone()), Level::Info);
        sink.emit(&rec(Level::Debug, "hidden"));
        sink.emit(&rec(Level::Info, "shown"));
        let text = buf.contents();
        assert!(!text.contains("hidden"));
        assert!(text.contains("shown"));
    }

    #[test]
    fn jsonl_sink_emits_parseable_lines() {
        let buf = SharedBuf::new();
        let mut sink = JsonlSink::new(Box::new(buf.clone()));
        sink.emit(&rec(Level::Trace, "a"));
        sink.emit(&rec(Level::Error, "b"));
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("t").and_then(json::Value::as_str), Some("event"));
        }
    }
}
