//! Usage logging — the reproduction of the paper's `lux-logger` extension.
//!
//! The paper instruments widget interactions and notebook actions to study
//! usage ("based on 514 collected logs of Lux usage...", §9 fn. 2; "logged
//! via a custom extension", §10.1). [`SessionLogger`] records the analogous
//! events here — prints, intent changes, exports, derived operations — as
//! JSON-lines, either in memory or appended to a file, so deployments can
//! analyze real workflows the same way.

use std::fmt;
use std::io::Write;
use std::sync::Arc;
use std::sync::Mutex;

use lux_engine::sync::lock_recover;

/// The kinds of events the paper's study cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A dataframe or series print (the always-on trigger).
    Print,
    /// The user set or cleared an intent.
    IntentChanged,
    /// A visualization was exported from the widget.
    Export,
    /// A derived-frame operation (filter, groupby, ...).
    Operation,
    /// An action failed, degraded, or was disabled during a pass (see
    /// `lux-recs::fault`); the detail carries the action name and reason.
    ActionFault,
    /// Per-pass timing summary (see [`lux_engine::PassSummary`]); the
    /// detail is its compact JSON payload, so session logs carry the same
    /// stage/memo numbers the pass trace does.
    PassSummary,
    /// Serving-layer lifecycle: boot, journal recovery, drain, shutdown.
    Server,
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Print => "print",
            EventKind::IntentChanged => "intent",
            EventKind::Export => "export",
            EventKind::Operation => "operation",
            EventKind::ActionFault => "action-fault",
            EventKind::PassSummary => "pass-summary",
            EventKind::Server => "server",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One logged event.
#[derive(Debug, Clone)]
pub struct LogEvent {
    /// Seconds since the Unix epoch at record time.
    pub timestamp: f64,
    pub kind: EventKind,
    /// Free-form detail (`"print df 1000x12"`, `"intent = \[price\]"`).
    pub detail: String,
    /// Wall seconds the event took, when measurable (prints).
    pub elapsed: Option<f64>,
}

impl LogEvent {
    fn to_json(&self) -> String {
        // Full JSON string escaping — control characters (`\t`, `\r`, raw
        // 0x00..0x1f) must not pass through, or the JSONL line is invalid.
        let elapsed = self
            .elapsed
            .map(|e| format!(", \"elapsed\": {e}"))
            .unwrap_or_default();
        format!(
            "{{\"ts\": {:.3}, \"kind\": \"{}\", \"detail\": \"{}\"{elapsed}}}",
            self.timestamp,
            self.kind,
            lux_engine::trace::json_escape(&self.detail)
        )
    }
}

enum Sink {
    /// Kept for inspection (tests, the REPL).
    Memory(Vec<LogEvent>),
    /// Appended to a file, one write per line; nothing kept.
    File(std::fs::File),
    /// Dropped: the server's fallback when its log file cannot be opened.
    Discard,
}

/// Records usage events; clone the `Arc` into every wrapper that should
/// report to the same session log.
pub struct SessionLogger {
    sink: Mutex<Sink>,
}

impl SessionLogger {
    fn with(sink: Sink) -> Arc<SessionLogger> {
        Arc::new(SessionLogger {
            sink: Mutex::new(sink),
        })
    }

    /// An in-memory logger (inspect with [`SessionLogger::events`]).
    pub fn in_memory() -> Arc<SessionLogger> {
        Self::with(Sink::Memory(Vec::new()))
    }

    /// A logger that appends JSON-lines to `path`, after whatever the file
    /// already holds. It is a sink, not a store: nothing is kept in memory
    /// and nothing is read back, so [`SessionLogger::events`] stays empty.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Arc<SessionLogger>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::with(Sink::File(file)))
    }

    /// A logger that drops every event.
    pub fn discard() -> Arc<SessionLogger> {
        Self::with(Sink::Discard)
    }

    /// Record one event.
    pub fn log(&self, kind: EventKind, detail: impl Into<String>, elapsed: Option<f64>) {
        let event = LogEvent {
            timestamp: lux_engine::clock::unix_millis() as f64 / 1_000.0,
            kind,
            detail: detail.into(),
            elapsed,
        };
        match &mut *lock_recover(&self.sink) {
            Sink::Memory(events) => events.push(event),
            Sink::File(f) => {
                // One `write_all`: `writeln!` on a `File` is two syscalls.
                let mut line = event.to_json();
                line.push('\n');
                let _ = f.write_all(line.as_bytes());
            }
            Sink::Discard => {}
        }
    }

    /// Snapshot of the recorded events (empty unless in memory).
    pub fn events(&self) -> Vec<LogEvent> {
        match &*lock_recover(&self.sink) {
            Sink::Memory(events) => events.clone(),
            _ => Vec::new(),
        }
    }

    /// Count of events of one kind.
    pub fn count_of(&self, kind: EventKind) -> usize {
        self.events().iter().filter(|e| e.kind == kind).count()
    }

    /// The full JSONL rendering of the session so far.
    pub fn to_jsonl(&self) -> String {
        let lines: Vec<String> = self.events().iter().map(LogEvent::to_json).collect();
        lines.join("\n")
    }

    /// Seconds between consecutive prints — the paper's "think time"
    /// distribution (fn. 2: median 2.8 s between showing the table and
    /// toggling to the Lux view).
    pub fn think_times(&self) -> Vec<f64> {
        let prints: Vec<f64> = self
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Print)
            .map(|e| e.timestamp)
            .collect();
        prints.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts_events() {
        let log = SessionLogger::in_memory();
        log.log(EventKind::Print, "print df", Some(0.01));
        log.log(EventKind::IntentChanged, "intent = [price]", None);
        log.log(EventKind::Print, "print df", Some(0.02));
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.count_of(EventKind::Print), 2);
        assert_eq!(log.think_times().len(), 1);
    }

    #[test]
    fn jsonl_is_escaped_and_line_per_event() {
        let log = SessionLogger::in_memory();
        log.log(EventKind::Export, "vis \"quoted\"\nnewline", None);
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\\\"quoted\\\""));
        assert!(jsonl.contains("\\n"));
    }

    #[test]
    fn control_characters_are_escaped() {
        // Regression: raw \t, \r, and other control bytes used to pass
        // through unescaped, producing invalid JSONL.
        let log = SessionLogger::in_memory();
        log.log(EventKind::Operation, "tab\there\rcr\u{1}ctrl", None);
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("tab\\there"), "{jsonl}");
        assert!(jsonl.contains("\\rcr"), "{jsonl}");
        assert!(jsonl.contains("\\u0001ctrl"), "{jsonl}");
        assert!(!jsonl.contains('\t') && !jsonl.contains('\r'));
    }

    /// A file logger is a sink, not a store: it appends after whatever the
    /// file already holds (foreign lines included) and keeps nothing in
    /// memory however long the session runs.
    #[test]
    fn file_logger_appends_after_foreign_lines_and_keeps_nothing() {
        let dir = std::env::temp_dir().join(format!("lux_logger_sink_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("session.jsonl");
        std::fs::write(&path, "not json\n{\"foreign\": true}\n").expect("seed file");
        let log = SessionLogger::to_file(&path).expect("open logger");
        for i in 0..10_000 {
            log.log(EventKind::Print, format!("print {i}"), None);
        }
        assert!(log.events().is_empty(), "a file logger kept events");
        let content = std::fs::read_to_string(&path).expect("read log");
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 10_002);
        assert_eq!(lines[..2], ["not json", "{\"foreign\": true}"]);
        assert!(lines[2].contains("\"detail\": \"print 0\""), "{}", lines[2]);
        assert!(lines[10_001].contains("\"detail\": \"print 9999\""));
        assert!(content.ends_with("}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_sink_appends() {
        let dir = std::env::temp_dir().join("lux_logger_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let log = SessionLogger::to_file(&path).unwrap();
            log.log(EventKind::Print, "a", None);
            log.log(EventKind::Operation, "b", None);
        }
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
