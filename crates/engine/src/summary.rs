//! Per-pass summaries (DESIGN.md §7).
//!
//! Every print records a full [`PassTrace`] span tree; [`PassSummary`] boils
//! one down to the handful of numbers worth surfacing — stage durations, the
//! WFLOW memo outcome, per-action tallies, admission and deadline outcome.
//! A finished print computes it once and every sink reads that one value:
//! the widget's timing footer, the `pass-summary` JSONL event, the flight
//! recorder's triggers and the tenant SLO series.

use std::time::Duration;

use crate::trace::{json_escape, PassTrace};

/// Compact per-pass numbers derived from a [`PassTrace`].
#[derive(Debug, Clone)]
pub struct PassSummary {
    /// Wall-clock extent of the whole pass.
    pub total: Duration,
    /// Table rendering time.
    pub table: Duration,
    /// Metadata stage time (zero when served from the memo).
    pub metadata: Duration,
    /// CPU-summed metadata time: per-column scan spans and per-column
    /// `metadata.fold` spans added up across workers. Exceeds `metadata`
    /// when they ran in parallel.
    pub metadata_cpu: Duration,
    /// Recommendation stage time (all actions, including scheduling).
    pub actions: Duration,
    /// CPU-summed action time: per-action spans added up across workers.
    /// Exceeds `actions` when actions ran in parallel.
    pub actions_cpu: Duration,
    /// WFLOW memo outcome for the recommendation stage:
    /// `"hit"`, `"miss"`, `"off"`, or `"unknown"` (untagged trace).
    pub memo: String,
    pub actions_ok: usize,
    pub actions_degraded: usize,
    pub actions_failed: usize,
    pub actions_disabled: usize,
    /// The slowest executed action and its duration, when any ran.
    pub slowest: Option<(String, Duration)>,
    /// Degradation events recorded by the pass's resource governor
    /// (0 when the pass ran entirely exact).
    pub governor_degrades: usize,
    /// Whether the pass memory budget was breached.
    pub governor_breached: bool,
    /// Why admission control shed the pass (`None` for admitted passes).
    pub admission_shed: Option<String>,
    /// How long the pass waited in the admission queue before starting.
    pub admission_wait: Duration,
    /// Engine pressure at admission time (`normal`/`elevated`/`critical`),
    /// `None` on untagged (pre-admission) traces.
    pub admission_pressure: Option<String>,
    /// The pass finished after its client deadline (`deadline.missed`).
    pub deadline_missed: bool,
    /// Wire-propagated request id (client-supplied or server-minted), `None`
    /// for local passes without request context.
    pub request_id: Option<String>,
    /// Tenant the pass was attributed to (request context, falling back to
    /// the admission tenant tag).
    pub tenant: Option<String>,
}

impl PassSummary {
    /// Summarize a finished pass. Works on any trace shape: missing spans
    /// simply summarize to zero, so partial traces stay representable.
    pub fn from_trace(trace: &PassTrace) -> PassSummary {
        let stage = |name: &str| trace.span(name).map(|s| s.duration()).unwrap_or_default();
        let memo = trace
            .span("actions")
            .and_then(|s| s.tag("memo"))
            .unwrap_or("unknown")
            .to_string();
        let (mut ok, mut degraded, mut failed, mut disabled) = (0, 0, 0, 0);
        let mut slowest: Option<(String, Duration)> = None;
        let mut actions_cpu = Duration::ZERO;
        for span in trace.spans_prefixed("action:") {
            let status = span.tag("status");
            match status {
                Some("ok") | Some("empty") => ok += 1,
                Some("degraded") => degraded += 1,
                Some("failed") | Some("abandoned") => failed += 1,
                Some("disabled") => disabled += 1,
                _ => {}
            }
            if status != Some("disabled") {
                actions_cpu += span.duration();
                if slowest.as_ref().map_or(true, |(_, d)| span.duration() > *d) {
                    let name = span.name.trim_start_matches("action:").to_string();
                    slowest = Some((name, span.duration()));
                }
            }
        }
        let metadata_cpu = trace
            .spans_prefixed("column:")
            .iter()
            .map(|s| s.duration())
            .sum::<Duration>()
            + trace.stage_total("metadata.fold");
        let root_tag = |key: &str| trace.span("print").and_then(|s| s.tag(key));
        let governor_degrades = root_tag("governor.degrades")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let governor_breached = root_tag("governor.breached") == Some("true");
        let admission_shed = root_tag("admission.shed").map(str::to_string);
        let admission_wait = root_tag("admission.wait_ms")
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or_default();
        let admission_pressure = root_tag("admission.pressure").map(str::to_string);
        let deadline_missed = root_tag("deadline.missed") == Some("true");
        let request_id = root_tag("request.id").map(str::to_string);
        let tenant = root_tag("request.tenant")
            .or_else(|| root_tag("admission.tenant"))
            .map(str::to_string);
        PassSummary {
            total: trace.total(),
            table: stage("table"),
            metadata: stage("metadata"),
            metadata_cpu,
            actions: stage("actions"),
            actions_cpu,
            memo,
            actions_ok: ok,
            actions_degraded: degraded,
            actions_failed: failed,
            actions_disabled: disabled,
            slowest,
            governor_degrades,
            governor_breached,
            admission_shed,
            admission_wait,
            admission_pressure,
            deadline_missed,
            request_id,
            tenant,
        }
    }

    fn action_tally(&self) -> String {
        let mut parts = vec![format!("{} ok", self.actions_ok)];
        if self.actions_degraded > 0 {
            parts.push(format!("{} degraded", self.actions_degraded));
        }
        if self.actions_failed > 0 {
            parts.push(format!("{} failed", self.actions_failed));
        }
        if self.actions_disabled > 0 {
            parts.push(format!("{} disabled", self.actions_disabled));
        }
        parts.join(", ")
    }

    /// The one-line timing footer shown under the widget.
    pub fn footer(&self) -> String {
        if let Some(reason) = &self.admission_shed {
            return format!("[pass {} | shed: {reason}]", fmt_ms(self.total));
        }
        let admission = match (&self.admission_pressure, self.admission_wait) {
            (Some(p), w) if p != "normal" || !w.is_zero() => {
                format!(" | admission {p} ({})", fmt_ms(w))
            }
            _ => String::new(),
        };
        let governor = if self.governor_breached || self.governor_degrades > 0 {
            format!(
                " | governor {} degrade(s){}",
                self.governor_degrades,
                if self.governor_breached {
                    ", budget breached"
                } else {
                    ""
                }
            )
        } else {
            String::new()
        };
        format!(
            "[pass {} | metadata {}{} | actions {}{} ({}) | memo {}{governor}{admission}]",
            fmt_ms(self.total),
            fmt_ms(self.metadata),
            fmt_cpu(self.metadata, self.metadata_cpu),
            fmt_ms(self.actions),
            fmt_cpu(self.actions, self.actions_cpu),
            self.action_tally(),
            self.memo,
        )
    }

    /// A compact JSON object — the detail payload of the `PassSummary`
    /// session-log event.
    pub fn to_compact_json(&self) -> String {
        let slowest = match &self.slowest {
            Some((name, d)) => format!(
                ", \"slowest\": \"{}\", \"slowest_ms\": {:.3}",
                json_escape(name),
                d.as_secs_f64() * 1e3
            ),
            None => String::new(),
        };
        let mut admission = String::new();
        if let Some(reason) = &self.admission_shed {
            admission.push_str(&format!(", \"shed\": \"{}\"", json_escape(reason)));
        }
        if !self.admission_wait.is_zero() {
            admission.push_str(&format!(
                ", \"admission_wait_ms\": {:.3}",
                self.admission_wait.as_secs_f64() * 1e3
            ));
        }
        if let Some(p) = &self.admission_pressure {
            admission.push_str(&format!(", \"admission_pressure\": \"{}\"", json_escape(p)));
        }
        if let Some(id) = &self.request_id {
            admission.push_str(&format!(", \"request_id\": \"{}\"", json_escape(id)));
        }
        if let Some(t) = &self.tenant {
            admission.push_str(&format!(", \"tenant\": \"{}\"", json_escape(t)));
        }
        format!(
            "{{\"total_ms\": {:.3}, \"table_ms\": {:.3}, \"metadata_ms\": {:.3}, \"metadata_cpu_ms\": {:.3}, \"actions_ms\": {:.3}, \"actions_cpu_ms\": {:.3}, \"memo\": \"{}\", \"ok\": {}, \"degraded\": {}, \"failed\": {}, \"disabled\": {}, \"governor_degrades\": {}, \"governor_breached\": {}{slowest}{admission}}}",
            self.total.as_secs_f64() * 1e3,
            self.table.as_secs_f64() * 1e3,
            self.metadata.as_secs_f64() * 1e3,
            self.metadata_cpu.as_secs_f64() * 1e3,
            self.actions.as_secs_f64() * 1e3,
            self.actions_cpu.as_secs_f64() * 1e3,
            json_escape(&self.memo),
            self.actions_ok,
            self.actions_degraded,
            self.actions_failed,
            self.actions_disabled,
            self.governor_degrades,
            self.governor_breached,
        )
    }
}

fn fmt_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}ms")
    } else {
        format!("{ms:.2}ms")
    }
}

/// ` (cpu Xms)` suffix for a stage whose summed worker time is visibly
/// larger than its wall time — i.e. the stage actually ran in parallel.
/// Empty otherwise, keeping sequential footers unchanged.
fn fmt_cpu(wall: Duration, cpu: Duration) -> String {
    if cpu > wall && cpu - wall > Duration::from_micros(100) {
        format!(" (cpu {})", fmt_ms(cpu))
    } else {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCollector;

    fn traced_pass() -> PassTrace {
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        c.time(Some(root), "table", || {});
        c.time(Some(root), "metadata", || {});
        let actions = c.begin(Some(root), "actions");
        c.tag(actions, "memo", "miss");
        let a1 = c.begin(Some(actions), "action:Correlation");
        c.tag(a1, "status", "ok");
        c.end(a1);
        let a2 = c.begin(Some(actions), "action:Chaos");
        c.tag(a2, "status", "failed");
        c.end(a2);
        c.end(actions);
        c.end(root);
        c.snapshot()
    }

    #[test]
    fn summary_tallies_statuses_and_memo() {
        let s = PassSummary::from_trace(&traced_pass());
        assert_eq!(s.memo, "miss");
        assert_eq!(s.actions_ok, 1);
        assert_eq!(s.actions_failed, 1);
        assert_eq!(s.actions_degraded, 0);
        assert!(s.slowest.is_some());
    }

    #[test]
    fn footer_and_json_render() {
        let s = PassSummary::from_trace(&traced_pass());
        let footer = s.footer();
        assert!(footer.contains("memo miss"), "{footer}");
        assert!(footer.contains("1 ok, 1 failed"), "{footer}");
        let json = s.to_compact_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"memo\": \"miss\""));
        assert!(json.contains("\"slowest\""));
    }

    #[test]
    fn governor_tags_flow_into_summary_and_footer() {
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        c.tag(root, "governor.degrades", "3");
        c.tag(root, "governor.breached", "true");
        c.end(root);
        let s = PassSummary::from_trace(&c.snapshot());
        assert_eq!(s.governor_degrades, 3);
        assert!(s.governor_breached);
        let footer = s.footer();
        assert!(
            footer.contains("governor 3 degrade(s), budget breached"),
            "{footer}"
        );
        let json = s.to_compact_json();
        assert!(json.contains("\"governor_degrades\": 3"), "{json}");
        // an exact pass keeps the footer clean
        let clean = PassSummary::from_trace(&traced_pass()).footer();
        assert!(!clean.contains("governor"), "{clean}");
    }

    #[test]
    fn admission_tags_flow_into_summary_and_footer() {
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        c.tag(root, "admission.wait_ms", "12");
        c.tag(root, "admission.pressure", "elevated");
        c.end(root);
        let s = PassSummary::from_trace(&c.snapshot());
        assert_eq!(s.admission_wait, Duration::from_millis(12));
        assert_eq!(s.admission_pressure.as_deref(), Some("elevated"));
        let footer = s.footer();
        assert!(footer.contains("admission elevated"), "{footer}");
        let json = s.to_compact_json();
        assert!(
            json.contains("\"admission_pressure\": \"elevated\""),
            "{json}"
        );

        // a shed pass collapses the footer to the reason
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        c.tag(root, "admission.shed", "all 2 session slots busy");
        c.end(root);
        let s = PassSummary::from_trace(&c.snapshot());
        let footer = s.footer();
        assert!(
            footer.contains("shed: all 2 session slots busy"),
            "{footer}"
        );
        assert!(
            s.to_compact_json().contains("\"shed\""),
            "{}",
            s.to_compact_json()
        );

        // an unqueued normal pass keeps the footer clean
        let clean = PassSummary::from_trace(&traced_pass()).footer();
        assert!(!clean.contains("admission"), "{clean}");
    }

    #[test]
    fn request_context_tags_flow_into_summary_and_json() {
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        c.tag(root, "request.id", "cli-42");
        c.tag(root, "request.tenant", "acme");
        c.end(root);
        let s = PassSummary::from_trace(&c.snapshot());
        assert_eq!(s.request_id.as_deref(), Some("cli-42"));
        assert_eq!(s.tenant.as_deref(), Some("acme"));
        let json = s.to_compact_json();
        assert!(json.contains("\"request_id\": \"cli-42\""), "{json}");
        assert!(json.contains("\"tenant\": \"acme\""), "{json}");

        // Falls back to the admission tenant tag when only quotas tagged it.
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        c.tag(root, "admission.tenant", "beta");
        c.end(root);
        let s = PassSummary::from_trace(&c.snapshot());
        assert_eq!(s.tenant.as_deref(), Some("beta"));
        assert!(s.request_id.is_none());
        // Local passes stay clean.
        assert!(!PassSummary::from_trace(&traced_pass())
            .to_compact_json()
            .contains("request_id"));
    }

    #[test]
    fn empty_trace_summarizes_to_zeroes() {
        let s = PassSummary::from_trace(&PassTrace::default());
        assert_eq!(s.total, Duration::ZERO);
        assert_eq!(s.memo, "unknown");
        assert_eq!(s.actions_ok, 0);
        assert!(s.slowest.is_none());
    }
}
