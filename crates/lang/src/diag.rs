//! Source spans and compiler diagnostics.

use std::fmt;

/// A byte range in the original source text, used to locate diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    pub start: u32,
    pub end: u32,
}

impl Span {
    pub fn new(start: u32, end: u32) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based (line, column) of the span start within `src`. Columns are
    /// counted in *characters*, not bytes, so diagnostics on lines
    /// containing multi-byte UTF-8 (e.g. `∞` in comments) point at the
    /// right column.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let mut start = (self.start as usize).min(src.len());
        // Never split a multi-byte character.
        while start > 0 && !src.is_char_boundary(start) {
            start -= 1;
        }
        let upto = &src[..start];
        let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
        let line_start = upto.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let col = upto[line_start..].chars().count() + 1;
        (line, col)
    }
}

/// The stage of the front end that produced an [`Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Lex,
    Parse,
    Check,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Lex => write!(f, "lex"),
            Stage::Parse => write!(f, "parse"),
            Stage::Check => write!(f, "check"),
        }
    }
}

/// A front-end diagnostic with a message and source location.
#[derive(Debug, Clone)]
pub struct Error {
    pub stage: Stage,
    pub msg: String,
    pub span: Span,
}

impl Error {
    pub fn new(stage: Stage, msg: impl Into<String>, span: Span) -> Self {
        Error {
            stage,
            msg: msg.into(),
            span,
        }
    }

    /// Render with line/column resolved against the source text.
    pub fn render(&self, src: &str) -> String {
        let (line, col) = self.span.line_col(src);
        format!("{} error at {}:{}: {}", self.stage, line, col, self.msg)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} error at bytes {}..{}: {}",
            self.stage, self.span.start, self.span.end, self.msg
        )
    }
}

impl std::error::Error for Error {}

/// How serious a [`Diagnostic`] is. Errors abort compilation; warnings
/// accumulate and are reported together (lint passes emit warnings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The `FSR-Wxxx` identifiers are part of the
/// tool's external interface (golden lint reports, CI filters); never
/// renumber an existing code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Two processes may access the same location in the same phase, at
    /// least one writing, with no common lock held.
    UnsynchronizedWriteShare,
    /// Conflicting accesses are lock-guarded on some paths but not all,
    /// or guarded by provably different lock elements.
    LockNotHeldOnAllPaths,
    /// The two arms of a branch cross different numbers of barriers, so
    /// processes taking different arms rendezvous at different points.
    BarrierCountMismatch,
    /// The object's layout makes cross-process false sharing likely; the
    /// message names the recommended compile-time transformation
    /// (group/transpose, pad, align, or indirection).
    FalseSharingProne,
}

impl Code {
    /// The stable `FSR-Wxxx` identifier.
    pub fn id(&self) -> &'static str {
        match self {
            Code::UnsynchronizedWriteShare => "FSR-W001",
            Code::LockNotHeldOnAllPaths => "FSR-W002",
            Code::BarrierCountMismatch => "FSR-W003",
            Code::FalseSharingProne => "FSR-W004",
        }
    }

    /// Human-readable slug, as shown next to the id.
    pub fn slug(&self) -> &'static str {
        match self {
            Code::UnsynchronizedWriteShare => "unsynchronized-write-share",
            Code::LockNotHeldOnAllPaths => "lock-not-held-on-all-paths",
            Code::BarrierCountMismatch => "barrier-count-mismatch",
            Code::FalseSharingProne => "false-sharing-prone",
        }
    }

    pub fn severity(&self) -> Severity {
        Severity::Warning
    }

    pub const ALL: [Code; 4] = [
        Code::UnsynchronizedWriteShare,
        Code::LockNotHeldOnAllPaths,
        Code::BarrierCountMismatch,
        Code::FalseSharingProne,
    ];
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id(), self.slug())
    }
}

/// One warning- or error-severity finding with an optional stable code
/// and related source locations (e.g. "the conflicting access is here").
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub severity: Severity,
    pub code: Option<Code>,
    pub msg: String,
    pub span: Span,
    /// Secondary locations with their own captions.
    pub related: Vec<(Span, String)>,
}

impl Diagnostic {
    pub fn warning(code: Code, msg: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: code.severity(),
            code: Some(code),
            msg: msg.into(),
            span,
            related: Vec::new(),
        }
    }

    pub fn with_related(mut self, span: Span, caption: impl Into<String>) -> Diagnostic {
        self.related.push((span, caption.into()));
        self
    }

    /// Render with line/column resolved against the source text.
    pub fn render(&self, src: &str) -> String {
        let (line, col) = self.span.line_col(src);
        let mut out = match self.code {
            Some(c) => format!("{}[{}] at {line}:{col}: {}", self.severity, c, self.msg),
            None => format!("{} at {line}:{col}: {}", self.severity, self.msg),
        };
        for (span, caption) in &self.related {
            let (l, c) = span.line_col(src);
            out.push_str(&format!("\n  note at {l}:{c}: {caption}"));
        }
        out
    }
}

/// Escape `s` for embedding in a JSON string literal. Control
/// characters use `\u` escapes; everything else (including multi-byte
/// UTF-8) passes through verbatim.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Diagnostic {
    /// Stable machine-readable rendering, one JSON object per
    /// diagnostic. The schema is part of the tool's external interface
    /// (the `fsr-serve` wire protocol and CI filters consume it):
    ///
    /// ```json
    /// {"severity": "warning", "code": "FSR-W001",
    ///  "slug": "unsynchronized-write-share",
    ///  "span": {"start": 4, "end": 5}, "line": 2, "col": 2,
    ///  "msg": "...", "related": [
    ///    {"span": {"start": 0, "end": 1}, "line": 1, "col": 1,
    ///     "caption": "..."}]}
    /// ```
    ///
    /// `code`/`slug` are `null` for uncoded (front-end) errors. `line`
    /// and `col` are 1-based and column counts *characters*, not bytes,
    /// so clients need no UTF-8 handling of their own. Key order is
    /// fixed; never reorder or rename existing keys.
    ///
    /// Lint reports (`fsr-lint --json`, the `fsr-serve` `lint` method)
    /// wrap these objects per workload together with the race pass's
    /// suppression accounting:
    ///
    /// ```json
    /// {"workload": "...", "diagnostics": [...],
    ///  "suppressed_pairs": 2, "suppressed": [
    ///    {"object": "grid", "reason": "index is data-dependent ..."}]}
    /// ```
    ///
    /// `suppressed` lists each `(object, field)` access group whose
    /// conflicting pairs were all suppressed, with a human-readable
    /// reason derived from the relational index domain; `"object"` uses
    /// the same `name` / `name.field` labels as diagnostic messages.
    /// The list is sorted by object label. Per the append-only wire
    /// policy, new keys may be added but existing ones never change
    /// meaning.
    pub fn to_json(&self, src: &str) -> String {
        let (line, col) = self.span.line_col(src);
        let (code, slug) = match self.code {
            Some(c) => (format!("\"{}\"", c.id()), format!("\"{}\"", c.slug())),
            None => ("null".to_string(), "null".to_string()),
        };
        let related: Vec<String> = self
            .related
            .iter()
            .map(|(span, caption)| {
                let (l, c) = span.line_col(src);
                format!(
                    "{{\"span\": {{\"start\": {}, \"end\": {}}}, \
                     \"line\": {l}, \"col\": {c}, \"caption\": \"{}\"}}",
                    span.start,
                    span.end,
                    json_escape(caption)
                )
            })
            .collect();
        format!(
            "{{\"severity\": \"{}\", \"code\": {code}, \"slug\": {slug}, \
             \"span\": {{\"start\": {}, \"end\": {}}}, \
             \"line\": {line}, \"col\": {col}, \"msg\": \"{}\", \
             \"related\": [{}]}}",
            self.severity,
            self.span.start,
            self.span.end,
            json_escape(&self.msg),
            related.join(", ")
        )
    }
}

impl From<Error> for Diagnostic {
    fn from(e: Error) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code: None,
            msg: format!("{} error: {}", e.stage, e.msg),
            span: e.span,
            related: Vec::new(),
        }
    }
}

/// A multi-diagnostic collection: unlike the front end's fail-fast
/// [`Error`], analyses that can produce several independent findings
/// accumulate them here and report them all at once.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    pub list: Vec<Diagnostic>,
}

impl Diagnostics {
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.list.push(d);
    }

    pub fn extend(&mut self, it: impl IntoIterator<Item = Diagnostic>) {
        self.list.extend(it);
    }

    pub fn is_clean(&self) -> bool {
        self.list.is_empty()
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    pub fn max_severity(&self) -> Option<Severity> {
        self.list.iter().map(|d| d.severity).max()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.list.iter()
    }

    /// Count of diagnostics carrying `code`.
    pub fn count_of(&self, code: Code) -> usize {
        self.list.iter().filter(|d| d.code == Some(code)).count()
    }

    /// Fully deterministic report order: source position, then severity,
    /// then code, then message. The message tiebreak means emission
    /// order never depends on analysis iteration order, so goldens stay
    /// byte-stable even for co-located same-code findings.
    pub fn sort(&mut self) {
        self.list.sort_by(|a, b| {
            (a.span, a.severity, a.code, &a.msg).cmp(&(b.span, b.severity, b.code, &b.msg))
        });
    }

    /// Render every diagnostic against the source, one per line.
    pub fn render_all(&self, src: &str) -> String {
        self.list
            .iter()
            .map(|d| d.render(src))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// All diagnostics as a JSON array (see [`Diagnostic::to_json`]).
    pub fn to_json(&self, src: &str) -> String {
        let items: Vec<String> = self.list.iter().map(|d| d.to_json(src)).collect();
        format!("[{}]", items.join(", "))
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.list.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(10, 12);
        assert_eq!(a.to(b), Span::new(3, 12));
        assert_eq!(b.to(a), Span::new(3, 12));
    }

    #[test]
    fn line_col_resolution() {
        let src = "ab\ncd\nef";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(4, 5).line_col(src), (2, 2));
        assert_eq!(Span::new(6, 7).line_col(src), (3, 1));
    }

    #[test]
    fn error_render_mentions_stage_and_position() {
        let e = Error::new(Stage::Parse, "expected `;`", Span::new(4, 5));
        let s = e.render("ab\ncd\nef");
        assert!(s.contains("parse error"));
        assert!(s.contains("2:2"));
        assert!(s.contains("expected `;`"));
    }

    #[test]
    fn line_col_counts_chars_not_bytes() {
        // `∞` is 3 bytes but 1 character; `x` after it starts at byte 7
        // of its line but must report column 5.
        let src = "ab\n// ∞x\ncd";
        let x_byte = src.find('x').unwrap() as u32;
        let span = Span::new(x_byte, x_byte + 1);
        assert_eq!(span.line_col(src), (2, 5));
        // A span landing mid-character must not panic and snaps to it.
        let inf_byte = src.find('∞').unwrap() as u32;
        let mid = Span::new(inf_byte + 1, inf_byte + 2);
        assert_eq!(mid.line_col(src), (2, 4));
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(Code::UnsynchronizedWriteShare.id(), "FSR-W001");
        assert_eq!(Code::LockNotHeldOnAllPaths.id(), "FSR-W002");
        assert_eq!(Code::BarrierCountMismatch.id(), "FSR-W003");
        assert_eq!(Code::FalseSharingProne.id(), "FSR-W004");
        assert_eq!(
            Code::UnsynchronizedWriteShare.slug(),
            "unsynchronized-write-share"
        );
        assert_eq!(Code::FalseSharingProne.slug(), "false-sharing-prone");
        assert_eq!(Code::ALL.len(), 4);
    }

    #[test]
    fn sort_breaks_ties_on_message() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning(
            Code::UnsynchronizedWriteShare,
            "zebra",
            Span::new(2, 3),
        ));
        ds.push(Diagnostic::warning(
            Code::UnsynchronizedWriteShare,
            "aardvark",
            Span::new(2, 3),
        ));
        ds.sort();
        assert_eq!(ds.list[0].msg, "aardvark");
        assert_eq!(ds.list[1].msg, "zebra");
    }

    #[test]
    fn diagnostic_render_includes_code_and_related() {
        let d = Diagnostic::warning(
            Code::UnsynchronizedWriteShare,
            "`hot` written by all processes without a lock",
            Span::new(4, 5),
        )
        .with_related(Span::new(0, 1), "conflicting write here");
        let s = d.render("ab\ncd\nef");
        assert!(s.contains("warning[FSR-W001 unsynchronized-write-share]"));
        assert!(s.contains("2:2"));
        assert!(s.contains("note at 1:1: conflicting write here"));
    }

    #[test]
    fn diagnostic_json_schema_is_stable() {
        let src = "ab\ncd\nef";
        let d = Diagnostic::warning(
            Code::UnsynchronizedWriteShare,
            "`hot` written without a lock",
            Span::new(4, 5),
        )
        .with_related(Span::new(0, 1), "conflicting write here");
        assert_eq!(
            d.to_json(src),
            "{\"severity\": \"warning\", \"code\": \"FSR-W001\", \
             \"slug\": \"unsynchronized-write-share\", \
             \"span\": {\"start\": 4, \"end\": 5}, \"line\": 2, \"col\": 2, \
             \"msg\": \"`hot` written without a lock\", \
             \"related\": [{\"span\": {\"start\": 0, \"end\": 1}, \
             \"line\": 1, \"col\": 1, \"caption\": \"conflicting write here\"}]}"
        );
        // Uncoded front-end errors serialize code/slug as null.
        let e = Diagnostic::from(Error::new(Stage::Check, "boom", Span::new(0, 1)));
        let j = e.to_json(src);
        assert!(j.contains("\"severity\": \"error\""), "{j}");
        assert!(j.contains("\"code\": null, \"slug\": null"), "{j}");
        assert!(j.contains("\"related\": []"), "{j}");
    }

    #[test]
    fn diagnostic_json_line_col_counts_chars_on_multibyte_sources() {
        // `∞` is 3 bytes but one character: the `x` after it sits at
        // byte 7 of its line, but the wire schema must report col 5 —
        // clients index by character, not byte.
        let src = "ab\n// ∞x\ncd";
        let x_byte = src.find('x').unwrap() as u32;
        let d = Diagnostic::warning(
            Code::BarrierCountMismatch,
            "arms cross different barrier counts — see ∞ note",
            Span::new(x_byte, x_byte + 1),
        );
        let j = d.to_json(src);
        assert!(j.contains("\"line\": 2, \"col\": 5"), "{j}");
        // Multi-byte characters in the message pass through unescaped
        // (JSON strings are UTF-8); quotes and control chars don't.
        assert!(j.contains("∞ note"), "{j}");
        let tricky = Diagnostic::warning(
            Code::BarrierCountMismatch,
            "say \"hi\"\n\tdone\u{1}",
            Span::new(0, 1),
        );
        let tj = tricky.to_json(src);
        assert!(tj.contains("say \\\"hi\\\"\\n\\tdone\\u0001"), "{tj}");
    }

    #[test]
    fn diagnostics_json_is_an_array() {
        let src = "ab\ncd";
        let mut ds = Diagnostics::new();
        assert_eq!(ds.to_json(src), "[]");
        ds.push(Diagnostic::warning(
            Code::UnsynchronizedWriteShare,
            "one",
            Span::new(0, 1),
        ));
        ds.push(Diagnostic::warning(
            Code::LockNotHeldOnAllPaths,
            "two",
            Span::new(3, 4),
        ));
        let j = ds.to_json(src);
        assert!(j.starts_with("[{") && j.ends_with("}]"), "{j}");
        assert_eq!(j.matches("\"severity\"").count(), 2, "{j}");
    }

    #[test]
    fn diagnostics_collects_and_sorts() {
        let mut ds = Diagnostics::new();
        assert!(ds.is_clean());
        ds.push(Diagnostic::warning(
            Code::BarrierCountMismatch,
            "later",
            Span::new(9, 10),
        ));
        ds.push(Diagnostic::warning(
            Code::UnsynchronizedWriteShare,
            "earlier",
            Span::new(2, 3),
        ));
        ds.push(Diagnostic::from(Error::new(
            Stage::Check,
            "boom",
            Span::new(5, 6),
        )));
        ds.sort();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.max_severity(), Some(Severity::Error));
        assert_eq!(ds.count_of(Code::UnsynchronizedWriteShare), 1);
        let spans: Vec<u32> = ds.list.iter().map(|d| d.span.start).collect();
        assert_eq!(spans, vec![2, 5, 9]);
        assert!(ds.list[1].msg.contains("check error"));
    }
}
