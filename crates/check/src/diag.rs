//! Structured diagnostics: stable codes, severities, spans, and a
//! [`Report`] that renders human-readable text or machine-readable JSON.
//!
//! Every finding the analyzer can produce carries a stable `EQXnnnn`
//! code so tests, CI filters, and downstream tooling can pin exact
//! failure classes instead of matching message strings. The code space
//! is partitioned by pass family:
//!
//! | range   | family                                     |
//! |---------|--------------------------------------------|
//! | `02xx`  | resource envelopes (buffers, geometry)     |
//! | `03xx`  | binary encoding round-trips                |
//! | `04xx`  | scheduler / configuration lints            |
//! | `05xx`  | dataflow (operand-level def-use over byte regions) |
//! | `06xx`  | static cycle/energy bounds (schedule envelopes)    |
//! | `07xx`  | serving / admission-control lints          |
//! | `08xx`  | numerics (HBFP magnitude/exponent abstract interpretation) |
//! | `09xx`  | interconnect / gradient-synchronization lints |
//!
//! (The retired `01xx` range held the pre-region occupancy-timeline
//! pass; its codes are not reused.)

use equinox_arith::json::Json;

/// A stable diagnostic code, rendered as `EQXnnnn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Code(u16);

impl Code {
    /// An instruction reads buffer bytes that no earlier instruction
    /// defined.
    pub const USE_BEFORE_DEFINE: Code = Code(501);
    /// A write partially overwrites a live (not-yet-consumed) region,
    /// corrupting the part that survives.
    pub const PARTIAL_CLOBBER: Code = Code(502);
    /// Two accesses to overlapping bytes share an epoch (no `Sync`
    /// between them) with a DMA transfer on one side and a write on
    /// either — the in-flight transfer races the other access
    /// (double-buffer aliasing).
    pub const DMA_RACE: Code = Code(503);
    /// An operand region extends past its buffer's capacity.
    pub const REGION_OUT_OF_BOUNDS: Code = Code(504);
    /// Bytes loaded on-chip are never consumed by any later instruction.
    pub const DEAD_STORE: Code = Code(505);
    /// An operand region is smaller than the bytes the instruction's
    /// extents touch.
    pub const UNDERSIZED_OPERAND: Code = Code(506);

    /// A dependence region holds more instructions than the instruction
    /// buffer can stream.
    pub const REGION_TOO_LARGE: Code = Code(201);
    /// A tile instruction exceeds the MMU geometry.
    pub const TILE_TOO_LARGE: Code = Code(202);
    /// The model's weights do not fit the weight buffer.
    pub const WEIGHTS_DONT_FIT: Code = Code(203);
    /// One batch's live activations do not fit the activation buffer.
    pub const ACTIVATIONS_DONT_FIT: Code = Code(204);
    /// A tile instruction with a zero extent performs no work.
    pub const ZERO_EXTENT_TILE: Code = Code(205);
    /// Training DRAM traffic sanity (zero bytes, or DRAM-bound note).
    pub const DRAM_TRAFFIC_SANITY: Code = Code(206);
    /// A program was too large to analyze and was skipped (sweep only;
    /// never silent — always reported as a note).
    pub const ANALYSIS_SKIPPED: Code = Code(299);

    /// An instruction does not survive an encode→decode round trip.
    pub const ROUND_TRIP_MISMATCH: Code = Code(301);
    /// A byte stream fails to decode.
    pub const DECODE_ERROR: Code = Code(302);

    /// A computed `[lower, upper]` bound came out inverted
    /// (`lower > upper`) — an internal soundness failure of the bound
    /// analysis itself, never a property of the analyzed program.
    pub const BOUND_INVERSION: Code = Code(601);
    /// The program's DRAM traffic provably cannot be hidden behind its
    /// compute: even with perfect overlap, transfers dominate.
    pub const UNOVERLAPPABLE_DMA: Code = Code(602);
    /// Even the best-case schedule cannot reach the configured MMU
    /// utilization floor.
    pub const UTILIZATION_BELOW_FLOOR: Code = Code(603);
    /// The worst-case energy bound exceeds the configuration's power
    /// envelope over the worst-case duration.
    pub const ENERGY_OVER_ENVELOPE: Code = Code(604);

    /// The priority scheduler starves the training context.
    pub const PRIORITY_STARVATION: Code = Code(401);
    /// The software scheduler's block length is zero.
    pub const ZERO_BLOCK_CYCLES: Code = Code(402);
    /// The adaptive batching threshold is degenerate.
    pub const DEGENERATE_BATCHING: Code = Code(403);
    /// The configuration's design point is not on the Pareto frontier.
    pub const NON_PARETO_DESIGN: Code = Code(404);
    /// A corrupted-batch retry policy with no bound (or a degenerate
    /// backoff) can stall the service queue indefinitely.
    pub const UNBOUNDED_RETRY: Code = Code(405);
    /// The load-shedding threshold sits below one batch, shedding
    /// traffic the accelerator could trivially serve.
    pub const SHED_THRESHOLD_TOO_LOW: Code = Code(406);
    /// Degradation thresholds contradict each other or the scheduler
    /// (e.g. shedding before shrinking ever engages).
    pub const DEGRADATION_CONFLICT: Code = Code(407);

    /// The admission token rate refills below the paid tier's
    /// guaranteed demand floor — steady paid traffic is shed even with
    /// no overload.
    pub const TOKEN_RATE_BELOW_ARRIVAL_FLOOR: Code = Code(701);
    /// The autoscaler's drain grace is shorter than one batch service
    /// time, so a drained device cannot finish its in-flight batch
    /// before the next scaling decision.
    pub const DRAIN_GRACE_SHORTER_THAN_SERVICE: Code = Code(702);
    /// Deadline-aware admission's slack budget is below one batch
    /// service time — every request is doomed at admission and the
    /// policy sheds all traffic.
    pub const ADMISSION_DEADLINE_UNREACHABLE: Code = Code(703);
    /// The free-tier token reserve meets or exceeds the bucket's burst
    /// capacity, so paid requests can never draw a full burst.
    pub const FREE_RESERVE_EXCEEDS_BURST: Code = Code(704);
    /// The autoscaler's scale-down backlog threshold is at or above the
    /// scale-up threshold — the fleet joins and drains in a loop.
    pub const AUTOSCALE_THRESHOLD_INVERSION: Code = Code(705);
    /// The autoscaler's sustain window is shorter than one batch
    /// service time, reacting to single-batch noise.
    pub const AUTOSCALE_SUSTAIN_TOO_SHORT: Code = Code(706);
    /// The token bucket's burst capacity is below one batch, so the
    /// bucket throttles traffic the device serves in a single dispatch.
    pub const TOKEN_BURST_BELOW_BATCH: Code = Code(707);

    /// A tile multiply's in-accumulator reduction chain is deeper than
    /// the saturation-safe bound for the 25-bit accumulator at the
    /// operands' worst-case mantissa magnitudes — the hardware *will*
    /// clamp on adversarial data, silently corrupting results.
    pub const REDUCTION_CHAIN_OVERFLOW: Code = Code(801);
    /// A propagated shared-exponent interval can leave the 12-bit
    /// exponent field, clamping block exponents and saturating every
    /// mantissa in the affected blocks.
    pub const EXPONENT_FIELD_OVERFLOW: Code = Code(802);
    /// A bf16→hbfp8 requantization at a write-back can flush a block's
    /// smaller mantissas to zero: the value spread within a block
    /// exceeds the 7 magnitude bits a shared exponent can cover.
    pub const REQUANTIZATION_FLUSH: Code = Code(803);
    /// A weight-update increment can fall below the weight blocks'
    /// representable LSB, so the optimizer step rounds to zero and
    /// training stalls.
    pub const UPDATE_BELOW_LSB: Code = Code(804);
    /// A reduction chain is within the safe bound but its headroom
    /// (safe depth / actual depth) is below the configured floor —
    /// safe today, fragile under deeper tiling.
    pub const SATURATION_HEADROOM_LOW: Code = Code(805);

    /// The fabric's residual link capacity (after background DMA)
    /// cannot move one epoch's gradient bytes within the epoch's wall
    /// time — synchronous training can never keep up and the synced
    /// harvest is zero by construction.
    pub const LINK_RATE_BELOW_SYNC_DEMAND: Code = Code(901);
    /// PFC switching on a topology with a directed cycle of fabric
    /// links: a backpressure cycle — and therefore deadlock — is
    /// reachable under load.
    pub const PFC_CYCLE_DEADLOCK_CAPABLE: Code = Code(902);
    /// The retransmission timeout is below the uncontended window
    /// round-trip, so every window times out before its ack can
    /// possibly arrive and the retry budget exhausts on a healthy
    /// fabric.
    pub const TIMEOUT_BELOW_WINDOW_RTT: Code = Code(903);
    /// Fewer than two harvesting devices: the all-reduce has no peers,
    /// so the interconnect is dead configuration (or, at warning
    /// severity, the ring schedule's per-step chunk degenerates below
    /// one packet).
    pub const ALLREDUCE_WITHOUT_PEERS: Code = Code(904);

    /// The numeric value (e.g. `101` for `EQX0101`).
    pub fn value(self) -> u16 {
        self.0
    }

    /// The rendered form, e.g. `"EQX0101"`.
    pub fn as_string(self) -> String {
        format!("EQX{:04}", self.0)
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EQX{:04}", self.0)
    }
}

/// How serious a diagnostic is.
///
/// Drivers fail fast on [`Severity::Error`]; warnings and notes are
/// reported but tolerated (the paper's experiments deliberately sweep
/// degenerate configurations, which surface as warnings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Informational finding; never fails a check run.
    Note,
    /// Suspicious but not necessarily wrong.
    Warning,
    /// The program or configuration is invalid.
    Error,
}

impl Severity {
    /// Lower-case label used in renders (`error` / `warning` / `note`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A half-open instruction-index range `[start, end)` a diagnostic
/// refers to. Program-wide findings use an empty span at index 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// First instruction index covered.
    pub start: usize,
    /// One past the last instruction index covered.
    pub end: usize,
}

impl Span {
    /// A span covering exactly one instruction.
    pub fn at(index: usize) -> Self {
        Span { start: index, end: index + 1 }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.end == self.start + 1 {
            write!(f, "instr {}", self.start)
        } else {
            write!(f, "instrs {}..{}", self.start, self.end)
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Instruction range, if the finding is program-located.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// An error diagnostic.
    pub fn error(code: Code, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: Severity::Error, message: message.into(), span: None }
    }

    /// A warning diagnostic.
    pub fn warning(code: Code, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: Severity::Warning, message: message.into(), span: None }
    }

    /// A note diagnostic.
    pub fn note(code: Code, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: Severity::Note, message: message.into(), span: None }
    }

    /// Attaches an instruction span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Renders as one `severity[EQXnnnn] subject: message (span)` line.
    pub fn render(&self, subject: &str) -> String {
        let mut line = format!("{}[{}] {}: {}", self.severity, self.code, subject, self.message);
        if let Some(span) = self.span {
            line.push_str(&format!(" ({span})"));
        }
        line
    }
}

/// All findings for one analyzed subject (a program, a configuration,
/// or an installation), plus render helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    subject: String,
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report about `subject` (shown in every rendered line).
    pub fn new(subject: impl Into<String>) -> Self {
        Report { subject: subject.into(), diagnostics: Vec::new() }
    }

    /// The analyzed subject's name.
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// Adds one finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Adds many findings.
    pub fn extend(&mut self, diagnostics: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// All findings, in pass order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Sorts findings by span (program order), then code — a
    /// deterministic emission order independent of which pass produced
    /// them. Span-less findings sort last.
    pub fn sort_by_span(&mut self) {
        self.diagnostics.sort_by_key(|d| {
            let (start, end) = d.span.map_or((usize::MAX, usize::MAX), |s| (s.start, s.end));
            (start, end, d.code)
        });
    }

    /// True if no findings at all were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// True if any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// True if the report contains `code` at any severity.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// One line per finding plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(&self.subject));
            out.push('\n');
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} note(s)\n",
            self.subject,
            self.error_count(),
            self.warning_count(),
            self.count(Severity::Note),
        ));
        out
    }

    /// The report as a JSON object: subject, severity counts and every
    /// finding (code, severity, message and, if it has one, its span).
    pub fn to_json(&self) -> Json {
        let diagnostics = self.diagnostics.iter().map(|d| {
            let mut fields = vec![
                ("code", d.code.to_string().into()),
                ("severity", d.severity.to_string().into()),
                ("message", d.message.as_str().into()),
            ];
            if let Some(span) = d.span {
                let span = Json::object([("start", span.start.into()), ("end", span.end.into())]);
                fields.push(("span", span));
            }
            Json::object(fields)
        });
        Json::object([
            ("subject", self.subject.as_str().into()),
            ("errors", self.error_count().into()),
            ("warnings", self.warning_count().into()),
            ("notes", self.count(Severity::Note).into()),
            ("diagnostics", Json::array(diagnostics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_stably() {
        assert_eq!(Code::USE_BEFORE_DEFINE.to_string(), "EQX0501");
        assert_eq!(Code::DMA_RACE.to_string(), "EQX0503");
        assert_eq!(Code::UNDERSIZED_OPERAND.to_string(), "EQX0506");
        assert_eq!(Code::ROUND_TRIP_MISMATCH.to_string(), "EQX0301");
        assert_eq!(Code::NON_PARETO_DESIGN.as_string(), "EQX0404");
        assert_eq!(Code::TILE_TOO_LARGE.value(), 202);
        assert_eq!(Code::BOUND_INVERSION.to_string(), "EQX0601");
        assert_eq!(Code::UNOVERLAPPABLE_DMA.to_string(), "EQX0602");
        assert_eq!(Code::UTILIZATION_BELOW_FLOOR.to_string(), "EQX0603");
        assert_eq!(Code::ENERGY_OVER_ENVELOPE.value(), 604);
        assert_eq!(Code::TOKEN_RATE_BELOW_ARRIVAL_FLOOR.to_string(), "EQX0701");
        assert_eq!(Code::DRAIN_GRACE_SHORTER_THAN_SERVICE.to_string(), "EQX0702");
        assert_eq!(Code::ADMISSION_DEADLINE_UNREACHABLE.to_string(), "EQX0703");
        assert_eq!(Code::FREE_RESERVE_EXCEEDS_BURST.to_string(), "EQX0704");
        assert_eq!(Code::AUTOSCALE_THRESHOLD_INVERSION.to_string(), "EQX0705");
        assert_eq!(Code::AUTOSCALE_SUSTAIN_TOO_SHORT.to_string(), "EQX0706");
        assert_eq!(Code::TOKEN_BURST_BELOW_BATCH.value(), 707);
        assert_eq!(Code::REDUCTION_CHAIN_OVERFLOW.to_string(), "EQX0801");
        assert_eq!(Code::EXPONENT_FIELD_OVERFLOW.to_string(), "EQX0802");
        assert_eq!(Code::REQUANTIZATION_FLUSH.to_string(), "EQX0803");
        assert_eq!(Code::UPDATE_BELOW_LSB.to_string(), "EQX0804");
        assert_eq!(Code::SATURATION_HEADROOM_LOW.value(), 805);
        assert_eq!(Code::LINK_RATE_BELOW_SYNC_DEMAND.to_string(), "EQX0901");
        assert_eq!(Code::PFC_CYCLE_DEADLOCK_CAPABLE.to_string(), "EQX0902");
        assert_eq!(Code::TIMEOUT_BELOW_WINDOW_RTT.to_string(), "EQX0903");
        assert_eq!(Code::ALLREDUCE_WITHOUT_PEERS.value(), 904);
    }

    #[test]
    fn sort_by_span_is_deterministic() {
        let mut r = Report::new("p");
        r.push(Diagnostic::note(Code::DRAM_TRAFFIC_SANITY, "spanless"));
        r.push(Diagnostic::warning(Code::DEAD_STORE, "late").with_span(Span::at(9)));
        r.push(Diagnostic::error(Code::USE_BEFORE_DEFINE, "early").with_span(Span::at(2)));
        r.push(Diagnostic::warning(Code::PARTIAL_CLOBBER, "also early").with_span(Span::at(2)));
        r.sort_by_span();
        let codes: Vec<_> = r.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![
                Code::USE_BEFORE_DEFINE,
                Code::PARTIAL_CLOBBER,
                Code::DEAD_STORE,
                Code::DRAM_TRAFFIC_SANITY
            ]
        );
    }

    #[test]
    fn severity_ordering_puts_errors_last() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_counts_and_flags() {
        let mut r = Report::new("prog");
        assert!(r.is_clean());
        r.push(Diagnostic::error(Code::TILE_TOO_LARGE, "too big").with_span(Span::at(3)));
        r.push(Diagnostic::warning(Code::ZERO_EXTENT_TILE, "empty"));
        r.push(Diagnostic::note(Code::DRAM_TRAFFIC_SANITY, "dram bound"));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(r.has_code(Code::TILE_TOO_LARGE));
        assert!(!r.has_code(Code::DEAD_STORE));
        assert!(!r.is_clean());
    }

    #[test]
    fn human_render_includes_code_and_span() {
        let mut r = Report::new("prog");
        r.push(Diagnostic::error(Code::USE_BEFORE_DEFINE, "read of nothing").with_span(Span::at(7)));
        let text = r.render_human();
        assert!(text.contains("error[EQX0501] prog: read of nothing (instr 7)"), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
    }

    #[test]
    fn span_display_forms() {
        assert_eq!(Span::at(4).to_string(), "instr 4");
        assert_eq!(Span { start: 2, end: 9 }.to_string(), "instrs 2..9");
    }

    #[test]
    fn json_escapes_and_structure() {
        let mut r = Report::new("p\"q");
        r.push(Diagnostic::error(Code::DECODE_ERROR, "bad\tbyte").with_span(Span::at(0)));
        r.push(Diagnostic::note(Code::DRAM_TRAFFIC_SANITY, "a\"b\\c\nd"));
        let j = r.to_json().render().unwrap();
        assert!(j.contains("\"subject\":\"p\\\"q\""), "{j}");
        assert!(j.contains("\"code\":\"EQX0302\""), "{j}");
        assert!(j.contains("\"message\":\"bad\\tbyte\""), "{j}");
        assert!(j.contains("\"message\":\"a\\\"b\\\\c\\nd\"}"), "{j}");
        assert!(j.contains("\"span\":{\"start\":0,\"end\":1}"), "{j}");
        assert!(j.contains("\"errors\":1"), "{j}");
    }
}
