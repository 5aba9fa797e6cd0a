//! The JSON pipeline-state document exchanged between stage commands.
//!
//! `biochip schedule` writes a [`PipelineState`] holding the problem and the
//! schedule; `biochip synth` reads it and adds the architecture and physical
//! design; `biochip simulate` completes it with the execution reports and the
//! Table-2 summary. `biochip run --full` emits the complete document in one
//! go. Later server/sharding work can stream these same documents between
//! workers.

use std::time::Duration;

use biochip_json::{Deserialize, Serialize};
use biochip_synth::arch::Architecture;
use biochip_synth::layout::PhysicalDesign;
use biochip_synth::schedule::{Schedule, ScheduleProblem};
use biochip_synth::sim::{DedicatedExecutionReport, ExecutionReport};
use biochip_synth::{SynthesisConfig, SynthesisOutcome, SynthesisReport};

use crate::CliError;

/// Wall-clock runtimes of the stages executed so far, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageTimings {
    /// Scheduling runtime.
    pub scheduling: Duration,
    /// Architectural-synthesis runtime.
    pub architecture: Duration,
    /// Physical-design runtime.
    pub layout: Duration,
}

/// Snapshot of the pipeline after some prefix of stages has run.
///
/// Every stage command deserializes the document, checks that the stages it
/// needs are present, and appends its own results. The `schema` field guards
/// against feeding a document from an incompatible future format version.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineState {
    /// Format version tag, currently [`PipelineState::SCHEMA`].
    pub schema: String,
    /// Assay name (duplicated from the problem for quick inspection).
    pub assay: String,
    /// The flow configuration the pipeline runs under.
    pub config: SynthesisConfig,
    /// Stage runtimes accumulated so far.
    pub timings: StageTimings,
    /// Scheduling problem (assay + device inventory). Present from the
    /// `schedule` stage onwards.
    pub problem: Option<ScheduleProblem>,
    /// The computed schedule.
    pub schedule: Option<Schedule>,
    /// The synthesized architecture.
    pub architecture: Option<Architecture>,
    /// The physical design.
    pub layout: Option<PhysicalDesign>,
    /// Replay of the synthesized chip.
    pub execution: Option<ExecutionReport>,
    /// The dedicated-storage baseline.
    pub dedicated_baseline: Option<DedicatedExecutionReport>,
    /// The Table-2-style summary row.
    pub report: Option<SynthesisReport>,
}

impl PipelineState {
    /// The current schema tag written into every document.
    pub const SCHEMA: &'static str = "biochip-pipeline/v1";

    /// A fresh document for one assay and configuration.
    #[must_use]
    pub fn new(assay: impl Into<String>, config: SynthesisConfig) -> Self {
        PipelineState {
            schema: Self::SCHEMA.to_owned(),
            assay: assay.into(),
            config,
            timings: StageTimings::default(),
            problem: None,
            schedule: None,
            architecture: None,
            layout: None,
            execution: None,
            dedicated_baseline: None,
            report: None,
        }
    }

    /// A complete document from a full-flow outcome.
    #[must_use]
    pub fn from_outcome(config: SynthesisConfig, outcome: &SynthesisOutcome) -> Self {
        let mut state = PipelineState::new(outcome.problem.graph().name().to_owned(), config);
        state.timings = StageTimings {
            scheduling: outcome.report.scheduling_time,
            architecture: outcome.report.architecture_time,
            layout: outcome.report.layout_time,
        };
        state.problem = Some(outcome.problem.clone());
        state.schedule = Some(outcome.schedule.clone());
        state.architecture = Some(outcome.architecture.clone());
        state.layout = Some(outcome.layout.clone());
        state.execution = Some(outcome.execution);
        state.dedicated_baseline = Some(outcome.dedicated_baseline);
        state.report = Some(outcome.report.clone());
        state
    }

    /// Parses a document from JSON text, checking the schema tag.
    ///
    /// # Errors
    ///
    /// Returns a runtime [`CliError`] on malformed JSON or a schema mismatch.
    pub fn from_json_text(text: &str, origin: &str) -> Result<Self, CliError> {
        let state: PipelineState = biochip_json::from_str(text)
            .map_err(|e| CliError::runtime(format!("`{origin}` is not a pipeline state: {e}")))?;
        if state.schema != Self::SCHEMA {
            // Distinguish "a pipeline state from another format version"
            // from "some other document entirely" — the fixes differ.
            let hint = if state.schema.starts_with("biochip-pipeline/") {
                "; re-run the earlier stages with this binary"
            } else {
                "; this does not look like a stage handoff document"
            };
            return Err(CliError::runtime(format!(
                "`{origin}` has schema `{}`, expected `{}`{hint}",
                state.schema,
                Self::SCHEMA
            )));
        }
        Ok(state)
    }

    /// Serializes the document as pretty JSON.
    #[must_use]
    pub fn to_json_text(&self) -> String {
        biochip_json::to_string_pretty(self)
    }

    /// The problem, or an error naming the stage that should have produced
    /// it.
    ///
    /// # Errors
    ///
    /// Returns a runtime [`CliError`] if the field is absent.
    pub fn require_problem(&self) -> Result<&ScheduleProblem, CliError> {
        self.problem.as_ref().ok_or_else(|| {
            CliError::runtime("state has no problem; run `biochip schedule` first".to_owned())
        })
    }

    /// The schedule, or an error naming the stage that should have produced
    /// it.
    ///
    /// # Errors
    ///
    /// Returns a runtime [`CliError`] if the field is absent.
    pub fn require_schedule(&self) -> Result<&Schedule, CliError> {
        self.schedule.as_ref().ok_or_else(|| {
            CliError::runtime("state has no schedule; run `biochip schedule` first".to_owned())
        })
    }

    /// The architecture, or an error naming the stage that should have
    /// produced it.
    ///
    /// # Errors
    ///
    /// Returns a runtime [`CliError`] if the field is absent.
    pub fn require_architecture(&self) -> Result<&Architecture, CliError> {
        self.architecture.as_ref().ok_or_else(|| {
            CliError::runtime("state has no architecture; run `biochip synth` first".to_owned())
        })
    }

    /// The physical design, or an error naming the stage that should have
    /// produced it.
    ///
    /// # Errors
    ///
    /// Returns a runtime [`CliError`] if the field is absent.
    pub fn require_layout(&self) -> Result<&PhysicalDesign, CliError> {
        self.layout.as_ref().ok_or_else(|| {
            CliError::runtime("state has no layout; run `biochip synth` first".to_owned())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_synth::{SynthesisConfig, SynthesisFlow};

    #[test]
    fn fresh_state_round_trips() {
        let state = PipelineState::new("PCR", SynthesisConfig::default());
        let text = state.to_json_text();
        let back = PipelineState::from_json_text(&text, "test").unwrap();
        assert_eq!(back.assay, "PCR");
        assert_eq!(back.config, state.config);
        assert!(back.problem.is_none());
        assert!(back.require_schedule().is_err());
    }

    #[test]
    fn full_outcome_round_trips() {
        let config = SynthesisConfig::default().with_mixers(2);
        let outcome = SynthesisFlow::new(config.clone())
            .run(biochip_synth::assay::library::pcr())
            .unwrap();
        let state = PipelineState::from_outcome(config, &outcome);
        let back = PipelineState::from_json_text(&state.to_json_text(), "test").unwrap();
        assert_eq!(back.report.as_ref().unwrap(), &outcome.report);
        assert_eq!(back.schedule.as_ref().unwrap(), &outcome.schedule);
        assert_eq!(
            back.architecture.as_ref().unwrap().valve_count(),
            outcome.architecture.valve_count()
        );
        assert!(back.require_problem().is_ok());
        assert!(back.require_layout().is_ok());
    }

    #[test]
    fn legacy_parallelism_and_starts_fields_still_load() {
        // A handoff written while per-job `parallelism` and multi-start
        // placement existed.
        let state = PipelineState::new("PCR", SynthesisConfig::default());
        let legacy = |starts: usize| {
            state
                .to_json_text()
                .replacen(
                    "\"config\": {",
                    "\"config\": {\"parallelism\": {\"threads\": 8},",
                    1,
                )
                .replacen(
                    "\"warm_start\"",
                    &format!("\"starts\": {starts}, \"warm_start\""),
                    1,
                )
        };
        assert!(legacy(1).contains("\"parallelism\""));
        let back = PipelineState::from_json_text(&legacy(1), "old.json").unwrap();
        assert_eq!(back.config, state.config);
        let err = PipelineState::from_json_text(&legacy(3), "old.json").unwrap_err();
        assert!(err.message.contains("field `starts`"), "{}", err.message);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut state = PipelineState::new("PCR", SynthesisConfig::default());
        state.schema = "biochip-pipeline/v999".to_owned();
        let err = PipelineState::from_json_text(&state.to_json_text(), "f.json").unwrap_err();
        assert!(err.message.contains("schema"));
    }
}
