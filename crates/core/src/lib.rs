//! # etw-core — the capture machine
//!
//! Orchestrates the full reproduction of the paper's measurement
//! (Fig. 1): the traffic source (workload + server), the lossy capture,
//! the parallel decode pipeline, the sequential anonymiser and the
//! dataset sink.
//!
//! * [`config`] — one configuration struct for the whole campaign;
//! * [`wirepath`] — messages ⇄ ethernet frames (down- and up-path);
//! * [`pipeline`] — the staged concurrent capture pipeline with
//!   deterministic output ordering, supervised workers, load shedding
//!   and checkpoint cuts;
//! * [`campaign`] — the end-to-end driver producing a [`campaign::CampaignReport`],
//!   with fault injection and checkpoint/resume entry points;
//! * [`checkpoint`] — the resume-sidecar format;
//! * [`summary`] — the T1 headline-numbers table.
//!
//! ## Example
//!
//! ```
//! use etw_core::campaign::run_campaign;
//! use etw_core::config::CampaignConfig;
//!
//! let mut records = 0u64;
//! let report = run_campaign(&CampaignConfig::tiny(), |_record| records += 1);
//! assert_eq!(report.records, records);
//! assert!(report.distinct_clients > 0);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod config;
pub mod livecap;
pub mod pipeline;
pub mod source;
pub mod summary;
pub mod wirepath;

pub use campaign::{
    render_health_dat, run_campaign, run_campaign_observed, try_resume_campaign_observed,
    try_run_campaign_checkpointed, CampaignReport, CaptureSide,
};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::{CampaignConfig, ConfigError};
pub use pipeline::{
    run_capture_pipeline, run_capture_pipeline_with, PipelineCheckpoint, PipelineOptions,
    PipelineStats, ResumePoint, TimedFrame, TraceOptions,
};
pub use source::{run_source_only, SourceStream};
pub use summary::{render_t1, t1_key_values};
