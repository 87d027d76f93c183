//! # hdhash-emulator — the paper's emulation framework
//!
//! "We have created a purpose built emulation framework to empirically
//! verify our results. The emulator consists of two modules, a hash table
//! and a generator. The generator emulates the requests from the outside
//! world being sent to the hash table. The hash table module reads incoming
//! requests from a buffer and uses a hashing algorithm to map them to an
//! available server. Servers are added and removed using two special case
//! requests, a join and leave request […]. This functional emulator can be
//! used to determine the computational efficiency of various hashing
//! algorithms as well as their robustness to memory errors." (paper §5.1)
//!
//! This crate reproduces that framework:
//!
//! * [`request`] — the request vocabulary (join / leave / lookup);
//! * [`generator`] — deterministic workload generators (uniform, Zipf,
//!   churn schedules) feeding the module's buffer;
//! * [`module`] — the buffered hash table module executing requests;
//! * [`algorithms`] — a factory over every [`NoisyTable`] in the workspace
//!   (modular, consistent, rendezvous, HD serial / parallel, Maglev, jump);
//! * [`noise`] — noise-injection plans (SEU, MCU bursts, the Ibe et al.
//!   22 nm mixture);
//! * [`stats`] — Pearson's χ² goodness-of-fit machinery (Figure 6's
//!   metric), including p-values via the regularized incomplete gamma;
//! * [`metrics`] / [`runner`] — the experiment drivers regenerating the
//!   efficiency (Fig. 4), robustness (Fig. 5) and uniformity (Fig. 6)
//!   series;
//! * [`shaping`] — open-loop arrival curves (constant / diurnal / flash
//!   crowd), streaming key samplers and correlated probe bursts for the
//!   serving layer's scenario engine;
//! * [`replay`] — the shared replay-outcome shape letting one recorded
//!   trace be compared across the emulator module and the live engine;
//! * [`report`] — plain-text and CSV rendering of result series.
//!
//! [`NoisyTable`]: hdhash_table::NoisyTable

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod correlated;
pub mod generator;
pub mod metrics;
pub mod module;
pub mod noise;
pub mod replay;
pub mod report;
pub mod request;
pub mod runner;
pub mod shaping;
pub mod stats;
pub mod trace;
pub mod zipf;

pub use algorithms::AlgorithmKind;
pub use correlated::{CorrelatedErrorModel, CorrelatedErrorProcess, TimelineConfig};
pub use generator::{Generator, KeyDistribution, Workload};
pub use metrics::{
    EfficiencySample, LatencyProfile, MismatchSample, ThroughputSample, UniformitySample,
};
pub use module::HashTableModule;
pub use noise::NoisePlan;
pub use replay::{ReplayCounters, ReplayReport};
pub use request::Request;
pub use runner::{EfficiencyConfig, RobustnessConfig, UniformityConfig};
pub use shaping::{ArrivalProcess, ArrivalShape, BurstProcess, BurstShape, KeySampler};
pub use trace::Trace;
pub use zipf::Zipf;
