//! Time-correlated memory errors and the error-timeline experiment.
//!
//! The paper's noise sweep (Figure 5) injects a fixed number of flips per
//! trial. Its own sources say more: Schroeder et al.'s field study found
//! that *"each year a third of the machines experiences a memory error"*
//! and that a machine which saw an error is **13–228× more likely** to
//! see another within the month. Errors arrive clustered in time, not
//! uniformly — and clustering is exactly what hurts a system that never
//! repairs its state between errors.
//!
//! [`CorrelatedErrorProcess`] models a fleet with a two-state (healthy /
//! degraded) per-machine Markov chain matching those field statistics,
//! and [`run_timeline`] plays the process against every hashing algorithm
//! *without* repairing tables between months (the cloud-operator scenario
//! the paper motivates: fewer memory swaps). The cumulative mismatch
//! series it produces is this repository's Figure 7 — an extension
//! experiment, clearly labelled as such in EXPERIMENTS.md.

use hdhash_hashfn::SplitMix64;
use hdhash_table::Assignment;

use crate::algorithms::AlgorithmKind;
use crate::noise::NoisePlan;
use crate::runner;

/// Parameters of the per-machine error chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedErrorModel {
    /// Probability a *healthy* machine errors in a given month.
    pub monthly_error_rate: f64,
    /// Multiplier on that probability for a machine that errored the
    /// previous month (Schroeder et al. report 13–228×; capped at 1).
    pub correlation_factor: f64,
    /// Upset events per error month, each drawing its burst length from
    /// the Ibe et al. 22 nm mixture.
    pub events_per_error: usize,
}

impl CorrelatedErrorModel {
    /// The field-study defaults: a monthly rate that compounds to
    /// Schroeder et al.'s one-third-of-machines-per-year, the low end of
    /// the reported 13–228× correlation range (the conservative choice,
    /// which also keeps the degraded-state probability a proper fraction
    /// instead of saturating at 1), and one upset event per error month.
    #[must_use]
    pub fn field_study() -> Self {
        // 1 − (1 − p)¹² = 1/3  ⇒  p ≈ 0.0332.
        Self { monthly_error_rate: 0.0332, correlation_factor: 15.0, events_per_error: 1 }
    }

    /// The probability a machine errors at least once in a year, ignoring
    /// correlation (the quantity Schroeder et al. report as one third).
    #[must_use]
    pub fn annual_error_probability(&self) -> f64 {
        1.0 - (1.0 - self.monthly_error_rate).powi(12)
    }

    /// The degraded-state monthly probability, capped at 1.
    #[must_use]
    pub fn degraded_rate(&self) -> f64 {
        (self.monthly_error_rate * self.correlation_factor).min(1.0)
    }
}

impl Default for CorrelatedErrorModel {
    fn default() -> Self {
        Self::field_study()
    }
}

/// One machine-month error event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorEvent {
    /// Which machine errored (index into the fleet).
    pub machine: usize,
    /// Upset events this month (each one burst from the Ibe mixture).
    pub upsets: usize,
}

/// A deterministic fleet-wide error process.
///
/// # Examples
///
/// ```
/// use hdhash_emulator::correlated::{CorrelatedErrorModel, CorrelatedErrorProcess};
///
/// let mut process = CorrelatedErrorProcess::new(100, CorrelatedErrorModel::field_study(), 7);
/// let year: usize = (0..12).map(|_| process.advance_month().len()).sum();
/// // ~a third of 100 machines error per year, and correlation clusters
/// // repeat errors onto those machines: several dozen machine-months.
/// assert!(year > 5 && year < 150);
/// ```
#[derive(Debug, Clone)]
pub struct CorrelatedErrorProcess {
    model: CorrelatedErrorModel,
    rng: SplitMix64,
    /// Whether each machine errored in the previous month.
    degraded: Vec<bool>,
    month: usize,
}

impl CorrelatedErrorProcess {
    /// Creates a process over `machines` healthy machines.
    ///
    /// # Panics
    ///
    /// Panics if `machines == 0` or the model rates are not in `[0, 1]`
    /// after capping.
    #[must_use]
    pub fn new(machines: usize, model: CorrelatedErrorModel, seed: u64) -> Self {
        assert!(machines > 0, "an error process needs at least one machine");
        assert!(
            (0.0..=1.0).contains(&model.monthly_error_rate),
            "monthly rate must be a probability"
        );
        assert!(model.correlation_factor >= 1.0, "correlation cannot be protective here");
        Self { model, rng: SplitMix64::new(seed), degraded: vec![false; machines], month: 0 }
    }

    /// The number of machines in the fleet.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.degraded.len()
    }

    /// Months simulated so far.
    #[must_use]
    pub fn month(&self) -> usize {
        self.month
    }

    /// Advances the fleet by one month, returning the machines that
    /// errored.
    pub fn advance_month(&mut self) -> Vec<ErrorEvent> {
        let mut events = Vec::new();
        for machine in 0..self.degraded.len() {
            let rate = if self.degraded[machine] {
                self.model.degraded_rate()
            } else {
                self.model.monthly_error_rate
            };
            let errored = self.rng.next_f64() < rate;
            self.degraded[machine] = errored;
            if errored {
                events.push(ErrorEvent { machine, upsets: self.model.events_per_error });
            }
        }
        self.month += 1;
        events
    }
}

/// Configuration of the error-timeline experiment (this repository's
/// Figure 7 extension).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineConfig {
    /// Algorithms to play the timeline against.
    pub algorithms: Vec<AlgorithmKind>,
    /// Pool size.
    pub servers: usize,
    /// Months to simulate.
    pub months: usize,
    /// Lookups in the reference stream.
    pub lookups: usize,
    /// Machines hosting (shards of) the table's state — a directory
    /// service runs replicated, so several machines' errors reach it.
    /// Each erroring machine-month applies one noise plan.
    pub machines: usize,
    /// The per-machine error chain parameters.
    pub model: CorrelatedErrorModel,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        Self {
            algorithms: AlgorithmKind::PAPER.to_vec(),
            servers: 512,
            months: 36,
            lookups: 10_000,
            machines: 4,
            model: CorrelatedErrorModel::field_study(),
            seed: 0xF16_7,
        }
    }
}

/// One month of one algorithm's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSample {
    /// Which algorithm.
    pub algorithm: AlgorithmKind,
    /// 1-based month index.
    pub month: usize,
    /// Whether any hosting machine errored this month.
    pub errored: bool,
    /// Bits flipped in the table state so far (never repaired).
    pub cumulative_bits: usize,
    /// Fraction of the reference stream now mapped to the wrong server.
    pub mismatch_fraction: f64,
}

/// Plays the correlated error process against each algorithm **without
/// repairing state between months** and tracks the mismatch fraction
/// against the clean assignment.
///
/// Every algorithm sees the *identical* error timeline (same months, same
/// seeds), so the series differ only in how each data structure degrades.
///
/// # Panics
///
/// Panics if `servers == 0` or `machines == 0`.
#[must_use]
pub fn run_timeline(config: &TimelineConfig) -> Vec<TimelineSample> {
    let keys = runner::shared_lookup_keys(config.servers, config.lookups, config.seed);
    // One pre-drawn timeline shared by all algorithms: how many hosting
    // machines errored each month.
    let mut process =
        CorrelatedErrorProcess::new(config.machines, config.model, config.seed ^ 0x717E_11E);
    let timeline: Vec<usize> =
        (0..config.months).map(|_| process.advance_month().len()).collect();

    let mut samples = Vec::new();
    for &algorithm in &config.algorithms {
        let mut table = algorithm.build(config.servers);
        for i in 0..config.servers as u64 {
            table.join(hdhash_table::ServerId::new(i)).expect("fresh server within capacity");
        }
        let reference =
            Assignment::capture(&*table, keys.iter().copied()).expect("pool is non-empty");
        let mut cumulative_bits = 0usize;
        for (index, &errored_machines) in timeline.iter().enumerate() {
            let errored = errored_machines > 0;
            if errored {
                let plan = NoisePlan::IbeMixture {
                    events: config.model.events_per_error * errored_machines,
                };
                let noise_seed = config.seed.wrapping_add(hdhash_hashfn::mix64(index as u64));
                cumulative_bits += plan.apply(&mut *table, noise_seed);
            }
            let current =
                Assignment::capture(&*table, keys.iter().copied()).expect("pool is non-empty");
            samples.push(TimelineSample {
                algorithm,
                month: index + 1,
                errored,
                cumulative_bits,
                mismatch_fraction: hdhash_table::remap_fraction(&reference, &current),
            });
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annual_rate_matches_field_study() {
        let model = CorrelatedErrorModel::field_study();
        let annual = model.annual_error_probability();
        assert!((annual - 1.0 / 3.0).abs() < 0.01, "annual rate {annual:.3}");
        assert!(model.degraded_rate() > model.monthly_error_rate);
        assert!(model.degraded_rate() <= 1.0);
    }

    #[test]
    fn process_is_deterministic() {
        let run = || {
            let mut p = CorrelatedErrorProcess::new(50, CorrelatedErrorModel::field_study(), 3);
            (0..24).map(|_| p.advance_month()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn correlation_clusters_errors() {
        // Conditional error rates measured over a long horizon: a machine
        // that errored last month must error far more often this month.
        let mut p = CorrelatedErrorProcess::new(200, CorrelatedErrorModel::field_study(), 11);
        let mut after_error = [0usize; 2]; // [months observed, errors]
        let mut after_clean = [0usize; 2];
        let mut previous = vec![false; 200];
        for _ in 0..240 {
            let events = p.advance_month();
            let mut current = vec![false; 200];
            for e in &events {
                current[e.machine] = true;
            }
            for m in 0..200 {
                let bucket = if previous[m] { &mut after_error } else { &mut after_clean };
                bucket[0] += 1;
                bucket[1] += usize::from(current[m]);
            }
            previous = current;
        }
        let p_after_error = after_error[1] as f64 / after_error[0] as f64;
        let p_after_clean = after_clean[1] as f64 / after_clean[0] as f64;
        assert!(
            p_after_error > 10.0 * p_after_clean,
            "correlation not visible: {p_after_error:.3} vs {p_after_clean:.4}"
        );
    }

    #[test]
    fn fleet_rate_is_plausible() {
        // Over many machine-years the error incidence should sit near the
        // field-study third (correlation inflates it somewhat).
        let mut p = CorrelatedErrorProcess::new(500, CorrelatedErrorModel::field_study(), 13);
        let mut errored_any = vec![false; 500];
        for _ in 0..12 {
            for e in p.advance_month() {
                errored_any[e.machine] = true;
            }
        }
        let fraction = errored_any.iter().filter(|&&b| b).count() as f64 / 500.0;
        assert!((0.2..0.55).contains(&fraction), "annual fraction {fraction:.3}");
        assert_eq!(p.month(), 12);
        assert_eq!(p.machines(), 500);
    }

    #[test]
    fn timeline_hd_flat_consistent_degrades() {
        // Compressed timeline with an aggressive error rate so the test is
        // fast and the degradation is certain to appear.
        let config = TimelineConfig {
            machines: 1,
            algorithms: vec![AlgorithmKind::Consistent, AlgorithmKind::Hd],
            servers: 128,
            months: 12,
            lookups: 1500,
            model: CorrelatedErrorModel {
                monthly_error_rate: 0.5,
                correlation_factor: 2.0,
                events_per_error: 3,
            },
            seed: 17,
        };
        let samples = run_timeline(&config);
        assert_eq!(samples.len(), 2 * 12);
        let last = |kind: AlgorithmKind| {
            samples
                .iter().rfind(|s| s.algorithm == kind)
                .expect("12 months present")
        };
        let consistent = last(AlgorithmKind::Consistent);
        let hd = last(AlgorithmKind::Hd);
        assert!(consistent.cumulative_bits > 0, "no errors landed in 12 high-rate months");
        assert!(
            consistent.mismatch_fraction > 0.0,
            "consistent hashing should degrade under accumulated errors"
        );
        assert_eq!(hd.mismatch_fraction, 0.0, "HD hashing must stay clean");
        // Mismatch series are monotone within this run only if errors
        // accumulate; at minimum they never report negative fractions.
        assert!(samples.iter().all(|s| (0.0..=1.0).contains(&s.mismatch_fraction)));
    }

    #[test]
    fn timeline_is_deterministic() {
        let config = TimelineConfig {
            machines: 1,
            algorithms: vec![AlgorithmKind::Consistent],
            servers: 32,
            months: 6,
            lookups: 300,
            model: CorrelatedErrorModel::field_study(),
            seed: 19,
        };
        assert_eq!(run_timeline(&config), run_timeline(&config));
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_fleet_panics() {
        let _ = CorrelatedErrorProcess::new(0, CorrelatedErrorModel::field_study(), 0);
    }
}
