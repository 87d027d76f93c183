//! The scenario engine: discrete-event workload simulation against live
//! engines.
//!
//! Every driver before this module offered uniform closed-loop traffic —
//! the engine was only ever as busy as it chose to be. A *scenario* is
//! open-loop: a virtual clock advances in ticks, each tick offers a
//! scripted number of requests (diurnal curves, flash crowds, correlated
//! probe bursts from [`hdhash_emulator::shaping`]), keys follow a scripted
//! distribution (uniform or Zipf hotspots), and the membership itself is
//! part of the script (churn storms, replica crash/rejoin through the
//! [`chaos`](crate::chaos) transport). The simulator drives one
//! [`ServeEngine`] or a gossiping [`ReplicatedEngine`] set and reports
//! per-phase telemetry trajectories.
//!
//! ## Determinism
//!
//! Scenario runs are bit-for-bit reproducible from one seed even though
//! the engines under test run real worker threads. Three rules make the
//! deterministic counters immune to scheduling:
//!
//! 1. **Tick-boundary quiescence** — membership changes, gossip exchange
//!    and chaos rounds happen only at tick boundaries, *after* every
//!    outstanding ticket of the previous tick has been reaped. No lookup
//!    is ever in flight across an epoch change, so each response's verdict
//!    and epoch are pure functions of the script.
//! 2. **Driver-side shedding** — each tick submits at most `window`
//!    lookups (`window ≤ queue_capacity`, so the engine-level
//!    [`QueueFull`](crate::ServeError::QueueFull) backpressure is
//!    unreachable) and sheds the remainder itself: the shed count per tick
//!    is `max(0, arrivals − window)` by construction, not a race outcome.
//! 3. **Fingerprint discipline** — [`ScenarioReport::fingerprint`] folds
//!    only deterministic fields (counts, epochs, membership, digest
//!    hashes); wall-clock latency is reported alongside but never
//!    fingerprinted.
//!
//! The regression suite (`crates/serve/tests/scenarios.rs`) asserts
//! equal fingerprints *and* equal per-phase metric vectors for same-seed
//! reruns of every catalog scenario.
//!
//! ## Example
//!
//! ```
//! use hdhash_serve::scenario::{self, Scenario, ScenarioConfig};
//!
//! let scenario = Scenario::by_name("steady").expect("catalog scenario");
//! let report = scenario::run(&scenario, &ScenarioConfig::small(), 7)?;
//! assert_eq!(report.hung_tickets, 0);
//! assert_eq!(report.epoch_mismatches, 0);
//! let rerun = scenario::run(&scenario, &ScenarioConfig::small(), 7)?;
//! assert_eq!(report.fingerprint(), rerun.fingerprint());
//! # Ok::<(), hdhash_serve::ServeError>(())
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdhash_emulator::shaping::{ArrivalProcess, ArrivalShape, BurstProcess, BurstShape};
use hdhash_emulator::{KeyDistribution, KeySampler, Request, Trace};
use hdhash_hashfn::{mix64, SplitMix64};
use hdhash_obs::HistogramSnapshot;
use hdhash_table::{RequestKey, ServerId};

use crate::chaos::{ChaosEndpoint, ChaosNetwork, FaultPlan, LinkFaults};
use crate::config::ServeConfig;
use crate::engine::ServeEngine;
use crate::gossip::{converged, member_divergence, GossipConfig, GossipNode};
use crate::load::REAP_TIMEOUT;
use crate::replication::ReplicatedEngine;
use crate::request::Ticket;
use crate::transport::ReplicaId;
use crate::ServeError;

/// Seed-stream salts: every random stream a scenario consumes derives
/// from `mix64(seed ^ SALT)`, so streams are independent but all replay
/// from the single printed seed.
const KEY_SALT: u64 = 0x5CE4_A210_0001;
const CHURN_SALT: u64 = 0x5CE4_A210_0002;
const BURST_SALT: u64 = 0x5CE4_A210_0003;
const CHAOS_SALT: u64 = 0x5CE4_A210_0004;
const ENGINE_SALT: u64 = 0x5CE4_A210_0005;

/// Post-run anti-entropy budget for replicated scenarios: drain rounds
/// before giving up on convergence, and the round at which lingering
/// faults are healed (fault windows are usually already expired; healing
/// also flushes messages the chaos plan still holds in flight).
const RECOVERY_CAP: u64 = 96;
const RECOVERY_HEAL_AFTER: u64 = 16;

/// Membership churn overlay of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnShape {
    /// Membership is fixed after the initial joins.
    None,
    /// Every `every`-th tick applies a storm of `ops` membership
    /// operations (a deterministic mix of joins of fresh servers and
    /// leaves of live ones; the pool never drains below one member).
    Storm {
        /// Ticks between storms.
        every: usize,
        /// Operations per storm.
        ops: usize,
    },
}

/// A replica crash/rejoin overlay (replicated scenarios only): the chaos
/// transport purges the victim's inbox for the half-open tick window, so
/// it misses all gossip until rejoin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Which replica crashes (index into the replica set).
    pub replica: u64,
    /// First tick of the outage.
    pub from_tick: u64,
    /// First tick after the outage.
    pub to_tick: u64,
}

/// A complete scenario description: the script of one simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Catalog name (whitespace-free; doubles as the trace name).
    pub name: &'static str,
    /// Virtual ticks to simulate.
    pub ticks: usize,
    /// Ticks per reported phase.
    pub phase_ticks: usize,
    /// The offered-load curve.
    pub arrivals: ArrivalShape,
    /// The lookup-key distribution.
    pub keys: KeyDistribution,
    /// Optional correlated probe bursts layered on the base curve.
    pub bursts: Option<BurstShape>,
    /// Membership churn overlay.
    pub churn: ChurnShape,
    /// Servers joined before the clock starts.
    pub initial_servers: u64,
    /// Maximum lookups submitted per tick; arrivals beyond it are shed by
    /// the driver (clamped to the engine's `queue_capacity` at run time).
    pub window: usize,
    /// Replica count: 1 drives a single engine, ≥ 2 a gossiping set over
    /// the chaos transport.
    pub replicas: usize,
    /// Optional crash/rejoin overlay (requires `replicas ≥ 2`).
    pub crash: Option<CrashSpec>,
    /// Per-link message drop probability (per mille) on the chaos
    /// transport; ignored for single-engine scenarios.
    pub drop_per_mille: u16,
}

impl Scenario {
    /// Structural validation (shape parameters are validated by the
    /// shaping constructors themselves).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        let positive = [
            ("ticks", self.ticks),
            ("phase_ticks", self.phase_ticks),
            ("window", self.window),
            ("replicas", self.replicas),
            ("initial_servers", self.initial_servers as usize),
        ];
        for (name, value) in positive {
            if value == 0 {
                return Err(ServeError::InvalidConfig(format!(
                    "scenario {name} must be positive"
                )));
            }
        }
        if let Some(crash) = self.crash {
            if self.replicas < 2 {
                return Err(ServeError::InvalidConfig(
                    "a crash overlay needs at least 2 replicas".into(),
                ));
            }
            if crash.replica as usize >= self.replicas {
                return Err(ServeError::InvalidConfig(format!(
                    "crash replica {} out of range (replicas: {})",
                    crash.replica, self.replicas
                )));
            }
        }
        Ok(())
    }

    /// Looks a scenario up in the [`catalog`] by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Scenario> {
        catalog().into_iter().find(|s| s.name == name)
    }

    /// Materializes the scenario's deterministic script for a seed: the
    /// initial membership plus, per tick, the control operations and the
    /// sampled lookup keys.
    ///
    /// # Panics
    ///
    /// Panics if a shape parameter is degenerate (see
    /// [`ArrivalShape::validate`] and the shaping constructors).
    #[must_use]
    pub fn script(&self, seed: u64) -> ScenarioScript {
        let mut arrivals = ArrivalProcess::new(self.arrivals);
        let mut sampler = KeySampler::new(self.keys, mix64(seed ^ KEY_SALT));
        let mut bursts = self.bursts.map(|b| BurstProcess::new(b, mix64(seed ^ BURST_SALT)));
        let mut churn_rng = SplitMix64::new(mix64(seed ^ CHURN_SALT));

        let initial: Vec<ServerId> = (0..self.initial_servers).map(ServerId::new).collect();
        let mut live: BTreeSet<u64> = (0..self.initial_servers).collect();
        let mut next_id = self.initial_servers;

        let mut ticks = Vec::with_capacity(self.ticks);
        for t in 0..self.ticks {
            let mut controls = Vec::new();
            if let ChurnShape::Storm { every, ops } = self.churn {
                if t > 0 && every > 0 && t % every == 0 {
                    for _ in 0..ops {
                        if churn_rng.next_below(2) == 1 && live.len() > 1 {
                            let nth = churn_rng.next_below(live.len() as u64) as usize;
                            let victim = *live.iter().nth(nth).expect("index in range");
                            live.remove(&victim);
                            controls.push(Request::Leave(ServerId::new(victim)));
                        } else {
                            live.insert(next_id);
                            controls.push(Request::Join(ServerId::new(next_id)));
                            next_id += 1;
                        }
                    }
                }
            }
            let offered =
                arrivals.next_tick() + bursts.as_mut().map_or(0, BurstProcess::next_tick);
            let lookups: Vec<RequestKey> = (0..offered).map(|_| sampler.next_key()).collect();
            ticks.push(TickScript { controls, lookups });
        }
        ScenarioScript { initial, ticks }
    }

    /// Records the scenario's full request stream as an
    /// [`hdhash_emulator::Trace`] — replayable through the emulator module
    /// *and* the serve driver (`load::drive_trace`), which is the seam the
    /// cross-world regression test exercises.
    #[must_use]
    pub fn trace(&self, seed: u64) -> Trace {
        Trace::new(self.name, self.script(seed).requests())
    }
}

/// One virtual tick's scripted inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickScript {
    /// Membership operations applied at the tick boundary.
    pub controls: Vec<Request>,
    /// Lookup keys offered this tick (before windowing/shedding).
    pub lookups: Vec<RequestKey>,
}

/// A fully materialized scenario script (pure function of scenario ×
/// seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioScript {
    /// Servers joined before the clock starts.
    pub initial: Vec<ServerId>,
    /// Per-tick inputs.
    pub ticks: Vec<TickScript>,
}

impl ScenarioScript {
    /// Flattens the script into one request stream: initial joins, then
    /// per tick the control operations followed by the lookups.
    #[must_use]
    pub fn requests(&self) -> Vec<Request> {
        let mut out: Vec<Request> =
            self.initial.iter().map(|&s| Request::Join(s)).collect();
        for tick in &self.ticks {
            out.extend(tick.controls.iter().copied());
            out.extend(tick.lookups.iter().map(|&k| Request::Lookup(k)));
        }
        out
    }

    /// Total lookups offered across all ticks.
    #[must_use]
    pub fn offered_lookups(&self) -> usize {
        self.ticks.iter().map(|t| t.lookups.len()).sum()
    }
}

/// The built-in scenario catalog (see `docs/SCENARIOS.md` for the knob
/// and invariant reference).
#[must_use]
pub fn catalog() -> Vec<Scenario> {
    let base = Scenario {
        name: "steady",
        ticks: 48,
        phase_ticks: 8,
        arrivals: ArrivalShape::Constant { rate: 150.0 },
        keys: KeyDistribution::Uniform,
        bursts: None,
        churn: ChurnShape::None,
        initial_servers: 16,
        window: 512,
        replicas: 1,
        crash: None,
        drop_per_mille: 0,
    };
    vec![
        base,
        Scenario {
            name: "diurnal",
            arrivals: ArrivalShape::Diurnal { mean: 120.0, amplitude: 0.8, period: 16 },
            ..base
        },
        Scenario {
            name: "flash-crowd",
            arrivals: ArrivalShape::FlashCrowd {
                base: 80.0,
                peak: 900.0,
                start: 16,
                duration: 8,
            },
            window: 256,
            ..base
        },
        Scenario {
            name: "zipf-hotspot",
            keys: KeyDistribution::Zipf { universe: 512, exponent: 1.1 },
            ..base
        },
        Scenario {
            name: "correlated-bursts",
            arrivals: ArrivalShape::Constant { rate: 60.0 },
            bursts: Some(BurstShape {
                machines: 24,
                probes_per_upset: 40,
                model: hdhash_emulator::CorrelatedErrorModel {
                    monthly_error_rate: 0.08,
                    correlation_factor: 8.0,
                    events_per_error: 2,
                },
            }),
            ..base
        },
        Scenario {
            name: "churn-storm",
            arrivals: ArrivalShape::Constant { rate: 100.0 },
            churn: ChurnShape::Storm { every: 6, ops: 4 },
            initial_servers: 12,
            ..base
        },
        Scenario {
            name: "crash-rejoin",
            arrivals: ArrivalShape::Constant { rate: 90.0 },
            churn: ChurnShape::Storm { every: 8, ops: 3 },
            initial_servers: 12,
            replicas: 3,
            crash: Some(CrashSpec { replica: 2, from_tick: 12, to_tick: 28 }),
            drop_per_mille: 150,
            ..base
        },
    ]
}

/// Engine-side configuration of a scenario run (the scenario scripts the
/// *traffic*; this configures the *system under test*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Per-replica engine configuration. The `seed` field is overridden
    /// by the run (derived from the scenario seed) so one printed seed
    /// reproduces the codebook geometry too.
    pub engine: ServeConfig,
    /// Gossip tuning for replicated scenarios.
    pub gossip: GossipConfig,
}

impl ScenarioConfig {
    /// A small test-scale configuration: 2 workers, a 2048-dimensional
    /// table over a 64-slot codebook.
    #[must_use]
    pub fn small() -> Self {
        Self {
            engine: ServeConfig {
                workers: 2,
                batch_capacity: 16,
                queue_capacity: 1024,
                dimension: 2048,
                codebook_size: 64,
                ..ServeConfig::default()
            },
            gossip: GossipConfig::default(),
        }
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Deterministic + measured telemetry of one reported phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// Phase index (0-based).
    pub phase: usize,
    /// Lookups offered by the script this phase.
    pub arrivals: u64,
    /// Lookups submitted to an engine.
    pub submitted: u64,
    /// Lookups shed by the per-tick window (open-loop overload).
    pub shed: u64,
    /// Submitted lookups reaped with a response.
    pub completed: u64,
    /// Completed lookups whose verdict was an error.
    pub lookup_failures: u64,
    /// Submitted lookups abandoned at the reap timeout (hung tickets).
    pub timed_out: u64,
    /// Membership operations applied this phase.
    pub controls: u64,
    /// Membership operations rejected.
    pub control_failures: u64,
    /// Live members at phase end (replica 0's merged view).
    pub members: u64,
    /// Replica 0's published epoch at phase end.
    pub epoch_max: u64,
    /// Reconfiguration skew across the replica set at phase end: the
    /// spread (max − min) of the replicas' published epochs. Always 0 for
    /// single-engine scenarios.
    pub epoch_lag: u64,
    /// Anti-entropy distance at phase end, in members: the most member
    /// ids any peer's set differs by from replica 0's
    /// ([`member_divergence`]). Always 0 for single-engine scenarios; 0 at
    /// the end of a converged replicated run.
    pub divergence: u64,
    /// Hash of replica 0's membership digest at phase end.
    pub digest_hash: u64,
    /// Engine-side submit-to-response latency distribution of this phase
    /// (nanoseconds; aggregated over every replica, then delta'd against
    /// the previous phase). Wall-clock — excluded from
    /// the fingerprint.
    pub latency: HistogramSnapshot,
    /// Wall time of the phase. Excluded from the fingerprint.
    pub wall: Duration,
}

impl PhaseMetrics {
    /// Folds the deterministic fields into a running fingerprint.
    fn fold(&self, acc: u64) -> u64 {
        [
            self.phase as u64,
            self.arrivals,
            self.submitted,
            self.shed,
            self.completed,
            self.lookup_failures,
            self.timed_out,
            self.controls,
            self.control_failures,
            self.members,
            self.epoch_max,
            self.epoch_lag,
            self.divergence,
            self.digest_hash,
        ]
        .into_iter()
        .fold(acc, |a, v| mix64(a ^ v))
    }

    /// Completed lookups over the phase's wall time.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.wall.as_secs_f64()
        }
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// The seed that reproduces this run bit-for-bit.
    pub seed: u64,
    /// Per-phase telemetry trajectories.
    pub phases: Vec<PhaseMetrics>,
    /// Responses whose epoch disagreed with the membership snapshot
    /// serving their tick. Zero is an invariant of the tick-boundary
    /// quiescence design.
    pub epoch_mismatches: u64,
    /// Tickets abandoned at the reap timeout across the whole run. Zero
    /// against healthy engines.
    pub hung_tickets: u64,
    /// Whether the replica set ended with equal published member sets
    /// (trivially `true` for single-engine scenarios).
    pub converged: bool,
    /// Quiescent anti-entropy rounds needed after the last tick before
    /// the set converged (0 when it was already converged, or for
    /// single-engine scenarios).
    pub recovery_rounds: u64,
    /// Per-replica hash of the final digest; all equal iff `converged`.
    pub replica_digests: Vec<u64>,
    /// Wall time of the whole run. Excluded from the fingerprint.
    pub wall: Duration,
}

impl ScenarioReport {
    /// A 64-bit digest of every deterministic field of the run. Two runs
    /// of the same scenario, config and seed produce equal fingerprints;
    /// any divergence in counts, epochs, membership or digests changes
    /// it.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut acc = mix64(self.seed);
        // Fold the scenario name too: distributions that happen to yield
        // identical counters (uniform vs zipf keys, say) must still get
        // distinct digests.
        for &byte in self.scenario.as_bytes() {
            acc = mix64(acc ^ u64::from(byte));
        }
        for phase in &self.phases {
            acc = phase.fold(acc);
        }
        for &digest in &self.replica_digests {
            acc = mix64(acc ^ digest);
        }
        for v in [
            self.epoch_mismatches,
            self.hung_tickets,
            self.recovery_rounds,
            u64::from(self.converged),
        ] {
            acc = mix64(acc ^ v);
        }
        acc
    }

    /// Sums a per-phase counter over the whole run.
    #[must_use]
    pub fn total(&self, field: impl Fn(&PhaseMetrics) -> u64) -> u64 {
        self.phases.iter().map(field).sum()
    }
}

/// Per-phase counter accumulator (reset at each phase boundary).
#[derive(Default)]
struct PhaseAccum {
    arrivals: u64,
    submitted: u64,
    shed: u64,
    completed: u64,
    lookup_failures: u64,
    timed_out: u64,
    controls: u64,
    control_failures: u64,
}

/// Runs a scenario to completion. See [`run_with_observer`] for the
/// phase-boundary hook variant.
///
/// # Errors
///
/// Propagates [`ServeError`] from scenario/engine validation or from the
/// initial membership bootstrap.
pub fn run(
    scenario: &Scenario,
    config: &ScenarioConfig,
    seed: u64,
) -> Result<ScenarioReport, ServeError> {
    run_with_observer(scenario, config, seed, |_, _| {})
}

/// Runs a scenario, invoking `observe` at every phase boundary with the
/// just-completed phase's metrics and replica 0's engine (the hook the
/// CLI uses for periodic telemetry dumps). The observer cannot perturb
/// the deterministic counters — it runs while the clock is quiescent.
///
/// # Errors
///
/// Propagates [`ServeError`] from scenario/engine validation or from the
/// initial membership bootstrap.
pub fn run_with_observer(
    scenario: &Scenario,
    config: &ScenarioConfig,
    seed: u64,
    mut observe: impl FnMut(&PhaseMetrics, &ServeEngine),
) -> Result<ScenarioReport, ServeError> {
    scenario.validate()?;
    let mut engine_config = config.engine;
    engine_config.seed = mix64(seed ^ ENGINE_SALT);
    engine_config.validate()?;
    let window = scenario.window.min(engine_config.queue_capacity).max(1);

    let script = scenario.script(seed);

    let replicas: Vec<Arc<ReplicatedEngine>> = (0..scenario.replicas)
        .map(|i| ReplicatedEngine::new(ReplicaId::new(i as u64), engine_config).map(Arc::new))
        .collect::<Result<_, _>>()?;
    let replica_refs: Vec<&ReplicatedEngine> = replicas.iter().map(Arc::as_ref).collect();

    // Replicated scenarios gossip over the chaos transport so crash and
    // loss overlays replay from the seed; time is the shared virtual
    // round counter, advanced once per tick.
    let (net, nodes) = if scenario.replicas > 1 {
        let mut plan = FaultPlan::new(mix64(seed ^ CHAOS_SALT));
        if scenario.drop_per_mille > 0 {
            plan = plan.with_default_link(LinkFaults::lossy(scenario.drop_per_mille));
        }
        if let Some(crash) = scenario.crash {
            plan = plan
                .with_crash(ReplicaId::new(crash.replica), crash.from_tick..crash.to_tick);
        }
        let net = ChaosNetwork::new(plan);
        let ids: Vec<ReplicaId> =
            (0..scenario.replicas as u64).map(ReplicaId::new).collect();
        let nodes: Vec<GossipNode<ChaosEndpoint>> = replicas
            .iter()
            .zip(&ids)
            .map(|(replica, &id)| {
                GossipNode::new(Arc::clone(replica), net.endpoint(id), ids.clone(), config.gossip)
            })
            .collect();
        (Some(net), nodes)
    } else {
        (None, Vec::new())
    };

    // Bootstrap membership is provisioned on every replica directly (it
    // is configuration, not discovered state); runtime churn then flows
    // through replica 0 and propagates by gossip.
    for replica in &replicas {
        for &server in &script.initial {
            replica.join(server)?;
        }
    }

    let exchange = |net: &Arc<ChaosNetwork>| {
        net.advance_round();
        for node in &nodes {
            node.tick();
        }
        loop {
            let moved: usize = nodes.iter().map(GossipNode::pump).sum();
            if moved == 0 {
                break;
            }
        }
    };

    let started = Instant::now();
    let mut phase_started = Instant::now();
    let mut acc = PhaseAccum::default();
    let mut prev_hist = HistogramSnapshot::empty();
    let mut phases: Vec<PhaseMetrics> = Vec::new();
    let mut epoch_mismatches = 0u64;
    let mut hung_tickets = 0u64;
    let mut rr = 0usize;
    let mut tickets: Vec<(Ticket, usize)> = Vec::with_capacity(window);

    for (t, tick) in script.ticks.iter().enumerate() {
        // 1. Tick boundary: one chaos round + a drained gossip exchange.
        if let Some(net) = &net {
            exchange(net);
        }

        // 2. Scripted membership operations, through replica 0 (the
        //    membership authority; peers learn by anti-entropy).
        for request in &tick.controls {
            let outcome = match *request {
                Request::Join(server) => Some(replicas[0].join(server).map(|_| ())),
                Request::Leave(server) => Some(replicas[0].leave(server).map(|_| ())),
                Request::Lookup(_) => None,
            };
            if let Some(result) = outcome {
                acc.controls += 1;
                if result.is_err() {
                    acc.control_failures += 1;
                }
            }
        }

        // 3. The membership is now quiescent for the rest of the tick:
        //    capture the per-replica serving epochs responses must match.
        let epochs: Vec<u64> = replicas.iter().map(|r| published_epoch(r)).collect();

        // Clients fail over away from a crashed replica deterministically.
        let mut live: Vec<usize> = (0..replicas.len())
            .filter(|&i| {
                net.as_ref().is_none_or(|n| !n.is_crashed(ReplicaId::new(i as u64)))
            })
            .collect();
        if live.is_empty() {
            live.push(0);
        }

        // 4. Open-loop submission under the per-tick window.
        acc.arrivals += tick.lookups.len() as u64;
        for &key in &tick.lookups {
            if tickets.len() >= window {
                acc.shed += 1;
                continue;
            }
            let idx = live[rr % live.len()];
            rr += 1;
            match replicas[idx].submit(key) {
                Ok(ticket) => {
                    acc.submitted += 1;
                    tickets.push((ticket, idx));
                }
                // Unreachable while window ≤ queue_capacity (only the
                // workers dequeue); counted as shed defensively.
                Err(_) => acc.shed += 1,
            }
        }

        // 5. Reap every outstanding ticket before the clock may advance —
        //    the quiescence rule.
        for (ticket, idx) in tickets.drain(..) {
            match ticket.wait_timeout(REAP_TIMEOUT) {
                Some(response) => {
                    acc.completed += 1;
                    if response.result.is_err() {
                        acc.lookup_failures += 1;
                    }
                    if response.epoch != epochs[idx] {
                        epoch_mismatches += 1;
                    }
                }
                None => {
                    acc.timed_out += 1;
                    hung_tickets += 1;
                }
            }
        }

        // 6. Phase boundary: snapshot the trajectory point.
        if (t + 1) % scenario.phase_ticks == 0 || t + 1 == script.ticks.len() {
            let agg = aggregate_latency(&replicas);
            let phase = PhaseMetrics {
                phase: phases.len(),
                arrivals: acc.arrivals,
                submitted: acc.submitted,
                shed: acc.shed,
                completed: acc.completed,
                lookup_failures: acc.lookup_failures,
                timed_out: acc.timed_out,
                controls: acc.controls,
                control_failures: acc.control_failures,
                members: replicas[0].member_ids().len() as u64,
                epoch_max: published_epoch(&replicas[0]),
                epoch_lag: epoch_lag(&replicas),
                divergence: member_divergence(&replica_refs),
                digest_hash: digest_hash(replicas[0].digest()),
                latency: agg.delta_since(&prev_hist),
                wall: phase_started.elapsed(),
            };
            prev_hist = agg;
            observe(&phase, replicas[0].engine());
            phases.push(phase);
            acc = PhaseAccum::default();
            phase_started = Instant::now();
        }
    }

    // 7. Post-run drain: quiescent anti-entropy rounds until the set is
    //    converged (bounded; lingering faults healed part-way).
    let mut recovery_rounds = 0u64;
    let mut is_converged = true;
    if let Some(net) = &net {
        is_converged = converged(&replica_refs);
        for round in 0..RECOVERY_CAP {
            if is_converged {
                break;
            }
            if round == RECOVERY_HEAL_AFTER {
                net.heal();
            }
            exchange(net);
            recovery_rounds += 1;
            is_converged = converged(&replica_refs);
        }
        debug_assert!(net.stats().reconciles(), "chaos conservation identity violated");
    }

    let replica_digests: Vec<u64> = replicas.iter().map(|r| digest_hash(r.digest())).collect();

    Ok(ScenarioReport {
        scenario: scenario.name,
        seed,
        phases,
        epoch_mismatches,
        hung_tickets,
        converged: is_converged,
        recovery_rounds,
        replica_digests,
        wall: started.elapsed(),
    })
}

/// Engine-side latency distributions of every replica, merged into one
/// cumulative histogram.
fn aggregate_latency(replicas: &[Arc<ReplicatedEngine>]) -> HistogramSnapshot {
    replicas.iter().fold(HistogramSnapshot::empty(), |agg, replica| {
        agg.merge(&replica.engine().metrics().shards[0].latency_hist)
    })
}

/// The epoch `replica` currently publishes.
fn published_epoch(replica: &ReplicatedEngine) -> u64 {
    replica.engine().snapshots()[0].epoch
}

/// Spread (max − min) of published epochs across the replica set.
fn epoch_lag(replicas: &[Arc<ReplicatedEngine>]) -> u64 {
    let epochs = replicas.iter().map(|r| published_epoch(r));
    epochs.clone().max().unwrap_or(0) - epochs.min().unwrap_or(0)
}

/// A 64-bit hash of a membership digest.
#[allow(clippy::cast_possible_truncation)]
fn digest_hash(digest: u128) -> u64 {
    [(digest >> 64) as u64, digest as u64]
        .into_iter()
        .fold(0x51_6E41_u64, |acc, half| mix64(acc ^ half))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_resolvable() {
        let names: Vec<&str> = catalog().iter().map(|s| s.name).collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(names.len(), unique.len());
        assert!(names.len() >= 7, "catalog should cover the issue's scenario list");
        for name in names {
            let scenario = Scenario::by_name(name).expect("by_name resolves catalog entries");
            assert_eq!(scenario.name, name);
            scenario.validate().expect("catalog scenarios validate");
        }
        assert!(Scenario::by_name("no-such-scenario").is_none());
    }

    #[test]
    fn script_conserves_offered_load() {
        let scenario = Scenario::by_name("diurnal").expect("catalog");
        let script = scenario.script(11);
        assert_eq!(script.ticks.len(), scenario.ticks);
        let offered = scenario.arrivals.offered(scenario.ticks);
        let total = script.offered_lookups() as f64;
        assert!((total - offered).abs() < 1.0, "total {total} vs integral {offered}");
    }

    #[test]
    fn script_churn_never_drains_the_pool() {
        let scenario = Scenario::by_name("churn-storm").expect("catalog");
        let script = scenario.script(23);
        let mut live: BTreeSet<u64> =
            script.initial.iter().map(|s| s.get()).collect();
        for tick in &script.ticks {
            for control in &tick.controls {
                match *control {
                    Request::Join(s) => {
                        assert!(live.insert(s.get()), "joins are always fresh ids");
                    }
                    Request::Leave(s) => {
                        assert!(live.remove(&s.get()), "leaves target live members");
                    }
                    Request::Lookup(_) => panic!("controls only"),
                }
                assert!(!live.is_empty(), "pool must never drain");
            }
        }
    }

    #[test]
    fn script_is_deterministic_and_seed_sensitive() {
        let scenario = Scenario::by_name("zipf-hotspot").expect("catalog");
        assert_eq!(scenario.script(5), scenario.script(5));
        assert_ne!(scenario.script(5), scenario.script(6));
    }

    #[test]
    fn trace_flattens_the_script() {
        let scenario = Scenario::by_name("churn-storm").expect("catalog");
        let script = scenario.script(3);
        let trace = scenario.trace(3);
        assert_eq!(trace.name(), "churn-storm");
        let controls: usize = script.ticks.iter().map(|t| t.controls.len()).sum();
        assert_eq!(
            trace.len(),
            script.initial.len() + controls + script.offered_lookups()
        );
    }

    #[test]
    fn validation_rejects_structural_nonsense() {
        let good = Scenario::by_name("steady").expect("catalog");
        assert!(Scenario { ticks: 0, ..good }.validate().is_err());
        assert!(Scenario { replicas: 0, ..good }.validate().is_err());
        assert!(Scenario {
            crash: Some(CrashSpec { replica: 0, from_tick: 0, to_tick: 4 }),
            ..good
        }
        .validate()
        .is_err(), "crash needs ≥ 2 replicas");
        assert!(Scenario {
            replicas: 2,
            crash: Some(CrashSpec { replica: 5, from_tick: 0, to_tick: 4 }),
            ..good
        }
        .validate()
        .is_err(), "crash replica must exist");
    }

    #[test]
    fn flash_crowd_script_exceeds_window_only_at_peak() {
        let scenario = Scenario::by_name("flash-crowd").expect("catalog");
        let script = scenario.script(17);
        let ArrivalShape::FlashCrowd { start, duration, .. } = scenario.arrivals else {
            panic!("flash-crowd shape");
        };
        for (t, tick) in script.ticks.iter().enumerate() {
            if t >= start && t < start + duration {
                assert!(tick.lookups.len() > scenario.window, "peak tick {t} overloads");
            } else {
                assert!(tick.lookups.len() <= scenario.window, "off-peak tick {t} fits");
            }
        }
    }
}
