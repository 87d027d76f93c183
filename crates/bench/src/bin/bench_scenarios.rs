//! Emits `BENCH_scenarios.json`: one scenario-engine trajectory per
//! catalog scenario (see `docs/SCENARIOS.md`).
//!
//! ```text
//! cargo run --release -p hdhash-bench --bin bench_scenarios
//! cargo run --release -p hdhash-bench --bin bench_scenarios -- quick=1
//! cargo run --release -p hdhash-bench --bin bench_scenarios -- out=/tmp/B.json seed=42
//! SCENARIO_SEED=42 cargo run --release -p hdhash-bench --bin bench_scenarios
//! ```
//!
//! Every row runs one catalog scenario (diurnal curve, flash crowd,
//! Zipf hotspot, correlated bursts, churn storm, replica crash/rejoin)
//! on [`ScenarioConfig::small`] (replica count per the scenario) and
//! reports the per-phase
//! trajectory: throughput, p50/p99 latency, shed (open-loop overload),
//! epoch lag and anti-entropy divergence. Each row is stamped with the
//! seed that reproduces it bit-for-bit (`SCENARIO_SEED=<seed>` replays
//! the whole sweep; the per-row `fingerprint` is the replay check).

use std::fmt::Write as _;

use hdhash_bench::{telemetry_embed, Params};
use hdhash_obs::TelemetrySnapshot;
use hdhash_serve::scenario::{self, Scenario, ScenarioConfig};

/// Default seed for the whole grid; `SCENARIO_SEED` or `seed=` overrides.
const DEFAULT_SEED: u64 = 0x5CE4_A210;

fn scenarios(quick: bool) -> Vec<Scenario> {
    let wanted: &[&str] = if quick {
        &["steady", "flash-crowd", "zipf-hotspot", "churn-storm"]
    } else {
        &["steady", "diurnal", "flash-crowd", "zipf-hotspot", "correlated-bursts", "churn-storm", "crash-rejoin"]
    };
    wanted
        .iter()
        .map(|name| Scenario::by_name(name).expect("catalog scenario"))
        .collect()
}

fn main() {
    let params = Params::from_env();
    let quick =
        params.get_usize("quick", 0) != 0 || std::env::args().any(|a| a == "--quick");
    let out_path = std::env::args()
        .skip(1)
        .find_map(|a| a.strip_prefix("out=").map(str::to_owned))
        .unwrap_or_else(|| "BENCH_scenarios.json".to_owned());
    let seed = std::env::var("SCENARIO_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or_else(|| params.get_u64("seed", DEFAULT_SEED));

    println!("scenario seed: {seed} (replay: SCENARIO_SEED={seed})");
    let mut telemetry = TelemetrySnapshot::new();
    let mut cells: Vec<String> = Vec::new();
    let config = ScenarioConfig::small();

    for s in scenarios(quick) {
        let report = scenario::run(&s, &config, seed).expect("catalog run");
        assert_eq!(report.hung_tickets, 0, "{}: hung tickets", s.name);
        assert_eq!(report.epoch_mismatches, 0, "{}: epoch mismatches", s.name);
        assert!(report.converged, "{}: replica set did not converge", s.name);

        let completed = report.total(|p| p.completed);
        let shed = report.total(|p| p.shed);
        println!(
            "{:<18} completed={:<6} shed={:<5} phases={:<2} epoch-lag≤{:<2} \
             recovery={:<3} fp={:#018x} {:>7.2} ms",
            s.name,
            completed,
            shed,
            report.phases.len(),
            report.phases.iter().map(|p| p.epoch_lag).max().unwrap_or(0),
            report.recovery_rounds,
            report.fingerprint(),
            report.wall.as_secs_f64() * 1e3,
        );

        // Phase trajectories (latency quantiles in µs; the histogram
        // records nanoseconds).
        let traj = |f: &dyn Fn(&scenario::PhaseMetrics) -> String| {
            report.phases.iter().map(f).collect::<Vec<_>>().join(", ")
        };
        let quantile_us = |p: &scenario::PhaseMetrics, q: f64| {
            p.latency.quantile(q).map_or(0.0, |ns| ns as f64 / 1e3)
        };
        let mut cell_json = String::from("    {");
        let _ = writeln!(
            cell_json,
            "\"scenario\": \"{}\", \"seed\": {seed}, \
             \"fingerprint\": \"{:#018x}\", \"replicas\": {}, \
             \"completed\": {completed}, \"shed\": {shed}, \
             \"converged\": {}, \"recovery_rounds\": {}, \"wall_ms\": {:.2},",
            s.name,
            report.fingerprint(),
            s.replicas,
            report.converged,
            report.recovery_rounds,
            report.wall.as_secs_f64() * 1e3,
        );
        let _ = writeln!(
            cell_json,
            "     \"throughput_rps\": [{}],",
            traj(&|p| format!("{:.1}", p.throughput_rps()))
        );
        let _ = writeln!(
            cell_json,
            "     \"p50_us\": [{}],",
            traj(&|p| format!("{:.1}", quantile_us(p, 0.50)))
        );
        let _ = writeln!(
            cell_json,
            "     \"p99_us\": [{}],",
            traj(&|p| format!("{:.1}", quantile_us(p, 0.99)))
        );
        let _ = writeln!(
            cell_json,
            "     \"shed_per_phase\": [{}],",
            traj(&|p| p.shed.to_string())
        );
        let _ = writeln!(
            cell_json,
            "     \"epoch_lag\": [{}],",
            traj(&|p| p.epoch_lag.to_string())
        );
        let _ = write!(
            cell_json,
            "     \"divergence\": [{}]}}",
            traj(&|p| p.divergence.to_string())
        );
        cells.push(cell_json);

        // Scenario-level counters into the unified snapshot.
        let labels = [("scenario", s.name)];
        telemetry.push_counter(
            "hdhash_scenario_completed_total",
            "Lookups completed by scenario runs",
            &labels,
            completed,
        );
        telemetry.push_counter(
            "hdhash_scenario_shed_total",
            "Lookups shed by the open-loop window",
            &labels,
            shed,
        );
        telemetry.push_counter(
            "hdhash_scenario_recovery_rounds_total",
            "Post-run anti-entropy rounds to convergence",
            &labels,
            report.recovery_rounds,
        );
    }

    let mut json = String::from("{\n  \"benchmark\": \"BENCH_scenarios\",\n");
    let _ = writeln!(json, "  \"kernel\": \"{}\",", hdhash_simdkernels::kernel_name());
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    let _ = writeln!(json, "  \"scenario_seed\": {seed},");
    let _ = writeln!(
        json,
        "  \"replay\": \"SCENARIO_SEED={seed} cargo run --release -p hdhash-bench \
         --bin bench_scenarios\","
    );
    let _ = writeln!(
        json,
        "  \"telemetry\": {},",
        telemetry_embed::embed(
            &telemetry,
            &[
                "hdhash_scenario_completed_total",
                "hdhash_scenario_shed_total",
                "hdhash_scenario_recovery_rounds_total",
            ],
        )
    );
    json.push_str("  \"series\": [\n");
    json.push_str(&cells.join(",\n"));
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
