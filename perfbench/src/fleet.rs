//! The `fleet` workload: `run_fleet` over 2000 demuxed sessions, 8 link
//! domains and 8 shards, seeded through `FleetSpec.seed`.

use abr_bench::corpus::TitleCorpus;
use abr_bench::fleet::{run_fleet, FleetResult, FleetSpec, PlanSource};

use crate::digest;

/// Sessions per fleet.
pub const SESSIONS: usize = 2000;

/// Fleets per run. At this contention a fleet's cost moves with its seed
/// (more demand, more throttling, more stalls and events): seeds 1 and 5
/// differ by a fifth. A run therefore rotates its passes over this many
/// fleets, so its median stands for a sample of fleets, not one.
pub const FLEETS: u64 = 8;

/// The workload's fleets for `--seed`: `FleetSpec.seed` runs over
/// `seed × FLEETS .. seed × FLEETS + FLEETS`, disjoint between seeds.
#[must_use]
pub fn specs(seed: u64) -> Vec<FleetSpec> {
    (0..FLEETS)
        .map(|f| FleetSpec {
            domains: 8,
            shards: 8,
            seed: seed.wrapping_mul(FLEETS).wrapping_add(f),
            ..FleetSpec::small(SESSIONS)
        })
        .collect()
}

/// The workload's set-up through its public builders: the plan source
/// and the title catalog. Returns their host times in ns.
#[must_use]
pub fn setup(spec: &FleetSpec) -> (u64, u64) {
    let t0 = std::time::Instant::now();
    let plans = PlanSource::new(spec);
    let t1 = std::time::Instant::now();
    let titles = TitleCorpus::build(spec.seed, spec.titles);
    let t2 = std::time::Instant::now();
    std::hint::black_box((plans, titles));
    (
        t1.duration_since(t0).as_nanos() as u64,
        t2.duration_since(t1).as_nanos() as u64,
    )
}

/// Digest of a fleet artifact.
#[must_use]
pub fn digest(result: &FleetResult) -> String {
    digest::artifact(&result.text, &result.json)
}

/// The reference digest for `spec`: the pinned value when its seed was
/// recorded, else an untimed `--jobs 1` run of the same spec.
#[must_use]
pub fn reference(spec: &FleetSpec) -> (String, &'static str) {
    match digest::pinned_fleet(spec.seed) {
        Some(pinned) => (pinned.to_string(), "pinned"),
        None => (digest(&run_fleet(spec, 1)), "jobs-1 run"),
    }
}

/// Total simulated session-seconds across a fleet's logs (summed in
/// whole microseconds, so the count is exact).
///
/// # Errors
/// When the result kept no logs.
pub fn sim_s(result: &FleetResult) -> Result<f64, String> {
    let logs = result.logs.as_ref().ok_or("fleet result kept no logs")?;
    let micros: u64 = logs.iter().map(|l| l.finished_at.as_micros()).sum();
    Ok(micros as f64 / 1e6)
}

/// An exact count from the artifact's `totals` object.
///
/// # Errors
/// When the field is missing or not a number.
pub fn total(result: &FleetResult, field: &str) -> Result<f64, String> {
    result.json["totals"][field]
        .as_f64()
        .ok_or_else(|| format!("fleet artifact has no numeric totals.{field}"))
}
