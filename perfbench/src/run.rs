//! One benchmark run: an untraced run prints the end-to-end table for
//! one workload; the traced run prints the whole per-layer table.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use abr_bench::fleet::{run_fleet, run_fleet_profiled, run_fleet_with_logs, FleetResult};

use crate::harness::{peak_rss_mb, Passes, RunnerStats};
use crate::host::HostSpeed;
use crate::metrics::{arm_label, Metrics, Table};
use crate::probe::{calibrate, Calibration};
use crate::stats::{median, quartiles, tail};
use crate::{digest, fleet, mc, paper};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every paper experiment, as `exp --all` runs them.
    Paper,
    /// The Monte Carlo sweep, as `exp mc` runs it.
    Mc,
    /// The contended fleet, as `exp fleet` runs it.
    Fleet,
}

impl Workload {
    /// Parses a `--workload` value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper" => Some(Workload::Paper),
            "mc" => Some(Workload::Mc),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    /// The input size one pass works through, for the report.
    #[must_use]
    pub fn size(self) -> String {
        match self {
            Workload::Paper => format!(
                "{} experiments, each serial inside one pool item",
                abr_bench::experiments::all_ids().len()
            ),
            Workload::Mc => format!(
                "{} seeds x 7 traces x 7 arms = {} sessions",
                mc::SEEDS,
                mc::SEEDS * 49
            ),
            Workload::Fleet => format!(
                "{} demuxed sessions, 8 domains, 8 shards, FleetSpec::small otherwise",
                fleet::SESSIONS
            ),
        }
    }
}

/// What a run measured and everything it found wrong.
pub struct Run {
    /// The metrics, checked against the catalog.
    pub metrics: Metrics,
    /// Pass accounting.
    pub passes: Passes,
    /// Extra report lines.
    pub notes: Vec<String>,
}

impl Run {
    fn new(table: Table) -> Run {
        Run {
            metrics: Metrics::new(table),
            passes: Passes::default(),
            notes: Vec::new(),
        }
    }

    /// Whether every pass matched and every metric was measured.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.passes.failed == 0 && self.metrics.problems().is_empty()
    }
}

fn spread_note(samples: &[f64], what: &str) -> String {
    let (q1, q3) = quartiles(samples);
    let tail = tail(samples).map_or(String::new(), |(p, v)| format!(", p{p} {v:.6}"));
    format!(
        "median of {} {what}; q1 {q1:.6}, q3 {q3:.6}{tail}",
        samples.len()
    )
}

fn mc_check(result: &abr_bench::mc::McResult) -> Result<(), String> {
    if digest::MC_DIGEST.is_empty() {
        return Err("no pinned mc digest; record one with --record".to_string());
    }
    let got = digest::artifact(&result.text, &result.json);
    if got != digest::MC_DIGEST {
        return Err(format!(
            "mc artifact digest {got} != pinned {}",
            digest::MC_DIGEST
        ));
    }
    Ok(())
}

/// Times `pass` until `budget` has elapsed (at least three times). After
/// each pass — outside its timed interval — takes host-speed readings
/// and times set-up repetitions, one of each per started eighth of a
/// second of pass, so both sample the whole run alike. Returns the raw
/// walls of the passes that matched and the raw set-up seconds.
fn timed_passes<T>(
    passes: &mut Passes,
    host: &mut HostSpeed,
    budget: Duration,
    mut pass: impl FnMut(&mut Passes) -> Option<f64>,
    mut setup: impl FnMut() -> T,
) -> (Vec<f64>, Vec<f64>) {
    let mut setups = Vec::new();
    let walls = passes.repeat(budget, 3, |p| {
        let t0 = Instant::now();
        let wall = pass(p);
        let eighths = (t0.elapsed().as_secs_f64() * 8.0).ceil().max(1.0) as usize;
        host.read(eighths);
        setups.extend(timed_setup(eighths, &mut setup));
        wall
    });
    (walls, setups)
}

/// Times `setup` `reps` times; returns the raw seconds.
fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(setup());
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// An untraced run of `workload`: one warm-up pass (the process's memory
/// peak is read right after it, so it is the peak of one workload pass,
/// as `exp` runs it), then timed passes for `budget` with set-up
/// repetitions between them, every pass's artifact checked and every
/// time scaled to reference host speed ([`crate::host`]).
///
/// # Errors
/// When the workload cannot be set up (its references are missing) or
/// the memory peak cannot be read.
pub fn untraced(
    workload: Workload,
    seed: u64,
    budget: Duration,
    jobs: usize,
    root: &Path,
) -> Result<Run, String> {
    let mut run = Run::new(Table::EndToEnd);
    let passes = &mut run.passes;
    let peak;
    let (setup, walls, items, host) = match workload {
        Workload::Paper => {
            let dir = root.join("results");
            let refs = paper::load_references(&dir)?;
            let pass = |p: &mut Passes, label: &str| {
                p.run(label, || paper::untraced(jobs), |r| refs.check(r.iter()))
                    .map(|(wall, ())| wall)
            };
            pass(passes, "paper warm-up");
            peak = peak_rss_mb()?;
            let mut host = HostSpeed::new(jobs);
            let (walls, setup) = timed_passes(
                passes,
                &mut host,
                budget,
                |p| pass(p, "paper pass"),
                || paper::load_references(&dir),
            );
            (setup, walls, refs.ids().len(), host)
        }
        Workload::Mc => {
            let pass = |p: &mut Passes, label: &str| {
                p.run(label, || mc::untraced(jobs), |r| mc_check(&r))
                    .map(|(wall, ())| wall)
            };
            pass(passes, "mc warm-up");
            peak = peak_rss_mb()?;
            let mut host = HostSpeed::new(jobs);
            let (walls, setup) = timed_passes(
                passes,
                &mut host,
                budget,
                |p| pass(p, "mc pass"),
                mc::build_corpus,
            );
            (setup, walls, (mc::SEEDS * 49) as usize, host)
        }
        Workload::Fleet => {
            let specs = fleet::specs(seed);
            let mut digests = vec![Vec::new(); specs.len()];
            let mut next = 0;
            let mut pass = |p: &mut Passes, label: &str| {
                let f = next % specs.len();
                next += 1;
                let label = format!("{label} (fleet seed {})", specs[f].seed);
                let (wall, d) = p.run(
                    &label,
                    || run_fleet(&specs[f], jobs),
                    |r| Ok(fleet::digest(&r)),
                )?;
                digests[f].push(d);
                Some(wall)
            };
            pass(passes, "fleet warm-up");
            peak = peak_rss_mb()?;
            let mut host = HostSpeed::new(jobs);
            let mut rep = 0;
            let (walls, setup) = timed_passes(
                passes,
                &mut host,
                budget,
                |p| pass(p, "fleet pass"),
                || {
                    rep += 1;
                    fleet::setup(&specs[rep % specs.len()])
                },
            );
            let mut sources = Vec::new();
            for (spec, digests) in specs.iter().zip(&digests) {
                if !digests.is_empty() {
                    sources.extend(fleet_reference_check(passes, spec, digests));
                }
            }
            run.notes.push(format!(
                "fleet: passes rotate over FleetSpec.seed {}..={}; digests checked against {}",
                specs[0].seed,
                specs[specs.len() - 1].seed,
                sources.join(", ")
            ));
            (setup, walls, fleet::SESSIONS, host)
        }
    };
    let factor = host.factor();
    run.notes.push(format!(
        "host: reference kernel mean {:.6} s over {} readings; times below are raw x {factor:.4} \
         (reference {} s / kernel), i.e. host seconds at reference speed",
        host.kernel(),
        host.kernels.len(),
        crate::host::REFERENCE_S
    ));
    run.metrics
        .put("peak_rss_mb", peak, "VmHWM after one warm-up pass");
    run.metrics.put(
        "setup_s",
        median(&setup) * factor,
        format!(
            "median of {} set-ups; raw {:.6} s",
            setup.len(),
            median(&setup)
        ),
    );
    if !walls.is_empty() {
        let scaled: Vec<f64> = walls.iter().map(|w| w * factor).collect();
        let wall = median(&scaled);
        run.metrics.put(
            "wall_s",
            wall,
            format!(
                "{}; raw median {:.6} s",
                spread_note(&scaled, "timed passes"),
                median(&walls)
            ),
        );
        run.metrics.put(
            "items_per_s",
            items as f64 / wall,
            format!("{items} items per pass over the median wall"),
        );
    }
    Ok(run)
}

/// Checks `digests` of `spec`'s passes against its reference; returns
/// where the reference came from, or `None` if building it failed.
fn fleet_reference_check(
    passes: &mut Passes,
    spec: &abr_bench::fleet::FleetSpec,
    digests: &[String],
) -> Option<String> {
    let label = format!("fleet reference (seed {})", spec.seed);
    let (_, (reference, source)) = passes.run(&label, || fleet::reference(spec), Ok)?;
    for (i, d) in digests.iter().enumerate() {
        if *d != reference {
            passes.fail(format!(
                "fleet seed {} pass {i}: digest {d} != {source} digest {reference}",
                spec.seed
            ));
        }
    }
    Some(format!("seed {} {source}", spec.seed))
}

/// The traced run: calibrates the probes, then measures every layer of
/// the catalog on the workload it belongs to, each section for a third
/// of `budget` (at least two traced and two untraced passes).
///
/// # Errors
/// When a workload cannot be set up.
pub fn traced(seed: u64, budget: Duration, jobs: usize, root: &Path) -> Result<Run, String> {
    let mut run = Run::new(Table::PerLayer);
    let cal = calibrate();
    run.metrics.put(
        "probe_ns",
        cal.probe_ns,
        "wrapped minus bare policy call, median of 9 rounds",
    );
    run.metrics
        .put("clock_ns", cal.clock_ns, "empty span, median of 9 rounds");
    let section = budget / 3;
    traced_paper(&mut run, cal, section, jobs, root)?;
    traced_mc(&mut run, cal, section, jobs);
    traced_fleet(&mut run, seed, section, jobs);
    Ok(run)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn traced_paper(
    run: &mut Run,
    cal: Calibration,
    budget: Duration,
    jobs: usize,
    root: &Path,
) -> Result<(), String> {
    let refs = paper::load_references(&root.join("results"))?;
    let iters = run.passes.repeat(budget, 2, |p| {
        let (untraced, ()) = p.run(
            "paper untraced",
            || paper::untraced(jobs),
            |r| refs.check(r.iter()),
        )?;
        let (traced, items) = p.run(
            "paper traced",
            || paper::traced(jobs),
            |items| {
                refs.check(items.iter().map(|(r, _, _)| r))?;
                Ok(items
                    .into_iter()
                    .map(|(_, worker, ns)| (worker, ns))
                    .collect::<Vec<_>>())
            },
        )?;
        Some((untraced, traced, items))
    });
    if iters.is_empty() {
        return Ok(());
    }
    let n = iters.len();
    let col = |f: &dyn Fn(&(f64, f64, Vec<_>)) -> f64| iters.iter().map(f).collect::<Vec<f64>>();
    let untraced = col(&|it| it.0);
    let traced = col(&|it| it.1);
    run.metrics.put(
        "trace_overhead.paper",
        median(&traced) / median(&untraced),
        format!(
            "traced {:.6} s over untraced {:.6} s, medians of {n}",
            median(&traced),
            median(&untraced)
        ),
    );
    let stats: Vec<RunnerStats> = iters
        .iter()
        .map(|(_, wall, items)| RunnerStats::from_items(jobs, (wall * 1e9) as u64, items))
        .collect();
    let idle: Vec<f64> = stats.iter().map(|s| s.idle_frac).collect();
    let imbalance: Vec<f64> = stats.iter().map(|s| s.imbalance).collect();
    run.metrics.put(
        "bench.runner.idle_frac.paper",
        median(&idle),
        format!("{jobs} workers, median of {n} traced passes"),
    );
    run.metrics.put(
        "bench.runner.imbalance.paper",
        median(&imbalance),
        format!("max over mean worker busy, median of {n}"),
    );
    for (i, id) in refs.ids().iter().enumerate() {
        let item: Vec<f64> = iters.iter().map(|it| it.2[i].1 as f64).collect();
        run.metrics.put(
            &format!("bench.experiments.{id}_ms"),
            ms(median(&item) - cal.clock_ns),
            format!("run_jobs({id}, 1), median of {n}"),
        );
    }
    Ok(())
}

/// One mc iteration of the traced run: the untraced wall, the traced
/// harness pass and the stepper pass.
struct McIter {
    untraced: f64,
    traced: f64,
    cells: Vec<mc::CellTrace>,
    steps: Vec<mc::StepCell>,
}

fn traced_mc(run: &mut Run, cal: Calibration, budget: Duration, jobs: usize) {
    run.metrics.put(
        "bench.corpus.build_ms",
        median(&timed_setup(3, mc::build_corpus)) * 1e3,
        "ScenarioCorpus::build_mc, median of 3",
    );
    let corpus = mc::build_corpus();
    let grid = mc::Grid::new(&corpus);
    let iters = run.passes.repeat(budget, 2, |p| {
        let (untraced, artifact) = p.run(
            "mc untraced",
            || mc::untraced(jobs),
            |r| mc_check(&r).map(|()| r.json),
        )?;
        let (traced, cells) = p.run(
            "mc traced",
            || mc::traced(&corpus, &grid, jobs),
            |cells| {
                let rows = mc::rows(&corpus, &grid, cells.iter().map(|c| &c.summary));
                mc::check_rows(&artifact, &rows).map(|()| cells)
            },
        )?;
        let (_, steps) = p.run(
            "mc stepper",
            || mc::stepper_pass(&corpus, &grid, jobs),
            |steps| match steps
                .iter()
                .zip(&cells)
                .position(|(s, c)| s.summary != c.summary)
            {
                Some(i) => Err(format!("stepper cell {i} summarizes differently")),
                None => Ok(steps),
            },
        )?;
        Some(McIter {
            untraced,
            traced,
            cells,
            steps,
        })
    });
    if iters.is_empty() {
        return;
    }
    let n = iters.len();
    let exact = |it: &McIter| -> (u64, u64, u64, u64) {
        (
            it.cells.iter().map(|c| c.tally.select_calls.get()).sum(),
            it.cells
                .iter()
                .map(|c| c.tally.on_transfer_calls.get())
                .sum(),
            it.cells.iter().map(|c| c.sim_us).sum(),
            it.steps.iter().map(|s| s.events).sum(),
        )
    };
    let counts = exact(&iters[0]);
    if iters.iter().any(|it| exact(it) != counts) {
        run.passes
            .fail("mc simulated counts differ between passes".to_string());
    }
    let (select_calls, on_transfer_calls, sim_us, events) = counts;
    let calls = select_calls + on_transfer_calls;
    let layers: Vec<McLayers> = iters
        .iter()
        .map(|it| McLayers::of(it, &grid, cal, events))
        .collect();
    let med = |f: &dyn Fn(&McLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<f64>>());
    let of = format!("median of {n} traced passes");
    let probe_ms = ms(calls as f64 * cal.probe_ns);
    let session_self_ms = med(&|l| l.session_self);

    run.metrics.put("core.select_ms", med(&|l| l.select), &of);
    run.metrics.put(
        "core.select_calls",
        select_calls as f64,
        "identical on every pass",
    );
    for (a, arm) in grid.arms.iter().enumerate() {
        run.metrics.put(
            &format!("core.select_ms.{}", arm_label(&arm.label())),
            med(&|l| l.select_by_arm[a]),
            &of,
        );
    }
    run.metrics
        .put("core.on_transfer_ms", med(&|l| l.on_transfer), &of);
    run.metrics.put(
        "core.on_transfer_calls",
        on_transfer_calls as f64,
        "identical on every pass",
    );
    run.metrics
        .put("core.policy_build_ms", med(&|l| l.build), &of);
    run.metrics.put(
        "player.session_self_ms",
        session_self_ms,
        format!("run_with_scratch minus policy calls, {of}"),
    );
    run.metrics
        .put("player.events", events as f64, "SessionStepper dispatches");
    run.metrics.put(
        "player.events_per_s",
        events as f64 / (session_self_ms / 1e3),
        "events over player self time",
    );
    run.metrics
        .put("player.sim_s", sim_us as f64 / 1e6, "sum of finished_at");
    run.metrics.put(
        "player.next_wake_ms",
        med(&|l| l.next_wake),
        format!("stepper pass over the mc cells, {of}"),
    );
    run.metrics.put(
        "player.dispatch_ms",
        med(&|l| l.dispatch),
        format!("stepper pass, policy calls included, {of}"),
    );
    run.metrics
        .put("qoe.summarize_ms", med(&|l| l.summarize), &of);
    let stats: Vec<RunnerStats> = iters
        .iter()
        .map(|it| {
            let items: Vec<_> = it.cells.iter().map(|c| (c.worker, c.busy_ns)).collect();
            RunnerStats::from_items(jobs, (it.traced * 1e9) as u64, &items)
        })
        .collect();
    run.metrics.put(
        "bench.runner.idle_frac.mc",
        median(&stats.iter().map(|s| s.idle_frac).collect::<Vec<_>>()),
        format!("{jobs} workers, {of}"),
    );
    run.metrics.put(
        "bench.runner.imbalance.mc",
        median(&stats.iter().map(|s| s.imbalance).collect::<Vec<_>>()),
        &of,
    );
    run.metrics.put(
        "bench.mc.busy_ms",
        med(&|l| l.busy),
        format!("sum of cell spans, {of}"),
    );
    run.metrics.put(
        "bench.mc.probe_ms",
        probe_ms,
        format!("{calls} policy calls x probe_ns"),
    );
    let untraced = median(&iters.iter().map(|it| it.untraced).collect::<Vec<_>>());
    let traced = median(&iters.iter().map(|it| it.traced).collect::<Vec<_>>());
    run.metrics.put(
        "trace_overhead.mc",
        traced / untraced,
        format!("traced {traced:.6} s over untraced {untraced:.6} s, medians of {n}"),
    );
    run.metrics.put(
        "bench.mc.sim_s_per_s",
        sim_us as f64 / 1e6 / untraced,
        "player.sim_s over the untraced wall",
    );
    // The books balance per pass, not across medians of different
    // passes: show them for the pass whose busy time is the median.
    let mut by_busy: Vec<&McLayers> = layers.iter().collect();
    by_busy.sort_by(|a, b| a.busy.total_cmp(&b.busy));
    let l = by_busy[n / 2];
    let sum = l.build + l.select + l.on_transfer + l.session_self + l.summarize;
    run.notes.push(format!(
        "mc books (pass with the median busy time): layers {sum:.3} ms + probe cost \
         {probe_ms:.3} ms = {:.3} ms vs cell spans {:.3} ms",
        sum + probe_ms,
        l.busy
    ));
}

/// One traced mc pass split into layers, in ms, probe costs subtracted.
struct McLayers {
    build: f64,
    select: f64,
    select_by_arm: Vec<f64>,
    on_transfer: f64,
    session_self: f64,
    summarize: f64,
    busy: f64,
    next_wake: f64,
    dispatch: f64,
}

impl McLayers {
    /// Each policy span holds one clock read (`clock_ns`); the session
    /// span also holds the rest of every wrapped call's probe cost
    /// (`probe_ns - clock_ns`). The stepper's spans hold one clock read
    /// per event.
    fn of(it: &McIter, grid: &mc::Grid, cal: Calibration, events: u64) -> McLayers {
        let sum = |f: &dyn Fn(&mc::CellTrace) -> u64| it.cells.iter().map(f).sum::<u64>() as f64;
        let select_ns = |c: &mc::CellTrace| c.tally.select_ns.get();
        let on_transfer_ns = |c: &mc::CellTrace| c.tally.on_transfer_ns.get();
        let select_calls = sum(&|c| c.tally.select_calls.get());
        let on_transfer_calls = sum(&|c| c.tally.on_transfer_calls.get());
        let calls = select_calls + on_transfer_calls;
        let child = sum(&select_ns) + sum(&on_transfer_ns);
        let select_by_arm = (0..grid.arms.len())
            .map(|a| {
                let cells = it.cells.iter().zip(&grid.cells).filter(|(_, g)| g.arm == a);
                let (ns, k) = cells.fold((0, 0), |(ns, k), (c, _)| {
                    (ns + select_ns(c), k + c.tally.select_calls.get())
                });
                ms(ns as f64 - k as f64 * cal.clock_ns)
            })
            .collect();
        let step = |f: &dyn Fn(&mc::StepCell) -> u64| {
            it.steps.iter().map(f).sum::<u64>() as f64 - events as f64 * cal.clock_ns
        };
        McLayers {
            build: ms(sum(&|c| c.build_ns)),
            select: ms(sum(&select_ns) - select_calls * cal.clock_ns),
            select_by_arm,
            on_transfer: ms(sum(&on_transfer_ns) - on_transfer_calls * cal.clock_ns),
            session_self: ms(sum(&|c| c.session_ns)
                - child
                - calls * (cal.probe_ns - cal.clock_ns)),
            summarize: ms(sum(&|c| c.summarize_ns)),
            busy: ms(sum(&|c| c.busy_ns)),
            next_wake: ms(step(&|s| s.next_wake_ns)),
            dispatch: ms(step(&|s| s.dispatch_ns)),
        }
    }
}

/// The fleet artifact's exact counts, in catalog order: metric, field of
/// the artifact's `totals`, and the divisor to the metric's unit.
const FLEET_COUNTS: [(&str, &str, f64); 7] = [
    ("httpsim.cache.hits", "hits", 1.0),
    ("httpsim.cache.misses", "misses", 1.0),
    ("httpsim.cache.evictions", "evictions", 1.0),
    ("httpsim.cache.hit_ratio", "hit_ratio", 1.0),
    ("net.uplink.origin_mb", "origin_bytes", 1e6),
    ("bench.fleet.windows", "windows", 1.0),
    ("bench.fleet.windows_throttled", "throttled_windows", 1.0),
];

fn fleet_counts(result: &FleetResult) -> Result<Vec<f64>, String> {
    FLEET_COUNTS
        .iter()
        .map(|(_, field, divisor)| Ok(fleet::total(result, field)? / divisor))
        .collect()
}

fn traced_fleet(run: &mut Run, seed: u64, budget: Duration, jobs: usize) {
    let spec = fleet::specs(seed).swap_remove(0);
    let setups: Vec<(u64, u64)> = (0..3).map(|_| fleet::setup(&spec)).collect();
    let plan: Vec<f64> = setups.iter().map(|s| s.0 as f64).collect();
    let titles: Vec<f64> = setups.iter().map(|s| s.1 as f64).collect();
    run.metrics.put(
        "bench.fleet.plan_ms",
        ms(median(&plan)),
        "PlanSource::new, median of 3",
    );
    run.metrics.put(
        "bench.corpus.titles_ms",
        ms(median(&titles)),
        "TitleCorpus::build, median of 3",
    );
    let mut digests = Vec::new();
    let iters = run.passes.repeat(budget, 2, |p| {
        let (untraced, d) = p.run(
            "fleet untraced",
            || run_fleet(&spec, jobs),
            |r| Ok(fleet::digest(&r)),
        )?;
        digests.push(d);
        let (traced, (d, run_ns, report_ns, counts)) = p.run(
            "fleet traced",
            || run_fleet_profiled(&spec, jobs),
            |(r, profile)| {
                let counts = fleet_counts(&r)?;
                Ok((fleet::digest(&r), profile.run_ns, profile.merge_ns, counts))
            },
        )?;
        digests.push(d);
        Some((untraced, traced, run_ns as f64, report_ns as f64, counts))
    });
    let logs = run.passes.run(
        "fleet with logs",
        || run_fleet_with_logs(&spec, jobs),
        |r| Ok((fleet::digest(&r), fleet::sim_s(&r)?)),
    );
    if let Some((_, (d, _))) = &logs {
        digests.push(d.clone());
    }
    if let Some(source) = fleet_reference_check(&mut run.passes, &spec, &digests) {
        run.notes
            .push(format!("fleet: digests checked against {source}"));
    }
    let (Some((_, (_, sim_s))), false) = (logs, iters.is_empty()) else {
        return;
    };
    let n = iters.len();
    let of = format!("median of {n} traced passes");
    if iters.iter().any(|it| it.4 != iters[0].4) {
        run.passes
            .fail("fleet simulated counts differ between passes".to_string());
    }
    for ((name, _, _), value) in FLEET_COUNTS.iter().zip(&iters[0].4) {
        run.metrics.put(name, *value, "from the artifact's totals");
    }
    let col =
        |i: usize| -> Vec<f64> { iters.iter().map(|it| [it.0, it.1, it.2, it.3][i]).collect() };
    let (untraced, traced) = (median(&col(0)), median(&col(1)));
    run.metrics.put(
        "bench.fleet.run_ms",
        ms(median(&col(2))),
        format!("run_fleet_profiled run phase, {of}"),
    );
    run.metrics.put(
        "bench.fleet.report_ms",
        ms(median(&col(3))),
        format!("run_fleet_profiled report phase, {of}"),
    );
    run.metrics.put(
        "bench.fleet.sim_s",
        sim_s,
        "sum of finished_at over the logs",
    );
    run.metrics.put(
        "bench.fleet.sim_s_per_s",
        sim_s / untraced,
        "bench.fleet.sim_s over the untraced wall",
    );
    run.metrics.put(
        "trace_overhead.fleet",
        traced / untraced,
        format!("profiled {traced:.6} s over untraced {untraced:.6} s, medians of {n}"),
    );
}
