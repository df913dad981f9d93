//! The `paper` workload: all experiments, one per pool item, each run
//! serially inside its item — the way `exp --all` shards them.

use std::path::Path;
use std::thread::{self, ThreadId};
use std::time::Instant;

use abr_bench::experiments::{all_ids, run_jobs, ExperimentResult};
use abr_bench::runner;

use crate::harness::ns_since;

/// The checked-in artifacts every pass is byte-compared against.
pub struct References {
    ids: Vec<&'static str>,
    bytes: Vec<String>,
}

/// Loads `<dir>/<id>.json` for every experiment and parses each, so a
/// truncated or hand-edited reference fails here rather than as a
/// mismatch later. This is the workload's set-up.
///
/// # Errors
/// When a reference is missing, unreadable or not JSON.
pub fn load_references(dir: &Path) -> Result<References, String> {
    let ids = all_ids();
    let mut bytes = Vec::with_capacity(ids.len());
    for id in &ids {
        let path = dir.join(format!("{id}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        bytes.push(text);
    }
    Ok(References { ids, bytes })
}

/// Results of one pass, in experiment order.
pub type Pass = Vec<Option<ExperimentResult>>;

/// One untraced pass over `jobs` workers.
#[must_use]
pub fn untraced(jobs: usize) -> Pass {
    let ids = all_ids();
    runner::run_indexed(ids.len(), jobs, |i| run_jobs(ids[i], 1))
}

/// One traced pass: the same items, each timed from outside, with the
/// worker thread that ran it.
#[must_use]
pub fn traced(jobs: usize) -> Vec<(Option<ExperimentResult>, ThreadId, u64)> {
    let ids = all_ids();
    runner::run_indexed(ids.len(), jobs, |i| {
        let t0 = Instant::now();
        let result = run_jobs(ids[i], 1);
        (result, thread::current().id(), ns_since(t0))
    })
}

impl References {
    /// Experiment ids, in pass order.
    #[must_use]
    pub fn ids(&self) -> &[&'static str] {
        &self.ids
    }

    /// Byte-compares a pass's pretty-printed JSON artifacts (the form
    /// `exp --all --json` writes) against the references.
    ///
    /// # Errors
    /// Names the first experiment that is missing or differs.
    pub fn check<'a>(
        &self,
        results: impl ExactSizeIterator<Item = &'a Option<ExperimentResult>>,
    ) -> Result<(), String> {
        if results.len() != self.ids.len() {
            return Err(format!(
                "{} results for {} experiments",
                results.len(),
                self.ids.len()
            ));
        }
        for ((id, reference), result) in self.ids.iter().zip(&self.bytes).zip(results) {
            let result = result
                .as_ref()
                .ok_or_else(|| format!("experiment `{id}` is unknown to run_jobs"))?;
            let got = serde_json::to_string_pretty(&result.json).expect("artifact serializes");
            if result.id != *id || got != *reference {
                return Err(format!("`{id}` differs from results/{id}.json"));
            }
        }
        Ok(())
    }
}
