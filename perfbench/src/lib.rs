//! The repository's benchmark: the `paper`, `mc` and `fleet` workloads
//! timed end to end through the program's public entry points, every
//! pass's artifact checked, and a traced run that splits the host time
//! into the policy, engine, QoE, runner and fleet layers from outside.
//! See `README.md` beside this package for the metric table.

pub mod digest;
pub mod fleet;
pub mod harness;
pub mod host;
pub mod mc;
pub mod metrics;
pub mod paper;
pub mod probe;
pub mod run;
pub mod stats;
