//! E5 — ablation of the semi-lock protocol.
//!
//! Paper (Section 4.2): the naive way to unify enforcement is to "use locking
//! for all requests", which "sacrific\[es\] the degree of concurrency for T/O
//! transactions"; semi-locks preserve E2 *without* reducing T/O concurrency.
//! This experiment runs the same mixed workload under both enforcement modes
//! and reports the mean system time of the T/O transactions (and of
//! everyone) in each.

use bench::{base_config, table};
use dbmodel::CcMethod;
use sim::{MethodPolicy, SimConfig, Simulation};
use unified_cc::EnforcementMode;

fn run(enforcement: EnforcementMode, lambda: f64) -> sim::SimReport {
    let config = SimConfig {
        arrival_rate: lambda,
        enforcement,
        method_policy: MethodPolicy::Mix {
            p_2pl: 0.34,
            p_to: 0.33,
        },
        ..base_config(55)
    };
    let report = Simulation::run(config);
    assert!(report.serializable().is_ok());
    report
}

fn main() {
    let lambdas = [50.0, 100.0, 200.0, 300.0];
    let widths = [10usize, 18, 18, 18, 18];
    println!("E5: semi-lock vs lock-everything enforcement; mixed workload (1/3 each method)");
    table::header(
        &[
            "lambda",
            "S_T/O semi (ms)",
            "S_T/O lockall (ms)",
            "S_all semi (ms)",
            "S_all lockall (ms)",
        ],
        &widths,
    );
    for &lambda in &lambdas {
        let semi = run(EnforcementMode::SemiLock, lambda);
        let lockall = run(EnforcementMode::LockAll, lambda);
        table::row(
            &[
                format!("{lambda:.0}"),
                format!(
                    "{:.2}",
                    semi.metrics
                        .method(CcMethod::TimestampOrdering)
                        .mean_system_time()
                        * 1e3
                ),
                format!(
                    "{:.2}",
                    lockall
                        .metrics
                        .method(CcMethod::TimestampOrdering)
                        .mean_system_time()
                        * 1e3
                ),
                format!("{:.2}", semi.mean_system_time() * 1e3),
                format!("{:.2}", lockall.mean_system_time() * 1e3),
            ],
            &widths,
        );
    }
}
