//! E4 — communication cost: messages per committed transaction versus load.
//!
//! Paper (Section 1): "\[PA\] is free from deadlocks and restarts. However,
//! communication cost increases as the system load increases."

use bench::{base_config, run_protocols, table};
use sim::SimConfig;

fn main() {
    let lambdas = [25.0, 50.0, 100.0, 200.0, 300.0];
    let widths = [10usize, 12, 12, 12, 12];
    println!("E4: messages per committed transaction vs arrival rate");
    table::header(&["lambda", "2PL", "T/O", "PA", "dynamic"], &widths);
    for &lambda in &lambdas {
        let row = run_protocols(|| SimConfig {
            arrival_rate: lambda,
            ..base_config(44)
        });
        let m = row.messages_per_commit();
        table::row(
            &[
                format!("{lambda:.0}"),
                format!("{:.2}", m[0]),
                format!("{:.2}", m[1]),
                format!("{:.2}", m[2]),
                format!("{:.2}", m[3]),
            ],
            &widths,
        );
    }
}
