//! E3 — regenerates **Figure 5-1: State Transition Diagram for each
//! Cache Entry for the RWB Scheme**, including the bus-invalidate (BI)
//! edges, as a transition table and Graphviz DOT.

use decache_bench::banner;
use decache_core::{ir, to_dot, transition_table};

fn main() {
    banner("RWB per-line state transition diagram", "Figure 5-1");

    // The paper's expository threshold.
    let k = 2;
    let rows = transition_table(&ir::rwb(k));
    println!("transitions ({}), k = {k}:", rows.len());
    for row in &rows {
        println!("  {row}");
    }
    println!();
    println!("legend: CW/CR = CPU write/read, BW/BR = bus write/read, BI = bus invalidate");
    println!();
    println!("Graphviz DOT:");
    println!("{}", to_dot("RWB (Figure 5-1)", &rows));

    // Footnote 6 generalization: higher thresholds add F states.
    for k in [3u8, 4] {
        println!(
            "k = {k}: states {:?}",
            ir::rwb(k)
                .states
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
        );
    }
}
