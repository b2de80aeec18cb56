//! E2 — regenerates **Figure 3-1: State Transition Diagram for each
//! Cache Entry for the RB Scheme**, as a transition table and Graphviz
//! DOT.

use decache_bench::banner;
use decache_core::{ir, to_dot, transition_table, ProtocolKind};

fn main() {
    banner("RB per-line state transition diagram", "Figure 3-1");

    let rows = transition_table(&ir::table(ProtocolKind::Rb));
    println!("transitions ({}):", rows.len());
    for row in &rows {
        println!("  {row}");
    }
    println!();
    println!("legend: CW/CR = CPU write/read request, BW/BR = bus write/read request");
    println!();
    println!("Graphviz DOT:");
    println!("{}", to_dot("RB (Figure 3-1)", &rows));
}
