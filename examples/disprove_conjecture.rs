//! Reproduces Proposition 2.3: the Corbo–Parkes conjecture — that every
//! Nash equilibrium of the unilateral game is pairwise stable in the
//! bilateral game — is **false**.
//!
//! The example searches all small connected graphs and edge assignments
//! for a unilateral NE in which some agent profits from bilaterally
//! dropping an edge she does not own (bilaterally she pays α for it too).
//!
//! Run with `cargo run --release --example disprove_conjecture`.

use bncg::constructions::conjecture::find_ne_not_ps;
use bncg::core::{Alpha, Concept};
use bncg::graph::graph6;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let alphas: Vec<Alpha> = ["4", "3", "2", "7/2", "5"]
        .iter()
        .map(|s| s.parse())
        .collect::<Result<_, _>>()?;
    println!("searching graphs with up to 5 nodes and all edge assignments …");
    let witness = find_ne_not_ps(5, &alphas)?.expect("Proposition 2.3 guarantees a witness");

    let g = witness.state.graph();
    println!("\ncounterexample found (α = {}):", witness.alpha);
    println!("  graph6: {}", graph6::encode(g)?);
    println!("  edges and owners (unilateral game):");
    for (u, v) in g.edges() {
        println!("    {{{u}, {v}}} owned by {}", witness.state.owner(u, v));
    }
    println!(
        "  unilateral Nash equilibrium: {}",
        witness.state.is_ne(witness.alpha)?
    );
    println!(
        "  bilateral pairwise stability: {}",
        Concept::Ps.is_stable(g, witness.alpha)?
    );
    println!("  profitable bilateral deviation: {}", witness.removal);
    println!("\nIn the bilateral game both endpoints pay for an edge, so the");
    println!("non-owner can profitably drop it even though the unilateral");
    println!("owner keeps it — exactly the gap the conjecture overlooked.");
    Ok(())
}
