//! Quickstart: build a network creation game, probe the cooperation
//! ladder, and replay a witness move.
//!
//! Run with `cargo run --release --example quickstart`.

use bncg::core::{delta, Alpha, Concept, Game};
use bncg::graph::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fifteen agents on a path — the classic bad network: cheap to build,
    // expensive to traverse.
    let alpha = Alpha::integer(3)?;
    let game = Game::new(generators::path(15), alpha);
    println!(
        "path(15) at α = {alpha}: social cost ratio ρ = {:.3}",
        game.social_cost_ratio()?.as_f64()
    );

    // Walk the cooperation ladder: which amount of cooperation is enough
    // for the agents to escape this state?
    for concept in [
        Concept::Re,
        Concept::Bae,
        Concept::Ps,
        Concept::Bswe,
        Concept::Bge,
        Concept::Bne,
        Concept::KBse(3),
    ] {
        match game.find_violation(concept)? {
            None => println!("{concept:>6}: stable — this concept tolerates the path"),
            Some(mv) => {
                // Every witness is replayable and certified improving.
                assert!(delta::move_improves_all(game.graph(), alpha, &mv)?);
                println!("{concept:>6}: unstable — e.g. {mv}");
            }
        }
    }

    // The social optimum for α ≥ 1 is the star (paper, Section 3.1). The
    // exact BSE checker encodes target graphs as 64-bit masks (n ≤ 11),
    // so the ladder here stops at 3-BSE; footnote 6 of the paper covers
    // the rest.
    let star = Game::new(generators::star(15), alpha);
    let ladder = [
        Concept::Re,
        Concept::Bae,
        Concept::Ps,
        Concept::Bswe,
        Concept::Bge,
        Concept::Bne,
        Concept::KBse(2),
        Concept::KBse(3),
    ];
    let all_stable = ladder.iter().all(|c| star.is_stable(*c).unwrap_or(false));
    println!(
        "star(15): ρ = {} and stable under the whole ladder: {all_stable}",
        star.social_cost_ratio()?.as_f64(),
    );
    Ok(())
}
