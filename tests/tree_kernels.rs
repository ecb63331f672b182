//! Golden pins for the tree kernels of the polynomial checks: the
//! distance matrices of pinned trees past the bitset ceiling and the
//! verdicts and witnesses of PS, BSwE and BGE on them, each folded into
//! one FNV-1a digest. The digests were recorded from the per-source BFS
//! matrices and the `O(n)`-per-candidate swap pricing that preceded the
//! tree fast paths, so any change to a distance, a verdict, a witness or
//! the scan order changes a digest.

use bncg::core::{Alpha, Concept};
use bncg::graph::{fnv1a_lines, fnv1a_u64, generators, test_rng, DistanceMatrix, Graph};

/// The pinned inputs: seeded random trees with n = 64–256, a relabeled
/// tree, four structured trees whose swap scans run deep, and star(256)
/// as built and relabeled.
fn pinned_trees() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for (seed, n) in [
        (1u64, 64usize),
        (2, 65),
        (3, 97),
        (4, 128),
        (5, 200),
        (6, 256),
    ] {
        let g = generators::random_tree(n, &mut test_rng(seed));
        out.push((format!("tree{n}s{seed}"), g));
    }
    let mut rng = test_rng(7);
    let g = generators::random_tree(160, &mut rng);
    let perm = generators::random_permutation(160, &mut rng);
    out.push(("tree160relabeled".into(), g.relabeled(&perm)));
    out.push(("dary2d7".into(), generators::complete_dary_tree(2, 7)));
    out.push(("spider16x8".into(), generators::spider(16, 8)));
    out.push(("doublestar60x70".into(), generators::double_star(60, 70)));
    out.push(("broom30x70".into(), generators::broom(30, 70)));
    out.push(("star256".into(), generators::star(256)));
    let perm = generators::random_permutation(256, &mut test_rng(8));
    out.push((
        "star256relabeled".into(),
        generators::star(256).relabeled(&perm),
    ));
    out
}

#[test]
fn tree_matrices_match_the_golden_digest() {
    let digest = pinned_trees()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, (_, g)| {
            let d = DistanceMatrix::new(g);
            (0..g.n() as u32)
                .flat_map(|u| d.row(u).to_vec())
                .fold(h, |h, x| fnv1a_u64(h, u64::from(x)))
        });
    assert_eq!(
        digest, 0x2d4d_1f17_f4ea_4a85,
        "matrix digest {digest:#018x}"
    );
}

#[test]
fn polynomial_verdicts_match_the_golden_digest() {
    let mut lines = Vec::new();
    for (label, g) in pinned_trees() {
        let n = g.n() as i64;
        let alphas = [
            Alpha::from_ratio(1, 2).unwrap(),
            Alpha::integer(2).unwrap(),
            Alpha::integer(n).unwrap(),
        ];
        for concept in [Concept::Ps, Concept::Bswe, Concept::Bge] {
            for alpha in alphas {
                let verdict = match concept.find_violation(&g, alpha).unwrap() {
                    Some(mv) => mv.render_json(),
                    None => "stable".into(),
                };
                lines.push(format!("{label} {concept} {alpha} {verdict}"));
            }
        }
    }
    let digest = fnv1a_lines(lines.iter().map(String::as_str));
    assert_eq!(
        digest,
        0x7ca9_7166_a66c_139a,
        "verdict digest {digest:#018x}\n{}",
        lines.join("\n")
    );
}
