//! Fig. 7: compaction probability of two random blocks vs occupancy and
//! size class, for CoRM 16-bit / CoRM 8-bit IDs and Mesh.
//!
//! Paper setup: 4 KiB blocks, object sizes 16–256 B (x-axis), block
//! occupancies 12.5%, 25%, 37.5%, 50% (sub-figures). The closed form of
//! §3.4 is evaluated exactly; a Monte-Carlo column over actual
//! `BlockModel`s cross-checks the math.

use corm_bench::report::{f3, Sheet};
use corm_compact::{corm_probability, mesh_probability, BlockModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::run::Run;

const BLOCK: u64 = 4096;
const SIZES: [u64; 5] = [16, 32, 64, 128, 256];
const OCCUPANCIES: [f64; 4] = [0.125, 0.25, 0.375, 0.5];

fn monte_carlo(rule_ids: bool, s: usize, id_space: usize, b: usize, trials: u32) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xF167);
    let mut ok = 0;
    for _ in 0..trials {
        let (x, y) = if rule_ids {
            (
                BlockModel::random(&mut rng, s, id_space, b),
                BlockModel::random(&mut rng, s, id_space, b),
            )
        } else {
            (BlockModel::random_mesh(&mut rng, s, b), BlockModel::random_mesh(&mut rng, s, b))
        };
        let compactable =
            if rule_ids { x.corm_compactable(&y) } else { x.mesh_compactable(&y) && 2 * b <= s };
        if compactable {
            ok += 1;
        }
    }
    ok as f64 / trials as f64
}

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Fig. 7: compaction probability (4 KiB blocks)",
        &["occupancy", "obj_size", "corm16", "corm8", "mesh", "corm16_mc", "mesh_mc"],
    );
    for occ in OCCUPANCIES {
        for size in SIZES {
            let s = BLOCK / size; // slots per block
            let b = ((s as f64) * occ).round() as u64;
            let c16 = corm_probability(16, s, b, b);
            let c8 = corm_probability(8, s, b, b);
            let mesh = mesh_probability(s, b, b);
            let mc16 = monte_carlo(true, s as usize, 1 << 16, b as usize, 2000);
            let mc_mesh = monte_carlo(false, s as usize, s as usize, b as usize, 2000);
            t.row(&[
                format!("{:.1}%", occ * 100.0).into(),
                size.into(),
                f3(c16),
                f3(c8),
                f3(mesh),
                f3(mc16),
                f3(mc_mesh),
            ]);
        }
    }
    run.emit("fig7_probability", &t);

    // Paper §3.4 / Fig. 7.
    run.gate(
        t.rows().all(|r| r.num("corm16") >= r.num("corm8") && r.num("corm8") >= r.num("mesh")),
        "CoRM-16 >= CoRM-8 >= Mesh at every point",
    );
    run.gate(
        t.rows_where("obj_size", "16").all(|r| (r.num("corm8") - r.num("mesh")).abs() < 1e-12),
        "for 16 B objects (256 slots = 256 IDs) CoRM-8 equals Mesh",
    );
    let half = t.rows_where("occupancy", "50.0%");
    run.gate(
        half.clone().all(|r| r.num("mesh") < 0.001 && r.num("corm16") >= 0.77),
        "at 50% occupancy Mesh is 0 for every size while CoRM-16 stays >= 0.77",
    );
    run.gate(
        half.filter(|r| r.text("obj_size") == "256").all(|r| r.num("corm8") >= 0.77),
        "for 256 B objects at 50% occupancy CoRM-8 stays >= 0.77 where Mesh is 0",
    );
    run.gate(
        t.rows().all(|r| {
            (r.num("corm16_mc") - r.num("corm16")).abs() < 0.04
                && (r.num("mesh_mc") - r.num("mesh")).abs() < 0.04
        }),
        "Monte-Carlo over real BlockModels agrees with the closed form within 0.04",
    );
}
