//! Table 3: per-object metadata overheads for 1 MiB blocks.
//!
//! Paper values: Mesh 0 bits, CoRM-0 28, CoRM-8 28+8, CoRM-12 28+12,
//! CoRM-16 28+16. The 28 bits are the home-block virtual address (48-bit
//! pointers, 20-bit-aligned 1 MiB blocks, §3.3).

use corm_bench::report::Sheet;
use corm_compact::header_bits;

use crate::run::Run;

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Table 3: per-object memory overhead (1 MiB blocks)",
        &["Scheme", "Bits/object", "Breakdown"],
    );
    let schemes: [(&str, Option<u32>); 5] = [
        ("Mesh", None),
        ("CoRM-0", Some(0)),
        ("CoRM-8", Some(8)),
        ("CoRM-12", Some(12)),
        ("CoRM-16", Some(16)),
    ];
    for (name, id_bits) in schemes {
        let breakdown = match id_bits {
            None => "none".to_string(),
            Some(0) => "28 (home vaddr)".to_string(),
            Some(n) => format!("28 (home vaddr) + {n} (object ID)"),
        };
        t.row(&[name.into(), u64::from(header_bits(id_bits)).into(), breakdown.into()]);
    }
    run.emit("table3_overheads", &t);

    let bits: Vec<f64> = t.rows().map(|r| r.num("Bits/object")).collect();
    run.gate(
        bits == [0.0, 28.0, 36.0, 40.0, 44.0],
        "bits per object are the paper's 0 / 28 / 36 / 40 / 44",
    );
}
