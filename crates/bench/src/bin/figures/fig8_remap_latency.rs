//! Fig. 8: RDMA remapping latencies for the three §3.5 strategies,
//! measured end-to-end on the simulated NIC (not just the model):
//!
//! 1. `mmap` + `ibv_rereg_mr`, then an RDMA read (which *breaks the QP*
//!    if issued inside the re-registration window);
//! 2. `mmap` only, relying on ODP — the first read pays the ODP miss;
//! 3. `mmap` + `ibv_advise_mr` prefetch — reads are immediately fast.
//!
//! Paper anchors: mmap 1.9–2.3 µs, rereg 8.5–9.6 µs (CX-5), ODP miss
//! 62–65 µs, advise 4.5–4.6 µs, post-repair reads ≈ 2 µs.

use std::sync::Arc;

use corm_bench::report::{f2, Sheet};
use corm_sim_core::time::SimTime;
use corm_sim_mem::{AddressSpace, PhysicalMemory};
use corm_sim_rdma::{QueuePair, Rnic, RnicConfig};

use crate::run::Run;

struct Setup {
    aspace: Arc<AddressSpace>,
    rnic: Arc<Rnic>,
    va: u64,
    rkey: u32,
    new_frame: corm_sim_mem::FrameId,
}

fn setup(odp: bool) -> Setup {
    let pm = Arc::new(PhysicalMemory::new());
    let old = pm.alloc().unwrap();
    let new_frame = pm.alloc().unwrap();
    let aspace = Arc::new(AddressSpace::new(pm));
    let va = aspace.mmap(&[old]).unwrap();
    let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
    let (mr, _) = rnic.register(va, 1, odp).unwrap();
    aspace.write(va, b"before-remap....").unwrap();
    Setup { aspace, rnic, va, rkey: mr.rkey, new_frame }
}

/// Appends one strategy's steps, `(step, cost in us, note)`, with the
/// running total in the cumulative column.
fn steps(t: &mut Sheet, strategy: &str, steps: &[(&str, f64, &str)]) {
    let mut cumulative = 0.0;
    for &(step, cost, note) in steps {
        cumulative += cost;
        t.row(&[strategy.into(), step.into(), f2(cost), f2(cumulative), note.into()]);
    }
}

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Fig. 8: remapping strategies (ConnectX-5)",
        &["strategy", "step", "cost_us", "cumulative_us", "note"],
    );
    let model = corm_sim_rdma::LatencyModel::connectx5();
    let mmap = model.mmap_cost(1).as_micros_f64();

    // --- Strategy 1: mmap + ibv_rereg_mr ------------------------------
    {
        let s = setup(false);
        s.aspace.remap(s.va, &[s.new_frame]).unwrap();
        s.aspace.write(s.va, b"after-remap.....").unwrap();
        let t0 = SimTime::from_micros(100);
        let rereg = s.rnic.rereg(s.rkey, t0).unwrap().as_micros_f64();
        // Read during the window breaks the QP.
        let qp = QueuePair::connect(s.rnic.clone());
        let mut buf = [0u8; 16];
        let during = qp.read(s.rkey, s.va, &mut buf, t0);
        assert!(during.is_err(), "access in rereg window must break the QP");
        // After the window the read is fast and sees fresh data.
        qp.reconnect();
        let after = t0 + corm_sim_core::time::SimDuration::from_micros(50);
        let read = qp.read(s.rkey, s.va, &mut buf, after).unwrap();
        assert_eq!(&buf, b"after-remap.....");
        steps(
            &mut t,
            "rereg_mr",
            &[
                ("mmap", mmap, ""),
                ("ibv_rereg_mr", rereg, "QP broken if accessed in window"),
                ("RDMA read", read.latency.as_micros_f64(), ""),
            ],
        );
    }

    // --- Strategy 2: mmap + ODP ----------------------------------------
    {
        let s = setup(true);
        s.aspace.remap(s.va, &[s.new_frame]).unwrap();
        s.aspace.write(s.va, b"after-remap.....").unwrap();
        let qp = QueuePair::connect(s.rnic.clone());
        let mut buf = [0u8; 16];
        let first = qp.read(s.rkey, s.va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"after-remap.....");
        assert_eq!(first.odp_misses, 1);
        let second = qp.read(s.rkey, s.va, &mut buf, SimTime::ZERO).unwrap();
        steps(
            &mut t,
            "odp",
            &[
                ("mmap", mmap, ""),
                ("RDMA read (ODP miss)", first.latency.as_micros_f64(), "connection survives"),
                ("RDMA read (warm)", second.latency.as_micros_f64(), ""),
            ],
        );
    }

    // --- Strategy 3: mmap + ibv_advise_mr prefetch ----------------------
    {
        let s = setup(true);
        s.aspace.remap(s.va, &[s.new_frame]).unwrap();
        s.aspace.write(s.va, b"after-remap.....").unwrap();
        let advise = s.rnic.advise(s.rkey, s.va, 1).unwrap().as_micros_f64();
        let qp = QueuePair::connect(s.rnic.clone());
        let mut buf = [0u8; 16];
        let read = qp.read(s.rkey, s.va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"after-remap.....");
        assert_eq!(read.odp_misses, 0, "prefetch must absorb the miss");
        steps(
            &mut t,
            "odp+prefetch",
            &[
                ("mmap", mmap, ""),
                ("ibv_advise_mr", advise, "CoRM's default"),
                ("RDMA read", read.latency.as_micros_f64(), "no ODP miss"),
            ],
        );
    }

    run.emit("fig8_remap_latency", &t);
}
