//! Table I — operation count, load/store count and asymptotic arithmetic
//! intensity of the on-the-fly XMV primitives.
//!
//! Two views are printed:
//!
//! 1. the closed-form model of Table I evaluated for the unlabeled and a
//!    labeled problem;
//! 2. the traffic counted by actually executing this crate's primitives on
//!    a dense 72-node graph pair, next to the model — the two must agree,
//!    which is the correctness check of the cost model.

use mgk_bench::bench_rng;
use mgk_bench::xmv::{DensePairData, NaiveProduct, ProblemShape, XmvPrimitive};
use mgk_graph::generators;
use mgk_kernels::{BaseKernel, SquareExponential, UnitKernel};
use mgk_linalg::TrafficCounters;

/// Table I's on-the-fly rows; the naive row comes first.
const PRIMITIVES: [XmvPrimitive; 3] = [
    XmvPrimitive::SharedTiling { t: 8, r: 8 },
    XmvPrimitive::RegisterBlocking { t: 8, r: 8 },
    XmvPrimitive::TilingBlocking { t: 8, r: 8 },
];

fn print_model_row(name: &str, c: TrafficCounters, ai_global: f64, ai_shared: f64) {
    println!(
        "{:<26} {:>12} {:>14} {:>12} {:>14} {:>12} {:>10.2} {:>10.2}",
        name,
        c.flops,
        c.global_load_bytes,
        c.global_store_bytes,
        c.shared_load_bytes,
        c.shared_store_bytes,
        ai_global,
        ai_shared,
    );
}

fn main() {
    println!("Table I — analytic cost model, one XMV per CG iteration\n");
    for (title, shape) in [
        (
            "unlabeled model problem (n = m = 72, E = 0, F = 4, X = 3)",
            ProblemShape::unlabeled(72, 72),
        ),
        (
            "labeled problem (n = m = 72, E = 4, F = 4, X = 11)",
            ProblemShape::labeled_f32(72, 72, 11),
        ),
    ] {
        println!("{title}");
        println!(
            "{:<26} {:>12} {:>14} {:>12} {:>14} {:>12} {:>10} {:>10}",
            "primitive",
            "ops",
            "ld.global(B)",
            "st.global(B)",
            "ld.shared(B)",
            "st.shared(B)",
            "AI.glob",
            "AI.shared"
        );
        let (e, f, x) =
            (shape.edge_label_bytes as f64, shape.float_bytes as f64, shape.kernel_flops as f64);
        // the naive kernel performs no shared-memory traffic
        let naive = NaiveProduct::modeled_traffic(&shape);
        print_model_row("naive", naive, NaiveProduct::asymptotic_ai_global(f), f64::INFINITY);
        for prim in PRIMITIVES {
            print_model_row(
                &prim.name(),
                prim.modeled_traffic(&shape),
                prim.asymptotic_ai_global(e, f, x),
                prim.asymptotic_ai_shared(e, f, x),
            );
        }
        println!();
    }

    // --- measured traffic from the executable primitives -------------------
    println!(
        "Counted traffic of the executable primitives vs. the model (labeled, 72-node pair)\n"
    );
    let mut rng = bench_rng();
    let g1 = generators::complete_labeled(72, &mut rng);
    let g2 = generators::complete_labeled(72, &mut rng);
    let kernel = SquareExponential::new(1.0);
    let data = DensePairData::new(&g1, &g2, &kernel);
    let p: Vec<f32> = (0..data.product_dim()).map(|k| ((k % 13) as f32) * 0.07).collect();
    let mut y = vec![0.0f32; data.product_dim()];
    let shape = ProblemShape::labeled_f32(72, 72, BaseKernel::<f32>::cost(&kernel).flops);
    println!(
        "{:<26} {:>16} {:>16} {:>10} {:>16} {:>16} {:>10}",
        "primitive",
        "ld.glob counted",
        "ld.glob model",
        "ratio",
        "ld.shared counted",
        "ld.shared model",
        "ratio"
    );
    for prim in PRIMITIVES {
        let mut counted = TrafficCounters::new();
        prim.apply(&data, &kernel, &p, &mut y, &mut counted);
        let model = prim.modeled_traffic(&shape);
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        println!(
            "{:<26} {:>16} {:>16} {:>10.3} {:>16} {:>16} {:>10.3}",
            prim.name(),
            counted.global_load_bytes,
            model.global_load_bytes,
            ratio(counted.global_load_bytes, model.global_load_bytes),
            counted.shared_load_bytes,
            model.shared_load_bytes,
            ratio(counted.shared_load_bytes, model.shared_load_bytes),
        );
    }

    // sanity figure for the unlabeled degenerate case as well
    let gu1 = g1.to_unlabeled();
    let gu2 = g2.to_unlabeled();
    let udata = DensePairData::new(&gu1, &gu2, &UnitKernel);
    let mut counted = TrafficCounters::new();
    let mut yu = vec![0.0f32; udata.product_dim()];
    XmvPrimitive::OCTILE.apply(&udata, &UnitKernel, &p, &mut yu, &mut counted);
    println!(
        "\nunlabeled octile primitive: counted global AI = {:.1} FLOP/B (Table I asymptote: {:.1})",
        counted.arithmetic_intensity_global(),
        XmvPrimitive::OCTILE.asymptotic_ai_global(0.0, 4.0, 3.0)
    );
}
