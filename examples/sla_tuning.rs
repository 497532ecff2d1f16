//! Performance SLAs as layout constraints (§5, Eq. 21): cap the worst-case
//! insert latency and the worst-case point-query latency, and watch the
//! solver trade optimality for guarantees.
//!
//! ```sh
//! cargo run --release --example sla_tuning
//! ```

use casper::core::fm::{AccessDistribution, WorkloadSpec};
use casper::core::solver::{sla, LayoutOptimizer};
use casper::core::{BlockGeometry, CostConstants, FrequencyModel};

fn main() {
    let constants = CostConstants::paper();
    // Abstract blocks of one cache line each: the paper's Eq. 21 as written.
    let geometry = BlockGeometry::UNIT;
    let n_blocks = 512usize;
    // A hybrid profile: reads across the domain, inserts at the end.
    let fm = FrequencyModel::from_distributions(
        n_blocks,
        &WorkloadSpec {
            point: Some((8900.0, AccessDistribution::Uniform)),
            insert: Some((1000.0, AccessDistribution::ZipfRecent { theta: 0.9 })),
            update: Some((
                100.0,
                AccessDistribution::Uniform,
                AccessDistribution::Uniform,
            )),
            ..WorkloadSpec::none()
        },
    );

    println!("unconstrained optimum:");
    let free = LayoutOptimizer::new(constants).optimize(&fm, 0);
    println!(
        "  {} → modeled cost {:.2} ms, worst-case insert {:.1} us",
        free.layout.spec(),
        free.est_cost / 1e6,
        sla::worst_insert_nanos(&constants, &geometry, free.layout.spec().partition_count())
            / 1000.0
    );

    for sla_us in [25.0f64, 10.0, 5.0, 2.5] {
        let opt = LayoutOptimizer::new(constants).with_slas(Some(sla_us * 1000.0), None);
        let d = opt.optimize(&fm, 0);
        let worst =
            sla::worst_insert_nanos(&constants, &geometry, d.layout.spec().partition_count())
                / 1000.0;
        println!("insert SLA {sla_us:>5.1} us:");
        println!(
            "  {} partitions → worst-case insert {:.1} us (≤ SLA: {}), modeled cost {:.2} ms (+{:.1}%)",
            d.layout.spec().partition_count(),
            worst,
            worst <= sla_us,
            d.est_cost / 1e6,
            (d.est_cost / free.est_cost - 1.0) * 100.0
        );
    }

    for read_sla_us in [3.0f64, 1.5, 0.5] {
        let opt = LayoutOptimizer::new(constants).with_slas(None, Some(read_sla_us * 1000.0));
        let d = opt.optimize(&fm, 0);
        let mps = d.layout.spec().max_partition_blocks();
        let worst = sla::worst_point_query_nanos(&constants, &geometry, mps) / 1000.0;
        println!("read SLA {read_sla_us:>4.1} us:");
        println!(
            "  max partition {} blocks → worst-case point query {:.2} us (≤ SLA: {})",
            mps,
            worst,
            worst <= read_sla_us
        );
    }
    println!("\nTighter write SLAs force fewer partitions; tighter read SLAs force narrower ones.");
}
