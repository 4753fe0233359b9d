//! Criterion benchmarks of the kernel pairs (E22, BENCH_10).
//!
//! Each group times a reference kernel against the production kernel
//! the flow runs, on identical input, calling the kernel functions
//! directly:
//!
//! - `kernel_place/anneal_corpus` vs `kernel_place/analytic_corpus` —
//!   all 15 `gen:` corpus netlists placed at open-profile effort.
//! - `kernel_route/maze_corpus` vs `kernel_route/steiner_corpus` — the
//!   same netlists routed over precomputed annealed placements.
//! - `kernel_sim/scalar_64x200` vs `kernel_sim/vector_64x200` — 64
//!   stimulus lanes through the fir4 RTL, one scalar simulator per lane
//!   vs a single bit-parallel pass.
//!
//! The E22 acceptance claim snapshotted in BENCH_10.json is
//! `anneal_corpus / analytic_corpus >= 1.5` and
//! `maze_corpus / steiner_corpus >= 1.5`.

use chipforge::hdl::{designs, Simulator, VectorSimulator};
use chipforge::place::{place, place_analytic};
use chipforge::route::{route, route_steiner};
use chipforge_bench::experiments::{
    e22_library, e22_netlists, e22_place_options, e22_route_options,
};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_place_kernels(c: &mut Criterion) {
    let lib = e22_library();
    let opts = e22_place_options();
    let netlists = e22_netlists();
    let mut group = c.benchmark_group("kernel_place");
    group.sample_size(10);
    for (label, kernel) in [
        ("anneal_corpus", place as fn(_, _, _) -> _),
        ("analytic_corpus", place_analytic),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                netlists
                    .iter()
                    .map(|(_, netlist)| kernel(netlist, &lib, &opts).expect("places").hpwl_um())
                    .sum::<f64>()
            });
        });
    }
    group.finish();
}

fn bench_route_kernels(c: &mut Criterion) {
    let lib = e22_library();
    let ropts = e22_route_options();
    let popts = e22_place_options();
    let placed: Vec<_> = e22_netlists()
        .into_iter()
        .map(|(_, netlist)| {
            let placement = place(&netlist, &lib, &popts).expect("places");
            (netlist, placement)
        })
        .collect();
    let mut group = c.benchmark_group("kernel_route");
    group.sample_size(10);
    for (label, kernel) in [
        ("maze_corpus", route as fn(_, _, _, _) -> _),
        ("steiner_corpus", route_steiner),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                placed
                    .iter()
                    .map(|(netlist, placement)| {
                        kernel(netlist, placement, &lib, &ropts)
                            .expect("routes")
                            .total_wirelength_um()
                    })
                    .sum::<f64>()
            });
        });
    }
    group.finish();
}

fn bench_sim_kernels(c: &mut Criterion) {
    let module = designs::fir4(8).elaborate().expect("elaborates");
    let mut group = c.benchmark_group("kernel_sim");
    group.sample_size(10);
    group.bench_function("scalar_64x200", |b| {
        b.iter(|| {
            (0..64u64)
                .map(|lane| {
                    let mut sim = Simulator::new(&module);
                    sim.set("x", lane & 0xff);
                    sim.run(200);
                    sim.get("y")
                })
                .sum::<u64>()
        });
    });
    group.bench_function("vector_64x200", |b| {
        // The same 64 stimuli as bit planes: plane b holds bit b of
        // every lane's value, and lane i's value is `i & 0xff`.
        let planes: Vec<u64> = (0..8)
            .map(|bit| {
                (0..64u64).fold(0u64, |plane, lane| {
                    plane | ((((lane & 0xff) >> bit) & 1) << lane)
                })
            })
            .collect();
        b.iter(|| {
            let mut sim = VectorSimulator::new(&module);
            sim.set("x", &planes);
            sim.run(200);
            sim.get("y").iter().sum::<u64>()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_place_kernels,
    bench_route_kernels,
    bench_sim_kernels
);
criterion_main!(benches);
