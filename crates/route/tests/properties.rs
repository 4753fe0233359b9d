//! Property tests for the global router.

use chipforge_hdl::designs;
use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
use chipforge_place::{place, PlacementOptions};
use chipforge_route::{route, route_steiner, steiner_tree, GridCoord, RouteOptions};
use chipforge_synth::{synthesize, SynthOptions};
use proptest::prelude::*;

fn lib() -> StdCellLibrary {
    StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open)
}

/// Manhattan MST length over a pin set: what the maze kernel's
/// MST-decomposed A* pass wires on an uncongested grid.
fn mst_length(pins: &[GridCoord]) -> u64 {
    let n = pins.len();
    let mut in_tree = vec![false; n];
    let mut dist = vec![u32::MAX; n];
    in_tree[0] = true;
    for j in 1..n {
        dist[j] = pins[0].manhattan(pins[j]);
    }
    let mut total = 0u64;
    for _ in 1..n {
        let best = (0..n)
            .filter(|&j| !in_tree[j])
            .min_by_key(|&j| dist[j])
            .expect("non-empty frontier");
        in_tree[best] = true;
        total += u64::from(dist[best]);
        for j in 0..n {
            if !in_tree[j] {
                dist[j] = dist[j].min(pins[best].manhattan(pins[j]));
            }
        }
    }
    total
}

/// Index of `p` in `nodes`, appending it if new.
fn node_index(nodes: &mut Vec<GridCoord>, p: GridCoord) -> usize {
    match nodes.iter().position(|&q| q == p) {
        Some(i) => i,
        None => {
            nodes.push(p);
            nodes.len() - 1
        }
    }
}

/// Union-find root with path halving.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn routing_invariants_hold_across_seeds(
        design_index in 0usize..17,
        seed in any::<u64>(),
    ) {
        let lib = lib();
        let suite = designs::suite();
        let design = &suite[design_index % suite.len()];
        let module = design.elaborate().expect("elaborates");
        let netlist = synthesize(&module, &lib, &SynthOptions::default())
            .expect("synthesizes")
            .netlist;
        let placement = place(
            &netlist,
            &lib,
            &PlacementOptions { seed, moves_per_cell: 20, ..PlacementOptions::default() },
        )
        .expect("places");
        let routing = route(&netlist, &placement, &lib, &RouteOptions::default())
            .expect("routes");

        // Every edge joins adjacent gcells; wirelength is edge count times
        // the gcell size.
        let gcell = routing.grid().gcell_um();
        for net in routing.nets() {
            for (a, b) in &net.edges {
                prop_assert_eq!(a.manhattan(*b), 1);
            }
            let expected = net.edges.len() as f64 * gcell;
            prop_assert!((net.wirelength_um - expected).abs() < 1e-9);
        }
        // Usage bookkeeping: every edge's recorded usage covers the routes
        // crossing it (no phantom or lost usage causing false overflow).
        prop_assert!(routing.peak_congestion() >= 0.0);
        prop_assert_eq!(
            routing.overflowed_edges(),
            0,
            "suite designs must route cleanly at any placement seed"
        );
        // Back-annotation covers exactly the routed nets.
        let caps = routing.wire_caps_ff(&lib);
        prop_assert_eq!(caps.len(), routing.nets().len());
    }

    #[test]
    fn more_negotiation_iterations_never_add_overflow(
        seed in any::<u64>(),
    ) {
        let lib = lib();
        let module = designs::alu(8).elaborate().expect("elaborates");
        let netlist = synthesize(&module, &lib, &SynthOptions::default())
            .expect("synthesizes")
            .netlist;
        let placement = place(
            &netlist,
            &lib,
            &PlacementOptions { seed, moves_per_cell: 20, ..PlacementOptions::default() },
        )
        .expect("places");
        let one = route(
            &netlist,
            &placement,
            &lib,
            &RouteOptions { gcell_um: 0.0, max_iterations: 1 },
        )
        .expect("routes");
        let many = route(
            &netlist,
            &placement,
            &lib,
            &RouteOptions { gcell_um: 0.0, max_iterations: 6 },
        )
        .expect("routes");
        prop_assert!(many.overflowed_edges() <= one.overflowed_edges());
    }

    #[test]
    fn steiner_trees_span_their_pins_and_never_beat_mst_length(
        raw_pins in proptest::collection::vec((0u16..30, 0u16..30), 2..9),
    ) {
        let pins: Vec<GridCoord> = raw_pins.iter().map(|&(x, y)| GridCoord::new(x, y)).collect();
        let mut distinct: Vec<GridCoord> = Vec::new();
        for &p in &pins {
            if !distinct.contains(&p) {
                distinct.push(p);
            }
        }
        let tree = steiner_tree(&pins);
        if distinct.len() < 2 {
            prop_assert!(tree.is_empty());
        } else {
            prop_assert!(tree.len() + 1 >= distinct.len(), "a spanning tree needs edges");

            // Every distinct pin is an endpoint of some tree segment, and
            // the segments form one connected component over the pins.
            let mut nodes: Vec<GridCoord> = Vec::new();
            let mut edges_ix = Vec::new();
            for &(a, b) in &tree {
                let ia = node_index(&mut nodes, a);
                let ib = node_index(&mut nodes, b);
                edges_ix.push((ia, ib));
            }
            for &p in &distinct {
                prop_assert!(nodes.contains(&p), "pin {p:?} missing from the tree");
            }
            let mut parent: Vec<usize> = (0..nodes.len()).collect();
            for &(a, b) in &edges_ix {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra] = rb;
            }
            let root = find(
                &mut parent,
                nodes.iter().position(|&q| q == distinct[0]).unwrap(),
            );
            for &p in &distinct {
                let i = nodes.iter().position(|&q| q == p).unwrap();
                prop_assert_eq!(find(&mut parent, i), root, "tree is disconnected");
            }

            // Wirelength invariant: the Steiner tree never wires more than
            // the MST the maze kernel would decompose into (A* on an
            // uncongested grid walks exactly the Manhattan distance).
            let steiner_len: u64 = tree.iter().map(|&(a, b)| u64::from(a.manhattan(b))).sum();
            prop_assert!(
                steiner_len <= mst_length(&distinct),
                "steiner {} > mst {}",
                steiner_len,
                mst_length(&distinct)
            );
        }
    }

    #[test]
    fn both_router_kernels_route_the_suite_cleanly(
        design_index in 0usize..17,
        seed in any::<u64>(),
    ) {
        let lib = lib();
        let suite = designs::suite();
        let design = &suite[design_index % suite.len()];
        let module = design.elaborate().expect("elaborates");
        let netlist = synthesize(&module, &lib, &SynthOptions::default())
            .expect("synthesizes")
            .netlist;
        let placement = place(
            &netlist,
            &lib,
            &PlacementOptions { seed, moves_per_cell: 20, ..PlacementOptions::default() },
        )
        .expect("places");
        let options = RouteOptions::default();
        for (kind, kernel) in [("maze", route as fn(_, _, _, _) -> _), ("steiner", route_steiner)] {
            let routing = kernel(&netlist, &placement, &lib, &options).expect("routes");
            prop_assert_eq!(
                routing.overflowed_edges(),
                0,
                "{} overflows under {}",
                design.name(),
                kind
            );
            for net in routing.nets() {
                for (a, b) in &net.edges {
                    prop_assert_eq!(a.manhattan(*b), 1, "edges join adjacent gcells");
                }
            }
        }
    }
}
