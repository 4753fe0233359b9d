//! Property tests for the placement kernels.

use chipforge_hdl::designs;
use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
use chipforge_place::{place, place_analytic, PlacementOptions};
use chipforge_synth::{synthesize, SynthOptions};
use proptest::prelude::*;

fn lib() -> StdCellLibrary {
    StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn analytic_placements_are_legal_across_the_suite(
        design_index in 0usize..17,
        utilization in 0.45f64..0.80,
    ) {
        let lib = lib();
        let suite = designs::suite();
        let design = &suite[design_index % suite.len()];
        let module = design.elaborate().expect("elaborates");
        let netlist = synthesize(&module, &lib, &SynthOptions::default())
            .expect("synthesizes")
            .netlist;
        let placement = place_analytic(
            &netlist,
            &lib,
            &PlacementOptions { utilization, ..PlacementOptions::default() },
        )
        .expect("places");

        // Legality: inside the core, no in-row overlap.
        prop_assert!(placement.is_legal(), "{} illegal", design.name());
        prop_assert_eq!(placement.cells().len(), netlist.cell_count());
        // Every cell's row index matches its y coordinate.
        let fp = placement.floorplan();
        for cell in placement.cells() {
            prop_assert!(cell.row < fp.rows());
            prop_assert!((cell.y_um - fp.row_y_um(cell.row)).abs() < 1e-9);
        }
        // The floorplan was sized for the requested utilization, so the
        // achieved density can never exceed the target.
        prop_assert!(placement.utilization() <= utilization + 1e-9);
    }

    #[test]
    fn every_kernel_is_deterministic_for_a_fixed_seed(
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
        let options = PlacementOptions {
            seed,
            moves_per_cell: 10,
            ..PlacementOptions::default()
        };
        for (name, kernel) in [("anneal", place as fn(_, _, _) -> _), ("analytic", place_analytic)] {
            let a = kernel(&netlist, &lib, &options).expect("places");
            let b = kernel(&netlist, &lib, &options).expect("places");
            prop_assert_eq!(a, b, "{} must be deterministic", name);
        }
    }
}
