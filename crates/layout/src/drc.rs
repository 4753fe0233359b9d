//! Design-rule checking over a per-layer bin grid.
//!
//! Three rule families are checked against a [`chipforge_pdk::DesignRules`]
//! deck over the flattened layout:
//!
//! * **width** — every shape's minimum dimension meets the layer's minimum
//!   width;
//! * **spacing** — non-touching same-layer shapes keep the minimum
//!   separation (touching/overlapping shapes are treated as connected
//!   same-net geometry; short detection would require extraction, which is
//!   out of scope);
//! * **enclosure** — every via is covered by metal on both adjacent layers
//!   with the required margin.
//!
//! # Complexity
//!
//! Each layer's `n` shapes are counting-sorted into a uniform grid of at
//! most `2n` bins sized after the mean shape. Spacing compares a shape only
//! with the shapes of its own bins that start within the spacing of its
//! right edge; enclosure looks a via up in the one bin under its corner.
//! With `k` the mean number of bins a shape lies in and `m` the mean bin
//! occupancy, a layer costs `O(n·k·m)` — the shapes actually near each
//! other — instead of the `O(n²)` of comparing along one axis only, and a
//! via costs `O(m)` instead of a scan of all metal.
//!
//! # Ordering contract
//!
//! [`DrcReport::violations`] is ordered, and reports are compared byte for
//! byte: layers ascending, per layer its width violations in drawn order
//! then its spacing violations; a spacing violation names the first shape
//! `a` of a pair `(a, b)`, pairs sorted by `a` then `b` in sweep order
//! (left edge, ties in drawn order). Enclosure violations follow all
//! layers: via layers ascending, vias in drawn order, lower metal first.

use crate::db::Layout;
use crate::geom::Rect;
use chipforge_pdk::{DesignRules, Layer};
use serde::{Deserialize, Serialize};

/// The rule family a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Shape narrower than the layer's minimum width.
    Width,
    /// Two shapes closer than the minimum spacing.
    Spacing,
    /// Via not sufficiently enclosed by adjacent metal.
    Enclosure,
}

/// One DRC violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrcViolation {
    /// Rule family.
    pub kind: ViolationKind,
    /// Layer of the offending shape.
    pub layer: Layer,
    /// Offending shape (first of the pair for spacing).
    pub shape: Rect,
    /// Measured value in nm (width, separation or enclosure margin).
    pub measured_nm: i32,
    /// Required value in nm.
    pub required_nm: i32,
}

/// Result of a DRC run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DrcReport {
    /// All violations found.
    pub violations: Vec<DrcViolation>,
    /// Shapes checked.
    pub shapes_checked: usize,
}

impl DrcReport {
    /// Whether the layout is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one kind.
    #[must_use]
    pub fn count_of(&self, kind: ViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }
}

fn nm(um: f64) -> i32 {
    (um * 1000.0).round() as i32
}

/// One layer's shapes under a uniform grid of bins.
///
/// Bins are `1 << shift_x` by `1 << shift_y` nm and tile the layer's
/// bounding box. Bin `b` lists, as `items[start[b]..start[b + 1]]`, the
/// shapes that overlap it once grown by `reach` to the right and upwards,
/// ordered by left edge and, among equal left edges, by drawn order —
/// the order a stable sort of the whole layer by left edge would give.
/// Two shapes closer than `reach + 1` in both axes therefore share a bin,
/// and a shape is listed in every bin it covers.
struct BinGrid<'a> {
    rects: &'a [Rect],
    bbox: Rect,
    shift_x: u32,
    shift_y: u32,
    cols: usize,
    start: Vec<u32>,
    items: Vec<u32>,
}

/// A shape's place in the left-edge sweep: left edge, then drawn index.
type SweepPos = (i32, u32);

/// Bins grow until there are at most this many per shape.
const BINS_PER_SHAPE: usize = 2;

impl<'a> BinGrid<'a> {
    /// Bins a non-empty layer. Bin sides start at the power of two above
    /// the mean grown shape size per axis, so a wire sits in a few bins
    /// whichever way it runs.
    fn new(rects: &'a [Rect], reach: i32) -> Self {
        let mut bbox = rects[0];
        let (mut sum_w, mut sum_h) = (0u64, 0u64);
        for r in rects {
            bbox.x0 = bbox.x0.min(r.x0);
            bbox.y0 = bbox.y0.min(r.y0);
            bbox.x1 = bbox.x1.max(r.x1);
            bbox.y1 = bbox.y1.max(r.y1);
            sum_w += u64::from(r.x1.abs_diff(r.x0));
            sum_h += u64::from(r.y1.abs_diff(r.y0));
        }
        let n = rects.len() as u64;
        let shift_of = |sum: u64| {
            let side = (sum / n + reach as u64).next_power_of_two();
            side.trailing_zeros().min(31)
        };
        let (mut shift_x, mut shift_y) = (shift_of(sum_w), shift_of(sum_h));
        let bins_along = |lo: i32, hi: i32, shift: u32| (hi.abs_diff(lo) >> shift) as usize + 1;
        let (cols, rows) = loop {
            let cols = bins_along(bbox.x0, bbox.x1, shift_x);
            let rows = bins_along(bbox.y0, bbox.y1, shift_y);
            if cols.saturating_mul(rows) <= BINS_PER_SHAPE * rects.len() {
                break (cols, rows);
            }
            if cols > rows {
                shift_x += 1;
            } else {
                shift_y += 1;
            }
        };
        let mut grid = BinGrid {
            rects,
            bbox,
            shift_x,
            shift_y,
            cols,
            start: Vec::new(),
            items: Vec::new(),
        };
        // Counting sort into bins: count, prefix-sum to bin ends, fill
        // backwards, then put each list in sweep order.
        let grown = |r: &Rect| Rect {
            x1: r.x1.saturating_add(reach),
            y1: r.y1.saturating_add(reach),
            ..*r
        };
        let mut start = vec![0u32; cols * rows + 1];
        for r in rects {
            grid.for_each_bin(&grown(r), |b| start[b] += 1);
        }
        let mut total = 0usize;
        for s in &mut start {
            total += *s as usize;
            *s = u32::try_from(total).expect("bin entries fit u32");
        }
        let mut items = vec![0u32; total];
        for (i, r) in rects.iter().enumerate().rev() {
            grid.for_each_bin(&grown(r), |b| {
                start[b] -= 1;
                items[start[b] as usize] = i as u32;
            });
        }
        for bin in start.windows(2) {
            let list = &mut items[bin[0] as usize..bin[1] as usize];
            list.sort_unstable_by_key(|&i| -> SweepPos { (rects[i as usize].x0, i) });
        }
        grid.start = start;
        grid.items = items;
        grid
    }

    // Coordinates are clamped into the bounding box first, so the
    // difference fits a `u32` exactly.
    fn col(&self, x: i32) -> usize {
        (x.clamp(self.bbox.x0, self.bbox.x1).abs_diff(self.bbox.x0) >> self.shift_x) as usize
    }

    fn row(&self, y: i32) -> usize {
        (y.clamp(self.bbox.y0, self.bbox.y1).abs_diff(self.bbox.y0) >> self.shift_y) as usize
    }

    /// Calls `f` with every bin `window` overlaps (clamped to the grid).
    fn for_each_bin(&self, window: &Rect, mut f: impl FnMut(usize)) {
        let (c0, c1) = (self.col(window.x0), self.col(window.x1));
        for row in self.row(window.y0)..=self.row(window.y1) {
            for b in row * self.cols + c0..=row * self.cols + c1 {
                f(b);
            }
        }
    }

    /// Whether some shape contains `target`. Such a shape covers
    /// `target`'s lower-left corner, so it is listed in that corner's bin.
    fn any_contains(&self, target: &Rect) -> bool {
        let b = self.row(target.y0) * self.cols + self.col(target.x0);
        self.items[self.start[b] as usize..self.start[b + 1] as usize]
            .iter()
            .any(|&j| self.rects[j as usize].contains(target))
    }

    /// Pushes the layer's spacing violations in the order of the
    /// left-edge sweep: for every shape `a` in (left edge, drawn order)
    /// order, one per later shape `b`, in the same order, that is neither
    /// touching `a` nor `min_space` away. The grid must have been built
    /// with a `reach` of `min_space - 1`.
    fn spacing(&self, layer: Layer, min_space: i32, violations: &mut Vec<DrcViolation>) {
        // (a, b, separation)
        let mut close: Vec<(SweepPos, SweepPos, i32)> = Vec::new();
        for bin in self.start.windows(2) {
            let list = &self.items[bin[0] as usize..bin[1] as usize];
            for (p, &i) in list.iter().enumerate() {
                let a = &self.rects[i as usize];
                for &j in &list[p + 1..] {
                    let b = &self.rects[j as usize];
                    if b.x0 - a.x1 >= min_space {
                        break; // the rest of the list starts even farther right
                    }
                    // Touching or overlapping shapes (separation 0) are
                    // connected geometry.
                    let sep = a.separation(b);
                    if 0 < sep && sep < min_space {
                        close.push(((a.x0, i), (b.x0, j), sep));
                    }
                }
            }
        }
        // A pair sharing several bins was found once per bin.
        close.sort_unstable();
        close.dedup();
        violations.extend(close.iter().map(|&((_, i), _, sep)| DrcViolation {
            kind: ViolationKind::Spacing,
            layer,
            shape: self.rects[i as usize],
            measured_nm: sep,
            required_nm: min_space,
        }));
    }
}

/// Runs DRC on the flattened top cell of `layout`.
#[must_use]
pub fn check(layout: &Layout, rules: &DesignRules) -> DrcReport {
    let flat = layout.flatten();
    // A handful of layers: a linear scan per shape beats a map lookup.
    let mut by_layer: Vec<(Layer, Vec<Rect>)> = Vec::new();
    for (layer, rect) in &flat {
        match by_layer.iter_mut().find(|(l, _)| l == layer) {
            Some((_, rects)) => rects.push(*rect),
            None => by_layer.push((*layer, vec![*rect])),
        }
    }
    by_layer.sort_by_key(|(layer, _)| *layer);
    let mut violations = Vec::new();

    let mut grids: Vec<BinGrid<'_>> = Vec::new();
    for (layer, rects) in &by_layer {
        let min_width = nm(rules.min_width_um(*layer));
        let min_space = nm(rules.min_spacing_um(*layer));
        for rect in rects {
            if rect.min_dimension() < min_width {
                violations.push(DrcViolation {
                    kind: ViolationKind::Width,
                    layer: *layer,
                    shape: *rect,
                    measured_nm: rect.min_dimension(),
                    required_nm: min_width,
                });
            }
        }
        let grid = BinGrid::new(rects, (min_space - 1).max(0));
        grid.spacing(*layer, min_space, &mut violations);
        grids.push(grid);
    }

    // Via enclosure.
    for (layer, rects) in &by_layer {
        let Layer::Via(v) = layer else { continue };
        let margin = nm(rules.via_enclosure_um(*v));
        let metals = [Layer::Metal(*v), Layer::Metal(*v + 1)].map(|metal| {
            let at = by_layer.binary_search_by_key(&metal, |(l, _)| *l);
            (metal, at.ok().map(|k| &grids[k]))
        });
        for via in rects {
            let needed = via.expanded(margin);
            for (metal, grid) in metals {
                if !grid.is_some_and(|grid| grid.any_contains(&needed)) {
                    violations.push(DrcViolation {
                        kind: ViolationKind::Enclosure,
                        layer: metal,
                        shape: *via,
                        measured_nm: 0,
                        required_nm: margin,
                    });
                }
            }
        }
    }

    DrcReport {
        violations,
        shapes_checked: flat.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::LayoutCell;
    use chipforge_pdk::TechnologyNode;
    use std::collections::{BTreeMap, HashMap};

    fn rules() -> DesignRules {
        DesignRules::for_node(TechnologyNode::N130)
    }

    fn layout_with(shapes: &[(Layer, Rect)]) -> Layout {
        let mut cell = LayoutCell::new("top");
        for (layer, rect) in shapes {
            cell.add_shape(*layer, *rect);
        }
        let mut layout = Layout::new("t", 1e-9);
        layout.add_cell(cell);
        layout
    }

    /// The quadratic checker [`check`] replaced, kept as its oracle: an
    /// x-sorted sweep that compares every shape with everything starting
    /// left of its right edge plus the spacing, and a scan of all metal
    /// per via. The order it pushes violations in is the contract.
    fn reference(layout: &Layout, rules: &DesignRules) -> Vec<DrcViolation> {
        let flat = layout.flatten();
        let mut by_layer: BTreeMap<Layer, Vec<Rect>> = BTreeMap::new();
        for (layer, rect) in &flat {
            by_layer.entry(*layer).or_default().push(*rect);
        }
        let mut violations = Vec::new();
        for (layer, rects) in &by_layer {
            let min_width = nm(rules.min_width_um(*layer));
            let min_space = nm(rules.min_spacing_um(*layer));
            for rect in rects {
                if rect.min_dimension() < min_width {
                    violations.push(DrcViolation {
                        kind: ViolationKind::Width,
                        layer: *layer,
                        shape: *rect,
                        measured_nm: rect.min_dimension(),
                        required_nm: min_width,
                    });
                }
            }
            let mut sorted: Vec<Rect> = rects.clone();
            sorted.sort_by_key(|r| r.x0);
            for i in 0..sorted.len() {
                let a = sorted[i];
                for b in sorted.iter().skip(i + 1) {
                    if b.x0 - a.x1 >= min_space {
                        break; // all later rects are even farther in x
                    }
                    if a.touches(b) {
                        continue; // connected geometry
                    }
                    let sep = a.separation(b);
                    if sep < min_space {
                        violations.push(DrcViolation {
                            kind: ViolationKind::Spacing,
                            layer: *layer,
                            shape: a,
                            measured_nm: sep,
                            required_nm: min_space,
                        });
                    }
                }
            }
        }
        for (layer, rects) in &by_layer {
            let Layer::Via(v) = layer else { continue };
            let margin = nm(rules.via_enclosure_um(*v));
            let below = by_layer.get(&Layer::Metal(*v));
            let above = by_layer.get(&Layer::Metal(*v + 1));
            for via in rects {
                let needed = via.expanded(margin);
                for (metal_layer, metal) in
                    [(Layer::Metal(*v), below), (Layer::Metal(*v + 1), above)]
                {
                    let covered = metal
                        .map(|shapes| shapes.iter().any(|m| m.contains(&needed)))
                        .unwrap_or(false);
                    if !covered {
                        violations.push(DrcViolation {
                            kind: ViolationKind::Enclosure,
                            layer: metal_layer,
                            shape: *via,
                            measured_nm: 0,
                            required_nm: margin,
                        });
                    }
                }
            }
        }
        violations
    }

    /// SplitMix64, so a soup is a pure function of its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> i32 {
            (self.next() % n) as i32
        }
    }

    /// `count` rectangles on a 10 nm lattice around the origin: mostly
    /// wire-sized with a few long ones, crowded enough that shapes
    /// overlap, abut, sit exactly at the spacing and just inside it.
    fn soup(rng: &mut Rng, layers: &[Layer], count: usize) -> Vec<(Layer, Rect)> {
        let span = 40 + 12 * (count as f64).sqrt() as u64;
        (0..count)
            .map(|_| {
                let layer = layers[rng.below(layers.len() as u64) as usize];
                let (x, y) = (
                    rng.below(span) - span as i32 / 2,
                    rng.below(span) - span as i32 / 2,
                );
                let (w, h) = match rng.below(8) {
                    0 => (rng.below(span), rng.below(3)), // long, may be zero-height
                    1 => (rng.below(3), rng.below(span)),
                    _ => (rng.below(30), rng.below(30)),
                };
                (layer, Rect::new(10 * x, 10 * y, 10 * (x + w), 10 * (y + h)))
            })
            .collect()
    }

    #[test]
    fn matches_the_quadratic_reference_on_rectangle_soups() {
        let rules = rules();
        let stacks: [&[Layer]; 4] = [
            &[Layer::Metal(1)],
            &[Layer::Metal(1), Layer::Via(1), Layer::Metal(2)],
            // V2 has no metal 3 above it, V3 no metal at all: empty layers.
            &[Layer::Poly, Layer::Metal(2), Layer::Via(2), Layer::Via(3)],
            &[
                Layer::Diffusion,
                Layer::Metal(1),
                Layer::Via(1),
                Layer::Metal(2),
                Layer::Via(2),
                Layer::Metal(3),
            ],
        ];
        let mut rng = Rng(0x5EED);
        let mut seen: HashMap<ViolationKind, usize> = HashMap::new();
        for count in [0, 1, 2, 3, 7, 20, 60, 150, 400, 900] {
            for stack in stacks {
                let layout = layout_with(&soup(&mut rng, stack, count));
                let report = check(&layout, &rules);
                let expected = reference(&layout, &rules);
                assert_eq!(report.shapes_checked, count);
                assert_eq!(
                    report.violations, expected,
                    "{count} shapes on {stack:?}: violations or their order differ"
                );
                for v in &report.violations {
                    *seen.entry(v.kind).or_default() += 1;
                }
            }
        }
        for kind in [
            ViolationKind::Width,
            ViolationKind::Spacing,
            ViolationKind::Enclosure,
        ] {
            assert!(
                seen.get(&kind).copied().unwrap_or(0) > 500,
                "soups too tame to test {kind:?} ordering: {seen:?}"
            );
        }
    }

    #[test]
    fn matches_the_quadratic_reference_on_a_routed_corpus_design() {
        use chipforge_pdk::{LibraryKind, StdCellLibrary};
        use chipforge_place::{place, PlacementOptions};
        use chipforge_route::{route, RouteOptions};
        use chipforge_synth::{synthesize, SynthOptions};

        let design = chipforge_gen::resolve("gen:cpu/ctrl?width=8&depth=2&unroll=1&seed=1")
            .expect("corpus spec resolves");
        let lib = StdCellLibrary::generate(TechnologyNode::N90, LibraryKind::Open);
        let module = design.elaborate().unwrap();
        let netlist = synthesize(&module, &lib, &SynthOptions::default())
            .unwrap()
            .netlist;
        let placement = place(&netlist, &lib, &PlacementOptions::default()).unwrap();
        let routing = route(&netlist, &placement, &lib, &RouteOptions::default()).unwrap();
        let layout = crate::build_layout(&netlist, &placement, &routing, &lib).unwrap();

        // Under its own 90 nm deck the layout is clean, which proves
        // nothing about ordering; the 180 nm deck asks for twice the width,
        // spacing and enclosure.
        let own = DesignRules::for_node(TechnologyNode::N90);
        assert!(check(&layout, &own).is_clean());
        assert!(reference(&layout, &own).is_empty());
        let tight = DesignRules::for_node(TechnologyNode::N180);
        let report = check(&layout, &tight);
        assert_eq!(report.violations, reference(&layout, &tight));
        for kind in [ViolationKind::Spacing, ViolationKind::Enclosure] {
            assert!(
                report.count_of(kind) >= 100,
                "only {} {kind:?} violations under the tight deck",
                report.count_of(kind)
            );
        }
    }

    #[test]
    fn clean_layout_passes() {
        let rules = rules();
        let w = nm(rules.min_width_um(Layer::Metal(1)));
        let s = nm(rules.min_spacing_um(Layer::Metal(1)));
        let layout = layout_with(&[
            (Layer::Metal(1), Rect::new(0, 0, 10 * w, w)),
            (Layer::Metal(1), Rect::new(0, w + s, 10 * w, 2 * w + s)),
        ]);
        let report = check(&layout, &rules);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.shapes_checked, 2);
    }

    #[test]
    fn narrow_wire_flagged() {
        let rules = rules();
        let w = nm(rules.min_width_um(Layer::Metal(1)));
        let layout = layout_with(&[(Layer::Metal(1), Rect::new(0, 0, 1000, w - 1))]);
        let report = check(&layout, &rules);
        assert_eq!(report.count_of(ViolationKind::Width), 1);
        assert_eq!(report.violations[0].measured_nm, w - 1);
    }

    #[test]
    fn close_wires_flagged() {
        let rules = rules();
        let w = nm(rules.min_width_um(Layer::Metal(1)));
        let s = nm(rules.min_spacing_um(Layer::Metal(1)));
        let layout = layout_with(&[
            (Layer::Metal(1), Rect::new(0, 0, 1000, w)),
            (Layer::Metal(1), Rect::new(0, w + s - 1, 1000, 2 * w + s)),
        ]);
        let report = check(&layout, &rules);
        assert_eq!(report.count_of(ViolationKind::Spacing), 1);
    }

    #[test]
    fn touching_shapes_are_connected_not_violating() {
        let rules = rules();
        let w = nm(rules.min_width_um(Layer::Metal(1)));
        let layout = layout_with(&[
            (Layer::Metal(1), Rect::new(0, 0, 1000, w)),
            (Layer::Metal(1), Rect::new(1000, 0, 2000, w)),
        ]);
        let report = check(&layout, &rules);
        assert_eq!(report.count_of(ViolationKind::Spacing), 0);
    }

    #[test]
    fn different_layers_do_not_interact_for_spacing() {
        let rules = rules();
        let w = nm(rules.min_width_um(Layer::Metal(1)));
        let layout = layout_with(&[
            (Layer::Metal(1), Rect::new(0, 0, 1000, w)),
            (Layer::Metal(2), Rect::new(0, 1, 1000, w + 1)),
        ]);
        let report = check(&layout, &rules);
        assert_eq!(report.count_of(ViolationKind::Spacing), 0);
    }

    #[test]
    fn bare_via_flagged_for_enclosure() {
        let rules = rules();
        let vw = nm(rules.min_width_um(Layer::Via(1)));
        let layout = layout_with(&[(Layer::Via(1), Rect::new(0, 0, vw, vw))]);
        let report = check(&layout, &rules);
        // Missing on both adjacent metals.
        assert_eq!(report.count_of(ViolationKind::Enclosure), 2);
    }

    #[test]
    fn properly_enclosed_via_passes() {
        let rules = rules();
        let vw = nm(rules.min_width_um(Layer::Via(1)));
        let margin = nm(rules.via_enclosure_um(1));
        let via = Rect::new(0, 0, vw, vw);
        let pad = via.expanded(margin);
        let layout = layout_with(&[
            (Layer::Via(1), via),
            (Layer::Metal(1), pad),
            (Layer::Metal(2), pad),
        ]);
        let report = check(&layout, &rules);
        assert_eq!(
            report.count_of(ViolationKind::Enclosure),
            0,
            "{:?}",
            report.violations
        );
    }
}
