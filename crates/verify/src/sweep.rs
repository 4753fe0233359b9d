//! Stages 2 and 3 of the equivalence check: a simulation-guided sweep of
//! one miter, then BDDs over primary inputs for what it leaves open.
//!
//! Both AIGs are copied into one [`Aig`], whose `and()` hash-conses, so
//! every DUT node structurally equal to a golden one is shared from the
//! start. 64 words of seeded random patterns then simulate the miter: a
//! pair whose signatures differ is refuted on the spot, with the lane as
//! its counterexample. Otherwise the DUT nodes are walked in
//! topological order and rebuilt over their fanins' representatives;
//! a rebuilt node whose phase-normalised signature matches a golden node
//! is merged onto it once an exhaustive truth table over a cut of at
//! most [`MERGE_CUT_LEAVES`] leaves proves the two equal. A cut treats
//! its leaves as free variables, so an equal table is a proof, while an
//! unequal one may only reflect leaves the cut could not see correlated:
//! the node then stays unmerged, and nothing is ever concluded from it.
//!
//! A pair is closed when its DUT literal's representative is the golden
//! literal, or a [`PAIR_CUT_LEAVES`]-leaf cut proves them equal. The
//! rest get BDDs over the primary inputs of just their cones under the
//! full node budget; only running out of that budget aborts the check.
//!
//! Everything is indexed by node in plain arrays and walked without
//! recursion, and no result depends on hash-map iteration order, so the
//! check is deterministic.

use crate::bdd::{Bdd, BddRef};
use crate::equiv::{
    bdd_counterexample, compared_pairs, lit_bdd, Counterexample, EquivalenceResult, Pair, Verdict,
};
use chipforge_synth::{Aig, Lit, NodeId};
use std::collections::HashMap;

/// 64-bit words of random patterns per node: 4 096 lanes.
const WORDS: usize = 64;

/// Seed of the simulation patterns.
const PATTERN_SEED: u64 = 0x5eed_0fec;

/// Largest cut a merge proof may use (a 4 096-bit truth table).
const MERGE_CUT_LEAVES: usize = 12;

/// Largest cut an output or next-state pair is proven on before it is
/// handed to BDDs (a 65 536-bit truth table).
const PAIR_CUT_LEAVES: usize = 16;

/// Stages 2 and 3 for two AIGs whose variables are `names` (the stage-1
/// order). `whole_bdd_nodes` is what stage 1 allocated before it ran out;
/// the result reports the larger of it and stage 3's table.
pub(crate) fn check(
    golden: &Aig,
    dut: &Aig,
    names: &[String],
    node_budget: usize,
    whole_bdd_nodes: usize,
) -> EquivalenceResult {
    let total = golden.outputs().len() + golden.latches().len();
    let result = |verdict, proven, bdd_nodes: usize| EquivalenceResult {
        verdict,
        proven,
        total,
        bdd_nodes: bdd_nodes.max(whole_bdd_nodes),
    };
    let pairs = match compared_pairs(golden, dut) {
        Ok(pairs) => pairs,
        Err(missing) => return result(Verdict::InterfaceMismatch(missing), 0, 0),
    };
    let mut miter = Miter::new(golden, dut, names, &pairs);
    let signatures = Signatures::simulate(&miter.aig, names.len());
    if let Some(cex) = miter.falsify(&signatures, names) {
        return result(Verdict::Inequivalent(cex), 0, 0);
    }
    let mut cuts = CutProver::default();
    miter.sweep(&signatures, &mut cuts);

    let mut open = Vec::new();
    for (name, g, d) in &miter.pairs {
        let d = miter.representative(*d);
        if d != *g && !cuts.proves_equal(&miter.aig, *g, d, PAIR_CUT_LEAVES) {
            open.push((name, *g, d));
        }
    }
    let mut proven = total - open.len();
    if open.is_empty() {
        return result(Verdict::Equivalent, proven, 0);
    }

    // Stage 3: BDDs over primary inputs, cone by cone.
    let mut bdd = Bdd::new(node_budget);
    let mut cones = ConeBdds::new(miter.aig.node_count());
    for (name, g, d) in open {
        let Some(diff) = cones.difference(&miter.aig, &mut bdd, g, d) else {
            return result(Verdict::Aborted, proven, bdd.node_count());
        };
        if diff != BddRef::FALSE {
            let cex = bdd_counterexample(&bdd, diff, name.clone(), names);
            return result(Verdict::Inequivalent(cex), proven, bdd.node_count());
        }
        proven += 1;
    }
    result(Verdict::Equivalent, proven, bdd.node_count())
}

/// Golden and DUT in one hash-consed AIG.
///
/// Nodes `1..=names.len()` are the inputs in variable order, then come
/// the golden ANDs up to `golden_end`, then the DUT-only ANDs up to
/// `dut_end`; the sweep appends rebuilt DUT nodes after that.
struct Miter {
    aig: Aig,
    golden_end: usize,
    dut_end: usize,
    /// The compared pairs, as miter literals.
    pairs: Vec<Pair>,
    /// Each node's representative: itself, until the sweep rebuilds a
    /// DUT node over new fanins or merges it onto a golden node.
    repr: Vec<Lit>,
}

impl Miter {
    fn new(golden: &Aig, dut: &Aig, names: &[String], pairs: &[Pair]) -> Self {
        let mut aig = Aig::new("miter");
        let var_lit: HashMap<&str, Lit> = names
            .iter()
            .map(|name| (name.as_str(), aig.add_input(name.clone())))
            .collect();
        let golden_map = copy_into(&mut aig, golden, &var_lit);
        let golden_end = aig.node_count();
        let dut_map = copy_into(&mut aig, dut, &var_lit);
        let dut_end = aig.node_count();
        let pairs = pairs
            .iter()
            .map(|(name, g, d)| {
                (
                    name.clone(),
                    map_lit(&golden_map, *g),
                    map_lit(&dut_map, *d),
                )
            })
            .collect();
        let repr = (0..dut_end)
            .map(|index| Lit::new(NodeId::from_index(index), false))
            .collect();
        Miter {
            aig,
            golden_end,
            dut_end,
            pairs,
            repr,
        }
    }

    /// `lit` over the representatives.
    fn representative(&self, lit: Lit) -> Lit {
        map_lit(&self.repr, lit)
    }

    /// The first pair whose signatures differ, with the first lane they
    /// differ in as the counterexample.
    fn falsify(&self, signatures: &Signatures, names: &[String]) -> Option<Counterexample> {
        self.pairs.iter().find_map(|(name, g, d)| {
            let (g_words, g_mask) = signatures.of(*g);
            let (d_words, d_mask) = signatures.of(*d);
            let (word, diff) = g_words
                .iter()
                .zip(d_words)
                .map(|(g, d)| (g ^ g_mask) ^ (d ^ d_mask))
                .enumerate()
                .find(|&(_, diff)| diff != 0)?;
            let lane = diff.trailing_zeros();
            let assignment = names
                .iter()
                .enumerate()
                .map(|(var, name)| {
                    let input = Lit::new(NodeId::from_index(var + 1), false);
                    let (words, _) = signatures.of(input);
                    (name.clone(), words[word] >> lane & 1 == 1)
                })
                .collect();
            Some(Counterexample {
                signal: name.clone(),
                assignment,
            })
        })
    }

    /// Rebuilds every DUT node over its fanins' representatives, in
    /// topological order, merging it onto the first golden node of its
    /// signature class once a cut proves them equal.
    fn sweep(&mut self, signatures: &Signatures, cuts: &mut CutProver) {
        let mut first_golden: HashMap<u64, usize> = HashMap::new();
        for index in 1..self.golden_end {
            let key = signatures.class_key(index);
            if key != 0 {
                first_golden.entry(key).or_insert(index);
            }
        }
        for index in self.golden_end..self.dut_end {
            let (a, b) = self
                .aig
                .and_fanins(NodeId::from_index(index))
                .expect("miter nodes past the inputs are ANDs");
            let (a, b) = (self.representative(a), self.representative(b));
            let existing = self.aig.node_count();
            let rebuilt = self.aig.and(a, b);
            let node = rebuilt.node().index();
            if node == existing {
                self.repr.push(rebuilt);
            } else if node != index {
                // Shared with a golden node or an earlier DUT node, whose
                // merge was already tried: nothing left to prove.
                self.repr[index] = self.representative(rebuilt);
                continue;
            }
            self.repr[index] = rebuilt;
            let key = signatures.class_key(index);
            let Some(&golden) = first_golden.get(&key) else {
                continue;
            };
            if !signatures.same_class(index, golden) {
                continue;
            }
            let phase = signatures.phase(index) != signatures.phase(golden);
            let target = Lit::new(NodeId::from_index(golden), phase);
            if cuts.proves_equal(&self.aig, rebuilt, target, MERGE_CUT_LEAVES) {
                self.repr[index] = target;
                self.repr[node] = target;
            }
        }
    }
}

/// Copies `source` into `miter` over the named input literals; returns
/// the miter literal of every source node.
fn copy_into(miter: &mut Aig, source: &Aig, var_lit: &HashMap<&str, Lit>) -> Vec<Lit> {
    let mut map = vec![Lit::FALSE; source.node_count()];
    let named = source
        .inputs()
        .iter()
        .map(|(name, id)| (name, *id))
        .chain(source.latches().iter().map(|l| (&l.name, l.q)));
    for (name, id) in named {
        map[id.index()] = var_lit[name.as_str()];
    }
    // Fanins precede their fanouts, so both are mapped already.
    for index in 0..source.node_count() {
        if let Some((a, b)) = source.and_fanins(NodeId::from_index(index)) {
            map[index] = miter.and(map_lit(&map, a), map_lit(&map, b));
        }
    }
    map
}

/// `lit` through a per-node literal map, its complement carried over.
fn map_lit(map: &[Lit], lit: Lit) -> Lit {
    let mapped = map[lit.node().index()];
    if lit.is_complemented() {
        !mapped
    } else {
        mapped
    }
}

/// Every miter node's value under [`WORDS`] × 64 seeded random patterns,
/// node-major.
struct Signatures {
    words: Vec<u64>,
}

impl Signatures {
    fn simulate(aig: &Aig, inputs: usize) -> Self {
        let nodes = aig.node_count();
        let mut words = vec![0u64; nodes * WORDS];
        let mut state = PATTERN_SEED;
        for word in &mut words[WORDS..(inputs + 1) * WORDS] {
            *word = splitmix64(&mut state);
        }
        for index in inputs + 1..nodes {
            let (a, b) = aig
                .and_fanins(NodeId::from_index(index))
                .expect("miter nodes past the inputs are ANDs");
            let (done, rest) = words.split_at_mut(index * WORDS);
            let out = &mut rest[..WORDS];
            let (a_words, a_mask) = node_words(done, a);
            let (b_words, b_mask) = node_words(done, b);
            for ((out, a), b) in out.iter_mut().zip(a_words).zip(b_words) {
                *out = (a ^ a_mask) & (b ^ b_mask);
            }
        }
        Signatures { words }
    }

    /// A literal's node words and the mask its complement applies.
    fn of(&self, lit: Lit) -> (&[u64], u64) {
        node_words(&self.words, lit)
    }

    /// Whether the node's first lane is 1: its signature is normalised by
    /// complementing it then.
    fn phase(&self, index: usize) -> bool {
        self.words[index * WORDS] & 1 == 1
    }

    /// A hash of the phase-normalised signature; 0 exactly when the node
    /// is constant on every pattern.
    fn class_key(&self, index: usize) -> u64 {
        let mask = if self.phase(index) { u64::MAX } else { 0 };
        let words = &self.words[index * WORDS..(index + 1) * WORDS];
        if words.iter().all(|&w| w == mask) {
            return 0;
        }
        let hash = words.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w ^ mask).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        hash.max(1)
    }

    /// Whether two nodes' normalised signatures are equal.
    fn same_class(&self, a: usize, b: usize) -> bool {
        let mask = if self.phase(a) == self.phase(b) {
            0
        } else {
            u64::MAX
        };
        let a = &self.words[a * WORDS..(a + 1) * WORDS];
        let b = &self.words[b * WORDS..(b + 1) * WORDS];
        a.iter().zip(b).all(|(a, b)| a ^ b == mask)
    }
}

fn node_words(words: &[u64], lit: Lit) -> (&[u64], u64) {
    let start = lit.node().index() * WORDS;
    (&words[start..start + WORDS], complement_mask(lit))
}

/// All ones for a complemented literal, so `word ^ mask` is its value.
fn complement_mask(lit: Lit) -> u64 {
    if lit.is_complemented() {
        u64::MAX
    } else {
        0
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Proves two literals equal by an exhaustive truth table over a cut.
///
/// The cut grows from the pair's two nodes by repeatedly expanding the
/// highest-index AND leaf into its fanins; a leaf whose expansion would
/// exceed the limit stays a leaf, and growth goes on below it. The
/// expanded nodes are exactly the cone between the cut and the pair.
/// Scratch space is kept between calls.
#[derive(Default)]
struct CutProver {
    leaves: Vec<usize>,
    inner: Vec<usize>,
    /// Truth-table offset of each node in the current cut, `u32::MAX`
    /// elsewhere; indexed by node.
    slot: Vec<u32>,
    tables: Vec<u64>,
}

impl CutProver {
    fn proves_equal(&mut self, aig: &Aig, x: Lit, y: Lit, max_leaves: usize) -> bool {
        if x == y {
            return true;
        }
        if x.node() == y.node() {
            return false; // a node and its complement
        }
        self.grow_cut(aig, x.node().index(), y.node().index(), max_leaves);
        let words = (1usize << self.leaves.len()).div_ceil(64);
        self.slot
            .resize(aig.node_count().max(self.slot.len()), u32::MAX);
        self.tables.clear();
        self.tables
            .resize((self.leaves.len() + self.inner.len()) * words, 0);
        for (var, &leaf) in self.leaves.iter().enumerate() {
            let table = &mut self.tables[var * words..(var + 1) * words];
            if leaf != 0 {
                fill_projection(table, var);
            }
            self.slot[leaf] = (var * words) as u32;
        }
        self.inner.sort_unstable();
        for (offset, &node) in self.inner.iter().enumerate() {
            let start = (self.leaves.len() + offset) * words;
            let (a, b) = aig
                .and_fanins(NodeId::from_index(node))
                .expect("expanded cut nodes are ANDs");
            let (a_start, a_mask) = self.table_of(a);
            let (b_start, b_mask) = self.table_of(b);
            for w in 0..words {
                self.tables[start + w] =
                    (self.tables[a_start + w] ^ a_mask) & (self.tables[b_start + w] ^ b_mask);
            }
            self.slot[node] = start as u32;
        }
        let (x_start, x_mask) = self.table_of(x);
        let (y_start, y_mask) = self.table_of(y);
        let equal = (0..words)
            .all(|w| self.tables[x_start + w] ^ x_mask == self.tables[y_start + w] ^ y_mask);
        for &node in self.leaves.iter().chain(&self.inner) {
            self.slot[node] = u32::MAX;
        }
        equal
    }

    /// Expands the highest-index AND leaf that fits in `max_leaves`,
    /// until every leaf is an input or too wide to expand. Expanded
    /// nodes come out in decreasing index order, and every fanin is
    /// below the node it feeds, so no leaf is ever an expanded node.
    fn grow_cut(&mut self, aig: &Aig, x: usize, y: usize, max_leaves: usize) {
        self.leaves.clear();
        self.inner.clear();
        self.leaves.extend([x, y]);
        let mut frozen: Vec<usize> = Vec::new();
        loop {
            let Some((at, &top)) = self
                .leaves
                .iter()
                .enumerate()
                .filter(|(_, leaf)| !frozen.contains(leaf))
                .max_by_key(|&(_, &leaf)| leaf)
            else {
                return;
            };
            let Some((a, b)) = aig.and_fanins(NodeId::from_index(top)) else {
                return; // inputs have the lowest indices: the rest are inputs too
            };
            // `Aig::and` never builds a node over one node twice.
            let (a, b) = (a.node().index(), b.node().index());
            let added =
                usize::from(!self.leaves.contains(&a)) + usize::from(!self.leaves.contains(&b));
            if self.leaves.len() - 1 + added > max_leaves {
                frozen.push(top);
                continue;
            }
            self.leaves.swap_remove(at);
            self.inner.push(top);
            for fanin in [a, b] {
                if !self.leaves.contains(&fanin) {
                    self.leaves.push(fanin);
                }
            }
        }
    }

    fn table_of(&self, lit: Lit) -> (usize, u64) {
        let start = self.slot[lit.node().index()];
        debug_assert_ne!(start, u32::MAX, "cone nodes are tabulated first");
        (start as usize, complement_mask(lit))
    }
}

/// The truth table of cut variable `var` over `table.len() * 64` rows.
fn fill_projection(table: &mut [u64], var: usize) {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    for (w, word) in table.iter_mut().enumerate() {
        *word = if var < 6 {
            LOW[var]
        } else if w >> (var - 6) & 1 == 1 {
            u64::MAX
        } else {
            0
        };
    }
}

/// Stage 3's BDDs of miter nodes over the primary inputs, built cone by
/// cone as open pairs ask for them.
struct ConeBdds {
    table: Vec<Option<BddRef>>,
    /// Whether a node is in the cone being collected; indexed by node.
    queued: Vec<bool>,
    stack: Vec<usize>,
    cone: Vec<usize>,
}

impl ConeBdds {
    fn new(nodes: usize) -> Self {
        let mut table = vec![None; nodes];
        table[0] = Some(BddRef::FALSE);
        ConeBdds {
            table,
            queued: vec![false; nodes],
            stack: Vec::new(),
            cone: Vec::new(),
        }
    }

    /// `g XOR d` as a BDD, or `None` once the budget runs out.
    fn difference(&mut self, aig: &Aig, bdd: &mut Bdd, g: Lit, d: Lit) -> Option<BddRef> {
        self.build(aig, bdd, g)?;
        self.build(aig, bdd, d)?;
        let g = lit_bdd(&self.table, bdd, g)?;
        let d = lit_bdd(&self.table, bdd, d)?;
        bdd.xor(g, d)
    }

    /// Builds the BDD of every node in `root`'s cone not built yet, in
    /// index (topological) order. Inputs `1..=n` are variables `0..n`.
    fn build(&mut self, aig: &Aig, bdd: &mut Bdd, root: Lit) -> Option<()> {
        self.cone.clear();
        self.stack.clear();
        self.stack.push(root.node().index());
        while let Some(index) = self.stack.pop() {
            if self.table[index].is_some() || self.queued[index] {
                continue;
            }
            self.queued[index] = true;
            self.cone.push(index);
            if let Some((a, b)) = aig.and_fanins(NodeId::from_index(index)) {
                self.stack.extend([a.node().index(), b.node().index()]);
            }
        }
        self.cone.sort_unstable();
        for &index in &self.cone {
            self.queued[index] = false;
        }
        for &index in &self.cone {
            self.table[index] = Some(match aig.and_fanins(NodeId::from_index(index)) {
                Some((a, b)) => {
                    let fa = lit_bdd(&self.table, bdd, a)?;
                    let fb = lit_bdd(&self.table, bdd, b)?;
                    bdd.and(fa, fb)?
                }
                None => bdd.var(index as u32 - 1)?,
            });
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::{check_aig_equivalence, variable_order, whole_bdd_check};

    /// Golden: `y` and `z` are the parity of 18 inputs, folded forwards
    /// and backwards. DUT: `y = fwd & bwd`, `z = bwd`. `fwd & bwd` equals
    /// `fwd`, but only because the two chains compute the same parity: a
    /// cut of 12 or 16 leaves cannot reach all 18 inputs, keeps nodes of
    /// both chains as free leaves, and so tabulates a difference that is
    /// not there.
    fn parity_pair() -> (Aig, Aig) {
        let build = |dut: bool| {
            let mut aig = Aig::new("parity");
            let inputs: Vec<Lit> = (0..18).map(|i| aig.add_input(format!("i[{i}]"))).collect();
            let fwd = inputs[1..]
                .iter()
                .fold(inputs[0], |acc, &x| aig.xor(acc, x));
            let bwd = inputs[..17]
                .iter()
                .rev()
                .fold(inputs[17], |acc, &x| aig.xor(x, acc));
            let y = if dut { aig.and(fwd, bwd) } else { fwd };
            aig.add_output("y", y);
            aig.add_output("z", bwd);
            aig
        };
        (build(false), build(true))
    }

    #[test]
    fn a_false_cut_difference_leaves_the_node_unmerged_and_stage_3_proves_it() {
        let (golden, dut) = parity_pair();
        let names = variable_order(&golden, &dut);
        let pairs = compared_pairs(&golden, &dut).expect("same interface");
        let mut miter = Miter::new(&golden, &dut, &names, &pairs);
        let signatures = Signatures::simulate(&miter.aig, names.len());
        assert!(miter.falsify(&signatures, &names).is_none());
        let (_, g, d) = miter.pairs[0].clone();
        let d_index = d.node().index();
        assert!(d_index >= miter.golden_end, "`fwd & bwd` is DUT-only");
        let mut cuts = CutProver::default();
        assert!(
            !cuts.proves_equal(&miter.aig, d, g, MERGE_CUT_LEAVES),
            "the cut must see the false difference"
        );
        miter.sweep(&signatures, &mut cuts);
        assert_eq!(miter.representative(d), d, "no proof, no merge");
        assert_eq!(miter.representative(miter.pairs[1].2), miter.pairs[1].1);
        assert!(
            !cuts.proves_equal(&miter.aig, g, d, PAIR_CUT_LEAVES),
            "`y` stays open for stage 3"
        );

        // 1 600 nodes: stage 1 gets 100 and runs out; stage 3 has room.
        let whole = whole_bdd_check(&golden, &dut, &names, 100);
        assert_eq!(whole.verdict, Verdict::Aborted);
        let result = check_aig_equivalence(&golden, &dut, 1_600);
        assert_eq!(result.verdict, Verdict::Equivalent);
        assert_eq!((result.proven, result.total), (2, 2));
    }

    #[test]
    fn cut_proofs_are_exact_when_the_cut_reaches_the_inputs() {
        let mut aig = Aig::new("small");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let left = aig.and(ab, c);
        let bc = aig.and(b, c);
        let right = aig.and(a, bc);
        let or = aig.or(a, b);
        let mut cuts = CutProver::default();
        assert!(cuts.proves_equal(&aig, left, right, 4));
        assert!(!cuts.proves_equal(&aig, left, or, 4));
        assert!(!cuts.proves_equal(&aig, left, !left, 4));
        // Three leaves cannot hold both cones down to the inputs: the cut
        // keeps `left` and `b & c` as free leaves and proves nothing.
        assert!(!cuts.proves_equal(&aig, left, right, 3));
    }

    #[test]
    fn signatures_normalise_phase_and_flag_constants() {
        let mut aig = Aig::new("phase");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let ab = aig.and(a, b);
        let nand_dual = aig.or(!a, !b); // !(a & b): same node, complemented
        assert_eq!(nand_dual, !ab);
        let contradiction = aig.and(ab, !a);
        let signatures = Signatures::simulate(&aig, 2);
        assert_ne!(signatures.class_key(ab.node().index()), 0);
        assert_eq!(signatures.class_key(contradiction.node().index()), 0);
        assert!(signatures.same_class(ab.node().index(), ab.node().index()));
        assert!(!signatures.same_class(ab.node().index(), a.node().index()));
    }
}
