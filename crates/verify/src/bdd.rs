//! A reduced ordered binary decision diagram (ROBDD) package.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Reference to a BDD node (index into the manager's node table).
///
/// `BddRef(0)` is constant false, `BddRef(1)` constant true.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// Constant false.
    pub const FALSE: BddRef = BddRef(0);
    /// Constant true.
    pub const TRUE: BddRef = BddRef(1);

    /// Whether this is one of the two terminal nodes.
    #[must_use]
    pub fn is_constant(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    low: BddRef,
    high: BddRef,
    /// The node's negation once computed; `FALSE` (which no non-terminal
    /// negates to) until then.
    neg: BddRef,
}

/// Multiply-rotate hasher for the manager's packed integer keys.
///
/// The keys are node indices the manager handed out itself, so nothing
/// outside the program can craft collisions and SipHash buys nothing. The
/// product's high bits depend on every key bit, the low ones do not; the
/// closing rotation brings the good bits down to where the table takes
/// its bucket index from.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type Table<K> = HashMap<K, BddRef, BuildHasherDefault<KeyHasher>>;

/// Unique-table key: `low` and `high` packed into one word, then `var`.
type NodeKey = (u64, u32);

fn pack(a: BddRef, b: BddRef) -> u64 {
    u64::from(a.0) << 32 | u64::from(b.0)
}

/// Entries the tables start with room for, budget permitting: beyond the
/// smallest proofs, small enough not to tax them.
const INITIAL_ENTRIES: usize = 1 << 14;

/// A BDD manager with unique and computed tables and a node budget.
///
/// Variables are identified by dense indices; the variable order is the
/// index order. All operations return `None` once the node budget is
/// exhausted, letting callers degrade gracefully on BDD-hostile functions
/// (e.g. multiplier outputs).
///
/// ```
/// use chipforge_verify::{Bdd, BddRef};
///
/// let mut bdd = Bdd::new(1 << 20);
/// let a = bdd.var(0).unwrap();
/// let b = bdd.var(1).unwrap();
/// let and = bdd.and(a, b).unwrap();
/// let or = bdd.or(a, b).unwrap();
/// assert_ne!(and, or);
/// // De Morgan: !(a & b) == !a | !b — canonical form makes this pointer equality.
/// let na = bdd.not(a).unwrap();
/// let nb = bdd.not(b).unwrap();
/// let lhs = bdd.not(and).unwrap();
/// let rhs = bdd.or(na, nb).unwrap();
/// assert_eq!(lhs, rhs);
/// ```
#[derive(Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: Table<NodeKey>,
    and_cache: Table<u64>,
    budget: usize,
}

impl Bdd {
    /// Creates a manager allowed to allocate up to `budget` nodes.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        let entries = budget.min(INITIAL_ENTRIES);
        Self {
            nodes: vec![
                // Terminal sentinels; var = u32::MAX sorts after all
                // real variables.
                Node {
                    var: u32::MAX,
                    low: BddRef::FALSE,
                    high: BddRef::FALSE,
                    neg: BddRef::TRUE,
                },
                Node {
                    var: u32::MAX,
                    low: BddRef::TRUE,
                    high: BddRef::TRUE,
                    neg: BddRef::FALSE,
                },
            ],
            unique: Table::with_capacity_and_hasher(entries, BuildHasherDefault::default()),
            and_cache: Table::with_capacity_and_hasher(entries, BuildHasherDefault::default()),
            budget,
        }
    }

    /// Number of live nodes (including the two terminals).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn mk(&mut self, var: u32, low: BddRef, high: BddRef) -> Option<BddRef> {
        if low == high {
            return Some(low);
        }
        match self.unique.entry((pack(low, high), var)) {
            Entry::Occupied(found) => Some(*found.get()),
            Entry::Vacant(slot) => {
                if self.nodes.len() >= self.budget {
                    return None;
                }
                let r = BddRef(self.nodes.len() as u32);
                self.nodes.push(Node {
                    var,
                    low,
                    high,
                    neg: BddRef::FALSE,
                });
                slot.insert(r);
                Some(r)
            }
        }
    }

    /// The BDD for a single variable.
    ///
    /// Returns `None` if the node budget is exhausted.
    pub fn var(&mut self, index: u32) -> Option<BddRef> {
        self.mk(index, BddRef::FALSE, BddRef::TRUE)
    }

    /// Conjunction. `None` on budget exhaustion.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> Option<BddRef> {
        if f == g {
            return Some(f);
        }
        if f == BddRef::FALSE || g == BddRef::FALSE {
            return Some(BddRef::FALSE);
        }
        if f == BddRef::TRUE {
            return Some(g);
        }
        if g == BddRef::TRUE {
            return Some(f);
        }
        let key = if f <= g { pack(f, g) } else { pack(g, f) };
        if let Some(&r) = self.and_cache.get(&key) {
            return Some(r);
        }
        let (nf, ng) = (self.nodes[f.0 as usize], self.nodes[g.0 as usize]);
        let var = nf.var.min(ng.var);
        let (f0, f1) = if nf.var == var {
            (nf.low, nf.high)
        } else {
            (f, f)
        };
        let (g0, g1) = if ng.var == var {
            (ng.low, ng.high)
        } else {
            (g, g)
        };
        let low = self.and(f0, g0)?;
        let high = self.and(f1, g1)?;
        let r = self.mk(var, low, high)?;
        self.and_cache.insert(key, r);
        Some(r)
    }

    /// Negation. `None` on budget exhaustion.
    pub fn not(&mut self, f: BddRef) -> Option<BddRef> {
        if f == BddRef::FALSE {
            return Some(BddRef::TRUE);
        }
        if f == BddRef::TRUE {
            return Some(BddRef::FALSE);
        }
        let n = self.nodes[f.0 as usize];
        if n.neg != BddRef::FALSE {
            return Some(n.neg);
        }
        let low = self.not(n.low)?;
        let high = self.not(n.high)?;
        let r = self.mk(n.var, low, high)?;
        self.nodes[f.0 as usize].neg = r;
        self.nodes[r.0 as usize].neg = f;
        Some(r)
    }

    /// Disjunction via De Morgan.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> Option<BddRef> {
        let nf = self.not(f)?;
        let ng = self.not(g)?;
        let n = self.and(nf, ng)?;
        self.not(n)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> Option<BddRef> {
        let ng = self.not(g)?;
        let nf = self.not(f)?;
        let a = self.and(f, ng)?;
        let b = self.and(nf, g)?;
        self.or(a, b)
    }

    /// A satisfying assignment of `f` as `(variable, value)` pairs, or
    /// `None` if `f` is constant false.
    #[must_use]
    pub fn satisfying_assignment(&self, f: BddRef) -> Option<Vec<(u32, bool)>> {
        if f == BddRef::FALSE {
            return None;
        }
        let mut assignment = Vec::new();
        let mut current = f;
        while !current.is_constant() {
            let n = self.nodes[current.0 as usize];
            if n.low != BddRef::FALSE {
                assignment.push((n.var, false));
                current = n.low;
            } else {
                assignment.push((n.var, true));
                current = n.high;
            }
        }
        debug_assert_eq!(current, BddRef::TRUE);
        Some(assignment)
    }

    /// Evaluates `f` under a total assignment (missing variables read
    /// false).
    #[must_use]
    pub fn eval(&self, f: BddRef, assignment: &HashMap<u32, bool>) -> bool {
        let mut current = f;
        while !current.is_constant() {
            let n = self.nodes[current.0 as usize];
            current = if assignment.get(&n.var).copied().unwrap_or(false) {
                n.high
            } else {
                n.low
            };
        }
        current == BddRef::TRUE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_keeps_node_keys_apart() {
        use std::collections::HashSet;
        use std::hash::{BuildHasher, BuildHasherDefault};

        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let key =
            |var: u32, low: u32, high: u32| -> NodeKey { (pack(BddRef(low), BddRef(high)), var) };
        // Around small, mid-table and top-of-range indices, move one field
        // at a time: every triple must hash differently.
        for base in [2u32, 1_000, 499_999, u32::MAX - 64] {
            let mut keys = vec![key(base, base, base)];
            for step in 1..=64 {
                keys.push(key(base + step, base, base));
                keys.push(key(base, base + step, base));
                keys.push(key(base, base, base + step));
            }
            let hashes: HashSet<u64> = keys.iter().map(|k| hasher.hash_one(k)).collect();
            assert_eq!(hashes.len(), keys.len(), "collision near {base}");
            // The table indexes by the low bits and tags by the top seven.
            let low: HashSet<u64> = hashes.iter().map(|h| h & 0xFFFF).collect();
            assert!(
                low.len() > keys.len() * 9 / 10,
                "low bits collapse near {base}"
            );
        }
        // Order matters: (low, high) and (high, low) are different nodes.
        assert_ne!(hasher.hash_one(key(3, 4, 5)), hasher.hash_one(key(3, 5, 4)));
        assert_ne!(
            hasher.hash_one(pack(BddRef(4), BddRef(5))),
            hasher.hash_one(pack(BddRef(5), BddRef(4)))
        );
    }

    #[test]
    fn terminals_behave() {
        let mut bdd = Bdd::new(1000);
        assert_eq!(bdd.and(BddRef::TRUE, BddRef::FALSE), Some(BddRef::FALSE));
        assert_eq!(bdd.or(BddRef::TRUE, BddRef::FALSE), Some(BddRef::TRUE));
        assert_eq!(bdd.not(BddRef::TRUE), Some(BddRef::FALSE));
    }

    #[test]
    fn canonicity_makes_equal_functions_identical() {
        let mut bdd = Bdd::new(10_000);
        let a = bdd.var(0).unwrap();
        let b = bdd.var(1).unwrap();
        let c = bdd.var(2).unwrap();
        // (a & b) | (a & c) == a & (b | c)
        let ab = bdd.and(a, b).unwrap();
        let ac = bdd.and(a, c).unwrap();
        let lhs = bdd.or(ab, ac).unwrap();
        let bc = bdd.or(b, c).unwrap();
        let rhs = bdd.and(a, bc).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn xor_is_its_own_inverse() {
        let mut bdd = Bdd::new(10_000);
        let a = bdd.var(0).unwrap();
        let b = bdd.var(1).unwrap();
        let x = bdd.xor(a, b).unwrap();
        let back = bdd.xor(x, b).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn tautology_collapses_to_true() {
        let mut bdd = Bdd::new(10_000);
        let a = bdd.var(0).unwrap();
        let na = bdd.not(a).unwrap();
        assert_eq!(bdd.or(a, na), Some(BddRef::TRUE));
        assert_eq!(bdd.and(a, na), Some(BddRef::FALSE));
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        // A 32-variable parity needs ~65 nodes; a budget of 10 fails.
        let mut bdd = Bdd::new(10);
        let mut acc = bdd.var(0);
        for i in 1..32 {
            acc = match (acc, bdd.var(i)) {
                (Some(a), Some(v)) => bdd.xor(a, v),
                _ => None,
            };
            if acc.is_none() {
                return; // expected
            }
        }
        panic!("budget was never exhausted");
    }

    #[test]
    fn satisfying_assignment_satisfies() {
        let mut bdd = Bdd::new(10_000);
        let a = bdd.var(0).unwrap();
        let b = bdd.var(1).unwrap();
        let nb = bdd.not(b).unwrap();
        let f = bdd.and(a, nb).unwrap();
        let assignment = bdd.satisfying_assignment(f).unwrap();
        let map: HashMap<u32, bool> = assignment.into_iter().collect();
        assert!(bdd.eval(f, &map));
        assert_eq!(map.get(&0), Some(&true));
        assert_eq!(map.get(&1), Some(&false));
        assert!(bdd.satisfying_assignment(BddRef::FALSE).is_none());
    }

    #[test]
    fn eval_agrees_with_construction() {
        let mut bdd = Bdd::new(10_000);
        let a = bdd.var(0).unwrap();
        let b = bdd.var(1).unwrap();
        let c = bdd.var(2).unwrap();
        let ab = bdd.and(a, b).unwrap();
        let f = bdd.xor(ab, c).unwrap();
        for pattern in 0u32..8 {
            let map: HashMap<u32, bool> = (0..3).map(|i| (i, (pattern >> i) & 1 == 1)).collect();
            let expected =
                ((pattern & 1 == 1) && (pattern >> 1 & 1 == 1)) ^ (pattern >> 2 & 1 == 1);
            assert_eq!(bdd.eval(f, &map), expected, "pattern {pattern:#b}");
        }
    }
}
