//! Elaborated RTL intermediate representation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a [`Signal`] inside an [`RtlModule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Dense index of the signal.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Storage class of a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignalKind {
    /// Primary input.
    Input,
    /// Combinational wire driven by an `assign`.
    Wire,
    /// Clocked register.
    Reg,
}

/// An elaborated signal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signal {
    pub(crate) id: SignalId,
    pub(crate) name: String,
    pub(crate) width: u8,
    pub(crate) kind: SignalKind,
    pub(crate) is_output: bool,
}

impl Signal {
    /// Signal identifier.
    #[must_use]
    pub fn id(&self) -> SignalId {
        self.id
    }

    /// Declared name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bit width (1..=64).
    #[must_use]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Storage class.
    #[must_use]
    pub fn kind(&self) -> SignalKind {
        self.kind
    }

    /// Whether the signal is a primary output port.
    #[must_use]
    pub fn is_output(&self) -> bool {
        self.is_output
    }
}

/// Word-level unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Not,
    LogicalNot,
    Negate,
    ReduceAnd,
    ReduceOr,
    ReduceXor,
}

/// Word-level binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    LogicalAnd,
    LogicalOr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Shl,
    Shr,
}

/// A width-annotated word-level expression.
///
/// Widths follow Verilog-like rules: arithmetic/bitwise operators extend
/// both operands to the wider width; comparisons and logical operators are
/// 1 bit wide; shifts keep the left operand's width; assignment truncates
/// or zero-extends to the target width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Constant with explicit width.
    Const {
        /// Value (masked to `width`).
        value: u64,
        /// Bit width.
        width: u8,
    },
    /// Full read of a signal.
    Signal(SignalId),
    /// Bit or part select `signal[msb:lsb]`.
    Slice {
        /// Source signal.
        signal: SignalId,
        /// Most significant selected bit.
        msb: u8,
        /// Least significant selected bit.
        lsb: u8,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Result width.
        width: u8,
        /// Operand.
        arg: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Result width.
        width: u8,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Two-way multiplexer `cond ? then : else`.
    Mux {
        /// Result width.
        width: u8,
        /// Select condition (true if nonzero).
        cond: Box<Expr>,
        /// Value when `cond` is nonzero.
        then_expr: Box<Expr>,
        /// Value when `cond` is zero.
        else_expr: Box<Expr>,
    },
    /// Concatenation `{a, b, ...}` (first part is most significant).
    Concat {
        /// Result width (sum of part widths).
        width: u8,
        /// Parts, most significant first.
        parts: Vec<Expr>,
    },
}

impl Expr {
    /// Bit width of the expression result.
    #[must_use]
    pub fn width(&self, module: &RtlModule) -> u8 {
        match self {
            Expr::Const { width, .. } => *width,
            Expr::Signal(id) => module.signal(*id).width,
            Expr::Slice { msb, lsb, .. } => msb - lsb + 1,
            Expr::Unary { width, .. }
            | Expr::Binary { width, .. }
            | Expr::Mux { width, .. }
            | Expr::Concat { width, .. } => *width,
        }
    }

    /// Collects every signal read by this expression into `out`.
    pub fn collect_signals(&self, out: &mut Vec<SignalId>) {
        match self {
            Expr::Const { .. } => {}
            Expr::Signal(id) => out.push(*id),
            Expr::Slice { signal, .. } => out.push(*signal),
            Expr::Unary { arg, .. } => arg.collect_signals(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_signals(out);
                rhs.collect_signals(out);
            }
            Expr::Mux {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                cond.collect_signals(out);
                then_expr.collect_signals(out);
                else_expr.collect_signals(out);
            }
            Expr::Concat { parts, .. } => {
                for p in parts {
                    p.collect_signals(out);
                }
            }
        }
    }

    /// Number of nodes in the expression tree (complexity metric).
    #[must_use]
    pub fn node_count(&self) -> usize {
        1 + match self {
            Expr::Const { .. } | Expr::Signal(_) | Expr::Slice { .. } => 0,
            Expr::Unary { arg, .. } => arg.node_count(),
            Expr::Binary { lhs, rhs, .. } => lhs.node_count() + rhs.node_count(),
            Expr::Mux {
                cond,
                then_expr,
                else_expr,
                ..
            } => cond.node_count() + then_expr.node_count() + else_expr.node_count(),
            Expr::Concat { parts, .. } => parts.iter().map(Expr::node_count).sum(),
        }
    }
}

/// Bit mask with the lowest `width` bits set.
#[must_use]
pub(crate) fn mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// An elaborated RTL module: signals, continuous assignments in evaluation
/// order, and per-register next-state expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RtlModule {
    pub(crate) name: String,
    pub(crate) signals: Vec<Signal>,
    /// `(target, value)` in a topological order safe for single-pass
    /// evaluation.
    pub(crate) assigns: Vec<(SignalId, Expr)>,
    /// `(register, next_state)`; registers reset to 0.
    pub(crate) registers: Vec<(SignalId, Expr)>,
    /// Lines of source the module was elaborated from.
    pub(crate) source_lines: usize,
}

impl RtlModule {
    /// Module name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All signals in declaration order.
    #[must_use]
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Looks up a signal by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this module.
    #[must_use]
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// Finds a signal by name.
    #[must_use]
    pub fn find_signal(&self, name: &str) -> Option<&Signal> {
        self.signals.iter().find(|s| s.name == name)
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> impl Iterator<Item = &Signal> {
        self.signals.iter().filter(|s| s.kind == SignalKind::Input)
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> impl Iterator<Item = &Signal> {
        self.signals.iter().filter(|s| s.is_output)
    }

    /// Continuous assignments in evaluation order.
    #[must_use]
    pub fn assigns(&self) -> &[(SignalId, Expr)] {
        &self.assigns
    }

    /// Registers with their next-state expressions.
    #[must_use]
    pub fn registers(&self) -> &[(SignalId, Expr)] {
        &self.registers
    }

    /// Total state bits (sum of register widths).
    #[must_use]
    pub fn state_bits(&self) -> usize {
        self.registers
            .iter()
            .map(|(id, _)| usize::from(self.signal(*id).width))
            .sum()
    }
}
