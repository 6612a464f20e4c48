//! Abstract syntax tree for PSL.
//!
//! The parser produces a program whose identifier references are
//! *unresolved* ([`ExprKind::Path`], [`Target::Path`]). [`crate::check`]
//! resolves them in place into [`ExprKind::Var`] / [`ExprKind::Load`] /
//! [`Target::Local`] / [`Target::Place`], evaluates all constant
//! expressions (array dimensions, struct field lengths), and assigns local
//! variable slots. Downstream crates may assume a checked program contains
//! no unresolved paths.

use crate::diag::Span;

/// Machine word size in bytes. PSL is a 32-bit-era language: every `int`
/// and every lock occupies one 4-byte word, matching the paper's KSR2-era
/// data layout assumptions.
pub const WORD_BYTES: u32 = 4;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

id_type!(
    /// Index of a global data object or lock in [`Program::objects`].
    ObjId
);
id_type!(
    /// Index of a function in [`Program::funcs`].
    FuncId
);
id_type!(
    /// Index of a struct definition in [`Program::structs`].
    StructId
);
id_type!(
    /// Index of a field within a struct definition.
    FieldId
);

/// A `param` declaration: a compile-time constant bound by the driver
/// (e.g. the number of processes `NPROC`).
#[derive(Debug, Clone)]
pub struct ParamDecl {
    pub name: String,
    /// Default value from the source, if any.
    pub default: Option<i64>,
    /// Bound value; set by `check::bind_params` (falls back to `default`).
    pub value: Option<i64>,
    pub span: Span,
}

/// A `const` definition, evaluated during checking.
#[derive(Debug, Clone)]
pub struct ConstDecl {
    pub name: String,
    pub expr: Expr,
    /// Evaluated value; set during checking.
    pub value: Option<i64>,
    pub span: Span,
}

/// Element type of a data object or struct field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemTy {
    Int,
    Struct(StructId),
}

/// One field of a struct: an `int` scalar or a fixed-length `int` array.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    pub name: String,
    /// Declared length expression for array fields.
    pub len_expr: Option<Expr>,
    /// Resolved length in elements (1 for scalars); set during checking.
    pub len: u32,
    /// Offset of the field within the struct, in words; set during checking.
    pub offset_words: u32,
    pub span: Span,
}

/// A struct type definition. Structs contain only `int` scalar/array
/// fields (the paper's model has no nested aggregates requiring more).
#[derive(Debug, Clone)]
pub struct StructDecl {
    pub name: String,
    pub fields: Vec<FieldDecl>,
    /// Total size in words; set during checking.
    pub size_words: u32,
    pub span: Span,
}

impl StructDecl {
    pub fn field_by_name(&self, name: &str) -> Option<(FieldId, &FieldDecl)> {
        self.fields
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FieldId(i as u32), f))
    }
}

/// What a global object is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// Shared data, visible to all processes at the same addresses.
    SharedData,
    /// Private data: every process gets its own copy.
    PrivateData,
    /// A lock (or array of locks). One word each, shared.
    Lock,
    /// Per-process indirection arena introduced by a transformation; never
    /// written by the parser, only by the layout engine's bookkeeping.
    Arena,
}

/// A global object: shared/private data or a lock (array).
#[derive(Debug, Clone)]
pub struct ObjectDecl {
    pub name: String,
    pub kind: ObjectKind,
    /// Element type (ignored for locks, which are `int`-shaped words).
    pub elem: ElemTy,
    /// Element type name for struct-typed objects, as written in source;
    /// resolved into `elem` during checking.
    pub elem_name: Option<String>,
    /// Dimension expressions, outermost first (0, 1 or 2 of them).
    pub dim_exprs: Vec<Expr>,
    /// Resolved dimensions; set during checking. Scalars have `[]`.
    pub dims: Vec<u32>,
    pub span: Span,
}

impl ObjectDecl {
    /// Total number of elements (product of dims; 1 for scalars).
    pub fn elem_count(&self) -> u64 {
        self.dims.iter().map(|&d| d as u64).product()
    }

    pub fn is_shared(&self) -> bool {
        !matches!(self.kind, ObjectKind::PrivateData)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Built-in functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `prand(x)`: deterministic pseudo-random hash of `x` (splitmix-style),
    /// non-negative. Models data-dependent access patterns reproducibly.
    Prand,
    Min,
    Max,
    Abs,
}

impl Builtin {
    pub fn by_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "prand" => Builtin::Prand,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "abs" => Builtin::Abs,
            _ => return None,
        })
    }

    pub fn arity(self) -> usize {
        match self {
            Builtin::Prand | Builtin::Abs => 1,
            Builtin::Min | Builtin::Max => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Builtin::Prand => "prand",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Abs => "abs",
        }
    }
}

/// A scalar variable reference, resolved by the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarRef {
    /// Function-local slot (includes parameters and loop variables).
    Local(u32),
    /// A `param` (compile-time constant bound at run configuration).
    Param(u32),
    /// A `const`.
    Const(u32),
}

/// Unresolved access path produced by the parser: `base[e1][e2].field[e3]`.
#[derive(Debug, Clone)]
pub struct Path {
    pub base: String,
    pub segs: Vec<PathSeg>,
    pub span: Span,
}

/// One segment of an unresolved path.
#[derive(Debug, Clone)]
pub enum PathSeg {
    Index(Expr),
    Field(String),
}

/// Resolved access path to a memory cell of a global object.
#[derive(Debug, Clone)]
pub struct Place {
    pub obj: ObjId,
    /// One expression per declared dimension.
    pub idx: Vec<Expr>,
    /// For arrays of structs: which field, plus the field-array index if
    /// the field is an array.
    pub field: Option<(FieldId, Option<Box<Expr>>)>,
    pub span: Span,
}

/// Callee of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callee {
    User(FuncId),
    Builtin(Builtin),
}

/// Expression node.
#[derive(Debug, Clone)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

/// Expression kinds. `Path` only appears before checking.
#[derive(Debug, Clone)]
pub enum ExprKind {
    Int(i64),
    /// Unresolved identifier or access path (pre-check only).
    Path(Path),
    /// Resolved scalar variable read.
    Var(VarRef),
    /// Resolved read of a global object element.
    Load(Place),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Call(Callee, Vec<Expr>),
    /// Unresolved call (pre-check only).
    CallNamed(String, Vec<Expr>),
}

impl Expr {
    pub fn int(v: i64, span: Span) -> Expr {
        Expr {
            kind: ExprKind::Int(v),
            span,
        }
    }
}

/// Assignment target.
#[derive(Debug, Clone)]
pub enum Target {
    /// Unresolved (pre-check only).
    Path(Path),
    /// Local scalar slot.
    Local(u32),
    /// Global object element.
    Place(Place),
}

/// Statement node.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `var x;` or `var x = e;` — declares a private local scalar.
    VarDecl {
        name: String,
        init: Option<Expr>,
        /// Local slot; set during checking.
        slot: u32,
    },
    Assign {
        target: Target,
        value: Expr,
    },
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    While {
        cond: Expr,
        body: Block,
    },
    /// `for v in lo .. hi step s { .. }`; iterates while `v < hi`
    /// (or `v > hi` for negative step).
    For {
        var: String,
        slot: u32,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Block,
    },
    /// `forall v in lo .. hi { .. }` — spawns one process per value.
    /// Allowed exactly once, in `main`, at the top level of its body.
    Forall {
        var: String,
        slot: u32,
        lo: Expr,
        hi: Expr,
        body: Block,
    },
    Barrier {
        /// Sequential index of this barrier statement in the program;
        /// set during checking. Used by phase analysis.
        id: u32,
    },
    /// `lock(l);` / `unlock(l);`
    Lock {
        target: Target,
    },
    Unlock {
        target: Target,
    },
    /// Call for effect.
    CallStmt {
        callee: Option<Callee>,
        name: String,
        args: Vec<Expr>,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Block),
}

/// A `{ .. }` block.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// A function definition. All parameters are `int`.
#[derive(Debug, Clone)]
pub struct Func {
    pub name: String,
    pub params: Vec<String>,
    pub body: Block,
    /// Total local slots (params first); set during checking.
    pub num_slots: u32,
    /// Source name of each local slot (params first); set during checking.
    /// Names may repeat when disjoint scopes reuse an identifier.
    pub slot_names: Vec<String>,
    /// Whether any `return e;` with a value occurs; set during checking.
    pub returns_value: bool,
    pub span: Span,
}

/// A full PSL program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub params: Vec<ParamDecl>,
    pub consts: Vec<ConstDecl>,
    pub structs: Vec<StructDecl>,
    pub objects: Vec<ObjectDecl>,
    pub funcs: Vec<Func>,
    /// Index of `main`; set during checking.
    pub main: Option<FuncId>,
    /// Number of `barrier` statements; set during checking.
    pub num_barriers: u32,
}

impl Program {
    pub fn object(&self, id: ObjId) -> &ObjectDecl {
        &self.objects[id.index()]
    }

    pub fn func(&self, id: FuncId) -> &Func {
        &self.funcs[id.index()]
    }

    pub fn struct_(&self, id: StructId) -> &StructDecl {
        &self.structs[id.index()]
    }

    pub fn object_by_name(&self, name: &str) -> Option<(ObjId, &ObjectDecl)> {
        self.objects
            .iter()
            .enumerate()
            .find(|(_, o)| o.name == name)
            .map(|(i, o)| (ObjId(i as u32), o))
    }

    pub fn func_by_name(&self, name: &str) -> Option<(FuncId, &Func)> {
        self.funcs
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    pub fn struct_by_name(&self, name: &str) -> Option<(StructId, &StructDecl)> {
        self.structs
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == name)
            .map(|(i, s)| (StructId(i as u32), s))
    }

    pub fn param_value(&self, name: &str) -> Option<i64> {
        self.params.iter().find(|p| p.name == name)?.value
    }

    /// All shared data objects and locks (everything coherence applies to).
    pub fn shared_objects(&self) -> impl Iterator<Item = (ObjId, &ObjectDecl)> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_shared())
            .map(|(i, o)| (ObjId(i as u32), o))
    }

    /// Size in words of one element of the given element type.
    pub fn elem_words(&self, ty: ElemTy) -> u32 {
        match ty {
            ElemTy::Int => 1,
            ElemTy::Struct(sid) => self.struct_(sid).size_words,
        }
    }

    /// The `forall` statement of `main`: `(pdv name, slot, lo, hi, body)`.
    /// Panics if called on an unchecked program without a forall.
    pub fn forall(&self) -> Option<(&str, u32, &Expr, &Expr, &Block)> {
        let main = self.func(self.main?);
        for s in &main.body.stmts {
            if let StmtKind::Forall {
                var,
                slot,
                lo,
                hi,
                body,
            } = &s.kind
            {
                return Some((var, *slot, lo, hi, body));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_count_of_scalar_is_one() {
        let o = ObjectDecl {
            name: "x".into(),
            kind: ObjectKind::SharedData,
            elem: ElemTy::Int,
            elem_name: None,
            dim_exprs: vec![],
            dims: vec![],
            span: Span::default(),
        };
        assert_eq!(o.elem_count(), 1);
    }

    #[test]
    fn elem_count_multiplies_dims() {
        let o = ObjectDecl {
            name: "a".into(),
            kind: ObjectKind::SharedData,
            elem: ElemTy::Int,
            elem_name: None,
            dim_exprs: vec![],
            dims: vec![3, 5],
            span: Span::default(),
        };
        assert_eq!(o.elem_count(), 15);
    }

    #[test]
    fn builtin_lookup() {
        assert_eq!(Builtin::by_name("prand"), Some(Builtin::Prand));
        assert_eq!(Builtin::by_name("min").unwrap().arity(), 2);
        assert_eq!(Builtin::by_name("frobnicate"), None);
    }

    #[test]
    fn private_objects_are_not_shared() {
        let o = ObjectDecl {
            name: "p".into(),
            kind: ObjectKind::PrivateData,
            elem: ElemTy::Int,
            elem_name: None,
            dim_exprs: vec![],
            dims: vec![4],
            span: Span::default(),
        };
        assert!(!o.is_shared());
    }
}
