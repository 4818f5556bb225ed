//! Lowering parsed function bodies to small control-flow graphs of
//! flat, register-like instructions.
//!
//! Every nested expression is flattened onto a fresh temporary so the
//! taint dataflow in [`crate::taint`] only ever reasons about four
//! instruction shapes: `Copy` (value built from other values), `Call`
//! (named call with receiver/args), `Cast` (with an address-of marker
//! for `&x as *const _ as usize` laundering), and `Ret`. Control flow
//! becomes ordinary block successors: `if`/`match` fork and join,
//! loops carry a back edge so taint circulates to fixpoint.

use crate::parse::{Arm, Block, Expr, FnDef, Stmt};

/// A value slot the dataflow tracks.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rv {
    /// Named local / parameter.
    Var(String),
    /// Compiler temporary.
    Tmp(u32),
    /// Multi-segment constant path (`Ordering::Relaxed`): never
    /// tainted, but inspected by source rules.
    Const(String),
}

#[derive(Debug, Clone)]
pub enum Instr {
    /// `dst` receives the union of `srcs` (binops, tuples, fields,
    /// struct literals, pattern destructuring).
    Copy { dst: Rv, srcs: Vec<Rv>, line: u32 },
    /// A named call. `name` is the last path segment (`now`), `full`
    /// the joined path (`Instant::now`) or the method name again.
    Call {
        dst: Rv,
        name: String,
        full: String,
        recv: Option<Rv>,
        args: Vec<Rv>,
        line: u32,
        is_method: bool,
    },
    /// `dst = src as ty`; `addr_like` records that the source was
    /// syntactically an address (`&e`, a prior pointer cast, or an
    /// `as_ptr()` result).
    Cast {
        dst: Rv,
        src: Rv,
        ty: String,
        addr_like: bool,
        line: u32,
    },
    /// Function return (explicit or tail).
    Ret { src: Option<Rv>, line: u32 },
}

#[derive(Debug, Clone, Default)]
pub struct BasicBlock {
    pub instrs: Vec<Instr>,
    pub succs: Vec<usize>,
}

/// One function's CFG.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub name: String,
    pub qual: String,
    pub params: Vec<String>,
    pub blocks: Vec<BasicBlock>,
    pub line: u32,
    pub in_test: bool,
}

impl Cfg {
    pub const ENTRY: usize = 0;

    /// A method takes `self` as parameter 0.
    pub fn is_method(&self) -> bool {
        self.params.first().is_some_and(|p| p == "self")
    }
}

/// Lower one parsed function.
pub fn lower_fn(f: &FnDef) -> Cfg {
    let mut b = Builder {
        blocks: vec![BasicBlock::default()],
        cur: 0,
        next_tmp: 0,
    };
    let ret = b.lower_block(&f.body);
    let line = f.line;
    b.push(Instr::Ret { src: ret, line });
    Cfg {
        name: f.name.clone(),
        qual: f.qual.clone(),
        params: f.params.clone(),
        blocks: b.blocks,
        line,
        in_test: f.in_test,
    }
}

struct Builder {
    blocks: Vec<BasicBlock>,
    cur: usize,
    next_tmp: u32,
}

impl Builder {
    fn push(&mut self, i: Instr) {
        self.blocks[self.cur].instrs.push(i);
    }

    fn tmp(&mut self) -> Rv {
        self.next_tmp += 1;
        Rv::Tmp(self.next_tmp)
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    /// Lower a block's statements in the current basic block (which
    /// may change across control flow); returns the tail value.
    fn lower_block(&mut self, blk: &Block) -> Option<Rv> {
        for stmt in &blk.stmts {
            match stmt {
                Stmt::Let { names, init, line } => {
                    let src = init.as_ref().map(|e| self.lower_expr(e));
                    if let Some(src) = src {
                        for n in names {
                            self.push(Instr::Copy {
                                dst: Rv::Var(n.clone()),
                                srcs: vec![src.clone()],
                                line: *line,
                            });
                        }
                    }
                }
                Stmt::Assign {
                    target,
                    value,
                    line,
                } => {
                    let src = self.lower_expr(value);
                    let dst = self.assign_target(target);
                    self.push(Instr::Copy {
                        dst,
                        srcs: vec![src],
                        line: *line,
                    });
                }
                Stmt::Expr(e) => {
                    let _ = self.lower_expr(e);
                }
                Stmt::Return(e, line) => {
                    let src = e.as_ref().map(|e| self.lower_expr(e));
                    self.push(Instr::Ret { src, line: *line });
                }
            }
        }
        blk.tail.as_ref().map(|e| self.lower_expr(e))
    }

    /// The variable an assignment writes through: `x`, `x.field`,
    /// `x[i]`, `*x` all resolve to the base variable `x` so taint
    /// written into a field taints the whole value (field-insensitive,
    /// conservative).
    fn assign_target(&mut self, e: &Expr) -> Rv {
        match e {
            Expr::Path { segs, .. } if segs.len() == 1 => Rv::Var(segs[0].clone()),
            Expr::Field { base, .. } => self.assign_target(base),
            Expr::Index { base, .. } => self.assign_target(base),
            Expr::Ref { inner } => self.assign_target(inner),
            Expr::Opaque(children) if children.len() == 1 => self.assign_target(&children[0]),
            _ => self.tmp(),
        }
    }

    /// Is this expression syntactically an address-of / pointer value?
    /// Drives the `addr_like` flag on casts.
    fn is_addrish(e: &Expr) -> bool {
        match e {
            Expr::Ref { .. } => true,
            Expr::Cast { inner, ty, .. } => {
                // `x as *const T as usize`: the inner cast to a pointer
                // type (`*T`, or `_` inferred in pointer position)
                // makes the outer cast address-like.
                ty == "_" || ty.starts_with('*') || Self::is_addrish(inner)
            }
            Expr::Method { name, .. } => {
                matches!(name.as_str(), "as_ptr" | "as_mut_ptr")
            }
            Expr::Call { path, .. } => {
                let last = path.last().map(String::as_str).unwrap_or("");
                matches!(last, "addr_of" | "addr_of_mut" | "from_ref" | "from_mut")
            }
            Expr::Opaque(children) if children.len() == 1 => Self::is_addrish(&children[0]),
            _ => false,
        }
    }

    fn lower_expr(&mut self, e: &Expr) -> Rv {
        match e {
            Expr::Path { segs, .. } => {
                if segs.len() == 1 {
                    Rv::Var(segs[0].clone())
                } else {
                    Rv::Const(segs.join("::"))
                }
            }
            Expr::Lit => {
                let t = self.tmp();
                // No Copy needed: an unseen Rv is untainted by default.
                t
            }
            Expr::Ref { inner } => self.lower_expr(inner),
            Expr::Bin { parts } | Expr::Tuple(parts) | Expr::Opaque(parts) => {
                let srcs: Vec<Rv> = parts.iter().map(|p| self.lower_expr(p)).collect();
                let dst = self.tmp();
                let line = first_line(e);
                self.push(Instr::Copy {
                    dst: dst.clone(),
                    srcs,
                    line,
                });
                dst
            }
            Expr::Field { base, line, .. } => {
                let src = self.lower_expr(base);
                let dst = self.tmp();
                self.push(Instr::Copy {
                    dst: dst.clone(),
                    srcs: vec![src],
                    line: *line,
                });
                dst
            }
            Expr::Index { base, idx } => {
                let b = self.lower_expr(base);
                let i = self.lower_expr(idx);
                let dst = self.tmp();
                self.push(Instr::Copy {
                    dst: dst.clone(),
                    srcs: vec![b, i],
                    line: 0,
                });
                dst
            }
            Expr::StructLit { fields, line, .. } => {
                let srcs: Vec<Rv> = fields.iter().map(|f| self.lower_expr(f)).collect();
                let dst = self.tmp();
                self.push(Instr::Copy {
                    dst: dst.clone(),
                    srcs,
                    line: *line,
                });
                dst
            }
            Expr::Cast { inner, ty, line } => {
                let addr_like = Self::is_addrish(inner);
                let src = self.lower_expr(inner);
                let dst = self.tmp();
                self.push(Instr::Cast {
                    dst: dst.clone(),
                    src,
                    ty: ty.clone(),
                    addr_like,
                    line: *line,
                });
                dst
            }
            Expr::Call { path, args, line } => {
                let arg_rvs = self.lower_args(None, args);
                let dst = self.tmp();
                let name = path.last().cloned().unwrap_or_default();
                self.push(Instr::Call {
                    dst: dst.clone(),
                    name,
                    full: path.join("::"),
                    recv: None,
                    args: arg_rvs,
                    line: *line,
                    is_method: false,
                });
                dst
            }
            Expr::Method {
                recv,
                name,
                args,
                line,
            } => {
                let recv_rv = self.lower_expr(recv);
                let arg_rvs = self.lower_args(Some(&recv_rv), args);
                let dst = self.tmp();
                self.push(Instr::Call {
                    dst: dst.clone(),
                    name: name.clone(),
                    full: name.clone(),
                    recv: Some(recv_rv),
                    args: arg_rvs,
                    line: *line,
                    is_method: true,
                });
                dst
            }
            Expr::BlockExpr(b) => {
                let v = self.lower_block(b);
                v.unwrap_or_else(|| self.tmp())
            }
            Expr::If { cond, then, els } => {
                let _c = self.lower_expr(cond);
                let before = self.cur;
                let result = self.tmp();

                let then_start = self.new_block();
                self.edge(before, then_start);
                self.cur = then_start;
                let tv = self.lower_block(then);
                if let Some(tv) = tv {
                    self.push(Instr::Copy {
                        dst: result.clone(),
                        srcs: vec![tv],
                        line: 0,
                    });
                }
                let then_end = self.cur;

                let join = self.new_block();
                self.edge(then_end, join);

                if let Some(els) = els {
                    let else_start = self.new_block();
                    self.edge(before, else_start);
                    self.cur = else_start;
                    let ev = self.lower_expr(els);
                    self.push(Instr::Copy {
                        dst: result.clone(),
                        srcs: vec![ev],
                        line: 0,
                    });
                    let else_end = self.cur;
                    self.edge(else_end, join);
                } else {
                    self.edge(before, join);
                }
                self.cur = join;
                result
            }
            Expr::Match { scrut, arms } => {
                let s = self.lower_expr(scrut);
                let before = self.cur;
                let result = self.tmp();
                let join = self.new_block();
                if arms.is_empty() {
                    self.edge(before, join);
                }
                for Arm { binds, body } in arms {
                    let arm_start = self.new_block();
                    self.edge(before, arm_start);
                    self.cur = arm_start;
                    for b in binds {
                        self.push(Instr::Copy {
                            dst: Rv::Var(b.clone()),
                            srcs: vec![s.clone()],
                            line: first_line(body),
                        });
                    }
                    let av = self.lower_expr(body);
                    self.push(Instr::Copy {
                        dst: result.clone(),
                        srcs: vec![av],
                        line: 0,
                    });
                    let arm_end = self.cur;
                    self.edge(arm_end, join);
                }
                self.cur = join;
                result
            }
            Expr::Loop { binds, iter, body } => {
                let iter_rv = iter.as_ref().map(|i| self.lower_expr(i));
                let before = self.cur;
                let head = self.new_block();
                self.edge(before, head);
                self.cur = head;
                if let Some(iter_rv) = &iter_rv {
                    for b in binds {
                        self.push(Instr::Copy {
                            dst: Rv::Var(b.clone()),
                            srcs: vec![iter_rv.clone()],
                            line: 0,
                        });
                    }
                }
                let body_start = self.new_block();
                self.edge(head, body_start);
                self.cur = body_start;
                let _ = self.lower_block(body);
                let body_end = self.cur;
                // Back edge: taint written in the body flows around.
                self.edge(body_end, head);
                let exit = self.new_block();
                self.edge(head, exit);
                self.cur = exit;
                self.tmp()
            }
            Expr::Closure { params, body } => {
                // Lowered inline: the closure reads outer locals
                // directly; parameters become ordinary variables that
                // the *call site* may seed (see `lower_args`).
                let _ = params;
                let v = self.lower_expr(body);
                let dst = self.tmp();
                self.push(Instr::Copy {
                    dst: dst.clone(),
                    srcs: vec![v],
                    line: first_line(body),
                });
                dst
            }
            Expr::Ret { value, line } => {
                let src = value.as_ref().map(|v| self.lower_expr(v));
                self.push(Instr::Ret { src, line: *line });
                self.tmp()
            }
        }
    }

    /// Lower call arguments. Closure arguments to a *method* call get
    /// their parameters seeded from the receiver first, approximating
    /// `v.iter().map(|x| ...)`: whatever taints `v` taints `x`.
    fn lower_args(&mut self, recv: Option<&Rv>, args: &[Expr]) -> Vec<Rv> {
        let mut out = Vec::with_capacity(args.len());
        for a in args {
            if let Expr::Closure { params, body } = a {
                if let Some(recv) = recv {
                    for p in params {
                        self.push(Instr::Copy {
                            dst: Rv::Var(p.clone()),
                            srcs: vec![recv.clone()],
                            line: first_line(body),
                        });
                    }
                }
                let v = self.lower_expr(body);
                out.push(v);
            } else {
                out.push(self.lower_expr(a));
            }
        }
        out
    }
}

/// Best-effort source line of an expression, for hop reporting.
pub fn first_line(e: &Expr) -> u32 {
    match e {
        Expr::Path { line, .. }
        | Expr::Call { line, .. }
        | Expr::Method { line, .. }
        | Expr::Cast { line, .. }
        | Expr::Field { line, .. }
        | Expr::StructLit { line, .. }
        | Expr::Ret { line, .. } => *line,
        Expr::Ref { inner } => first_line(inner),
        Expr::Bin { parts } | Expr::Tuple(parts) | Expr::Opaque(parts) => {
            parts.first().map_or(0, first_line)
        }
        Expr::Index { base, .. } => first_line(base),
        Expr::If { cond, .. } => first_line(cond),
        Expr::Match { scrut, .. } => first_line(scrut),
        Expr::Loop { iter, body, .. } => iter
            .as_ref()
            .map(|i| first_line(i))
            .or_else(|| body.tail.as_ref().map(first_line))
            .unwrap_or(0),
        Expr::Closure { body, .. } => first_line(body),
        Expr::BlockExpr(b) => b.tail.as_ref().map_or(0, first_line),
        Expr::Lit => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn cfg_of(src: &str) -> Cfg {
        let fns = parse_file(&lex(src));
        assert_eq!(fns.len(), 1, "{fns:#?}");
        lower_fn(&fns[0])
    }

    fn all_instrs(c: &Cfg) -> Vec<&Instr> {
        c.blocks.iter().flat_map(|b| b.instrs.iter()).collect()
    }

    #[test]
    fn straight_line_lowering_produces_calls_and_copies() {
        let c = cfg_of("fn f() -> u64 { let t = clock(); let u = t.as_nanos(); u }");
        let instrs = all_instrs(&c);
        let calls: Vec<_> = instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Call { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(calls, vec!["clock", "as_nanos"]);
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::Ret { src: Some(_), .. })));
    }

    #[test]
    fn if_else_forks_and_joins() {
        let c = cfg_of("fn f(a: bool) -> u64 { if a { 1 } else { 2 } }");
        // entry + then + join + else = 4 blocks, entry has 2 succs.
        assert!(c.blocks.len() >= 4, "{c:#?}");
        assert_eq!(c.blocks[Cfg::ENTRY].succs.len(), 2);
    }

    #[test]
    fn loops_have_back_edges() {
        let c = cfg_of("fn f(v: Vec<u64>) { for x in v { g(x); } }");
        let has_back_edge = c
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.succs.iter().any(|&s| s <= i));
        assert!(has_back_edge, "{c:#?}");
    }

    #[test]
    fn addr_cast_is_marked() {
        let c = cfg_of("fn f(x: &u64) -> usize { &x as *const _ as usize }");
        let addr = all_instrs(&c)
            .into_iter()
            .any(|i| matches!(i, Instr::Cast { addr_like: true, ty, .. } if ty == "usize"));
        assert!(addr, "{c:#?}");
    }

    #[test]
    fn closure_params_seed_from_receiver() {
        let c = cfg_of("fn f(v: Vec<u64>) -> u64 { v.iter().map(|x| x + 1).sum() }");
        // The copy `x <- (iter result)` must exist.
        let seeded = all_instrs(&c)
            .into_iter()
            .any(|i| matches!(i, Instr::Copy { dst: Rv::Var(n), .. } if n == "x"));
        assert!(seeded, "{c:#?}");
    }
}
