//! Parser for the textual IR format produced by [`printer`](crate::printer).
//!
//! The format is self-describing (result types are explicit), so parsing is
//! a single recursive-descent pass per function preceded by two pre-scans:
//! one that collects module-level declarations (globals and function
//! signatures, so calls can be resolved), and one per function that
//! collects block labels and value definitions (so φ-functions can forward
//! reference both).

use crate::ids::{BlockId, FuncId, GlobalId, Value};
use crate::inst::{BinOp, CopyOrigin, InstKind, Pred};
use crate::module::Module;
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with a 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error was detected on.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Percent,
    At,
    Colon,
    Comma,
    Eq,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Arrow,
    Star,
}

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    line: u32,
}

fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1u32;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // Comment to end of line.
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '%' => {
                chars.next();
                out.push(Spanned { tok: Tok::Percent, line });
            }
            '@' => {
                chars.next();
                out.push(Spanned { tok: Tok::At, line });
            }
            ':' => {
                chars.next();
                out.push(Spanned { tok: Tok::Colon, line });
            }
            ',' => {
                chars.next();
                out.push(Spanned { tok: Tok::Comma, line });
            }
            '=' => {
                chars.next();
                out.push(Spanned { tok: Tok::Eq, line });
            }
            '(' => {
                chars.next();
                out.push(Spanned { tok: Tok::LParen, line });
            }
            ')' => {
                chars.next();
                out.push(Spanned { tok: Tok::RParen, line });
            }
            '[' => {
                chars.next();
                out.push(Spanned { tok: Tok::LBracket, line });
            }
            ']' => {
                chars.next();
                out.push(Spanned { tok: Tok::RBracket, line });
            }
            '{' => {
                chars.next();
                out.push(Spanned { tok: Tok::LBrace, line });
            }
            '}' => {
                chars.next();
                out.push(Spanned { tok: Tok::RBrace, line });
            }
            '*' => {
                chars.next();
                out.push(Spanned { tok: Tok::Star, line });
            }
            '-' => {
                chars.next();
                match chars.peek() {
                    Some('>') => {
                        chars.next();
                        out.push(Spanned { tok: Tok::Arrow, line });
                    }
                    Some(d) if d.is_ascii_digit() => {
                        let mut n = String::from("-");
                        while let Some(&d) = chars.peek() {
                            if d.is_ascii_digit() {
                                n.push(d);
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        let v = n.parse().map_err(|_| ParseError {
                            line,
                            message: format!("invalid integer `{n}`"),
                        })?;
                        out.push(Spanned { tok: Tok::Int(v), line });
                    }
                    _ => {
                        return Err(ParseError { line, message: "stray `-`".into() });
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let mut n = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        n.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v = n
                    .parse()
                    .map_err(|_| ParseError { line, message: format!("invalid integer `{n}`") })?;
                out.push(Spanned { tok: Tok::Int(v), line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut id = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' || d == '.' {
                        id.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Spanned { tok: Tok::Ident(id), line });
            }
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    fn line(&self) -> u32 {
        self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))).map_or(0, |s| s.line)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line(), message: message.into() }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        match self.bump() {
            Some(got) if got == t => Ok(()),
            got => Err(ParseError {
                line: self.toks.get(self.pos - 1).map_or(0, |s| s.line),
                message: format!("expected {t:?}, got {got:?}"),
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            got => Err(ParseError {
                line: self.toks.get(self.pos - 1).map_or(0, |s| s.line),
                message: format!("expected identifier, got {got:?}"),
            }),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let id = self.expect_ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, got `{id}`")))
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(v),
            got => Err(ParseError {
                line: self.toks.get(self.pos - 1).map_or(0, |s| s.line),
                message: format!("expected integer, got {got:?}"),
            }),
        }
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        self.expect_keyword("int")?;
        let mut depth = 0usize;
        while self.peek() == Some(&Tok::Star) {
            self.bump();
            depth += 1;
        }
        // `Type::Ptr` holds the depth in a `u8`.
        match u8::try_from(depth) {
            Ok(0) => Ok(Type::Int),
            Ok(d) => Ok(Type::Ptr(d)),
            Err(_) => Err(self.err(format!("pointer nesting deeper than {}", u8::MAX))),
        }
    }
}

/// Parses the textual format into a [`Module`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax or resolution
/// problem encountered.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut module = Module::new();
    let mut global_ids: HashMap<String, GlobalId> = HashMap::new();
    let mut func_ids: HashMap<String, FuncId> = HashMap::new();

    // Pre-scan: declare globals and function signatures.
    {
        let save = p.pos;
        while p.peek().is_some() {
            match p.peek() {
                Some(Tok::Ident(k)) if k == "global" => {
                    p.bump();
                    p.expect(Tok::At)?;
                    let name = p.expect_ident()?;
                    p.expect(Tok::Colon)?;
                    let ty = p.parse_type()?;
                    p.expect(Tok::LBracket)?;
                    let count = p.expect_int()?;
                    p.expect(Tok::RBracket)?;
                    if count < 0 {
                        return Err(p.err("global size must be non-negative"));
                    }
                    if global_ids.contains_key(&name) {
                        return Err(p.err(format!("duplicate global `@{name}`")));
                    }
                    let id = module.declare_global(name.clone(), ty, count as u32);
                    global_ids.insert(name, id);
                }
                Some(Tok::Ident(k)) if k == "func" => {
                    p.bump();
                    p.expect(Tok::At)?;
                    let name = p.expect_ident()?;
                    if func_ids.contains_key(&name) {
                        return Err(p.err(format!("duplicate function `@{name}`")));
                    }
                    p.expect(Tok::LParen)?;
                    let mut params: Vec<(String, Type)> = Vec::new();
                    while p.peek() != Some(&Tok::RParen) {
                        if !params.is_empty() {
                            p.expect(Tok::Comma)?;
                        }
                        p.expect(Tok::Percent)?;
                        let pname = p.expect_ident()?;
                        p.expect(Tok::Colon)?;
                        let ty = p.parse_type()?;
                        params.push((pname, ty));
                    }
                    p.expect(Tok::RParen)?;
                    let ret_ty = if p.peek() == Some(&Tok::Arrow) {
                        p.bump();
                        Some(p.parse_type()?)
                    } else {
                        None
                    };
                    let id = module.declare_function(
                        name.clone(),
                        params.iter().map(|(n, t)| (n.as_str(), *t)).collect(),
                        ret_ty,
                    );
                    func_ids.insert(name, id);
                    // Skip the body.
                    p.expect(Tok::LBrace)?;
                    let mut depth = 1;
                    while depth > 0 {
                        match p.bump() {
                            Some(Tok::LBrace) => depth += 1,
                            Some(Tok::RBrace) => depth -= 1,
                            Some(_) => {}
                            None => return Err(p.err("unterminated function body")),
                        }
                    }
                }
                _ => return Err(p.err("expected `global` or `func` at top level")),
            }
        }
        p.pos = save;
    }

    // Main pass: fill in bodies.
    while p.peek().is_some() {
        match p.peek() {
            Some(Tok::Ident(k)) if k == "global" => {
                // Already declared; skip the declaration tokens.
                p.bump();
                p.expect(Tok::At)?;
                p.expect_ident()?;
                p.expect(Tok::Colon)?;
                p.parse_type()?;
                p.expect(Tok::LBracket)?;
                p.expect_int()?;
                p.expect(Tok::RBracket)?;
            }
            Some(Tok::Ident(k)) if k == "func" => {
                parse_function_body(&mut p, &mut module, &global_ids, &func_ids)?;
            }
            _ => return Err(p.err("expected `global` or `func` at top level")),
        }
    }
    Ok(module)
}

fn parse_function_body(
    p: &mut Parser,
    module: &mut Module,
    global_ids: &HashMap<String, GlobalId>,
    func_ids: &HashMap<String, FuncId>,
) -> Result<(), ParseError> {
    p.expect_keyword("func")?;
    p.expect(Tok::At)?;
    let name = p.expect_ident()?;
    let fid = func_ids[&name];

    // Re-parse the header to bind parameter names.
    let mut value_names: HashMap<String, Value> = HashMap::new();
    p.expect(Tok::LParen)?;
    let mut idx = 0usize;
    while p.peek() != Some(&Tok::RParen) {
        if idx > 0 {
            p.expect(Tok::Comma)?;
        }
        p.expect(Tok::Percent)?;
        let pname = p.expect_ident()?;
        p.expect(Tok::Colon)?;
        p.parse_type()?;
        value_names.insert(pname, module.function(fid).param_value(idx));
        idx += 1;
    }
    p.expect(Tok::RParen)?;
    if p.peek() == Some(&Tok::Arrow) {
        p.bump();
        p.parse_type()?;
    }
    p.expect(Tok::LBrace)?;

    // Pre-scan the body (up to the matching brace) for labels and defs.
    let body_start = p.pos;
    let mut block_names: HashMap<String, BlockId> = HashMap::new();
    {
        let mut depth = 0usize; // bracket depth for phi incomings
        let mut label_order: Vec<String> = Vec::new();
        let mut defs: Vec<(String, Type)> = Vec::new();
        let mut i = p.pos;
        while i < p.toks.len() {
            match &p.toks[i].tok {
                Tok::RBrace => break,
                Tok::LBracket => depth += 1,
                Tok::RBracket => depth = depth.saturating_sub(1),
                Tok::Ident(id) if depth == 0 => {
                    let prev_is_percent = i > 0 && p.toks[i - 1].tok == Tok::Percent;
                    let next_is_colon = p.toks.get(i + 1).map(|s| &s.tok) == Some(&Tok::Colon);
                    if next_is_colon && !prev_is_percent {
                        label_order.push(id.clone());
                    } else if next_is_colon && prev_is_percent {
                        // `%name: ty =` — a definition. Parse its type in
                        // place (the cursor is restored after the scan).
                        let id = id.clone();
                        p.pos = i + 2;
                        let ty = p.parse_type()?;
                        if p.peek() == Some(&Tok::Eq) {
                            defs.push((id, ty));
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
        // Map labels to blocks: first label is the entry.
        for (k, label) in label_order.iter().enumerate() {
            let bb = if k == 0 {
                module.function(fid).entry()
            } else {
                module.function_mut(fid).add_block()
            };
            if block_names.insert(label.clone(), bb).is_some() {
                return Err(p.err(format!("duplicate block label `{label}`")));
            }
        }
        // Reserve values for all defs (so φs can forward-reference them).
        for (dname, ty) in defs {
            let v = module.function_mut(fid).new_inst(InstKind::Opaque, Some(ty));
            if value_names.insert(dname.clone(), v).is_some() {
                return Err(p.err(format!("duplicate value name `%{dname}`")));
            }
        }
    }
    p.pos = body_start;

    // Parse statements.
    let mut current: Option<BlockId> = None;
    loop {
        match p.peek() {
            Some(Tok::RBrace) => {
                p.bump();
                break;
            }
            Some(Tok::Ident(_)) if p.peek2() == Some(&Tok::Colon) => {
                let label = p.expect_ident()?;
                p.expect(Tok::Colon)?;
                current = Some(block_names[&label]);
            }
            Some(_) => {
                let bb = current.ok_or_else(|| p.err("statement before first block label"))?;
                parse_statement(
                    p,
                    module,
                    fid,
                    bb,
                    &value_names,
                    &block_names,
                    global_ids,
                    func_ids,
                )?;
            }
            None => return Err(p.err("unterminated function body")),
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn parse_statement(
    p: &mut Parser,
    module: &mut Module,
    fid: FuncId,
    bb: BlockId,
    values: &HashMap<String, Value>,
    blocks: &HashMap<String, BlockId>,
    global_ids: &HashMap<String, GlobalId>,
    func_ids: &HashMap<String, FuncId>,
) -> Result<(), ParseError> {
    let value_ref = |p: &mut Parser| -> Result<Value, ParseError> {
        p.expect(Tok::Percent)?;
        let n = p.expect_ident()?;
        values.get(&n).copied().ok_or_else(|| p.err(format!("unknown value `%{n}`")))
    };
    let block_ref = |p: &mut Parser| -> Result<BlockId, ParseError> {
        let n = p.expect_ident()?;
        blocks.get(&n).copied().ok_or_else(|| p.err(format!("unknown block `{n}`")))
    };

    match p.peek() {
        Some(Tok::Percent) => {
            // `%name: ty = expr`
            p.bump();
            let name = p.expect_ident()?;
            // The pre-scan only reserves well-formed `%name: ty =` heads.
            let v = *values
                .get(&name)
                .ok_or_else(|| p.err(format!("malformed definition `%{name}`")))?;
            p.expect(Tok::Colon)?;
            let ty = p.parse_type()?;
            p.expect(Tok::Eq)?;
            let op = p.expect_ident()?;
            let kind = match op.as_str() {
                "const" => InstKind::Const(p.expect_int()?),
                "add" | "sub" | "mul" | "div" | "rem" => {
                    let binop = match op.as_str() {
                        "add" => BinOp::Add,
                        "sub" => BinOp::Sub,
                        "mul" => BinOp::Mul,
                        "div" => BinOp::Div,
                        _ => BinOp::Rem,
                    };
                    let lhs = value_ref(p)?;
                    p.expect(Tok::Comma)?;
                    let rhs = value_ref(p)?;
                    InstKind::Binary { op: binop, lhs, rhs }
                }
                "cmp" => {
                    let pred = match p.expect_ident()?.as_str() {
                        "lt" => Pred::Lt,
                        "le" => Pred::Le,
                        "gt" => Pred::Gt,
                        "ge" => Pred::Ge,
                        "eq" => Pred::Eq,
                        "ne" => Pred::Ne,
                        other => return Err(p.err(format!("unknown predicate `{other}`"))),
                    };
                    let lhs = value_ref(p)?;
                    p.expect(Tok::Comma)?;
                    let rhs = value_ref(p)?;
                    InstKind::Cmp { pred, lhs, rhs }
                }
                "phi" => {
                    let mut incomings = Vec::new();
                    loop {
                        p.expect(Tok::LBracket)?;
                        let b = block_ref(p)?;
                        p.expect(Tok::Colon)?;
                        let v = value_ref(p)?;
                        p.expect(Tok::RBracket)?;
                        incomings.push((b, v));
                        if p.peek() == Some(&Tok::Comma) {
                            p.bump();
                        } else {
                            break;
                        }
                    }
                    InstKind::Phi { incomings }
                }
                "copy" => {
                    let src = value_ref(p)?;
                    let origin = match p.peek() {
                        Some(Tok::Ident(k))
                            if k == "sigma_t" || k == "sigma_f" || k == "subsplit" =>
                        {
                            let k = p.expect_ident()?;
                            p.expect(Tok::LParen)?;
                            let v = value_ref(p)?;
                            p.expect(Tok::RParen)?;
                            match k.as_str() {
                                "sigma_t" => CopyOrigin::SigmaTrue { cmp: v },
                                "sigma_f" => CopyOrigin::SigmaFalse { cmp: v },
                                _ => CopyOrigin::SubSplit { sub: v },
                            }
                        }
                        _ => CopyOrigin::Plain,
                    };
                    InstKind::Copy { src, origin }
                }
                "alloca" => InstKind::Alloca { count: value_ref(p)? },
                "malloc" => InstKind::Malloc { count: value_ref(p)? },
                "globaladdr" => {
                    p.expect(Tok::At)?;
                    let n = p.expect_ident()?;
                    let g = *global_ids
                        .get(&n)
                        .ok_or_else(|| p.err(format!("unknown global `@{n}`")))?;
                    InstKind::GlobalAddr(g)
                }
                "gep" => {
                    let base = value_ref(p)?;
                    p.expect(Tok::Comma)?;
                    let offset = value_ref(p)?;
                    InstKind::Gep { base, offset }
                }
                "load" => InstKind::Load { ptr: value_ref(p)? },
                "call" => parse_call(p, values, func_ids)?,
                "opaque" => InstKind::Opaque,
                other => return Err(p.err(format!("unknown opcode `{other}`"))),
            };
            let f = module.function_mut(fid);
            let data = f.inst_mut(v);
            data.kind = kind;
            data.ty = Some(ty);
            let at = f.block(bb).insts.len();
            f.attach_inst(bb, at, v);
            Ok(())
        }
        Some(Tok::Ident(k)) => match k.as_str() {
            "store" => {
                p.bump();
                let ptr = value_ref(p)?;
                p.expect(Tok::Comma)?;
                let value = value_ref(p)?;
                module.function_mut(fid).append_inst(bb, InstKind::Store { ptr, value }, None);
                Ok(())
            }
            "call" => {
                p.bump();
                let kind = parse_call(p, values, func_ids)?;
                module.function_mut(fid).append_inst(bb, kind, None);
                Ok(())
            }
            "br" => {
                p.bump();
                let cond = value_ref(p)?;
                p.expect(Tok::Comma)?;
                let then_bb = block_ref(p)?;
                p.expect(Tok::Comma)?;
                let else_bb = block_ref(p)?;
                module.function_mut(fid).append_inst(
                    bb,
                    InstKind::Br { cond, then_bb, else_bb },
                    None,
                );
                Ok(())
            }
            "jump" => {
                p.bump();
                let t = block_ref(p)?;
                module.function_mut(fid).append_inst(bb, InstKind::Jump(t), None);
                Ok(())
            }
            "ret" => {
                p.bump();
                let v = if p.peek() == Some(&Tok::Percent) { Some(value_ref(p)?) } else { None };
                module.function_mut(fid).append_inst(bb, InstKind::Ret(v), None);
                Ok(())
            }
            other => Err(p.err(format!("unknown statement `{other}`"))),
        },
        other => Err(p.err(format!("unexpected token {other:?}"))),
    }
}

fn parse_call(
    p: &mut Parser,
    values: &HashMap<String, Value>,
    func_ids: &HashMap<String, FuncId>,
) -> Result<InstKind, ParseError> {
    p.expect(Tok::At)?;
    let n = p.expect_ident()?;
    let callee = *func_ids.get(&n).ok_or_else(|| p.err(format!("unknown function `@{n}`")))?;
    p.expect(Tok::LParen)?;
    let mut args = Vec::new();
    while p.peek() != Some(&Tok::RParen) {
        if !args.is_empty() {
            p.expect(Tok::Comma)?;
        }
        p.expect(Tok::Percent)?;
        let an = p.expect_ident()?;
        let v = values.get(&an).copied().ok_or_else(|| p.err(format!("unknown value `%{an}`")))?;
        args.push(v);
    }
    p.expect(Tok::RParen)?;
    Ok(InstKind::Call { callee, args })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    const SAMPLE: &str = r#"
global @buf: int[16]

func @id(%x: int) -> int {
bb0:
  ret %x
}

func @main() -> int {
bb0:
  %zero: int = const 0
  %one: int = const 1
  %p: int* = globaladdr @buf
  jump bb1
bb1:
  %i: int = phi [bb0: %zero], [bb1: %i2]
  %q: int* = gep %p, %i
  store %q, %i
  %i2: int = add %i, %one
  %c: int = cmp lt %i2, %one
  br %c, bb1, bb2
bb2:
  %r: int = call @id(%i2)
  ret %r
}
"#;

    #[test]
    fn parses_sample() {
        let m = parse_module(SAMPLE).expect("should parse");
        assert_eq!(m.num_functions(), 2);
        assert_eq!(m.num_globals(), 1);
        let main = m.function(m.function_by_name("main").unwrap());
        assert_eq!(main.num_blocks(), 3);
        crate::verifier::verify(&m).expect("sample should verify");
    }

    #[test]
    fn print_parse_round_trip_stabilises() {
        let m = parse_module(SAMPLE).unwrap();
        let p1 = print_module(&m);
        let m1 = parse_module(&p1).expect("printer output should reparse");
        let p2 = print_module(&m1);
        let m2 = parse_module(&p2).unwrap();
        assert_eq!(p2, print_module(&m2), "print∘parse must be idempotent");
    }

    #[test]
    fn forward_phi_reference_and_negative_const() {
        let src = r#"
func @f() -> int {
bb0:
  %a: int = const -5
  jump bb1
bb1:
  %x: int = phi [bb0: %a], [bb1: %y]
  %y: int = add %x, %a
  jump bb1
}
"#;
        let m = parse_module(src).unwrap();
        let f = m.function(m.function_by_name("f").unwrap());
        assert_eq!(f.num_blocks(), 2);
    }

    #[test]
    fn unknown_value_is_an_error() {
        let src = "func @f() {\nbb0:\n  ret %nope\n}\n";
        let e = parse_module(src).unwrap_err();
        assert!(e.message.contains("unknown value"), "{e}");
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let src = "func @f() {\nbb0:\n  jump bb0\nbb0:\n  ret\n}\n";
        let e = parse_module(src).unwrap_err();
        assert!(e.message.contains("duplicate block label"), "{e}");
    }

    /// Inputs the pre-scans read differently from the main pass are
    /// errors, not panics.
    #[test]
    fn malformed_bodies_and_duplicate_names_are_errors() {
        for (src, what) in [
            ("func @f() {\nbb0:\n  %x: int const 0\n  ret\n}\n", "malformed definition"),
            (
                "func @f() {\nbb0:\n  ret\n}\nfunc @f(%a: int) {\nbb0:\n  ret\n}\n",
                "duplicate function",
            ),
            ("global @g: int[1]\nglobal @g: int[2]\n", "duplicate global"),
        ] {
            let e = parse_module(src).unwrap_err();
            assert!(e.message.contains(what), "{src:?}: {e}");
        }
    }

    /// A function whose parameter and return type is `int` followed by
    /// `depth` stars.
    fn deep_pointer_source(depth: usize) -> String {
        let ty = format!("int{}", "*".repeat(depth));
        format!("func @f(%p: {ty}) -> {ty} {{\nbb0:\n  ret %p\n}}\n")
    }

    #[test]
    fn pointer_depth_255_parses_and_round_trips() {
        let m = parse_module(&deep_pointer_source(255)).expect("255 stars fit a u8");
        let f = m.function(m.function_by_name("f").unwrap());
        assert_eq!(f.ret_ty, Some(Type::Ptr(255)));
        let p1 = print_module(&m);
        assert_eq!(print_module(&parse_module(&p1).unwrap()), p1);
    }

    #[test]
    fn pointer_depth_256_is_an_error() {
        let e = parse_module(&deep_pointer_source(256)).unwrap_err();
        assert!(e.message.contains("pointer nesting deeper than 255"), "{e}");
    }

    #[test]
    fn comments_are_skipped() {
        let src = "# header\nfunc @f() {\nbb0: # entry\n  ret\n}\n";
        parse_module(src).unwrap();
    }

    #[test]
    fn copy_origins_round_trip() {
        let src = r#"
func @f(%x: int, %y: int) {
bb0:
  %c: int = cmp lt %x, %y
  br %c, bb1, bb2
bb1:
  %xt: int = copy %x sigma_t(%c)
  ret
bb2:
  %xf: int = copy %x sigma_f(%c)
  %s: int = sub %y, %x
  %ys: int = copy %y subsplit(%s)
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let p1 = print_module(&m);
        assert!(p1.contains("sigma_t("));
        assert!(p1.contains("sigma_f("));
        assert!(p1.contains("subsplit("));
        let m2 = parse_module(&p1).unwrap();
        assert_eq!(print_module(&m2), p1);
    }
}
