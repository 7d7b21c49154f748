//! A tolerant recursive-descent parser over the lexer's token stream.
//!
//! This is deliberately *not* a full Rust parser: it covers the subset
//! this workspace actually writes — items, blocks, `let` statements,
//! postfix call chains, `if`/`match`/loops, closures, `async` blocks,
//! `.await`, and `?` — and collapses everything it does not model
//! (operators, types, patterns) into token skips that preserve source
//! order. The rules never need types: they need *which calls happen in
//! which order on which control-flow paths*, and that is exactly what
//! this tree keeps — a line number only where a finding can anchor (a
//! call, a `return`, a `?`).
//!
//! The parser is total: malformed or unmodeled input degrades into
//! skipped tokens, never a panic or a hang (every loop advances the
//! cursor). Fixture tests pin the shapes the rules depend on.

use crate::lexer::{Lexed, TokKind, Token};

/// One parsed function (free, inherent, trait-default, or nested),
/// flattened out of its surrounding items.
#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    /// True when the `fn` token sits inside a `#[cfg(test)]`/`#[test]`
    /// region (from the lexer's token marks).
    pub in_test: bool,
    pub body: Block,
}

/// `{ ... }` — a sequence of statements.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

#[derive(Debug)]
pub enum Stmt {
    /// `let <pat> [= init] [else { .. }];`
    Let {
        init: Option<Expr>,
        else_block: Option<Block>,
    },
    /// An expression statement (with or without `;`).
    Expr(Expr),
}

/// An expression as an ordered sequence of effect-carrying nodes.
/// Operators between nodes are dropped; source order is preserved.
#[derive(Debug, Default)]
pub struct Expr {
    pub nodes: Vec<Node>,
}

#[derive(Debug)]
pub enum Node {
    Chain(Chain),
    If {
        cond: Expr,
        then: Block,
        /// `Node::BlockExpr` for `else { }`, `Node::If` for `else if`.
        else_: Option<Box<Node>>,
    },
    Match {
        scrutinee: Expr,
        arms: Vec<Arm>,
    },
    Loop {
        body: Block,
    },
    While {
        cond: Expr,
        body: Block,
    },
    For {
        iter: Expr,
        body: Block,
    },
    /// `{ }`, `unsafe { }`, or `async { }` / `async move { }`.
    BlockExpr(Block),
    /// `|..| body` / `move |..| body` — called (for this workspace's
    /// idioms) synchronously at the use site.
    Closure(Box<Expr>),
    Return {
        value: Option<Expr>,
        line: u32,
    },
    Break,
    Continue,
    Macro {
        name: String,
        inner: Option<Expr>,
    },
}

/// `base[::seg]* (postfix-op)*` — a path plus its postfix operations in
/// source order. A parenthesized group base keeps its interior
/// expression.
#[derive(Debug, Default)]
pub struct Chain {
    pub base: Vec<String>,
    pub base_group: Option<Box<Expr>>,
    pub ops: Vec<Op>,
    pub line: u32,
}

#[derive(Debug)]
pub enum Op {
    /// `.name(args)`
    Method {
        name: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `(args)` directly on the base path (function/variant call).
    CallArgs(Vec<Expr>),
    /// `.name` (no call).
    Field(String),
    /// `[index]`
    Index(Expr),
    /// `.await`
    Await,
    /// `?`
    Try { line: u32 },
    /// `Path { field: expr, .. }` — the field-value expressions.
    StructLit(Vec<Expr>),
}

#[derive(Debug)]
pub struct Arm {
    pub guard: Option<Expr>,
    pub body: Expr,
}

/// Parses every function in a lexed file.
pub fn parse(lexed: &Lexed) -> Vec<FnDef> {
    let mut p = Parser {
        toks: &lexed.tokens,
        in_test: &lexed.in_test,
        pos: 0,
        fns: Vec::new(),
        depth: 0,
        stmt_pos: false,
    };
    p.parse_items();
    p.fns
}

struct Parser<'a> {
    toks: &'a [Token],
    in_test: &'a [bool],
    pos: usize,
    fns: Vec<FnDef>,
    /// Expression recursion depth, bounded to keep pathological input
    /// from overflowing the stack.
    depth: u32,
    /// Set (for one `parse_expr` call) when parsing starts at statement
    /// position, where Rust terminates a leading block-ended expression
    /// (`if`/`match`/loops/blocks) instead of continuing the expression.
    stmt_pos: bool,
}

const MAX_DEPTH: u32 = 200;

impl<'a> Parser<'a> {
    // -- cursor helpers ------------------------------------------------

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&Token> {
        self.toks.get(self.pos + off)
    }

    fn text(&self) -> &str {
        self.peek().map_or("", |t| t.text.as_str())
    }

    fn text_at(&self, off: usize) -> &str {
        self.peek_at(off).map_or("", |t| t.text.as_str())
    }

    fn line(&self) -> u32 {
        self.peek().map_or(0, |t| t.line)
    }

    fn is_ident(&self) -> bool {
        self.peek().is_some_and(|t| t.kind == TokKind::Ident)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.text() == s {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Skips a balanced bracket group starting at the current `(`/`[`/`{`.
    fn skip_balanced(&mut self) {
        let (open, close) = match self.text() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => {
                self.bump();
                return;
            }
        };
        let mut depth = 0i32;
        while !self.at_end() {
            let t = self.text();
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Skips an attribute `#[...]` / `#![...]` at the cursor.
    fn skip_attr(&mut self) {
        self.bump(); // '#'
        self.eat("!");
        if self.text() == "[" {
            self.skip_balanced();
        }
    }

    // -- items ---------------------------------------------------------

    /// Scans the whole token stream for `fn` items, descending into
    /// `impl`/`mod`/`trait` bodies and function bodies (nested fns).
    fn parse_items(&mut self) {
        while !self.at_end() {
            let before = self.pos;
            if self.text() == "#" {
                self.skip_attr();
            } else if self.text() == "fn"
                && self.peek_at(1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                self.parse_fn();
            } else if self.is_ident() || self.text() == "{" {
                // `impl`/`mod`/`trait` bodies are brace groups we simply
                // descend into; anything else advances one token. (Struct
                // and enum bodies contain no `fn` tokens, so descending
                // into every brace group is safe.)
                self.bump();
            } else {
                self.bump();
            }
            if self.pos == before {
                self.bump();
            }
        }
    }

    /// Parses `fn name … { body }` with the cursor on `fn`. Leaves the
    /// cursor after the body (or the `;` of a bodyless declaration).
    fn parse_fn(&mut self) {
        let in_test = self.in_test.get(self.pos).copied().unwrap_or(false);
        self.bump(); // fn
        let name = self.text().to_string();
        self.bump(); // name
                     // Signature: skip to the body `{` or a `;` at bracket depth 0.
                     // (Generics, params, return types and `where` clauses contain no
                     // braces in this workspace's subset.)
        let mut depth = 0i32;
        while !self.at_end() {
            match self.text() {
                "(" | "[" => {
                    depth += 1;
                    self.bump();
                }
                ")" | "]" => {
                    depth -= 1;
                    self.bump();
                }
                "{" if depth == 0 => break,
                ";" if depth == 0 => {
                    self.bump(); // trait declaration without a body
                    return;
                }
                _ => self.bump(),
            }
        }
        if self.text() != "{" {
            return; // ran off the end; tolerate
        }
        let body = self.parse_block();
        self.fns.push(FnDef {
            name,
            in_test,
            body,
        });
    }

    // -- blocks & statements --------------------------------------------

    /// Parses `{ stmt* }` with the cursor on `{`.
    fn parse_block(&mut self) -> Block {
        let mut block = Block::default();
        if !self.eat("{") {
            return block;
        }
        while !self.at_end() && self.text() != "}" {
            let before = self.pos;
            self.parse_stmt_into(&mut block);
            if self.pos == before {
                self.bump(); // always make progress
            }
        }
        self.eat("}");
        block
    }

    fn parse_stmt_into(&mut self, block: &mut Block) {
        match self.text() {
            ";" => {
                self.bump();
            }
            "#" => self.skip_attr(),
            "let" => {
                let stmt = self.parse_let();
                block.stmts.push(stmt);
            }
            "fn" => self.parse_fn(),
            "pub" | "struct" | "enum" | "use" | "mod" | "impl" | "trait" | "const" | "static"
            | "type" | "macro_rules" | "union" => {
                // An item statement. `pub`/`const` may prefix a nested fn;
                // scan the modifier run for `fn`, otherwise skip the item.
                let mut j = self.pos;
                let mut saw_fn = false;
                while j < self.toks.len() && j < self.pos + 6 {
                    match self.toks[j].text.as_str() {
                        "fn" => {
                            saw_fn = true;
                            break;
                        }
                        "pub" | "crate" | "(" | ")" | "const" | "async" | "unsafe" | "extern" => {
                            j += 1
                        }
                        _ => break,
                    }
                }
                if saw_fn {
                    self.pos = j;
                    self.parse_fn();
                } else {
                    self.skip_item();
                }
            }
            _ => {
                self.stmt_pos = true;
                let expr = self.parse_expr(&[";", "}"], true);
                self.eat(";");
                if !expr.nodes.is_empty() {
                    block.stmts.push(Stmt::Expr(expr));
                }
            }
        }
    }

    /// Skips a non-fn item statement: to the first `;` at depth 0, or
    /// past its balanced `{ … }` body, whichever comes first.
    fn skip_item(&mut self) {
        while !self.at_end() {
            match self.text() {
                ";" => {
                    self.bump();
                    return;
                }
                "{" => {
                    self.skip_balanced();
                    return;
                }
                "(" | "[" => self.skip_balanced(),
                _ => self.bump(),
            }
        }
    }

    /// `let [mut] pat [: ty] [= init [else { }]] ;` with cursor on `let`.
    fn parse_let(&mut self) -> Stmt {
        self.bump(); // let
                     // Pattern: skip to `=`, `:`, or `;` at bracket depth 0 (`==`
                     // cannot appear in a pattern).
        let mut depth = 0i32;
        while !self.at_end() {
            let t = self.text();
            match t {
                "(" | "[" | "{" | "<" => {
                    depth += 1;
                    self.bump();
                }
                ")" | "]" | "}" | ">" => {
                    depth -= 1;
                    self.bump();
                }
                "=" | ":" | ";" if depth == 0 => break,
                _ => self.bump(),
            }
        }
        // Optional type annotation: skip to `=` or `;` tracking angle
        // depth (`Box<dyn Iterator<Item = u8>>` has `=` inside `<>`).
        if self.text() == ":" {
            self.bump();
            let mut angle = 0i32;
            let mut depth = 0i32;
            while !self.at_end() {
                match self.text() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "=" | ";" if angle <= 0 && depth <= 0 => break,
                    _ => {}
                }
                self.bump();
            }
        }
        let mut init = None;
        let mut else_block = None;
        if self.eat("=") {
            init = Some(self.parse_expr(&[";", "else", "}"], true));
            if self.eat("else") {
                else_block = Some(self.parse_block());
            }
        }
        self.eat(";");
        Stmt::Let { init, else_block }
    }

    // -- expressions -----------------------------------------------------

    /// Parses an expression as an ordered node sequence, stopping at any
    /// of `terminators` at bracket depth 0 (the terminator itself is not
    /// consumed). `structs_ok` is false in `if`/`while`/`match` headers,
    /// where a top-level `{` terminates the expression instead of being a
    /// struct literal.
    fn parse_expr(&mut self, terminators: &[&str], structs_ok: bool) -> Expr {
        self.depth += 1;
        let expr = if self.depth > MAX_DEPTH {
            self.bump();
            Expr::default()
        } else {
            self.parse_expr_inner(terminators, structs_ok)
        };
        self.depth -= 1;
        expr
    }

    fn parse_expr_inner(&mut self, terminators: &[&str], structs_ok: bool) -> Expr {
        let stmt_pos = std::mem::take(&mut self.stmt_pos);
        let mut expr = Expr::default();
        // Whether the previous token ended an operand (controls closure
        // `|` detection and struct-literal `{` attachment).
        let mut prev_operand = false;
        while !self.at_end() {
            let t = self.text();
            if terminators.contains(&t) {
                break;
            }
            let before = self.pos;
            match t {
                "}" | ")" | "]" | "," => break, // unbalanced close: caller's
                "if" => {
                    expr.nodes.push(self.parse_if());
                    prev_operand = true;
                }
                "match" => {
                    expr.nodes.push(self.parse_match());
                    prev_operand = true;
                }
                "loop" => {
                    self.bump();
                    let body = self.parse_block();
                    expr.nodes.push(Node::Loop { body });
                    prev_operand = true;
                }
                "while" => {
                    self.bump();
                    if self.eat("let") {
                        self.skip_pattern_until_eq();
                    }
                    let cond = self.parse_expr(&["{"], false);
                    let body = self.parse_block();
                    expr.nodes.push(Node::While { cond, body });
                    prev_operand = true;
                }
                "for" => {
                    self.bump();
                    // pattern … `in`
                    let mut depth = 0i32;
                    while !self.at_end() {
                        match self.text() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "in" if depth == 0 => break,
                            "{" => break, // malformed; tolerate
                            _ => {}
                        }
                        self.bump();
                    }
                    self.eat("in");
                    let iter = self.parse_expr(&["{"], false);
                    let body = self.parse_block();
                    expr.nodes.push(Node::For { iter, body });
                    prev_operand = true;
                }
                "return" => {
                    let line = self.line();
                    self.bump();
                    let value = if terminators.contains(&self.text())
                        || matches!(self.text(), ";" | "}" | ")" | "," | "]")
                    {
                        None
                    } else {
                        Some(self.parse_expr(terminators, structs_ok))
                    };
                    expr.nodes.push(Node::Return { value, line });
                    prev_operand = true;
                }
                "break" => {
                    self.bump();
                    // Optional label/value: leave for the normal loop to
                    // parse; the Break node itself is what analyses need.
                    expr.nodes.push(Node::Break);
                    prev_operand = false;
                }
                "continue" => {
                    self.bump();
                    expr.nodes.push(Node::Continue);
                    prev_operand = false;
                }
                "async" => {
                    self.bump();
                    self.eat("move");
                    if self.text() == "{" {
                        let body = self.parse_block();
                        expr.nodes.push(Node::BlockExpr(body));
                        prev_operand = true;
                    } else if matches!(self.text(), "|" | "||") {
                        expr.nodes.push(self.parse_closure());
                        prev_operand = true;
                    }
                }
                "move" => {
                    self.bump();
                    if matches!(self.text(), "|" | "||") {
                        expr.nodes.push(self.parse_closure());
                        prev_operand = true;
                    }
                }
                "unsafe" => {
                    self.bump();
                    if self.text() == "{" {
                        let body = self.parse_block();
                        expr.nodes.push(Node::BlockExpr(body));
                        prev_operand = true;
                    }
                }
                "{" => {
                    let body = self.parse_block();
                    expr.nodes.push(Node::BlockExpr(body));
                    prev_operand = true;
                }
                "(" => {
                    let chain = self.parse_chain(None, structs_ok);
                    expr.nodes.push(Node::Chain(chain));
                    prev_operand = true;
                }
                "|" | "||" if !prev_operand => {
                    expr.nodes.push(self.parse_closure());
                    prev_operand = true;
                }
                "?" => {
                    // `?` reaching here (not swallowed by a chain) still
                    // counts as an early-exit edge.
                    let line = self.line();
                    self.bump();
                    expr.nodes.push(Node::Chain(Chain {
                        base: Vec::new(),
                        base_group: None,
                        ops: vec![Op::Try { line }],
                        line,
                    }));
                    prev_operand = true;
                }
                _ if self.is_ident() => {
                    // Macro call?
                    if self.text_at(1) == "!"
                        && matches!(self.text_at(2), "(" | "[" | "{")
                        && t != "matches"
                    {
                        expr.nodes.push(self.parse_macro());
                        prev_operand = true;
                    } else if self.text_at(1) == "!" && matches!(self.text_at(2), "(" | "[" | "{") {
                        // `matches!` interior is a pattern, not an
                        // expression; record the macro, skip the interior.
                        let name = t.to_string();
                        self.bump();
                        self.bump(); // !
                        self.skip_balanced();
                        expr.nodes.push(Node::Macro { name, inner: None });
                        prev_operand = true;
                    } else {
                        let chain = self.parse_chain(Some(()), structs_ok);
                        expr.nodes.push(Node::Chain(chain));
                        prev_operand = true;
                    }
                }
                _ => {
                    // Operator or stray punctuation: a new operand follows.
                    self.bump();
                    prev_operand = false;
                }
            }
            if self.pos == before {
                self.bump();
            }
            if stmt_pos
                && expr.nodes.len() == 1
                && matches!(
                    expr.nodes[0],
                    Node::If { .. }
                        | Node::Match { .. }
                        | Node::Loop { .. }
                        | Node::While { .. }
                        | Node::For { .. }
                        | Node::BlockExpr(_)
                )
            {
                break; // a block-ended statement ends here, as in Rust
            }
        }
        expr
    }

    /// Skips a `let`-pattern in an `if let`/`while let` header, leaving
    /// the cursor after the `=`.
    fn skip_pattern_until_eq(&mut self) {
        let mut depth = 0i32;
        while !self.at_end() {
            match self.text() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    fn parse_if(&mut self) -> Node {
        self.bump(); // if
        if self.eat("let") {
            self.skip_pattern_until_eq();
        }
        let cond = self.parse_expr(&["{"], false);
        let then = self.parse_block();
        let else_ = if self.eat("else") {
            if self.text() == "if" {
                Some(Box::new(self.parse_if()))
            } else {
                Some(Box::new(Node::BlockExpr(self.parse_block())))
            }
        } else {
            None
        };
        Node::If { cond, then, else_ }
    }

    fn parse_match(&mut self) -> Node {
        self.bump(); // match
        let scrutinee = self.parse_expr(&["{"], false);
        let mut arms = Vec::new();
        if self.eat("{") {
            while !self.at_end() && self.text() != "}" {
                let before = self.pos;
                while self.text() == "#" {
                    self.skip_attr();
                }
                if self.text() == "}" {
                    break;
                }
                // Skip the pattern: to `=>` or a guard `if` at depth 0.
                let mut depth = 0i32;
                let mut guard = None;
                while !self.at_end() {
                    let t = self.text();
                    match t {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "=>" if depth == 0 => break,
                        "if" if depth == 0 => {
                            self.bump();
                            guard = Some(self.parse_expr(&["=>"], false));
                            break;
                        }
                        _ => {}
                    }
                    self.bump();
                }
                if !self.eat("=>") {
                    // Malformed arm; skip a token and retry.
                    if self.pos == before {
                        self.bump();
                    }
                    continue;
                }
                let body = if self.text() == "{" {
                    let mut e = Expr::default();
                    e.nodes.push(Node::BlockExpr(self.parse_block()));
                    e
                } else {
                    self.parse_expr(&[","], true)
                };
                self.eat(",");
                arms.push(Arm { guard, body });
                if self.pos == before {
                    self.bump();
                }
            }
            self.eat("}");
        }
        Node::Match { scrutinee, arms }
    }

    fn parse_closure(&mut self) -> Node {
        // Cursor on `||` (zero-parameter) or the opening `|`, whose
        // params end at the matching `|`.
        if self.text() == "||" {
            self.bump();
        } else {
            self.bump();
            while !self.at_end() && self.text() != "|" {
                // Parameter patterns/types contain no `|` in this subset.
                if matches!(self.text(), "(" | "[") {
                    self.skip_balanced();
                } else {
                    self.bump();
                }
            }
            self.eat("|");
        }
        // Optional `-> Type` before a braced body.
        if self.eat("->") {
            while !self.at_end() && self.text() != "{" {
                self.bump();
            }
        }
        let body = if self.text() == "{" {
            let mut e = Expr::default();
            e.nodes.push(Node::BlockExpr(self.parse_block()));
            e
        } else {
            // A bare-expression body extends to the caller's terminator;
            // `,`/`)` are universal closers for closure arguments.
            self.parse_expr(&[",", ")", ";", "}"], true)
        };
        Node::Closure(Box::new(body))
    }

    fn parse_macro(&mut self) -> Node {
        let name = self.text().to_string();
        self.bump(); // name
        self.bump(); // !
        let close = match self.text() {
            "(" => ")",
            "[" => "]",
            _ => "}",
        };
        self.bump(); // opener
                     // Best-effort: parse the interior as comma-separated expressions
                     // so calls/awaits inside macro arguments stay visible.
        let mut inner = Expr::default();
        while !self.at_end() && self.text() != close {
            let before = self.pos;
            let mut e = self.parse_expr(&[",", close], true);
            inner.nodes.append(&mut e.nodes);
            self.eat(",");
            if self.pos == before {
                self.bump();
            }
        }
        self.eat(close);
        Node::Macro {
            name,
            inner: (!inner.nodes.is_empty()).then_some(inner),
        }
    }

    /// Parses a chain: path or parenthesized base, then postfix ops.
    /// `with_path` is `Some` when the cursor is on the first path ident,
    /// `None` when it is on a `(` group base.
    fn parse_chain(&mut self, with_path: Option<()>, structs_ok: bool) -> Chain {
        let line = self.line();
        let mut chain = Chain {
            base: Vec::new(),
            base_group: None,
            ops: Vec::new(),
            line,
        };
        match with_path {
            Some(()) => {
                // path: ident (:: ident | :: <turbofish>)*
                chain.base.push(self.text().to_string());
                self.bump();
                while self.text() == "::" {
                    if self.text_at(1) == "<" {
                        self.bump(); // ::
                        self.skip_angles();
                    } else if self.peek_at(1).is_some_and(|t| t.kind == TokKind::Ident) {
                        self.bump(); // ::
                        chain.base.push(self.text().to_string());
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            None => {
                // `( … )` group: tuple elements flattened in order.
                self.bump(); // (
                let mut inner = Expr::default();
                while !self.at_end() && self.text() != ")" {
                    let before = self.pos;
                    let mut e = self.parse_expr(&[",", ")"], true);
                    inner.nodes.append(&mut e.nodes);
                    self.eat(",");
                    if self.pos == before {
                        self.bump();
                    }
                }
                self.eat(")");
                chain.base_group = Some(Box::new(inner));
            }
        }
        // Postfix operations.
        loop {
            match self.text() {
                "(" => {
                    let args = self.parse_args();
                    chain.ops.push(Op::CallArgs(args));
                }
                "[" => {
                    self.bump();
                    let mut idx = Expr::default();
                    while !self.at_end() && self.text() != "]" {
                        let before = self.pos;
                        let mut e = self.parse_expr(&["]"], true);
                        idx.nodes.append(&mut e.nodes);
                        if self.pos == before {
                            self.bump();
                        }
                    }
                    self.eat("]");
                    chain.ops.push(Op::Index(idx));
                }
                "?" => {
                    let l = self.line();
                    self.bump();
                    chain.ops.push(Op::Try { line: l });
                }
                "." => {
                    if self.text_at(1) == "await" {
                        self.bump();
                        self.bump();
                        chain.ops.push(Op::Await);
                    } else if self.peek_at(1).is_some_and(|t| t.kind == TokKind::Ident) {
                        let name = self.text_at(1).to_string();
                        let l = self.peek_at(1).map_or(0, |t| t.line);
                        self.bump(); // .
                        self.bump(); // name
                                     // Optional turbofish before the call parens.
                        if self.text() == "::" && self.text_at(1) == "<" {
                            self.bump();
                            self.skip_angles();
                        }
                        if self.text() == "(" {
                            let args = self.parse_args();
                            chain.ops.push(Op::Method {
                                name,
                                args,
                                line: l,
                            });
                        } else {
                            chain.ops.push(Op::Field(name));
                        }
                    } else {
                        // `.0` tuple index: the numeric literal was
                        // dropped by the lexer, so `.` stands alone.
                        self.bump();
                        chain.ops.push(Op::Field(String::new()));
                    }
                }
                "{" if structs_ok
                    && chain.base_group.is_none()
                    && !chain.base.is_empty()
                    && chain.ops.is_empty()
                    && chain
                        .base
                        .last()
                        .is_some_and(|s| s.starts_with(|c: char| c.is_ascii_uppercase())) =>
                {
                    // Struct literal `Path { field: expr, .. }`.
                    self.bump(); // {
                    let mut fields = Vec::new();
                    while !self.at_end() && self.text() != "}" {
                        let before = self.pos;
                        let e = self.parse_expr(&[",", "}"], true);
                        if !e.nodes.is_empty() {
                            fields.push(e);
                        }
                        self.eat(",");
                        if self.pos == before {
                            self.bump();
                        }
                    }
                    self.eat("}");
                    chain.ops.push(Op::StructLit(fields));
                }
                _ => break,
            }
        }
        chain
    }

    /// Parses `( expr, expr, … )` with the cursor on `(`.
    fn parse_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        self.bump(); // (
        while !self.at_end() && self.text() != ")" {
            let before = self.pos;
            let e = self.parse_expr(&[",", ")"], true);
            if !e.nodes.is_empty() {
                args.push(e);
            }
            self.eat(",");
            if self.pos == before {
                self.bump();
            }
        }
        self.eat(")");
        args
    }

    /// Skips a turbofish `<...>` with the cursor on `<`.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while !self.at_end() {
            match self.text() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        self.bump();
                        return;
                    }
                }
                "(" | "[" => {
                    self.skip_balanced();
                    continue;
                }
                ";" | "{" | "}" => return, // malformed; bail
                _ => {}
            }
            self.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Vec<FnDef> {
        parse(&lex(src))
    }

    /// Renders the node tree compactly for shape assertions.
    fn shape(expr: &Expr) -> String {
        let mut out = String::new();
        for n in &expr.nodes {
            shape_node(n, &mut out);
        }
        out
    }

    fn shape_node(n: &Node, out: &mut String) {
        match n {
            Node::Chain(c) => {
                out.push_str(&c.base.join("::"));
                for op in &c.ops {
                    match op {
                        Op::Method { name, .. } => out.push_str(&format!(".{name}()")),
                        Op::CallArgs(_) => out.push_str("()"),
                        Op::Field(f) => out.push_str(&format!(".{f}")),
                        Op::Index(_) => out.push_str("[]"),
                        Op::Await => out.push_str(".await"),
                        Op::Try { .. } => out.push('?'),
                        Op::StructLit(_) => out.push_str("{}"),
                    }
                }
                out.push(' ');
            }
            Node::If { .. } => out.push_str("if "),
            Node::Match { .. } => out.push_str("match "),
            Node::Loop { .. } => out.push_str("loop "),
            Node::While { .. } => out.push_str("while "),
            Node::For { .. } => out.push_str("for "),
            Node::BlockExpr(_) => out.push_str("block "),
            Node::Closure(_) => out.push_str("closure "),
            Node::Return { .. } => out.push_str("return "),
            Node::Break => out.push_str("break "),
            Node::Continue => out.push_str("continue "),
            Node::Macro { name, .. } => out.push_str(&format!("{name}! ")),
        }
    }

    #[test]
    fn parses_async_fn_and_chain() {
        let fns = parse_src("pub async fn f(&mut self) { self.conn(dst).spend_credit(); }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "f");
        let Stmt::Expr(expr) = &fns[0].body.stmts[0] else {
            panic!("expected expr stmt");
        };
        assert_eq!(shape(expr).trim(), "self.conn().spend_credit()");
    }

    #[test]
    fn parses_await_and_try() {
        let fns = parse_src("async fn f() { self.wait(req).await; g()?; }");
        let body = &fns[0].body;
        let Stmt::Expr(expr) = &body.stmts[0] else {
            panic!()
        };
        assert_eq!(shape(expr).trim(), "self.wait().await");
        let Stmt::Expr(expr) = &body.stmts[1] else {
            panic!()
        };
        assert_eq!(shape(expr).trim(), "g()?");
    }

    #[test]
    fn parses_let_initializers_past_any_pattern() {
        let fns = parse_src("fn f() { let mut st = self.shared.lock(); let (a, b) = pair(); }");
        let Stmt::Let { init, .. } = &fns[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(shape(init.as_ref().unwrap()).trim(), "self.shared.lock()");
        let Stmt::Let { init, .. } = &fns[0].body.stmts[1] else {
            panic!()
        };
        assert_eq!(shape(init.as_ref().unwrap()).trim(), "pair()");
    }

    #[test]
    fn parses_match_arms_with_patterns() {
        let src = "fn f(s: CqeStatus) -> u32 { match s { CqeStatus::Success => 0, _ => g(), } }";
        let fns = parse_src(src);
        let Stmt::Expr(expr) = &fns[0].body.stmts[0] else {
            panic!()
        };
        let Node::Match { arms, .. } = &expr.nodes[0] else {
            panic!("expected match, got {}", shape(expr));
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(shape(&arms[0].body).trim(), "");
        assert_eq!(shape(&arms[1].body).trim(), "g()");
    }

    #[test]
    fn parses_if_else_and_loops() {
        let src = "fn f() { if a() { b(); } else if c { d(); } else { e(); } loop { break; } \
                   while x.done() { y(); } for i in 0..n { z(i); } }";
        let fns = parse_src(src);
        let kinds: Vec<&str> = fns[0]
            .body
            .stmts
            .iter()
            .map(|s| match s {
                Stmt::Expr(expr) => match expr.nodes.first() {
                    Some(Node::If { .. }) => "if",
                    Some(Node::Loop { .. }) => "loop",
                    Some(Node::While { .. }) => "while",
                    Some(Node::For { .. }) => "for",
                    _ => "?",
                },
                _ => "let",
            })
            .collect();
        assert_eq!(kinds, vec!["if", "loop", "while", "for"]);
    }

    #[test]
    fn struct_literal_vs_block() {
        // `Conn { … }` is a struct literal (one chain), not a block.
        let fns = parse_src("fn f() -> Conn { Conn { peer, credits: base() } }");
        let Stmt::Expr(expr) = &fns[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(shape(expr).trim(), "Conn{}");
        // …but `match x {}` headers refuse struct literals.
        let fns = parse_src("fn g() { match x { A => 1, } }");
        let Stmt::Expr(expr) = &fns[0].body.stmts[0] else {
            panic!()
        };
        assert!(matches!(expr.nodes[0], Node::Match { .. }));
    }

    #[test]
    fn closures_and_async_blocks_are_scoped() {
        let src = "fn f() { self.proc.with(|ctx| ctx.world.poll()); \
                   spawn(move |p| async move { p.park().await }); }";
        let fns = parse_src(src);
        assert_eq!(fns.len(), 1);
        let Stmt::Expr(expr) = &fns[0].body.stmts[0] else {
            panic!()
        };
        let Node::Chain(c) = &expr.nodes[0] else {
            panic!()
        };
        let Op::Method { name, args, .. } = &c.ops[1] else {
            panic!("ops: {:?}", c.ops)
        };
        assert_eq!(name, "with");
        assert!(matches!(args[0].nodes[0], Node::Closure(_)));
    }

    #[test]
    fn nested_fns_are_flattened() {
        let fns = parse_src("fn outer() { fn inner() { x.unwrap(); } inner(); }");
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["inner", "outer"]);
    }

    #[test]
    fn cfg_test_flag_propagates() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() {} }";
        let fns = parse_src(src);
        assert_eq!(fns.len(), 2);
        assert!(!fns.iter().find(|f| f.name == "lib").unwrap().in_test);
        assert!(fns.iter().find(|f| f.name == "t").unwrap().in_test);
    }

    #[test]
    fn parser_is_total_on_garbage() {
        // Unbalanced/malformed input must terminate without panicking.
        for src in [
            "fn f( { ) } match { => , } let = ;",
            "fn f() { if { } else match }",
            "impl X for { fn g(",
            "fn f() { a.b.(c }",
        ] {
            let _ = parse_src(src);
        }
    }

    #[test]
    fn let_else_parses() {
        let fns = parse_src("fn f() { let Some(c) = self.conns(p) else { return; }; c.go(); }");
        let Stmt::Let { else_block, .. } = &fns[0].body.stmts[0] else {
            panic!()
        };
        assert!(else_block.is_some());
        assert_eq!(fns[0].body.stmts.len(), 2);
    }

    #[test]
    fn match_scrutinee_chain_is_kept() {
        let fns = parse_src("fn f() { match self.state.borrow_mut().kind { K::A => 1, } }");
        let Stmt::Expr(expr) = &fns[0].body.stmts[0] else {
            panic!()
        };
        let Node::Match { scrutinee, .. } = &expr.nodes[0] else {
            panic!()
        };
        assert_eq!(shape(scrutinee).trim(), "self.state.borrow_mut().kind");
    }
}
