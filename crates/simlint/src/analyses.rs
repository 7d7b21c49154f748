//! AST/CFG-lite analyses: the rules that need control flow, not tokens.
//!
//! Each analysis walks the [`crate::ast`] tree of one file. They share a
//! philosophy with the token rules — path-scoped, escape-auditable,
//! deterministic — but reason about *paths through a function* instead of
//! single tokens:
//!
//! * **blocking calls** (`no-blocking-in-async`): inside `async` bodies of
//!   the simulation crates, flags `std::thread::sleep`/`spawn`, zero-arg
//!   channel `recv`, and `.lock()` — rank code must go through the
//!   cooperative surface (`ProcCtx`), never block the one OS thread.
//! * **credit pairing** (`credit-path-pairing`): abstract-interprets each
//!   `crates/core` function, carrying the set of consume-side
//!   `CreditWindow` ops (`spend`, `take_piggyback`, `take_mailbox_return`,
//!   and `make_header`, which piggybacks) still awaiting a matching
//!   send/grant op; any exit edge — `return`, `?`, or fall-off — with the
//!   set non-empty loses credits and is reported. Both windows of a
//!   connection (receive buffers, ring slots) drain through the same
//!   methods, so one op table covers both. A mailbox return
//!   (`take_mailbox_return`) is additionally settled by the bare
//!   `post_send` that publishes the mailbox inside
//!   `send_rdma_credit_update`. A ring-generation switch
//!   (`install_grown_ring`) takes on *two* obligations at once:
//!   the displaced ring must be staged for draining
//!   (`stage_retired_ring`) and the new generation must be published
//!   (`send_rdma_credit_update`) before the function exits.
//! * **quiesce pairing** (`quiesce-pairing`): the same abstract
//!   interpretation over `crates/sim` library code, with fence
//!   obligations instead of ledger ops: a `begin_quiesce()` call opens a
//!   quiesce window, and every exit edge must have closed it with
//!   `resume_world` (release the fence) or `abort_quiesce` (end the run
//!   at it) — otherwise a checkpoint fence that takes an early-exit path
//!   leaves the whole world parked forever.
//! * **protocol matches** (`exhaustive-protocol-match`): a `match`
//!   involving the wire/completion enums must not have a catch-all arm,
//!   so adding a variant (e.g. for the RDMA channel) fails to compile
//!   instead of being silently swallowed.
//!
//! The no-panic rule also moves here: on the AST it can exempt the two
//! shapes the codebase audits over and over — `checked_*(..).expect(..)`
//! (overflow made loud) and pop-after-`is_empty`-guard — shrinking the
//! escape list instead of growing it.

use crate::ast::{Block, Chain, Expr, FnDef, Node, Op, Stmt};
use crate::rules::{
    is_lib_code, push, Finding, CREDIT_PATH_PAIRING, EXHAUSTIVE_PROTOCOL_MATCH,
    NO_BLOCKING_IN_ASYNC, NO_PANIC_IN_LIB, QUIESCE_PAIRING,
};
use std::collections::BTreeSet;

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
/// Consume-side `CreditWindow` ops: each call takes on an obligation to
/// reach a send/grant op on every path out of the function. `make_header`
/// counts because it drains both windows' piggyback returns into the
/// header it returns.
const CREDIT_CONSUME_OPS: [&str; 4] = ["spend", "take_piggyback", MAILBOX_RETURN_OP, "make_header"];
/// The consume op that drains a window's pending return for a mailbox
/// write: besides the send ops, the raw `post_send` that publishes the
/// mailbox (inside `send_rdma_credit_update`) settles it.
const MAILBOX_RETURN_OP: &str = "take_mailbox_return";
/// Send/grant ops that discharge pending consume obligations.
const CREDIT_SEND_OPS: [&str; 6] = [
    "post_frame",
    "post_ring_frame",
    "send_eager",
    "send_eager_ring",
    "start_rndz",
    "send_rdma_credit_update",
];
/// The ring-generation switch: calling this takes on TWO obligations for
/// every path out of the function — the displaced generation must be
/// staged for tail draining (`stage_retired_ring`), and the new
/// generation/rkey/slots must be published through the mailbox
/// (`send_rdma_credit_update`). Losing either drops in-flight WRITEs or
/// strands the sender on the old ring.
const GROWTH_INSTALL_OP: &str = "install_grown_ring";
const GROWTH_STAGE_OP: &str = "stage_retired_ring";
/// Synthetic pending-set tags for the two growth halves; `#` cannot
/// appear in an identifier, so they never collide with a real op name.
const GROWTH_PUBLISH_OB: &str = "install_grown_ring#publish";
const GROWTH_RETIRE_OB: &str = "install_grown_ring#retire";
/// Wire/completion enums that gain variants as schemes are added; a
/// catch-all arm would swallow the new variant silently.
const PROTOCOL_ENUMS: [&str; 5] = ["CqeStatus", "CqeOpcode", "SendOp", "MsgKind", "WireError"];

fn in_async_rule_crates(path: &str) -> bool {
    ["crates/sim/", "crates/core/", "crates/nas/"]
        .iter()
        .any(|p| path.contains(p))
}

fn credit_rule_applies(path: &str) -> bool {
    path.contains("crates/core/") && path.contains("/src/")
}

/// quiesce-pairing watches the engine crate's library code: that is
/// where fences are opened and released.
fn quiesce_rule_applies(path: &str) -> bool {
    path.contains("crates/sim/") && path.contains("/src/")
}

fn protocol_match_applies(path: &str) -> bool {
    crate::rules::in_sim_crates(path) && path.contains("/src/")
}

/// Runs every AST analysis over one file's parsed functions.
pub fn collect_ast_findings(path: &str, fns: &[FnDef], out: &mut Vec<Finding>) {
    for f in fns {
        if f.in_test {
            continue;
        }
        // Async-scope rules: the fn body if async, plus every `async { }`
        // block anywhere inside (each is its own scope).
        let mut scopes = Vec::new();
        if f.is_async {
            scopes.push(&f.body);
        }
        collect_async_blocks(&f.body, &mut scopes);
        if in_async_rule_crates(path) {
            for scope in &scopes {
                blocking_calls(path, scope, out);
            }
        }

        if credit_rule_applies(path) && !CREDIT_CONSUME_OPS.contains(&f.name.as_str()) {
            credit_pairing(path, f, out);
        }
        if quiesce_rule_applies(path)
            && f.name != QUIESCE_BEGIN_OP
            && !QUIESCE_CLOSE_OPS.contains(&f.name.as_str())
        {
            quiesce_pairing(path, f, out);
        }
        if protocol_match_applies(path) {
            protocol_matches_in_block(path, &f.body, out);
        }
        if is_lib_code(path) {
            let mut proven = Vec::new();
            panic_walk_block(path, &f.body, &mut proven, out);
        }
    }
}

// ---------------------------------------------------------------------
// Shared tree helpers.
// ---------------------------------------------------------------------

/// Visits every node in a block, including closure bodies;
/// `enter_async` controls whether `async { }` bodies are descended into.
fn visit_block<'a>(block: &'a Block, enter_async: bool, f: &mut impl FnMut(&'a Node)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    visit_expr(e, enter_async, f);
                }
                if let Some(b) = else_block {
                    visit_block(b, enter_async, f);
                }
            }
            Stmt::Expr { expr, .. } => visit_expr(expr, enter_async, f),
        }
    }
}

fn visit_expr<'a>(expr: &'a Expr, enter_async: bool, f: &mut impl FnMut(&'a Node)) {
    for node in &expr.nodes {
        f(node);
        match node {
            Node::Chain(c) => {
                if let Some(g) = &c.base_group {
                    visit_expr(g, enter_async, f);
                }
                for op in &c.ops {
                    match op {
                        Op::Method { args, .. } | Op::CallArgs { args, .. } => {
                            for a in args {
                                visit_expr(a, enter_async, f);
                            }
                        }
                        Op::Index(e) => visit_expr(e, enter_async, f),
                        Op::StructLit(fields) => {
                            for e in fields {
                                visit_expr(e, enter_async, f);
                            }
                        }
                        Op::Field(_) | Op::Await { .. } | Op::Try { .. } => {}
                    }
                }
            }
            Node::If {
                cond, then, else_, ..
            } => {
                visit_expr(cond, enter_async, f);
                visit_block(then, enter_async, f);
                if let Some(e) = else_ {
                    f(e);
                    match &**e {
                        Node::BlockExpr(b) => visit_block(b, enter_async, f),
                        Node::If { .. } => visit_else_if(e, enter_async, f),
                        _ => {}
                    }
                }
            }
            Node::Match {
                scrutinee, arms, ..
            } => {
                visit_expr(scrutinee, enter_async, f);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        visit_expr(g, enter_async, f);
                    }
                    visit_expr(&arm.body, enter_async, f);
                }
            }
            Node::Loop { body, .. } => visit_block(body, enter_async, f),
            Node::While { cond, body, .. } => {
                visit_expr(cond, enter_async, f);
                visit_block(body, enter_async, f);
            }
            Node::For { iter, body, .. } => {
                visit_expr(iter, enter_async, f);
                visit_block(body, enter_async, f);
            }
            Node::BlockExpr(b) => visit_block(b, enter_async, f),
            Node::AsyncBlock(b) => {
                if enter_async {
                    visit_block(b, enter_async, f);
                }
            }
            Node::Closure { body, .. } => visit_expr(body, enter_async, f),
            Node::Return { value, .. } => {
                if let Some(v) = value {
                    visit_expr(v, enter_async, f);
                }
            }
            Node::Macro { inner, .. } => {
                if let Some(i) = inner {
                    visit_expr(i, enter_async, f);
                }
            }
            Node::Break { .. } | Node::Continue { .. } => {}
        }
    }
}

fn visit_else_if<'a>(node: &'a Node, enter_async: bool, f: &mut impl FnMut(&'a Node)) {
    if let Node::If {
        cond, then, else_, ..
    } = node
    {
        visit_expr(cond, enter_async, f);
        visit_block(then, enter_async, f);
        if let Some(e) = else_ {
            f(e);
            match &**e {
                Node::BlockExpr(b) => visit_block(b, enter_async, f),
                Node::If { .. } => visit_else_if(e, enter_async, f),
                _ => {}
            }
        }
    }
}

/// Collects every `async { }` block (at any nesting depth, including
/// inside closures) as a separate analysis scope.
fn collect_async_blocks<'a>(block: &'a Block, scopes: &mut Vec<&'a Block>) {
    visit_block(block, true, &mut |node| {
        if let Node::AsyncBlock(b) = node {
            scopes.push(b);
        }
    });
}

/// Renders the field path of a chain up to (not including) op `upto`:
/// `c.backlog` for `c.backlog.pop_front()`. Returns `None` when any
/// leading op is not a plain field access (a call result is a different
/// value each time, so it cannot be "proven non-empty").
fn field_path(chain: &Chain, upto: usize) -> Option<String> {
    if chain.base.is_empty() {
        return None;
    }
    let mut key = chain.base.join("::");
    for op in &chain.ops[..upto] {
        match op {
            Op::Field(name) => {
                key.push('.');
                key.push_str(name);
            }
            _ => return None,
        }
    }
    Some(key)
}

// ---------------------------------------------------------------------
// no-blocking-in-async.
// ---------------------------------------------------------------------

/// Flags blocking primitives inside an async scope (closures included —
/// a closure called from async context still blocks the executor).
fn blocking_calls(path: &str, scope: &Block, out: &mut Vec<Finding>) {
    visit_block(scope, false, &mut |node| {
        let Node::Chain(c) = node else { return };
        for pair in c.base.windows(2) {
            if pair[0] == "thread" && (pair[1] == "sleep" || pair[1] == "spawn") {
                push(
                    out,
                    NO_BLOCKING_IN_ASYNC,
                    path,
                    c.line,
                    format!(
                        "`thread::{}` in an async body blocks the single \
                         executor thread; use the cooperative surface \
                         (`ProcCtx::advance`/`park`, spawned processes)",
                        pair[1]
                    ),
                );
            }
        }
        for (i, op) in c.ops.iter().enumerate() {
            let Op::Method { name, args, line } = op else {
                continue;
            };
            let awaited = matches!(c.ops.get(i + 1), Some(Op::Await { .. }));
            if (name == "recv" || name == "recv_timeout") && args.is_empty() && !awaited {
                push(
                    out,
                    NO_BLOCKING_IN_ASYNC,
                    path,
                    *line,
                    format!(
                        "`.{name}()` without `.await` in an async body is a \
                         blocking channel receive; park on a waker instead"
                    ),
                );
            }
            if name == "lock" {
                push(
                    out,
                    NO_BLOCKING_IN_ASYNC,
                    path,
                    *line,
                    "`.lock()` in an async body grabs scheduler/shared state \
                     directly; async rank code must go through `ProcCtx::with`"
                        .to_string(),
                );
            }
        }
    });
}

// ---------------------------------------------------------------------
// credit-path-pairing.
// ---------------------------------------------------------------------

/// Pending consume obligations: `(line, op name)` of each consume-side
/// call not yet discharged by a send/grant op on this path.
type Pending = BTreeSet<(u32, String)>;

/// One pairing rule's parameters, shared by the path walk:
/// credit-path-pairing and quiesce-pairing differ only in which calls
/// open/close obligations and how a leak is worded.
struct CreditCtx<'a> {
    rule: &'static str,
    path: &'a str,
    out: &'a mut Vec<Finding>,
    /// Call-site transition: `(name, line, pending)` — inserts and/or
    /// discharges obligations.
    transition: &'a dyn Fn(&str, u32, &mut Pending),
    /// Renders one leaked obligation at one exit edge.
    message: &'a dyn Fn(&str, &str) -> String,
}

fn credit_pairing(path: &str, f: &FnDef, out: &mut Vec<Finding>) {
    let mut ctx = CreditCtx {
        rule: CREDIT_PATH_PAIRING,
        path,
        out,
        transition: &credit_transition,
        message: &credit_message,
    };
    let mut st = Pending::new();
    credit_block(&mut ctx, &f.body, &mut st, &mut Vec::new());
    credit_exit(&mut ctx, &mut st, "the end of the function");
}

const QUIESCE_BEGIN_OP: &str = "begin_quiesce";
const QUIESCE_CLOSE_OPS: [&str; 2] = ["resume_world", "abort_quiesce"];

fn quiesce_pairing(path: &str, f: &FnDef, out: &mut Vec<Finding>) {
    let mut ctx = CreditCtx {
        rule: QUIESCE_PAIRING,
        path,
        out,
        transition: &quiesce_transition,
        message: &quiesce_message,
    };
    let mut st = Pending::new();
    credit_block(&mut ctx, &f.body, &mut st, &mut Vec::new());
    credit_exit(&mut ctx, &mut st, "the end of the function");
}

fn quiesce_transition(name: &str, line: u32, st: &mut Pending) {
    if QUIESCE_CLOSE_OPS.contains(&name) {
        st.clear();
    } else if name == QUIESCE_BEGIN_OP {
        st.insert((line, QUIESCE_BEGIN_OP.to_string()));
    }
}

fn quiesce_message(_op: &str, edge: &str) -> String {
    format!(
        "`begin_quiesce()` opens a quiesce window here, but a path \
         reaches {edge} without `resume_world` releasing the fence or \
         `abort_quiesce` ending the run at it; every live process stays \
         parked forever on that path"
    )
}

/// Reports (and clears) every pending consume at an exit edge.
fn credit_exit(ctx: &mut CreditCtx, st: &mut Pending, edge: &str) {
    for (line, op) in std::mem::take(st) {
        let msg = (ctx.message)(&op, edge);
        push(ctx.out, ctx.rule, ctx.path, line, msg);
    }
}

/// Wording for one leaked credit obligation (the credit-path-pairing
/// half of [`CreditCtx::message`]).
fn credit_message(op: &str, edge: &str) -> String {
    if op == GROWTH_PUBLISH_OB {
        format!(
            "`install_grown_ring()` switches the live ring generation \
                 here, but a path reaches {edge} without \
                 `send_rdma_credit_update` publishing the new \
                 generation/rkey/slots; the sender keeps writing the \
                 displaced ring and the slot grant never arrives"
        )
    } else if op == GROWTH_RETIRE_OB {
        format!(
            "`install_grown_ring()` displaces the old ring generation \
                 here, but a path reaches {edge} without \
                 `stage_retired_ring` keeping it polled until its tail \
                 drains; in-flight WRITEs against the old rkey are lost"
        )
    } else if op == MAILBOX_RETURN_OP {
        format!(
            "`{op}()` drains a window's pending return here, but a path \
                 reaches {edge} without `send_rdma_credit_update` (or the \
                 `post_send` publishing the mailbox) making the return \
                 visible to the peer; the credits drift on that path"
        )
    } else {
        format!(
            "`{op}()` consumes credit state, but a path reaches {edge} \
                 without a matching send/grant op \
                 (post_frame/post_ring_frame/send_*/start_rndz); the credit \
                 is lost on that path"
        )
    }
}

fn credit_block(
    ctx: &mut CreditCtx,
    block: &Block,
    st: &mut Pending,
    loop_exits: &mut Vec<Pending>,
) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    credit_expr(ctx, e, st, loop_exits);
                }
                if let Some(b) = else_block {
                    // The else-branch diverges; a consume pending there is
                    // checked by its own return/break statements (or, for a
                    // silent fall-off, by the loop/function exit).
                    let mut alt = st.clone();
                    credit_block(ctx, b, &mut alt, loop_exits);
                }
            }
            Stmt::Expr { expr, .. } => credit_expr(ctx, expr, st, loop_exits),
        }
    }
}

fn credit_expr(ctx: &mut CreditCtx, expr: &Expr, st: &mut Pending, loop_exits: &mut Vec<Pending>) {
    for node in &expr.nodes {
        match node {
            Node::Chain(c) => credit_chain(ctx, c, st, loop_exits),
            Node::If {
                cond, then, else_, ..
            } => {
                credit_expr(ctx, cond, st, loop_exits);
                let mut then_st = st.clone();
                credit_block(ctx, then, &mut then_st, loop_exits);
                let mut else_st = st.clone();
                let mut e = else_.as_deref();
                let mut joined = then_st;
                while let Some(n) = e {
                    match n {
                        Node::BlockExpr(b) => {
                            credit_block(ctx, b, &mut else_st, loop_exits);
                            e = None;
                        }
                        Node::If {
                            cond, then, else_, ..
                        } => {
                            credit_expr(ctx, cond, &mut else_st, loop_exits);
                            let mut t = else_st.clone();
                            credit_block(ctx, then, &mut t, loop_exits);
                            joined.extend(t);
                            e = else_.as_deref();
                        }
                        _ => e = None,
                    }
                }
                joined.extend(else_st);
                *st = joined;
            }
            Node::Match {
                scrutinee, arms, ..
            } => {
                credit_expr(ctx, scrutinee, st, loop_exits);
                let mut joined = Pending::new();
                if arms.is_empty() {
                    joined = st.clone();
                }
                for arm in arms {
                    let mut arm_st = st.clone();
                    if let Some(g) = &arm.guard {
                        credit_expr(ctx, g, &mut arm_st, loop_exits);
                    }
                    credit_expr(ctx, &arm.body, &mut arm_st, loop_exits);
                    joined.extend(arm_st);
                }
                *st = joined;
            }
            Node::Loop { body, .. } | Node::While { body, .. } | Node::For { body, .. } => {
                if let Node::While { cond, .. } = node {
                    credit_expr(ctx, cond, st, loop_exits);
                }
                if let Node::For { iter, .. } = node {
                    credit_expr(ctx, iter, st, loop_exits);
                }
                // Two-pass fixpoint: the second pass sees the union of the
                // entry state and the first pass's fall-through, so a
                // consume left pending across an iteration boundary is
                // still tracked.
                let mut exits: Vec<Pending> = Vec::new();
                let mut pass1 = st.clone();
                credit_block(ctx, body, &mut pass1, &mut exits);
                let mut entry2: Pending = st.clone();
                entry2.extend(pass1.iter().cloned());
                let mut suppressed = Vec::new(); // findings already reported in pass 1
                let mut ctx2 = CreditCtx {
                    rule: ctx.rule,
                    path: ctx.path,
                    out: &mut suppressed,
                    transition: ctx.transition,
                    message: ctx.message,
                };
                credit_block(&mut ctx2, body, &mut entry2, &mut exits);
                // After the loop: any break state, the fall-through, or
                // (for conditional loops) never entering at all.
                let mut after = if matches!(node, Node::Loop { .. }) {
                    Pending::new()
                } else {
                    st.clone()
                };
                after.extend(entry2);
                for ex in exits {
                    after.extend(ex);
                }
                *st = after;
            }
            Node::BlockExpr(b) | Node::AsyncBlock(b) => credit_block(ctx, b, st, loop_exits),
            Node::Closure { body, .. } => {
                // Closures here are called synchronously at the use site
                // (`proc.with(|ctx| ..)`): treat their effects as inline.
                credit_expr(ctx, body, st, loop_exits)
            }
            Node::Return { value, line } => {
                if let Some(v) = value {
                    credit_expr(ctx, v, st, loop_exits);
                }
                credit_exit(ctx, st, &format!("the `return` on line {line}"));
            }
            Node::Break { .. } => {
                loop_exits.push(st.clone());
                st.clear(); // code after `break` in this walk is unreachable
            }
            Node::Continue { .. } => {
                loop_exits.push(st.clone());
                st.clear();
            }
            Node::Macro { inner, .. } => {
                if let Some(i) = inner {
                    credit_expr(ctx, i, st, loop_exits);
                }
            }
        }
    }
}

fn credit_chain(ctx: &mut CreditCtx, c: &Chain, st: &mut Pending, loop_exits: &mut Vec<Pending>) {
    if let Some(g) = &c.base_group {
        credit_expr(ctx, g, st, loop_exits);
    }
    // A bare call `post_frame(..)` / `spend_credit(..)`.
    let bare = c
        .base
        .last()
        .filter(|_| matches!(c.ops.first(), Some(Op::CallArgs { .. })))
        .map(|s| s.as_str());
    if let Some(name) = bare {
        (ctx.transition)(name, c.line, st);
    }
    for op in &c.ops {
        match op {
            Op::Method { name, args, line } => {
                for a in args {
                    credit_expr(ctx, a, st, loop_exits);
                }
                (ctx.transition)(name, *line, st);
            }
            Op::CallArgs { args, .. } => {
                for a in args {
                    credit_expr(ctx, a, st, loop_exits);
                }
            }
            Op::Index(e) => credit_expr(ctx, e, st, loop_exits),
            Op::StructLit(fields) => {
                for e in fields {
                    credit_expr(ctx, e, st, loop_exits);
                }
            }
            Op::Try { line } => {
                credit_exit(ctx, st, &format!("the `?` on line {line}"));
            }
            Op::Field(_) | Op::Await { .. } => {}
        }
    }
}

/// Call-site transition for credit-path-pairing (the
/// [`CreditCtx::transition`] of that rule).
fn credit_transition(name: &str, line: u32, st: &mut Pending) {
    if name == GROWTH_STAGE_OP {
        st.retain(|(_, op)| op != GROWTH_RETIRE_OB);
    } else if CREDIT_SEND_OPS.contains(&name) {
        // A send publishes credit state but is NOT the retire half of a
        // generation switch: only `stage_retired_ring` keeps the
        // displaced ring polled until its tail drains.
        st.retain(|(_, op)| op == GROWTH_RETIRE_OB);
    } else if name == "post_send" {
        // The raw fabric verb: inside `send_rdma_credit_update` it is what
        // actually publishes the mailbox, so it discharges mailbox
        // returns — but *only* those; a spent credit still needs one of
        // the protocol-level send ops, and a generation switch needs the
        // full `send_rdma_credit_update` (a bare WRITE carries no
        // gen/rkey/slots words).
        st.retain(|(_, op)| op != MAILBOX_RETURN_OP);
    } else if name == GROWTH_INSTALL_OP {
        st.insert((line, GROWTH_PUBLISH_OB.to_string()));
        st.insert((line, GROWTH_RETIRE_OB.to_string()));
    } else if CREDIT_CONSUME_OPS.contains(&name) {
        st.insert((line, name.to_string()));
    }
}

// ---------------------------------------------------------------------
// exhaustive-protocol-match.
// ---------------------------------------------------------------------

fn protocol_matches_in_block(path: &str, block: &Block, out: &mut Vec<Finding>) {
    visit_block(block, true, &mut |node| {
        let Node::Match { arms, .. } = node else {
            return;
        };
        let protected = arms.iter().any(|a| {
            a.pat
                .windows(2)
                .any(|w| PROTOCOL_ENUMS.contains(&w[0].as_str()) && w[1] == "::")
        });
        if !protected {
            return;
        }
        for arm in arms {
            if arm.guard.is_none() && is_catch_all(&arm.pat) {
                push(
                    out,
                    EXHAUSTIVE_PROTOCOL_MATCH,
                    path,
                    arm.line,
                    "catch-all arm in a `match` over a protocol enum \
                     (CqeStatus/CqeOpcode/SendOp/MsgKind/WireError) would \
                     silently swallow variants added by new schemes; list \
                     every variant explicitly"
                        .to_string(),
                );
            }
        }
    });
}

/// `_`, a lowercase binding, or `mut`/`ref` + binding: matches anything.
fn is_catch_all(pat: &[String]) -> bool {
    let idents: Vec<&str> = pat
        .iter()
        .map(|s| s.as_str())
        .filter(|s| !matches!(*s, "mut" | "ref"))
        .collect();
    match idents.as_slice() {
        ["_"] => true,
        [one] => one.starts_with(|c: char| c.is_ascii_lowercase()),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// no-panic-in-lib (AST form).
// ---------------------------------------------------------------------

/// Walks a lib function for panic sites. `proven` carries receivers
/// proven non-empty by a preceding `if x.is_empty() { break/return; }`
/// guard in this or an enclosing block.
fn panic_walk_block(path: &str, block: &Block, proven: &mut Vec<String>, out: &mut Vec<Finding>) {
    let mark = proven.len();
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    panic_walk_expr(path, e, proven, out);
                }
                if let Some(b) = else_block {
                    panic_walk_block(path, b, proven, out);
                }
            }
            Stmt::Expr { expr, .. } => {
                // Non-empty guard shape: `if x.is_empty() { <diverge>; }`
                // proves `x` non-empty for the rest of this block.
                if let Some(key) = nonempty_guard_key(expr) {
                    panic_walk_expr(path, expr, proven, out);
                    proven.push(key);
                    continue;
                }
                panic_walk_expr(path, expr, proven, out);
            }
        }
    }
    proven.truncate(mark);
}

/// Matches `if <recv>.is_empty() { break | continue | return }` (no else)
/// and returns the receiver's field path.
fn nonempty_guard_key(expr: &Expr) -> Option<String> {
    let [Node::If {
        cond,
        then,
        else_: None,
        ..
    }] = expr.nodes.as_slice()
    else {
        return None;
    };
    let [Node::Chain(c)] = cond.nodes.as_slice() else {
        return None;
    };
    let last = c.ops.len().checked_sub(1)?;
    let Op::Method { name, args, .. } = &c.ops[last] else {
        return None;
    };
    if name != "is_empty" || !args.is_empty() {
        return None;
    }
    let diverges = then.stmts.iter().any(|s| {
        matches!(
            s,
            Stmt::Expr { expr, .. } if matches!(
                expr.nodes.first(),
                Some(Node::Break { .. } | Node::Continue { .. } | Node::Return { .. })
            )
        )
    });
    if !diverges {
        return None;
    }
    field_path(c, last)
}

fn panic_walk_expr(path: &str, expr: &Expr, proven: &mut Vec<String>, out: &mut Vec<Finding>) {
    for node in &expr.nodes {
        match node {
            Node::Chain(c) => panic_walk_chain(path, c, proven, out),
            Node::If {
                cond, then, else_, ..
            } => {
                panic_walk_expr(path, cond, proven, out);
                panic_walk_block(path, then, proven, out);
                let mut e = else_.as_deref();
                while let Some(n) = e {
                    match n {
                        Node::BlockExpr(b) => {
                            panic_walk_block(path, b, proven, out);
                            e = None;
                        }
                        Node::If {
                            cond, then, else_, ..
                        } => {
                            panic_walk_expr(path, cond, proven, out);
                            panic_walk_block(path, then, proven, out);
                            e = else_.as_deref();
                        }
                        _ => e = None,
                    }
                }
            }
            Node::Match {
                scrutinee, arms, ..
            } => {
                panic_walk_expr(path, scrutinee, proven, out);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        panic_walk_expr(path, g, proven, out);
                    }
                    panic_walk_expr(path, &arm.body, proven, out);
                }
            }
            Node::Loop { body, .. } => panic_walk_block(path, body, proven, out),
            Node::While { cond, body, .. } => {
                panic_walk_expr(path, cond, proven, out);
                panic_walk_block(path, body, proven, out);
            }
            Node::For { iter, body, .. } => {
                panic_walk_expr(path, iter, proven, out);
                panic_walk_block(path, body, proven, out);
            }
            Node::BlockExpr(b) | Node::AsyncBlock(b) => panic_walk_block(path, b, proven, out),
            Node::Closure { body, .. } => panic_walk_expr(path, body, proven, out),
            Node::Return { value, .. } => {
                if let Some(v) = value {
                    panic_walk_expr(path, v, proven, out);
                }
            }
            Node::Macro { name, inner, line } => {
                if PANIC_MACROS.contains(&name.as_str()) {
                    push(
                        out,
                        NO_PANIC_IN_LIB,
                        path,
                        *line,
                        format!(
                            "`{name}!` in library code crashes the rank instead of \
                             surfacing a typed error; return an error or document \
                             the invariant behind an audited escape"
                        ),
                    );
                }
                if let Some(i) = inner {
                    panic_walk_expr(path, i, proven, out);
                }
            }
            Node::Break { .. } | Node::Continue { .. } => {}
        }
    }
}

fn panic_walk_chain(path: &str, c: &Chain, proven: &mut Vec<String>, out: &mut Vec<Finding>) {
    if let Some(g) = &c.base_group {
        panic_walk_expr(path, g, proven, out);
    }
    for (i, op) in c.ops.iter().enumerate() {
        match op {
            Op::Method { name, args, line } => {
                for a in args {
                    panic_walk_expr(path, a, proven, out);
                }
                if PANIC_METHODS.contains(&name.as_str()) && !panic_exempt(c, i, proven) {
                    push(
                        out,
                        NO_PANIC_IN_LIB,
                        path,
                        *line,
                        format!(
                            "`.{name}()` in library code crashes the rank instead of \
                             surfacing a typed error; return an error or document \
                             the invariant behind an audited escape"
                        ),
                    );
                }
            }
            Op::CallArgs { args, .. } => {
                for a in args {
                    panic_walk_expr(path, a, proven, out);
                }
            }
            Op::Index(e) => panic_walk_expr(path, e, proven, out),
            Op::StructLit(fields) => {
                for e in fields {
                    panic_walk_expr(path, e, proven, out);
                }
            }
            Op::Field(_) | Op::Await { .. } | Op::Try { .. } => {}
        }
    }
}

/// The two audited-to-death shapes the AST can verify itself:
/// `x.checked_add(y).expect(..)` (checked arithmetic made loud) and
/// `x.pop_front().unwrap()` after an `is_empty` guard proved `x`
/// non-empty in this block.
fn panic_exempt(c: &Chain, unwrap_idx: usize, proven: &[String]) -> bool {
    let Some(prev_idx) = unwrap_idx.checked_sub(1) else {
        return false;
    };
    if let Op::Method { name, .. } = &c.ops[prev_idx] {
        if name.starts_with("checked_") {
            return true;
        }
        if matches!(name.as_str(), "pop" | "pop_front" | "pop_back") {
            if let Some(key) = field_path(c, prev_idx) {
                return proven.iter().any(|p| p == &key);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_source;

    fn rules_hit(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        lint_source(path, src)
            .findings
            .iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    // -- no-blocking-in-async -------------------------------------------

    #[test]
    fn async_block_inside_sync_fn_is_analyzed() {
        let src = "fn f(&mut self) -> impl Future<Output = ()> {\n\
                   async move {\n\
                   std::thread::sleep(d);\n\
                   }\n}";
        let hits = rules_hit("crates/core/src/rank.rs", src);
        assert!(hits.contains(&(NO_BLOCKING_IN_ASYNC, 3)), "{hits:?}");
    }

    #[test]
    fn thread_sleep_in_async_fires() {
        let src = "async fn f() { std::thread::sleep(d); }";
        let hits = rules_hit("crates/core/src/rank.rs", src);
        assert!(
            hits.iter().any(|(r, _)| *r == NO_BLOCKING_IN_ASYNC),
            "{hits:?}"
        );
        // Same call in a sync fn is out of scope for this rule.
        let sync = "fn f() { std::thread::sleep(d); }";
        assert!(!rules_hit("crates/core/src/rank.rs", sync)
            .iter()
            .any(|(r, _)| *r == NO_BLOCKING_IN_ASYNC));
    }

    #[test]
    fn zero_arg_recv_without_await_fires() {
        let src = "async fn f(rx: Receiver<u8>) { let v = rx.recv(); }";
        let hits = rules_hit("crates/sim/src/engine.rs", src);
        assert!(
            hits.iter().any(|(r, _)| *r == NO_BLOCKING_IN_ASYNC),
            "{hits:?}"
        );
        // The MPI `recv(src, tag).await` surface is not a channel recv.
        let mpi = "async fn f(&mut self) { let v = self.recv(src, tag).await; }";
        assert!(!rules_hit("crates/core/src/pt2pt.rs", mpi)
            .iter()
            .any(|(r, _)| *r == NO_BLOCKING_IN_ASYNC));
    }

    #[test]
    fn lock_in_async_body_fires() {
        let src = "async fn f(&mut self) { let st = self.shared.lock(); st.go(); }";
        let hits = rules_hit("crates/sim/src/process.rs", src);
        assert!(
            hits.iter().any(|(r, _)| *r == NO_BLOCKING_IN_ASYNC),
            "{hits:?}"
        );
        // Outside the async crates the rule stays quiet.
        assert!(!rules_hit("crates/bench/src/figures.rs", src)
            .iter()
            .any(|(r, _)| *r == NO_BLOCKING_IN_ASYNC));
    }

    // -- credit-path-pairing --------------------------------------------

    #[test]
    fn consume_then_send_is_clean() {
        let src = "fn f(&mut self, dst: Rank) {\n\
                   self.conn_mut(dst).credits.spend();\n\
                   self.post_frame(dst, &h, &[], WrKind::CtrlSend);\n}";
        assert!(rules_hit("crates/core/src/pt2pt.rs", src).is_empty());
    }

    #[test]
    fn consume_without_send_fires_at_fn_end() {
        let src = "fn f(&mut self, dst: Rank) {\n\
                   self.conn_mut(dst).credits.spend();\n}";
        let hits = rules_hit("crates/core/src/pt2pt.rs", src);
        assert_eq!(hits, [(CREDIT_PATH_PAIRING, 2)]);
    }

    #[test]
    fn early_return_path_leaks_credit() {
        let src = "fn f(&mut self, dst: Rank) {\n\
                   self.conn_mut(dst).credits.spend();\n\
                   if self.conn(dst).failed {\n\
                   return;\n\
                   }\n\
                   self.post_frame(dst, &h, &[], WrKind::CtrlSend);\n}";
        let hits = rules_hit("crates/core/src/pt2pt.rs", src);
        assert_eq!(hits, [(CREDIT_PATH_PAIRING, 2)]);
    }

    #[test]
    fn question_mark_path_leaks_credit() {
        let src = "fn f(&mut self, dst: Rank) -> Result<(), E> {\n\
                   self.conn_mut(dst).credits.spend();\n\
                   self.qp_mut(dst).post_send(wr)?;\n\
                   self.post_frame(dst, &h, &[], WrKind::CtrlSend);\n\
                   Ok(())\n}";
        let hits = rules_hit("crates/core/src/pt2pt.rs", src);
        assert_eq!(hits, [(CREDIT_PATH_PAIRING, 2)]);
    }

    #[test]
    fn branch_where_both_arms_send_is_clean() {
        let src = "fn f(&mut self, req: ReqId) {\n\
                   self.conn_mut(dst).credits.spend();\n\
                   if eager_ok {\n\
                   self.send_eager(req);\n\
                   } else {\n\
                   self.start_rndz(req, false);\n\
                   }\n}";
        assert!(rules_hit("crates/core/src/pt2pt.rs", src).is_empty());
    }

    #[test]
    fn branch_where_one_arm_skips_send_fires() {
        let src = "fn f(&mut self, req: ReqId) {\n\
                   self.conn_mut(dst).credits.spend();\n\
                   if eager_ok {\n\
                   self.send_eager(req);\n\
                   }\n}";
        let hits = rules_hit("crates/core/src/pt2pt.rs", src);
        assert_eq!(hits, [(CREDIT_PATH_PAIRING, 2)]);
    }

    #[test]
    fn loop_break_between_consume_and_send_fires() {
        let src = "fn f(&mut self, peer: Rank) {\n\
                   loop {\n\
                   self.conn_mut(peer).credits.spend();\n\
                   if done {\n\
                   break;\n\
                   }\n\
                   self.start_rndz(req, false);\n\
                   }\n}";
        let hits = rules_hit("crates/core/src/pt2pt.rs", src);
        assert_eq!(hits, [(CREDIT_PATH_PAIRING, 3)]);
    }

    #[test]
    fn make_header_is_a_consume_at_call_sites() {
        let leak = "fn f(&mut self, peer: Rank) {\n\
                    let h = self.make_header(peer, MsgKind::Credit);\n}";
        let hits = rules_hit("crates/core/src/progress.rs", leak);
        assert_eq!(hits, [(CREDIT_PATH_PAIRING, 2)]);
        // …but its own implementation is the op, not a leak.
        let imp = "fn make_header(&mut self, peer: Rank) -> MsgHeader {\n\
                   let credits = c.credits.take_piggyback();\n\
                   MsgHeader { credits }\n}";
        assert!(rules_hit("crates/core/src/rank.rs", imp).is_empty());
    }

    #[test]
    fn bare_post_send_discharges_mailbox_returns_but_not_spends() {
        // The mailbox publish inside `send_rdma_credit_update` is a raw
        // `ibfabric::post_send`, which settles the drained return...
        let ring = "fn f(&mut self, qp: QpId) {\n\
                    let total = c.credits.take_mailbox_return();\n\
                    ibfabric::post_send(ctx, qp, wr).expect(\"x\");\n}";
        let hits = rules_hit("crates/core/src/progress.rs", ring);
        assert!(
            !hits.iter().any(|(r, _)| *r == CREDIT_PATH_PAIRING),
            "{hits:?}"
        );
        // ...but a spent credit still needs a protocol-level send.
        let buf = "fn f(&mut self, qp: QpId) {\n\
                   self.conn_mut(dst).credits.spend();\n\
                   ibfabric::post_send(ctx, qp, wr).expect(\"x\");\n}";
        let hits = rules_hit("crates/core/src/progress.rs", buf);
        assert!(hits.contains(&(CREDIT_PATH_PAIRING, 2)), "{hits:?}");
    }

    #[test]
    fn ring_growth_install_stage_publish_is_clean() {
        // The real `grow_ring` shape: switch, stage the displaced ring,
        // publish the new generation through the mailbox.
        let src = "fn grow_ring(&mut self, peer: Rank) {\n\
                   let old = self.conn_mut(peer).install_grown_ring(mr, new_slots);\n\
                   self.conn_mut(peer).stage_retired_ring(old);\n\
                   self.send_rdma_credit_update(peer);\n}";
        assert!(rules_hit("crates/core/src/progress.rs", src).is_empty());
    }

    #[test]
    fn ring_growth_without_staging_fires() {
        // `send_rdma_credit_update` is the publish half only: without
        // `stage_retired_ring` the old ring's in-flight tail is dropped.
        let src = "fn f(&mut self, peer: Rank) {\n\
                   let old = self.conn_mut(peer).install_grown_ring(mr, n);\n\
                   self.send_rdma_credit_update(peer);\n}";
        let hits = rules_hit("crates/core/src/progress.rs", src);
        assert_eq!(hits, [(CREDIT_PATH_PAIRING, 2)]);
    }

    #[test]
    fn ring_growth_without_publishing_fires() {
        let src = "fn f(&mut self, peer: Rank) {\n\
                   let old = self.conn_mut(peer).install_grown_ring(mr, n);\n\
                   self.conn_mut(peer).stage_retired_ring(old);\n}";
        let hits = rules_hit("crates/core/src/progress.rs", src);
        assert_eq!(hits, [(CREDIT_PATH_PAIRING, 2)]);
    }

    #[test]
    fn bare_post_send_does_not_publish_a_generation_switch() {
        // A raw mailbox WRITE carries no gen/rkey/slots words, so it
        // settles mailbox returns but not the growth publish.
        let src = "fn f(&mut self, peer: Rank) {\n\
                   let old = self.conn_mut(peer).install_grown_ring(mr, n);\n\
                   self.conn_mut(peer).stage_retired_ring(old);\n\
                   ibfabric::post_send(ctx, qp, wr);\n}";
        let hits = rules_hit("crates/core/src/progress.rs", src);
        assert_eq!(hits, [(CREDIT_PATH_PAIRING, 2)]);
    }

    #[test]
    fn ring_growth_question_mark_path_leaks_both_halves() {
        let src = "fn f(&mut self, peer: Rank) -> Result<(), E> {\n\
                   let old = self.conn_mut(peer).install_grown_ring(mr, n);\n\
                   let qp = self.established_qp(peer)?;\n\
                   self.conn_mut(peer).stage_retired_ring(old);\n\
                   self.send_rdma_credit_update(qp);\n\
                   Ok(())\n}";
        let hits = rules_hit("crates/core/src/progress.rs", src);
        assert_eq!(hits, [(CREDIT_PATH_PAIRING, 2), (CREDIT_PATH_PAIRING, 2)]);
    }

    #[test]
    fn credit_rule_scoped_to_core_src() {
        let src = "fn f(&mut self) { self.conn.credits.spend(); }";
        assert!(rules_hit("crates/bench/src/figures.rs", src).is_empty());
        assert!(rules_hit("crates/core/tests/flow.rs", src).is_empty());
    }

    // -- quiesce-pairing --------------------------------------------------

    #[test]
    fn quiesce_released_is_clean() {
        let src = "fn f(&mut self) {\n\
                   let procs = self.begin_quiesce();\n\
                   self.resume_world(procs);\n}";
        assert!(rules_hit("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn quiesce_aborted_is_clean() {
        let src = "fn f(&mut self) -> RunReport {\n\
                   let procs = self.begin_quiesce();\n\
                   self.abort_quiesce(procs)\n}";
        assert!(rules_hit("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn quiesce_leak_fires_at_fn_end() {
        let src = "fn f(&mut self) {\n\
                   let procs = self.begin_quiesce();\n\
                   self.note_fence(procs);\n}";
        let hits = rules_hit("crates/sim/src/engine.rs", src);
        assert_eq!(hits, [(QUIESCE_PAIRING, 2)]);
        // Scoped to crates/sim library code.
        assert!(rules_hit("crates/core/src/world.rs", src).is_empty());
        assert!(rules_hit("crates/sim/tests/engine.rs", src).is_empty());
    }

    #[test]
    fn quiesce_question_mark_path_leaks() {
        let src = "fn f(&mut self) -> Result<(), E> {\n\
                   let procs = self.begin_quiesce();\n\
                   let action = self.fence_action()?;\n\
                   self.resume_world(procs);\n\
                   Ok(())\n}";
        let hits = rules_hit("crates/sim/src/engine.rs", src);
        assert_eq!(hits, [(QUIESCE_PAIRING, 2)]);
    }

    #[test]
    fn quiesce_branch_where_both_arms_close_is_clean() {
        let src = "fn f(&mut self, stop: bool) {\n\
                   let procs = self.begin_quiesce();\n\
                   if stop {\n\
                   self.abort_quiesce(procs);\n\
                   } else {\n\
                   self.resume_world(procs);\n\
                   }\n}";
        assert!(rules_hit("crates/sim/src/engine.rs", src).is_empty());
    }

    // -- exhaustive-protocol-match ---------------------------------------

    #[test]
    fn wildcard_on_protocol_enum_fires() {
        let src = "fn f(s: CqeStatus) -> bool {\n\
                   match s {\n\
                   CqeStatus::Success => true,\n\
                   _ => false,\n\
                   }\n}";
        let hits = rules_hit("crates/fabric/src/cq.rs", src);
        assert_eq!(hits, [(EXHAUSTIVE_PROTOCOL_MATCH, 4)]);
    }

    #[test]
    fn binding_catch_all_also_fires() {
        let src = "fn f(e: WireError) -> u8 {\n\
                   match e {\n\
                   WireError::BadKind(k) => k,\n\
                   other => 0,\n\
                   }\n}";
        let hits = rules_hit("crates/core/src/wire.rs", src);
        assert_eq!(hits, [(EXHAUSTIVE_PROTOCOL_MATCH, 4)]);
    }

    #[test]
    fn exhaustive_protocol_match_is_clean() {
        let src = "fn f(s: CqeStatus) -> bool {\n\
                   match s {\n\
                   CqeStatus::Success => true,\n\
                   CqeStatus::RnrRetryExceeded | CqeStatus::WorkRequestFlushed => false,\n\
                   }\n}";
        assert!(rules_hit("crates/fabric/src/cq.rs", src).is_empty());
    }

    #[test]
    fn non_protocol_match_may_use_wildcard() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   match x {\n\
                   Some(v) => v,\n\
                   _ => 0,\n\
                   }\n}";
        assert!(rules_hit("crates/core/src/wire.rs", src).is_empty());
    }

    #[test]
    fn literal_patterns_do_not_protect_a_match() {
        // `MsgKind::from_u8` style: numeric patterns, enum paths only in
        // arm *bodies* — the wildcard is the decoder's error path.
        let src = "fn from_u8(v: u8) -> Option<MsgKind> {\n\
                   match v {\n\
                   0 => Some(MsgKind::Eager),\n\
                   _ => None,\n\
                   }\n}";
        assert!(rules_hit("crates/core/src/wire.rs", src).is_empty());
    }

    // -- no-panic-in-lib refinements --------------------------------------

    #[test]
    fn checked_arithmetic_expect_is_exempt() {
        let src = "fn f(a: u64, b: u64) -> u64 { a.checked_add(b).expect(\"overflow\") }";
        assert!(rules_hit("crates/sim/src/time.rs", src).is_empty());
        // A bare expect still fires.
        let bare = "fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }";
        assert_eq!(
            rules_hit("crates/sim/src/time.rs", bare),
            [(NO_PANIC_IN_LIB, 1)]
        );
    }

    #[test]
    fn guarded_pop_is_exempt() {
        let src = "fn f(&mut self) {\n\
                   loop {\n\
                   if self.backlog.is_empty() {\n\
                   break;\n\
                   }\n\
                   let req = self.backlog.pop_front().expect(\"non-empty\");\n\
                   go(req);\n\
                   }\n}";
        assert!(rules_hit("crates/core/src/pt2pt.rs", src).is_empty());
    }

    #[test]
    fn unguarded_pop_still_fires() {
        let src = "fn f(&mut self) { let req = self.backlog.pop_front().expect(\"x\"); }";
        assert_eq!(
            rules_hit("crates/core/src/pt2pt.rs", src),
            [(NO_PANIC_IN_LIB, 1)]
        );
    }

    #[test]
    fn guard_on_different_receiver_does_not_exempt() {
        let src = "fn f(&mut self) {\n\
                   if self.other.is_empty() {\n\
                   return;\n\
                   }\n\
                   let req = self.backlog.pop_front().expect(\"x\");\n}";
        assert_eq!(
            rules_hit("crates/core/src/pt2pt.rs", src),
            [(NO_PANIC_IN_LIB, 5)]
        );
    }

    #[test]
    fn guard_proof_dies_with_its_block() {
        let src = "fn f(&mut self) {\n\
                   {\n\
                   if self.backlog.is_empty() {\n\
                   return;\n\
                   }\n\
                   }\n\
                   let req = self.backlog.pop_front().expect(\"x\");\n}";
        assert_eq!(
            rules_hit("crates/core/src/pt2pt.rs", src),
            [(NO_PANIC_IN_LIB, 7)]
        );
    }

    #[test]
    fn panic_macro_found_in_match_arm() {
        let src = "fn f(x: u8) { match x { 0 => {}, _ => unreachable!(\"no\"), } }";
        assert_eq!(
            rules_hit("crates/fabric/src/transport.rs", src),
            [(NO_PANIC_IN_LIB, 1)]
        );
    }

    #[test]
    fn catch_unwind_path_is_not_the_macro() {
        let src = "fn f() { let r = std::panic::catch_unwind(g); }";
        assert!(rules_hit("crates/core/src/rank.rs", src).is_empty());
    }
}
