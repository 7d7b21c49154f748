//! The path-obligation walk: one abstract interpretation of a function
//! body, instantiated twice.
//!
//! The walk carries the set of *obligations* opened so far on the current
//! path — each a `(line, op)` pair — through blocks, branches, loops and
//! closures; a call-site transition opens or discharges obligations, and
//! any exit edge — `return`, `?`, or fall-off — with the set non-empty is
//! reported at the line that opened the obligation. Two op tables use it:
//!
//! * **credit pairing** (`credit-path-pairing`), over each `crates/core`
//!   function: the consume-side `CreditWindow` ops (`spend`,
//!   `take_piggyback`, `take_mailbox_return`, and `make_header`, which
//!   piggybacks) await a matching send/grant op; otherwise credits are
//!   lost on that path. Both windows of a connection (receive buffers,
//!   ring slots) drain through the same methods, so one op table covers
//!   both. A mailbox return (`take_mailbox_return`) is additionally
//!   settled by the bare `post_send` that publishes the mailbox inside
//!   `send_rdma_credit_update`. A ring-generation switch
//!   (`install_grown_ring`) takes on *two* obligations at once: the
//!   displaced ring must be staged for draining (`stage_retired_ring`)
//!   and the new generation must be published
//!   (`send_rdma_credit_update`) before the function exits.
//! * **quiesce pairing** (`quiesce-pairing`), over `crates/sim` library
//!   code: a `begin_quiesce()` call opens a quiesce window, and every exit
//!   edge must have closed it with `resume_world` (release the fence) or
//!   `abort_quiesce` (end the run at it) — otherwise a checkpoint fence
//!   that takes an early-exit path leaves the whole world parked forever.

use crate::ast::{Block, Chain, Expr, FnDef, Node, Op, Stmt};
use crate::rules::{Finding, CREDIT_PATH_PAIRING, QUIESCE_PAIRING};
use std::collections::BTreeSet;

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

fn credit_rule_applies(path: &str) -> bool {
    path.contains("crates/core/") && path.contains("/src/")
}

/// quiesce-pairing watches the engine crate's library code: that is
/// where fences are opened and released.
fn quiesce_rule_applies(path: &str) -> bool {
    path.contains("crates/sim/") && path.contains("/src/")
}

/// Runs both rules over one file's parsed functions.
pub fn collect_findings(path: &str, fns: &[FnDef], out: &mut Vec<Finding>) {
    for f in fns {
        if f.in_test {
            continue;
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
    }
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
        ctx.out.push(Finding {
            rule: ctx.rule,
            file: ctx.path.to_string(),
            line,
            message: (ctx.message)(&op, edge),
        });
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
            Stmt::Let { init, else_block } => {
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
            Stmt::Expr(expr) => credit_expr(ctx, expr, st, loop_exits),
        }
    }
}

fn credit_expr(ctx: &mut CreditCtx, expr: &Expr, st: &mut Pending, loop_exits: &mut Vec<Pending>) {
    for node in &expr.nodes {
        match node {
            Node::Chain(c) => credit_chain(ctx, c, st, loop_exits),
            Node::If { cond, then, else_ } => {
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
                        Node::If { cond, then, else_ } => {
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
            Node::Match { scrutinee, arms } => {
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
            Node::Loop { body } | Node::While { body, .. } | Node::For { body, .. } => {
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
            Node::BlockExpr(b) => credit_block(ctx, b, st, loop_exits),
            Node::Closure(body) => {
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
            Node::Break | Node::Continue => {
                loop_exits.push(st.clone());
                st.clear(); // code after it in this walk is unreachable
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
        .filter(|_| matches!(c.ops.first(), Some(Op::CallArgs(_))))
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
            Op::CallArgs(args) => {
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
            Op::Field(_) | Op::Await => {}
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_source;

    fn rules_hit(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        lint_source(path, src)
            .iter()
            .map(|f| (f.rule, f.line))
            .collect()
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
}
