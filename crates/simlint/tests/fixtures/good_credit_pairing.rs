//! Fixture: every consume-side ledger op reaches a send on all paths.

fn fallible_work_first(c: &mut Conn, frame: Frame) -> Result<(), Error> {
    let slot = c.reserve(frame.len())?;
    c.credits.spend();
    c.post_frame(slot);
    Ok(())
}

fn paired_in_both_branches(c: &mut Conn, urgent: bool) {
    c.credits.spend();
    if urgent {
        c.post_frame(c.high_priority());
    } else {
        c.post_frame(c.take());
    }
}

fn loop_sends_before_continue(c: &mut Conn, frames: Vec<Frame>) {
    for frame in frames {
        c.credits.spend();
        c.post_frame(frame);
    }
}

fn mailbox_return_then_update(c: &mut Conn) -> Result<(), Error> {
    let qp = c.established_qp()?;
    let total = c.ring.take_mailbox_return();
    c.send_rdma_credit_update(qp, total);
    Ok(())
}

fn raw_post_send_publishes_the_mailbox(c: &mut Conn) {
    let total = c.credits.take_mailbox_return();
    post_send(c.qp, total.to_le_bytes());
}
