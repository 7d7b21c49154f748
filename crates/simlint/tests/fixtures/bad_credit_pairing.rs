//! Fixture: consume-side ledger ops whose path can exit without a send.

fn early_return_leaks(c: &mut Conn, frame: Frame) -> Result<(), Error> {
    c.credits.spend();
    let slot = c.reserve(frame.len())?;
    c.post_frame(slot);
    Ok(())
}

fn branch_leaks(c: &mut Conn, urgent: bool) {
    c.credits.spend();
    if urgent {
        return;
    }
    c.post_frame(c.take());
}

fn falls_off_the_end(c: &mut Conn) {
    c.credits.spend();
    c.note_pending();
}

fn mailbox_return_lost_on_error(c: &mut Conn) -> Result<(), Error> {
    let total = c.ring.take_mailbox_return();
    let qp = c.established_qp()?;
    c.send_rdma_credit_update(qp, total);
    Ok(())
}

fn mailbox_return_never_published(c: &mut Conn) {
    let total = c.credits.take_mailbox_return();
    c.note_pending(total);
}
