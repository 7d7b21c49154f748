//! Collective operations over [`Comm`] groups, built on point-to-point.
//!
//! Algorithms are the textbook ones the MPICH lineage used in this era:
//! dissemination barrier, binomial broadcast/reduce, recursive-doubling
//! allreduce (with a pre/post fold for non-powers of two), ring allgather,
//! and pairwise-exchange all-to-all.
//!
//! The byte collectives take what they send by value, as anything that
//! becomes an `Arc<[u8]>`: a buffer the caller built that way (typed
//! collectives encode with [`crate::encode_shared`]) is what the wire
//! carries, with no copy, while borrowed bytes or a `Vec` are copied into
//! one. A rank's own chunk comes back as the same allocation (a [`Bytes`]
//! adopts the `Arc`), and everything received comes back as received.

use crate::comm::Comm;
use crate::pt2pt::Payload;
use crate::rank::MpiRank;
use crate::scalar::{decode_extend, decode_slice, encode_shared, ReduceOp, Scalar};
use crate::types::Tag;
use ibfabric::Bytes;
use std::sync::Arc;

/// Collective calls reserve the tag space above this bit.
const COLL_TAG_BASE: Tag = 0x4000_0000;

impl MpiRank {
    fn coll_tag(&mut self, comm: &Comm) -> Tag {
        let seq = self.coll_seq.entry(comm.ctx).or_insert(0);
        let tag = COLL_TAG_BASE + (*seq as Tag & 0x3FFF_FFFF);
        *seq = seq.wrapping_add(1);
        tag
    }

    async fn cwait_send<'a>(
        &mut self,
        data: impl Into<Payload<'a>>,
        dst_world: usize,
        tag: Tag,
        comm: &Comm,
    ) {
        let req = self.isend_ctx(data, dst_world, tag, comm.ctx);
        self.wait(req).await;
    }

    async fn crecv(&mut self, src_world: usize, tag: Tag, comm: &Comm) -> Bytes {
        let req = self.irecv_ctx(Some(src_world), Some(tag), comm.ctx);
        let (_status, data) = self.wait_recv(req).await;
        data
    }
}

/// Dissemination barrier: `ceil(log2 n)` rounds of shifted exchanges.
pub async fn barrier(mpi: &mut MpiRank, comm: &Comm) {
    let n = comm.size();
    if n <= 1 {
        return;
    }
    let me = comm.my_rank(mpi);
    let tag = mpi.coll_tag(comm);
    let mut dist = 1;
    while dist < n {
        let to = comm.world_rank((me + dist) % n);
        let from = comm.world_rank((me + n - dist) % n);
        let sreq = mpi.isend_ctx(Payload::Borrowed(&[]), to, tag, comm.ctx);
        let rreq = mpi.irecv_ctx(Some(from), Some(tag), comm.ctx);
        mpi.wait(sreq).await;
        let _ = mpi.wait_recv(rreq).await;
        dist <<= 1;
    }
}

/// Binomial-tree broadcast of a byte buffer from `root` (communicator
/// rank). The root hands `data` itself to each child and gets it back
/// (no copy); a non-root's `data` is dropped, and it gets the payload it
/// received, as received (no copy), which it forwards to its children.
pub async fn bcast_bytes(
    mpi: &mut MpiRank,
    comm: &Comm,
    root: usize,
    data: impl Into<Arc<[u8]>>,
) -> Bytes {
    let data: Arc<[u8]> = data.into();
    let n = comm.size();
    if n <= 1 {
        return data.into();
    }
    let me = comm.my_rank(mpi);
    let tag = mpi.coll_tag(comm);
    // Rotate so the root is virtual rank 0.
    let vrank = (me + n - root) % n;
    // Receive phase: find the highest set bit of vrank.
    let received = if vrank != 0 {
        let mask = 1 << (usize::BITS - 1 - vrank.leading_zeros());
        let parent = (vrank - mask + root) % n;
        Some(mpi.crecv(comm.world_rank(parent), tag, comm).await)
    } else {
        None
    };
    // Send phase: children are vrank + 2^k for 2^k > vrank's high bit.
    let mut mask = if vrank == 0 {
        1
    } else {
        1 << (usize::BITS - vrank.leading_zeros())
    };
    while vrank + mask < n {
        let child = comm.world_rank((vrank + mask + root) % n);
        match &received {
            None => mpi.cwait_send(Arc::clone(&data), child, tag, comm).await,
            Some(got) => mpi.cwait_send(&got[..], child, tag, comm).await,
        }
        mask <<= 1;
    }
    received.unwrap_or_else(|| data.into())
}

/// Broadcast of typed scalars.
pub async fn bcast_scalars<T: Scalar>(mpi: &mut MpiRank, comm: &Comm, root: usize, data: &mut [T]) {
    let bytes = if comm.my_rank(mpi) == root {
        encode_shared(data)
    } else {
        Arc::default()
    };
    let out = bcast_bytes(mpi, comm, root, bytes).await;
    if comm.my_rank(mpi) != root {
        crate::scalar::decode_into(&out, data);
    }
}

/// Binomial-tree reduction to `root`; returns the reduced vector there.
pub async fn reduce_scalars<T: Scalar>(
    mpi: &mut MpiRank,
    comm: &Comm,
    root: usize,
    op: ReduceOp,
    data: &[T],
) -> Option<Vec<T>> {
    let n = comm.size();
    let me = comm.my_rank(mpi);
    let tag = mpi.coll_tag(comm);
    let mut acc: Vec<T> = data.to_vec();
    if n > 1 {
        let vrank = (me + n - root) % n;
        let mut mask = 1usize;
        while mask < n {
            if vrank & mask != 0 {
                let parent = (vrank - mask + root) % n;
                mpi.cwait_send(encode_shared(&acc), comm.world_rank(parent), tag, comm)
                    .await;
                break;
            } else if vrank + mask < n {
                let child = (vrank + mask + root) % n;
                let bytes = mpi.crecv(comm.world_rank(child), tag, comm).await;
                let other: Vec<T> = decode_slice(&bytes);
                assert_eq!(other.len(), acc.len(), "reduce length mismatch");
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = T::reduce(op, *a, b);
                }
            }
            mask <<= 1;
        }
    }
    (me == root).then_some(acc)
}

/// Allreduce: recursive doubling on the power-of-two core, with extra
/// ranks folding in before and receiving the result after.
pub async fn allreduce_scalars<T: Scalar>(
    mpi: &mut MpiRank,
    comm: &Comm,
    op: ReduceOp,
    data: &[T],
) -> Vec<T> {
    let n = comm.size();
    let me = comm.my_rank(mpi);
    let tag = mpi.coll_tag(comm);
    let mut acc: Vec<T> = data.to_vec();
    if n == 1 {
        return acc;
    }
    let pof2 = 1usize << (usize::BITS - 1 - n.leading_zeros());
    let rem = n - pof2;
    // Phase 1: ranks >= pof2 send their data to (me - pof2).
    if me >= pof2 {
        mpi.cwait_send(encode_shared(&acc), comm.world_rank(me - pof2), tag, comm)
            .await;
    } else if me < rem {
        let bytes = mpi.crecv(comm.world_rank(me + pof2), tag, comm).await;
        for (a, b) in acc.iter_mut().zip(decode_slice::<T>(&bytes)) {
            *a = T::reduce(op, *a, b);
        }
    }
    // Phase 2: recursive doubling among the first pof2 ranks.
    if me < pof2 {
        let mut mask = 1usize;
        while mask < pof2 {
            let partner = me ^ mask;
            let sreq = mpi.isend_ctx(encode_shared(&acc), comm.world_rank(partner), tag, comm.ctx);
            let rreq = mpi.irecv_ctx(Some(comm.world_rank(partner)), Some(tag), comm.ctx);
            mpi.wait(sreq).await;
            let (_s, bytes) = mpi.wait_recv(rreq).await;
            for (a, b) in acc.iter_mut().zip(decode_slice::<T>(&bytes)) {
                *a = T::reduce(op, *a, b);
            }
            mask <<= 1;
        }
    }
    // Phase 3: send results back to the folded-in ranks.
    if me < rem {
        mpi.cwait_send(encode_shared(&acc), comm.world_rank(me + pof2), tag, comm)
            .await;
    } else if me >= pof2 {
        let bytes = mpi.crecv(comm.world_rank(me - pof2), tag, comm).await;
        acc = decode_slice(&bytes);
    }
    acc
}

/// Ring allgather of equally-typed contributions; result is the
/// concatenation in communicator-rank order.
pub async fn allgather_scalars<T: Scalar>(mpi: &mut MpiRank, comm: &Comm, mine: &[T]) -> Vec<T> {
    let chunks = allgather_bytes(mpi, comm, encode_shared(mine)).await;
    let mut out = Vec::with_capacity(mine.len() * comm.size());
    for c in &chunks {
        decode_extend(c, &mut out);
    }
    out
}

/// Allgather of byte buffers (possibly different sizes); `mine` comes
/// back itself (no copy) in this rank's slot.
///
/// Power-of-two groups use recursive doubling — symmetric pairwise
/// exchanges, as the MPICH lineage did, which also keeps per-connection
/// credit flow bidirectional. Other sizes fall back to a ring, which sends
/// `mine` itself, forwards the rest as received and hands back each chunk
/// as received (no copy). Recursive doubling frames several chunks into
/// one message, built in one allocation, so it copies each chunk into and
/// out of the message that carried it.
pub async fn allgather_bytes(
    mpi: &mut MpiRank,
    comm: &Comm,
    mine: impl Into<Arc<[u8]>>,
) -> Vec<Bytes> {
    let mine: Arc<[u8]> = mine.into();
    let n = comm.size();
    let me = comm.my_rank(mpi);
    let tag = mpi.coll_tag(comm);
    let mut chunks: Vec<Bytes> = std::iter::repeat_with(Bytes::default).take(n).collect();
    chunks[me] = Arc::clone(&mine).into();
    if n == 1 {
        return chunks;
    }
    if n.is_power_of_two() {
        // Recursive doubling: at step s, exchange the 2^s chunks already
        // held with the partner me ^ 2^s. Chunks are framed with their
        // owner index so ragged sizes survive concatenation.
        let mut mask = 1usize;
        while mask < n {
            let partner = me ^ mask;
            let group0 = me & !(mask - 1); // base of my current block
            let held = group0..group0 + mask;
            let total = held.clone().map(|idx| 8 + chunks[idx].len()).sum();
            let mut payload: Arc<[u8]> = std::iter::repeat_n(0, total).collect();
            // Freshly built, so unique: `make_mut` hands out the buffer in place.
            let mut rest = &mut Arc::make_mut(&mut payload)[..];
            for idx in held {
                let (frame, tail) = rest.split_at_mut(8 + chunks[idx].len());
                frame[..4].copy_from_slice(&(idx as u32).to_le_bytes());
                frame[4..8].copy_from_slice(&(chunks[idx].len() as u32).to_le_bytes());
                frame[8..].copy_from_slice(&chunks[idx]);
                rest = tail;
            }
            let sreq = mpi.isend_ctx(payload, comm.world_rank(partner), tag, comm.ctx);
            let rreq = mpi.irecv_ctx(Some(comm.world_rank(partner)), Some(tag), comm.ctx);
            mpi.wait(sreq).await;
            let (_s, data) = mpi.wait_recv(rreq).await;
            let mut off = 0;
            while off < data.len() {
                let idx = crate::wire::u32_at(&data, off) as usize;
                let len = crate::wire::u32_at(&data, off + 4) as usize;
                chunks[idx] = data[off + 8..off + 8 + len].to_vec().into();
                off += 8 + len;
            }
            mask <<= 1;
        }
        return chunks;
    }
    let right = comm.world_rank((me + 1) % n);
    let left = comm.world_rank((me + n - 1) % n);
    // Ring fallback: pass chunk (me - step) to the right each round.
    for step in 0..n - 1 {
        let send_idx = (me + n - step) % n;
        let sreq = if send_idx == me {
            mpi.isend_ctx(Arc::clone(&mine), right, tag, comm.ctx)
        } else {
            mpi.isend_ctx(&chunks[send_idx][..], right, tag, comm.ctx)
        };
        let rreq = mpi.irecv_ctx(Some(left), Some(tag), comm.ctx);
        mpi.wait(sreq).await;
        let (_s, data) = mpi.wait_recv(rreq).await;
        let recv_idx = (me + n - step - 1) % n;
        chunks[recv_idx] = data;
    }
    chunks
}

/// Pairwise-exchange all-to-all: `chunks[i]` goes to communicator rank
/// `i`, each handed to its send as it is; returns what everyone sent to
/// this process (indexed by source), each chunk as received (no copy), and
/// this rank's own chunk itself (no copy). Handles unequal sizes, so this
/// is also `alltoallv`.
pub async fn alltoallv_bytes<C: Into<Arc<[u8]>>>(
    mpi: &mut MpiRank,
    comm: &Comm,
    chunks: Vec<C>,
) -> Vec<Bytes> {
    let n = comm.size();
    assert_eq!(chunks.len(), n, "need one chunk per member");
    let mut chunks: Vec<Arc<[u8]>> = chunks.into_iter().map(Into::into).collect();
    let me = comm.my_rank(mpi);
    let tag = mpi.coll_tag(comm);
    let mut out: Vec<Bytes> = std::iter::repeat_with(Bytes::default).take(n).collect();
    out[me] = std::mem::take(&mut chunks[me]).into();
    for step in 1..n {
        // For power-of-two sizes this is the XOR schedule; otherwise a
        // rotation — both pair every process exactly once per step.
        let partner = if n.is_power_of_two() {
            me ^ step
        } else {
            (me + step) % n
        };
        let recv_from = if n.is_power_of_two() {
            partner
        } else {
            (me + n - step) % n
        };
        let chunk = std::mem::take(&mut chunks[partner]);
        let sreq = mpi.isend_ctx(chunk, comm.world_rank(partner), tag, comm.ctx);
        let rreq = mpi.irecv_ctx(Some(comm.world_rank(recv_from)), Some(tag), comm.ctx);
        mpi.wait(sreq).await;
        let (_s, data) = mpi.wait_recv(rreq).await;
        out[recv_from] = data;
    }
    out
}

/// All-to-all of typed scalars, equal count per destination.
pub async fn alltoall_scalars<T: Scalar>(mpi: &mut MpiRank, comm: &Comm, data: &[T]) -> Vec<T> {
    let n = comm.size();
    assert_eq!(data.len() % n, 0, "data must divide evenly");
    let per = data.len() / n;
    let chunks: Vec<Arc<[u8]>> = (0..n)
        .map(|i| encode_shared(&data[i * per..(i + 1) * per]))
        .collect();
    let got = alltoallv_bytes(mpi, comm, chunks).await;
    let mut out = Vec::with_capacity(data.len());
    for c in &got {
        decode_extend(c, &mut out);
    }
    out
}

/// Reduce-scatter: elementwise reduction of equal-length contributions,
/// with block `i` of the result delivered to communicator rank `i`
/// (reduce + scatter, as the MPICH lineage implemented it at this scale).
pub async fn reduce_scatter_scalars<T: Scalar>(
    mpi: &mut MpiRank,
    comm: &Comm,
    op: ReduceOp,
    data: &[T],
) -> Vec<T> {
    let n = comm.size();
    assert_eq!(data.len() % n, 0, "data must divide evenly over members");
    let per = data.len() / n;
    let reduced = reduce_scalars(mpi, comm, 0, op, data).await;
    let chunks: Option<Vec<Arc<[u8]>>> = reduced.map(|full| {
        (0..n)
            .map(|i| encode_shared(&full[i * per..(i + 1) * per]))
            .collect()
    });
    let mine = scatter_bytes(mpi, comm, 0, chunks).await;
    decode_slice(&mine)
}

/// Inclusive prefix reduction (`MPI_Scan`): rank `k` receives the
/// reduction of contributions from ranks `0..=k`.
pub async fn scan_scalars<T: Scalar>(
    mpi: &mut MpiRank,
    comm: &Comm,
    op: ReduceOp,
    data: &[T],
) -> Vec<T> {
    let n = comm.size();
    let me = comm.my_rank(mpi);
    let tag = mpi.coll_tag(comm);
    let mut acc: Vec<T> = data.to_vec();
    // Linear pipeline: receive the prefix from the left, fold, forward.
    if me > 0 {
        let bytes = mpi.crecv(comm.world_rank(me - 1), tag, comm).await;
        for (a, b) in acc.iter_mut().zip(decode_slice::<T>(&bytes)) {
            *a = T::reduce(op, b, *a);
        }
    }
    if me + 1 < n {
        mpi.cwait_send(encode_shared(&acc), comm.world_rank(me + 1), tag, comm)
            .await;
    }
    acc
}

/// Gather byte buffers to `root` (communicator rank order), each as
/// received and the root's own itself (no copy either way); `None` on
/// non-roots, which hand `mine` itself to the send.
pub async fn gather_bytes(
    mpi: &mut MpiRank,
    comm: &Comm,
    root: usize,
    mine: impl Into<Arc<[u8]>>,
) -> Option<Vec<Bytes>> {
    let mine: Arc<[u8]> = mine.into();
    let n = comm.size();
    let me = comm.my_rank(mpi);
    let tag = mpi.coll_tag(comm);
    if me == root {
        let mut out: Vec<Bytes> = std::iter::repeat_with(Bytes::default).take(n).collect();
        out[me] = mine.into();
        for (r, slot) in out.iter_mut().enumerate() {
            if r != root {
                *slot = mpi.crecv(comm.world_rank(r), tag, comm).await;
            }
        }
        Some(out)
    } else {
        mpi.cwait_send(mine, comm.world_rank(root), tag, comm).await;
        None
    }
}

/// Scatter byte buffers from `root`, each handed to its send as it is;
/// each member receives its chunk, as received (no copy), and the root
/// gets its own back itself (no copy).
pub async fn scatter_bytes<C: Into<Arc<[u8]>>>(
    mpi: &mut MpiRank,
    comm: &Comm,
    root: usize,
    chunks: Option<Vec<C>>,
) -> Bytes {
    let n = comm.size();
    let me = comm.my_rank(mpi);
    let tag = mpi.coll_tag(comm);
    if me == root {
        #[expect(
            clippy::expect_used,
            reason = "documented API contract — the root rank must pass Some(chunks)"
        )]
        let chunks = chunks.expect("root must supply chunks");
        assert_eq!(chunks.len(), n);
        let mut own = Bytes::default();
        let mut reqs = Vec::new();
        for (r, chunk) in chunks.into_iter().enumerate() {
            let chunk: Arc<[u8]> = chunk.into();
            if r == root {
                own = chunk.into();
            } else {
                reqs.push(mpi.isend_ctx(chunk, comm.world_rank(r), tag, comm.ctx));
            }
        }
        for r in reqs {
            mpi.wait(r).await;
        }
        own
    } else {
        mpi.crecv(comm.world_rank(root), tag, comm).await
    }
}
