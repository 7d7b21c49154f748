//! Communicators: the world communicator and collective-consistent splits.

use crate::rank::MpiRank;
use crate::types::{CommCtx, Rank, WORLD_CTX};

/// A communicator: an ordered group of world ranks plus a context id that
/// isolates its traffic from other communicators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comm {
    pub(crate) ctx: CommCtx,
    /// Position = communicator rank, value = world rank.
    pub(crate) ranks: Vec<Rank>,
}

impl Comm {
    /// The world communicator for this process.
    pub fn world(mpi: &MpiRank) -> Comm {
        Comm::world_internal(mpi.size())
    }

    pub(crate) fn world_internal(size: usize) -> Comm {
        Comm {
            ctx: WORLD_CTX,
            ranks: (0..size).collect(),
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Context id (diagnostics).
    pub fn ctx(&self) -> CommCtx {
        self.ctx
    }

    /// The world rank of communicator rank `r`.
    pub fn world_rank(&self, r: usize) -> Rank {
        self.ranks[r]
    }

    /// This communicator's rank for a world rank, if a member.
    pub fn rank_of(&self, world_rank: Rank) -> Option<usize> {
        self.ranks.iter().position(|&r| r == world_rank)
    }

    /// The calling process's rank within this communicator.
    ///
    /// # Panics
    /// Panics if the process is not a member.
    #[expect(
        clippy::expect_used,
        reason = "documented panic — calling a collective on a communicator you are not part of is caller error"
    )]
    pub fn my_rank(&self, mpi: &MpiRank) -> usize {
        self.rank_of(mpi.rank())
            .expect("not a member of this communicator")
    }
}

impl MpiRank {
    /// Collectively splits `parent` into sub-communicators by `color`,
    /// ordering members by `(key, world rank)` — `MPI_Comm_split`.
    /// Returns `None` for callers passing a negative color.
    ///
    /// Must be called by every member of `parent` in the same call order
    /// (contexts are assigned from a per-process counter kept consistent
    /// by that discipline, as in real MPI implementations).
    pub async fn comm_split(&mut self, parent: &Comm, color: i32, key: i32) -> Option<Comm> {
        // Exchange (color, key) among parent members.
        let mine = [color as i64, key as i64];
        let all = crate::collectives::allgather_scalars(self, parent, &mine).await;
        let ctx = self.next_ctx;
        #[expect(
            clippy::expect_used,
            reason = "checked arithmetic made loud: 65 536 communicator splits in one run is caller error"
        )]
        let next_ctx = self
            .next_ctx
            .checked_add(1)
            .expect("communicator contexts exhausted");
        self.next_ctx = next_ctx;
        if color < 0 {
            return None;
        }
        let mut members: Vec<(i64, Rank)> = all
            .chunks_exact(2)
            .enumerate()
            .filter(|(_, ck)| ck[0] == color as i64)
            .map(|(i, ck)| (ck[1], parent.world_rank(i)))
            .collect();
        members.sort();
        Some(Comm {
            ctx,
            ranks: members.into_iter().map(|(_, r)| r).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_mapping() {
        let w = Comm::world_internal(4);
        assert_eq!(w.size(), 4);
        assert_eq!(w.world_rank(2), 2);
        assert_eq!(w.rank_of(3), Some(3));
        assert_eq!(w.rank_of(4), None);
        assert_eq!(w.ctx(), WORLD_CTX);
    }
}
