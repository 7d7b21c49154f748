//! MPI-layer configuration: the flow control scheme and its knobs.

/// Which flow control scheme governs a run: the paper's three designs
/// plus the RDMA eager channel of its companion design (reference
/// \[13\]), promoted to a first-class scheme because the ring *is* a
/// credit window.
///
/// Two predicates pick the mechanism ([`FlowControlScheme::is_user_level`],
/// [`FlowControlScheme::uses_ring`]). Growth is one path for every
/// user-level scheme, so each variant is a preset of the two caps it stops
/// at ([`MpiConfig::pool_cap`], [`MpiConfig::ring_cap`]): a static scheme
/// is its dynamic twin held at its starting size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowControlScheme {
    /// No MPI-level accounting; InfiniBand end-to-end flow control and RNR
    /// NAK/retry (infinite retry) protect the receiver (paper §4.1).
    Hardware,
    /// Credit-based with a fixed pre-posted buffer count (paper §4.2):
    /// the pool's cap is its starting size, `prepost`.
    UserStatic,
    /// Credit-based, starting small and growing the pre-posted pool on
    /// backlog feedback (paper §4.3), up to `max_prepost`.
    UserDynamic,
    /// Static credits plus the RDMA-written eager ring (companion design
    /// \[13\]): small frames bypass receive WQEs and the CQ entirely, and
    /// the ring slots form a second credit window returned via the RDMA
    /// credit mailbox. The ring's cap is the bootstrap ring
    /// (`rdma_ring_slots`), so it never grows. Dynamic growth over RDMA
    /// channels is the future work the paper's §7 flags as "more
    /// complicated".
    RdmaChannel,
    /// The RDMA eager channel with backlog-driven ring growth — the
    /// paper's §7 future work made concrete. Same transport as
    /// [`FlowControlScheme::RdmaChannel`] with the ring's cap raised to
    /// `rdma_ring_max_slots`: when the sender's ring-full conversions
    /// cross the ECM-style threshold the receiver registers a
    /// geometrically larger ring and publishes it through the credit
    /// mailbox as a versioned ring update.
    RdmaChannelDyn,
}

impl FlowControlScheme {
    /// Every scheme, in presentation order: the paper's three, then the
    /// RDMA eager channel and its grown ring. The one place the list is
    /// written; a sweep that wants fewer filters it by a predicate.
    pub const ALL: [FlowControlScheme; 5] = [
        FlowControlScheme::Hardware,
        FlowControlScheme::UserStatic,
        FlowControlScheme::UserDynamic,
        FlowControlScheme::RdmaChannel,
        FlowControlScheme::RdmaChannelDyn,
    ];

    /// True for the schemes with MPI-level credit accounting (everything
    /// except the hardware scheme).
    pub const fn is_user_level(self) -> bool {
        !matches!(self, FlowControlScheme::Hardware)
    }

    /// True when eager frames travel through the RDMA-written ring (whose
    /// slots are a second credit window) instead of receive buffers.
    pub const fn uses_ring(self) -> bool {
        matches!(
            self,
            FlowControlScheme::RdmaChannel | FlowControlScheme::RdmaChannelDyn
        )
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FlowControlScheme::Hardware => "hardware",
            FlowControlScheme::UserStatic => "user-static",
            FlowControlScheme::UserDynamic => "user-dynamic",
            FlowControlScheme::RdmaChannel => "rdma-channel",
            FlowControlScheme::RdmaChannelDyn => "rdma-channel-dyn",
        }
    }
}

/// How explicit credit returns travel when piggybacking is unavailable
/// (paper §4.2 and §7: the optimistic approach and the RDMA approach are
/// the two deadlock-free designs; the naive gated design deadlocks and is
/// kept for demonstration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CreditMsgMode {
    /// Explicit credit messages bypass user-level flow control (posted
    /// immediately; the hardware guarantees eventual delivery).
    Optimistic,
    /// Credit counters are RDMA-written into a per-connection mailbox,
    /// consuming no receive buffer at all.
    Rdma,
    /// **Deliberately broken**: credit messages go through the ordinary
    /// credit-gated path. Used by tests and the deadlock example to show
    /// why the paper needs the optimistic scheme.
    NaiveGated,
}

/// How the dynamic scheme grows a connection's pre-posted pool when it
/// learns the sender had to queue in the backlog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrowthPolicy {
    /// Add a fixed number of buffers per feedback event (the paper's
    /// implemented policy).
    Linear(u32),
    /// Double the pool per feedback event (the paper mentions exponential
    /// increase as an application-dependent alternative).
    Exponential,
}

/// Full MPI-layer configuration.
#[derive(Clone, Debug)]
pub struct MpiConfig {
    /// The flow control scheme under test.
    pub scheme: FlowControlScheme,
    /// Pre-posted receive buffers per connection at startup (the paper's
    /// experiments sweep 1, 10, 100).
    pub prepost: u32,
    /// Size of each pre-pinned buffer; the paper uses 2 KB. A payload
    /// goes eager when it fits one buffer behind its header
    /// ([`MpiConfig::eager_threshold`]).
    pub buf_size: usize,
    /// Send an explicit credit message once this many credits accumulate
    /// with no outgoing traffic to carry them (the paper uses 5).
    pub ecm_threshold: u32,
    /// Transport for explicit credit returns.
    pub credit_msg_mode: CreditMsgMode,
    /// Growth policy for the dynamic scheme.
    pub growth: GrowthPolicy,
    /// Hard cap on per-connection pre-posted buffers (slab capacity), and
    /// the pool's growth cap under [`FlowControlScheme::UserDynamic`]
    /// ([`MpiConfig::pool_cap`]).
    pub max_prepost: u32,
    /// Establish each connection at its first use instead of every pair
    /// at t = 0 (the paper's related-work \[23\] extension), under every
    /// scheme. Both take the same path; the passive rank adopts a
    /// connection from the fabric's record of it at its next progress
    /// sweep.
    pub on_demand_connections: bool,
    /// Ring slots per connection at startup (the ring schemes' credit
    /// window; unused by the send/receive schemes).
    pub rdma_ring_slots: u32,
    /// Hard cap on ring slots per connection under
    /// [`FlowControlScheme::RdmaChannelDyn`] ([`MpiConfig::ring_cap`]).
    pub rdma_ring_max_slots: u32,
    /// Ring-full conversions a sender must report (via the header
    /// backlog bit) before the receiver grows the ring — the channel's
    /// analogue of the dynamic scheme's ECM-style feedback threshold.
    pub rdma_ring_growth_threshold: u32,
    /// Transport retry budget (`retry_cnt`) programmed into every QP:
    /// how many ACK timeouts a message may suffer before the QP fails
    /// with [`ibfabric::CqeStatus::TransportRetryExceeded`]. `None`
    /// retries forever, which is the default — with fault injection
    /// active, lost messages are retransmitted until they get through.
    pub retry_cnt: Option<u32>,
    /// Deterministic fault-injection plan installed into the fabric
    /// before the run starts (`None` = pristine fabric). An inert plan
    /// (all rates zero, no flap windows) is guaranteed not to perturb
    /// timing, so goldens stay byte-identical.
    pub fault_plan: Option<ibfabric::FaultPlan>,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            scheme: FlowControlScheme::UserStatic,
            prepost: 100,
            buf_size: 2048,
            ecm_threshold: 5,
            credit_msg_mode: CreditMsgMode::Optimistic,
            growth: GrowthPolicy::Linear(2),
            max_prepost: 512,
            on_demand_connections: false,
            rdma_ring_slots: 32,
            rdma_ring_max_slots: 256,
            rdma_ring_growth_threshold: 5,
            retry_cnt: None,
            fault_plan: None,
        }
    }
}

impl MpiConfig {
    /// Convenience constructor: the given scheme with the given prepost,
    /// everything else default. The ring schemes return credits through
    /// the RDMA mailbox (which is what keeps the ring deadlock-free), and
    /// their ring is sized to `prepost` (floored at the 2-slot minimum)
    /// because ring slots ARE the channel's credit window — a sweep at a
    /// given depth then compares equal small-message budgets per scheme.
    pub fn scheme(scheme: FlowControlScheme, prepost: u32) -> Self {
        let defaults = MpiConfig::default();
        let (credit_msg_mode, rdma_ring_slots) = if scheme.uses_ring() {
            (CreditMsgMode::Rdma, prepost.max(2))
        } else {
            (CreditMsgMode::Optimistic, defaults.rdma_ring_slots)
        };
        MpiConfig {
            scheme,
            prepost,
            credit_msg_mode,
            rdma_ring_slots,
            // The growth cap may never sit below the ring it caps.
            rdma_ring_max_slots: defaults.rdma_ring_max_slots.max(rdma_ring_slots),
            ..defaults
        }
    }

    /// The largest pre-posted pool per connection that backlog feedback
    /// grows to: `max_prepost` under [`FlowControlScheme::UserDynamic`],
    /// the starting pool `prepost` under every other scheme.
    pub fn pool_cap(&self) -> u32 {
        if self.scheme == FlowControlScheme::UserDynamic {
            self.max_prepost
        } else {
            self.prepost
        }
    }

    /// The most ring slots per connection that ring-full feedback grows
    /// the eager ring to: `rdma_ring_max_slots` under
    /// [`FlowControlScheme::RdmaChannelDyn`], the bootstrap ring
    /// `rdma_ring_slots` under every other scheme. A ring that may grow
    /// (`ring_cap() > rdma_ring_slots`) is one whose sender counts
    /// ring-full conversions and whose mailbox image carries the growth
    /// words.
    pub fn ring_cap(&self) -> u32 {
        if self.scheme == FlowControlScheme::RdmaChannelDyn {
            self.rdma_ring_max_slots
        } else {
            self.rdma_ring_slots
        }
    }

    /// Largest payload sent with the eager protocol: what one pre-pinned
    /// buffer holds behind the frame header.
    pub fn eager_threshold(&self) -> usize {
        self.buf_size - crate::wire::HEADER_LEN
    }

    /// Validates internal consistency (called by [`crate::MpiWorld::run`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.buf_size <= crate::wire::HEADER_LEN {
            return Err(format!(
                "buf_size {} must exceed header {}",
                self.buf_size,
                crate::wire::HEADER_LEN
            ));
        }
        if self.prepost == 0 {
            return Err("prepost must be at least 1".into());
        }
        if self.prepost > self.max_prepost {
            return Err(format!(
                "prepost {} exceeds max_prepost {}",
                self.prepost, self.max_prepost
            ));
        }
        if let GrowthPolicy::Linear(0) = self.growth {
            return Err("linear growth increment must be non-zero".into());
        }
        if self.scheme.uses_ring() {
            // Ring-slot returns only travel through the credit mailbox; a
            // different mode is an error, never silently overridden.
            if self.credit_msg_mode != CreditMsgMode::Rdma {
                return Err("the RDMA eager channel requires CreditMsgMode::Rdma".into());
            }
            if self.rdma_ring_slots < 2 {
                return Err("the RDMA eager channel needs at least 2 ring slots".into());
            }
        }
        if self.scheme == FlowControlScheme::RdmaChannelDyn {
            if self.rdma_ring_max_slots < self.rdma_ring_slots {
                return Err(format!(
                    "rdma_ring_max_slots {} is below the initial ring size {}",
                    self.rdma_ring_max_slots, self.rdma_ring_slots
                ));
            }
            if self.rdma_ring_growth_threshold == 0 {
                return Err("rdma_ring_growth_threshold must be at least 1".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(MpiConfig::default().validate().is_ok());
    }

    #[test]
    fn scheme_helper() {
        let c = MpiConfig::scheme(FlowControlScheme::Hardware, 10);
        assert_eq!(c.scheme, FlowControlScheme::Hardware);
        assert_eq!(c.prepost, 10);
        assert!(!c.scheme.is_user_level());
        assert!(FlowControlScheme::UserDynamic.is_user_level());
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = MpiConfig {
            prepost: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = MpiConfig {
            prepost: 10_000,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = MpiConfig {
            growth: GrowthPolicy::Linear(0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    /// Every scheme at every depth builds a valid config, and each scheme
    /// answers the two mechanism questions and sets the two caps as
    /// DESIGN.md §3 tabulates.
    #[test]
    fn every_scheme_constructs_valid_at_every_depth() {
        use FlowControlScheme::*;
        // (scheme, credit accounting, ring, pool capped at max_prepost,
        // ring capped at rdma_ring_max_slots)
        let rows = [
            (Hardware, false, false, false, false),
            (UserStatic, true, false, false, false),
            (UserDynamic, true, false, true, false),
            (RdmaChannel, true, true, false, false),
            (RdmaChannelDyn, true, true, false, true),
        ];
        for (s, accounting, ring, pool_growth, ring_growth) in rows {
            assert_eq!(
                (s.is_user_level(), s.uses_ring()),
                (accounting, ring),
                "{s:?}"
            );
            for prepost in [1, 2, 10, 100, 256, 257, 512] {
                let c = MpiConfig::scheme(s, prepost);
                assert_eq!(c.validate(), Ok(()), "{s:?} at prepost {prepost}");
                assert_eq!((c.scheme, c.prepost), (s, prepost));
                let pool_cap = if pool_growth { c.max_prepost } else { prepost };
                let ring_cap = if ring_growth {
                    c.rdma_ring_max_slots
                } else {
                    c.rdma_ring_slots
                };
                assert_eq!((c.pool_cap(), c.ring_cap()), (pool_cap, ring_cap), "{s:?}");
                if ring {
                    // Ring slots are the credit window: sized to the
                    // depth, floored at the 2-slot minimum, under the cap.
                    assert_eq!(c.rdma_ring_slots, prepost.max(2));
                    assert!(c.rdma_ring_max_slots >= c.rdma_ring_slots);
                    assert_eq!(c.credit_msg_mode, CreditMsgMode::Rdma);
                } else {
                    assert_eq!(c.credit_msg_mode, CreditMsgMode::Optimistic);
                }
            }
        }
    }

    #[test]
    fn rdma_channel_prerequisites() {
        let good = MpiConfig::scheme(FlowControlScheme::RdmaChannel, 10);
        let bad_mode = MpiConfig {
            credit_msg_mode: CreditMsgMode::Optimistic,
            ..good.clone()
        };
        assert!(bad_mode.validate().is_err());
        let bad_slots = MpiConfig {
            rdma_ring_slots: 1,
            ..good
        };
        assert!(bad_slots.validate().is_err());
        // Either connection setup, ring or not: the passive side adopts a
        // connection from the fabric, not from its first completion.
        for scheme in FlowControlScheme::ALL {
            let on_demand = MpiConfig {
                on_demand_connections: true,
                ..MpiConfig::scheme(scheme, 10)
            };
            assert_eq!(on_demand.validate(), Ok(()), "{scheme:?} on demand");
        }
    }

    #[test]
    fn ring_growth_knobs_validated() {
        let good = MpiConfig::scheme(FlowControlScheme::RdmaChannelDyn, 10);
        let cap_below_initial = MpiConfig {
            rdma_ring_max_slots: 4,
            ..good.clone()
        };
        assert!(cap_below_initial.validate().is_err());
        let zero_threshold = MpiConfig {
            rdma_ring_growth_threshold: 0,
            ..good
        };
        assert!(zero_threshold.validate().is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(FlowControlScheme::Hardware.label(), "hardware");
        assert_eq!(FlowControlScheme::UserStatic.label(), "user-static");
        assert_eq!(FlowControlScheme::UserDynamic.label(), "user-dynamic");
        assert_eq!(FlowControlScheme::RdmaChannel.label(), "rdma-channel");
        assert_eq!(
            FlowControlScheme::RdmaChannelDyn.label(),
            "rdma-channel-dyn"
        );
    }
}
