//! The transmit leg: one UE's data path through one granted slot.
//!
//! The slot engine ([`crate::cell::CellSim`]) resolves each UE's integer
//! PRB grant into an RB allocation and hands it to [`transmit`], which
//! runs the rest of the paper's
//! Fig. 21 loop in either direction: grant (MCS, layers), retransmission
//! or a fresh transport block from the flow, BLER draw, HARQ bookkeeping
//! and the slot's KPI record. DL and UL differ only in data: the grant
//! function, whether the outcome feeds OLLA, and the UL SINR penalty.

use crate::amc::AmcState;
use crate::config::CellConfig;
use crate::flow::Flow;
use crate::harq::HarqEntity;
use crate::kpi::{Direction, SlotKpi};
use nr_phy::resource::RbAllocation;
use nr_phy::tbs::TbsCache;
use obs::audit::{self, Invariant};
use obs::Counter;
use radio_channel::channel::ChannelState;
use radio_channel::link::LinkModel;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// UL runs several dB below DL at the same spot: the UE's power budget
/// (23 dBm vs 44 dBm, partly offset by gNB receive gain).
const UL_SINR_PENALTY_DB: f64 = 6.0;

/// Cached handles of the slot-engine counters. Every cell registers the
/// same names, so obs totals aggregate across cells. Handles resolve once
/// at construction and each step flushes its [`MetricDeltas`] as at most
/// one atomic add per counter (`ran/tests/alloc_free.rs` holds with these
/// compiled in; `ran/tests/metric_totals.rs` pins the totals).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotMetrics {
    slots: Counter,
    retx: Counter,
    block_errors: Counter,
    delivered_bits: Counter,
}

impl SlotMetrics {
    pub(crate) fn new() -> Self {
        let reg = obs::registry();
        SlotMetrics {
            slots: reg.counter("ran.slots"),
            retx: reg.counter("ran.retx"),
            block_errors: reg.counter("ran.block_errors"),
            delivered_bits: reg.counter("ran.delivered_bits"),
        }
    }

    /// Add one step's totals: `slots` UE-slots plus the legs' deltas.
    /// Zero deltas skip their atomic: the counters are shared by every
    /// worker thread, and most steps see no retransmission or error.
    pub(crate) fn flush(&self, slots: u64, deltas: MetricDeltas) {
        self.slots.add(slots);
        for (counter, n) in [
            (self.retx, deltas.retx),
            (self.block_errors, deltas.block_errors),
            (self.delivered_bits, deltas.delivered_bits),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// Leg outcomes of one step, accumulated in locals until the flush.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MetricDeltas {
    retx: u64,
    block_errors: u64,
    delivered_bits: u64,
}

/// What a leg reads of the slot and of the UE's radio; shared by both
/// directions of one UE-slot.
#[derive(Clone, Copy)]
pub(crate) struct SlotCtx<'a> {
    pub(crate) cfg: &'a CellConfig,
    pub(crate) link: &'a LinkModel,
    pub(crate) slot: u64,
    pub(crate) time_s: f64,
    /// Carrier index the records carry.
    pub(crate) carrier: u8,
    /// CQI the gNB holds for the UE.
    pub(crate) cqi: u8,
    pub(crate) ch: &'a ChannelState,
    pub(crate) auditing: bool,
}

impl SlotCtx<'_> {
    /// The unscheduled record for `direction`.
    pub(crate) fn idle(&self, direction: Direction) -> SlotKpi {
        SlotKpi::idle(
            self.slot,
            self.time_s,
            self.carrier,
            direction,
            self.cqi,
            self.ch.sinr_db,
            self.ch.measurement.rsrp_dbm,
            self.ch.measurement.rsrq_db,
            self.ch.serving_site,
        )
    }
}

/// The per-UE state one direction's leg advances.
pub(crate) struct UeLeg<'a> {
    pub(crate) amc: &'a mut AmcState,
    pub(crate) harq: &'a mut HarqEntity,
    pub(crate) flow: &'a mut Flow,
    pub(crate) rng: &'a mut ChaCha12Rng,
}

/// Run one direction of one UE-slot on an already-resolved allocation.
/// A UE reporting out of range (CQI 0) is not scheduled: a real gNB
/// cannot close the link either.
pub(crate) fn transmit(
    ctx: &SlotCtx<'_>,
    direction: Direction,
    alloc: RbAllocation,
    tbs_cache: &mut TbsCache,
    ue: UeLeg<'_>,
    deltas: &mut MetricDeltas,
) -> SlotKpi {
    if ctx.cqi == 0 {
        return ctx.idle(direction);
    }
    let UeLeg { amc, harq, flow, rng } = ue;
    let (grant, sinr_penalty_db) = match direction {
        Direction::Dl => (amc.dl_grant(ctx.cfg), 0.0),
        Direction::Ul => (amc.ul_grant(ctx.cfg), UL_SINR_PENALTY_DB),
    };
    let table = grant.format.effective_mcs_table(ctx.cfg.mcs_table());
    let modulation = table.modulation(grant.mcs).unwrap_or(nr_phy::mcs::Modulation::Qpsk);

    // Retransmission takes priority over new data; fresh transport
    // blocks are sized to the queued backlog (a rate-limited source
    // produces smaller TBs than the allocation could carry).
    let (tbs_bits, attempts, is_retx) = match harq.pop_ready(ctx.slot) {
        Some(tb) => {
            flow.begin_retx();
            (tb.tbs_bits, tb.attempts + 1, true)
        }
        None => {
            let full = tbs_cache.transport_block_size(&alloc, table, grant.mcs, grant.layers);
            (flow.compose_tb(full, ctx.time_s), 1, false)
        }
    };

    let bonus = harq.combining_bonus_db(attempts);
    let p_err = ctx.link.bler(ctx.ch.sinr_db - sinr_penalty_db + bonus, table, grant.mcs);
    let failed = rng.gen::<f64>() < p_err;
    if failed {
        if harq.record_failure(tbs_bits, attempts, ctx.slot) {
            flow.fail_deferred();
        } else {
            flow.fail_dropped(ctx.time_s, tbs_bits);
        }
    } else {
        flow.complete_delivered(ctx.time_s, tbs_bits);
    }
    if direction == Direction::Dl {
        amc.harq_feedback(!failed);
    }

    let delivered_bits = if failed { 0 } else { tbs_bits };
    deltas.block_errors += u64::from(failed);
    deltas.retx += u64::from(is_retx);
    deltas.delivered_bits += u64::from(delivered_bits);
    if ctx.auditing {
        audit::check(Invariant::RbWithinCarrier, alloc.n_prb <= ctx.cfg.n_rb);
        audit::check(Invariant::HarqAttemptsWithinMax, attempts <= harq.config().max_attempts);
        audit::check(Invariant::DeliveredWithinTbs, delivered_bits <= tbs_bits);
    }

    SlotKpi {
        slot: ctx.slot,
        time_s: ctx.time_s,
        carrier: ctx.carrier,
        direction,
        scheduled: true,
        n_prb: alloc.n_prb,
        n_re: alloc.total_re(),
        mcs: grant.mcs.0,
        modulation,
        layers: grant.layers,
        tbs_bits,
        delivered_bits,
        is_retx,
        block_error: failed,
        cqi: ctx.cqi,
        sinr_db: ctx.ch.sinr_db,
        rsrp_dbm: ctx.ch.measurement.rsrp_dbm,
        rsrq_db: ctx.ch.measurement.rsrq_db,
        serving_site: ctx.ch.serving_site,
        queue_bits: flow.queue_bits(),
        queue_delay_ms: flow.queue_delay_ms(),
    }
}
