//! The slot engine: one cell, N UEs (1 → 10k+), one slot loop.
//!
//! Every KPI record the simulator emits comes from [`CellSim::step_into`].
//! A single-UE measurement session runs one one-UE cell per component
//! carrier, all moved along the UE's trajectory by [`crate::sim::UeSim`];
//! the §5.2 / Fig. 14 experiments and the load sweeps run N UEs in one
//! cell. The engine is laid out for the large-N case:
//!
//! * **Structure-of-arrays state.** Per-UE columns (CQI, OLLA/AMC, HARQ,
//!   PF average rate, EWMA SINR, channel, traffic, BLER RNG) live in
//!   parallel vectors, so each phase of the slot loop sweeps contiguous
//!   memory across the whole user set — the same batching the columnar
//!   [`crate::kpi::KpiTrace`] applies across slots.
//! * **Integer-PRB scheduling.** The cell holds one RB budget per
//!   direction and hands out integer grants
//!   ([`crate::scheduler::split_prbs`]); the grants of one slot can never
//!   sum past the budget, which audit mode checks as
//!   [`Invariant::RbBudgetConserved`]. Load the simulation does not model
//!   UE by UE (the bufferbloat study's busy carrier) is a number of DL
//!   PRBs held back from the budget ([`CellParams::reserved_dl_prbs`]).
//! * **Streaming output.** Records leave through a [`CellSink`] as they
//!   are produced; a 10k-UE campaign folds them into O(UEs) accumulators
//!   instead of holding ~10k traces.
//!
//! # Slot contract
//!
//! Each [`CellSim::step_into`] runs three phases, all in UE index order:
//!
//! 1. **Arrivals, then schedule.** Every UE's DL and UL workloads offer
//!    the slot's bits into their queues. Then the slot's grants are
//!    picked per [`SchedulerPolicy`] over the eligible set — active UEs
//!    with traffic queued, saturating or awaiting retransmission in a
//!    direction they may use this slot — on the CSI the gNB holds from
//!    previous slots (real schedulers act on the last report, not on
//!    channel truth of the slot being scheduled).
//! 2. **Channel + UE side**: advance each UE's channel by the metres it
//!    moved since its last step ([`CellSim::move_ue`]), filter the SINR
//!    and send the (periodic) CSI report.
//! 3. **Transmit**: run the granted UEs' DL/UL legs through the shared
//!    transmit leg, then update PF average rates and push one DL record
//!    (plus one UL record on UL-capable slots) per UE into the sink.

use crate::amc::{AmcState, OllaConfig};
use crate::config::CellConfig;
use crate::flow::Flow;
use crate::harq::{HarqConfig, HarqEntity};
use crate::kpi::{Direction, KpiTrace, SlotKpi};
use crate::leg::{self, MetricDeltas, SlotCtx, SlotMetrics, UeLeg};
use crate::queue::QueueConfig;
use crate::scheduler::{self, SchedulerPolicy};
use crate::workload::Workload;
use nr_phy::cqi::Cqi;
use nr_phy::csi::{CsiReport, DEFAULT_CSI_PERIOD_SLOTS};
use nr_phy::resource::RbAllocation;
use nr_phy::tbs::TbsCache;
use obs::audit::{self, Invariant};
use radio_channel::channel::{ChannelConfig, ChannelSimulator, ChannelState};
use radio_channel::geometry::{DeploymentLayout, Position};
use radio_channel::link::LinkModel;
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;
use rand_chacha::ChaCha12Rng;

/// Which directions carry traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficPattern {
    /// Downlink traffic (iPerf DL).
    pub dl: bool,
    /// Uplink traffic (iPerf UL).
    pub ul: bool,
}

impl TrafficPattern {
    /// DL only.
    pub const DL: TrafficPattern = TrafficPattern { dl: true, ul: false };
    /// UL only.
    pub const UL: TrafficPattern = TrafficPattern { dl: false, ul: true };
    /// Both directions.
    pub const BOTH: TrafficPattern = TrafficPattern { dl: true, ul: true };
}

/// Stream labels for the first few carrier indices, so the common case
/// opens its BLER stream without a `format!` allocation. The bytes match
/// `format!("carrier{index}/bler")` exactly — labels key RNG streams, so
/// they must never drift.
const CARRIER_BLER_LABELS: [&str; 8] = [
    "carrier0/bler",
    "carrier1/bler",
    "carrier2/bler",
    "carrier3/bler",
    "carrier4/bler",
    "carrier5/bler",
    "carrier6/bler",
    "carrier7/bler",
];

/// Everything static about the cell a [`CellSim`] drives: the carrier
/// configuration, the radio environment shared by every UE, and the
/// scheduling/traffic regime.
#[derive(Debug, Clone)]
pub struct CellParams {
    /// Carrier configuration (bandwidth, TDD pattern, MCS policy...).
    pub cell: CellConfig,
    /// Radio environment every UE's channel instantiates.
    pub channel: ChannelConfig,
    /// Site deployment shared by every UE.
    pub layout: DeploymentLayout,
    /// Link-level abstraction (BLER/CQI/rank curves).
    pub link: LinkModel,
    /// How the cell splits RBs among contending UEs.
    pub policy: SchedulerPolicy,
    /// Which directions carry traffic.
    pub traffic: TrafficPattern,
    /// Index of this carrier within a UE's aggregate (0 = PCell). It is
    /// the records' `carrier` field and keys each UE's BLER stream
    /// (`carrier{index}/bler`).
    pub carrier: u8,
    /// DL PRBs held back from the budget for load outside the simulated
    /// UEs (0: the whole carrier is schedulable).
    pub reserved_dl_prbs: u16,
}

impl CellParams {
    /// A cell on `cell` in the given radio environment, with the defaults
    /// of a lone measuring UE: proportional-fair scheduling (moot with
    /// one UE), DL traffic, carrier index 0 and no reserved PRBs.
    pub fn new(
        cell: CellConfig,
        channel: ChannelConfig,
        layout: DeploymentLayout,
        link: LinkModel,
    ) -> Self {
        CellParams {
            cell,
            channel,
            layout,
            link,
            policy: SchedulerPolicy::ProportionalFair,
            traffic: TrafficPattern::DL,
            carrier: 0,
            reserved_dl_prbs: 0,
        }
    }

    /// The calibrated mid-band baseline the figures use: `DDDSU` TDD,
    /// urban-macro channel, single site, 256QAM link — only the bandwidth
    /// and scheduling policy vary per experiment.
    pub fn midband(bandwidth_mhz: u32, policy: SchedulerPolicy) -> Self {
        let cell = CellConfig::midband(bandwidth_mhz, "DDDSU");
        let channel = ChannelConfig::midband_urban(cell.n_rb);
        CellParams {
            policy,
            ..CellParams::new(
                cell,
                channel,
                DeploymentLayout::single_site(),
                LinkModel::midband_qam256(),
            )
        }
    }
}

/// One UE of the cell: a fixed position and whether it contends for RBs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UeSpec {
    /// The UE's (stationary) position.
    pub position: Position,
    /// Whether the UE has active traffic (load sweeps activate subsets).
    pub active: bool,
}

impl UeSpec {
    /// An active UE at `(x, y)`.
    pub fn at(x: f64, y: f64) -> Self {
        UeSpec { position: Position::new(x, y), active: true }
    }
}

/// A streaming consumer of per-UE slot records — the cell-level analogue
/// of [`crate::sink::SlotSink`], with the producing UE's index alongside
/// each record so O(UEs) accumulators can bucket without a trace per UE.
///
/// The [`crate::sink::SlotSink`] contract carries over: records arrive in
/// emission order (per slot, UEs in index order, DL before UL), and
/// `finish` is called exactly once after the last record.
pub trait CellSink {
    /// Consume one record produced by UE `ue`.
    fn push(&mut self, ue: u32, kpi: &SlotKpi);

    /// Signal end of stream. Defaults to a no-op.
    fn finish(&mut self) {}
}

/// The materialising sink: one full [`KpiTrace`] per UE. Fine for a
/// handful of UEs (the Fig. 14 experiments); load sweeps use bounded
/// accumulators instead.
#[derive(Debug, Clone, Default)]
pub struct CellTraces {
    traces: Vec<KpiTrace>,
}

impl CellTraces {
    /// Empty traces for `n_ues` UEs.
    pub fn new(n_ues: usize) -> Self {
        CellTraces { traces: (0..n_ues).map(|_| KpiTrace::new()).collect() }
    }

    /// The per-UE traces, indexed by UE.
    pub fn traces(&self) -> &[KpiTrace] {
        &self.traces
    }

    /// Take ownership of the per-UE traces.
    pub fn into_traces(self) -> Vec<KpiTrace> {
        self.traces
    }
}

impl CellSink for CellTraces {
    fn push(&mut self, ue: u32, kpi: &SlotKpi) {
        self.traces[ue as usize].push(*kpi);
    }
}

/// UEs swept per fused phase-2+3 chunk. Phases 2 and 3 are per-UE
/// independent once the slot's grants are fixed, so the sweep fuses them
/// over small chunks: a UE's channel state, traffic queues and AMC column
/// are still cache-resident when its transmit leg runs (sweeping the whole
/// user set in phase 2 before returning to UE 0 evicted all of it at
/// ~10k UEs). The chunk is also the SIMD batch for the CSI-slot CQI
/// evaluation — 8 lanes fill two AVX2 vectors.
const UE_CHUNK: usize = 8;

/// `wants` bit: the UE needs a DL grant this slot.
const WANTS_DL: u8 = 1;
/// `wants` bit: the UE needs (and may use) a UL grant this slot.
const WANTS_UL: u8 = 2;

/// One slot of the carrier's TDD cycle (the cycle is one slot long for
/// FDD), with both allocations resolved at the full DL and UL budgets: a
/// grant only swaps in its PRB count. Resolved once at assembly instead
/// of re-deriving symbol counts every slot.
#[derive(Debug, Clone, Copy)]
struct FrameSlot {
    dl: Option<RbAllocation>,
    ul: Option<RbAllocation>,
}

/// `n_prb` PRBs of a frame slot's allocation; `None` for an empty grant
/// or a slot without symbols in that direction.
fn grant(frame: Option<RbAllocation>, n_prb: u16) -> Option<RbAllocation> {
    frame.filter(|_| n_prb > 0).map(|a| RbAllocation { n_prb, ..a })
}

/// N UEs contending for one cell's RBs, stepped slot by slot.
///
/// State is laid out structure-of-arrays: column `i` of every vector
/// belongs to UE `i`. Steady-state stepping is allocation-free at any N
/// (`ran/tests/alloc_free.rs` pins N=1 and N=1000): scratch columns are
/// reused, the TBS memo is shared across the whole cell, and records
/// stream out through the sink.
pub struct CellSim {
    params: CellParams,
    /// `params.cell.slot_s()`, resolved once.
    slot_s: f64,
    slot: u64,
    rr_next: usize,
    dl_budget: u16,
    ul_budget: u16,
    frame: Vec<FrameSlot>,
    /// Index of the current slot in `frame`.
    frame_pos: usize,
    // --- per-UE columns ---
    positions: Vec<Position>,
    /// Metres each UE moved since its last step.
    pending_move_m: Vec<f64>,
    active: Vec<bool>,
    /// Whether each UE's UL may use this carrier (NSA routing sends it
    /// to the LTE anchor otherwise).
    ul_enabled: Vec<bool>,
    channels: Vec<ChannelSimulator>,
    amc: Vec<AmcState>,
    dl_harq: Vec<HarqEntity>,
    ul_harq: Vec<HarqEntity>,
    dl_flows: Vec<Flow>,
    ul_flows: Vec<Flow>,
    bler_rng: Vec<ChaCha12Rng>,
    ewma_sinr_db: Vec<f64>,
    prev_rank: Vec<u8>,
    /// CQI the gNB holds for each UE (last reported; what scheduling
    /// decisions and slot records see).
    gnb_cqi: Vec<u8>,
    /// PF long-term average delivered DL bits per slot (EWMA).
    avg_rate: Vec<f64>,
    /// For each UE, the lowest index sharing its exact position — the UE
    /// whose large-scale channel cache co-located UEs adopt on slot 0.
    spot_leader: Vec<u32>,
    // --- per-slot scratch, reused across slots ---
    ch: Vec<ChannelState>,
    /// [`WANTS_DL`] | [`WANTS_UL`] per UE, as of this slot's arrivals.
    wants: Vec<u8>,
    dl_prbs: Vec<u16>,
    ul_prbs: Vec<u16>,
    eligible: Vec<u32>,
    // --- shared across UEs ---
    tbs_cache: TbsCache,
    metrics: SlotMetrics,
}

impl CellSim {
    /// Assemble the cell. UE `i` draws every stream from
    /// `seeds.child_indexed("ue", i)` and stays at its spec's position.
    pub fn new(params: CellParams, ues: &[UeSpec], seeds: &SeedTree) -> Self {
        assert!(!ues.is_empty(), "need at least one UE");
        let ues = ues.iter().enumerate().map(|(i, &ue)| {
            let mobility = MobilityModel::Stationary { position: ue.position };
            (ue, seeds.child_indexed("ue", i as u64), mobility)
        });
        Self::assemble(params, ues)
    }

    /// A one-UE cell: the UE draws every stream from `seeds` as given and
    /// its channel follows `mobility` (a moving UE reports its steps
    /// through [`CellSim::move_ue`]). This is one component carrier of a
    /// measurement session.
    pub fn single(params: CellParams, mobility: MobilityModel, seeds: &SeedTree) -> Self {
        let ue = UeSpec { position: mobility.start(), active: true };
        Self::assemble(params, std::iter::once((ue, *seeds, mobility)))
    }

    fn assemble(
        params: CellParams,
        ues: impl ExactSizeIterator<Item = (UeSpec, SeedTree, MobilityModel)>,
    ) -> Self {
        let n = ues.len();
        let mut positions = Vec::with_capacity(n);
        let mut active = Vec::with_capacity(n);
        let mut channels = Vec::with_capacity(n);
        let mut amc = Vec::with_capacity(n);
        let mut dl_harq = Vec::with_capacity(n);
        let mut ul_harq = Vec::with_capacity(n);
        let mut dl_flows = Vec::with_capacity(n);
        let mut ul_flows = Vec::with_capacity(n);
        let mut bler_rng = Vec::with_capacity(n);
        let mut spot_leader: Vec<u32> = Vec::with_capacity(n);
        let bler_label = CARRIER_BLER_LABELS.get(usize::from(params.carrier));
        for (i, (ue, ue_seeds, mobility)) in ues.enumerate() {
            positions.push(ue.position);
            active.push(ue.active);
            channels.push(ChannelSimulator::new(
                params.channel,
                params.layout.clone(),
                mobility,
                &ue_seeds,
            ));
            amc.push(AmcState::new(OllaConfig::default()));
            dl_harq.push(HarqEntity::new(HarqConfig::default()));
            ul_harq.push(HarqEntity::new(HarqConfig::default()));
            dl_flows.push(Flow::full_buffer());
            ul_flows.push(Flow::full_buffer());
            bler_rng.push(match bler_label {
                Some(&label) => ue_seeds.stream_static(label),
                None => ue_seeds.stream(&format!("carrier{}/bler", params.carrier)),
            });
            let leader = positions[..i]
                .iter()
                .position(|&p| p == ue.position)
                .unwrap_or(i) as u32;
            spot_leader.push(leader);
        }
        let cfg = &params.cell;
        let dl_budget = cfg.n_rb.saturating_sub(params.reserved_dl_prbs);
        let ul_budget = scheduler::ul_prb_budget(cfg);
        let period = cfg.tdd.as_ref().map_or(1, |p| p.len()).max(1) as u64;
        let frame = (0..period)
            .map(|s| FrameSlot {
                dl: scheduler::dl_allocation_prbs(cfg, s, cfg.n_rb),
                ul: scheduler::ul_allocation_prbs(cfg, s, ul_budget),
            })
            .collect();
        CellSim {
            slot_s: cfg.slot_s(),
            slot: 0,
            rr_next: 0,
            dl_budget,
            ul_budget,
            frame,
            frame_pos: 0,
            positions,
            pending_move_m: vec![0.0; n],
            active,
            ul_enabled: vec![true; n],
            channels,
            amc,
            dl_harq,
            ul_harq,
            dl_flows,
            ul_flows,
            bler_rng,
            ewma_sinr_db: vec![15.0; n],
            prev_rank: vec![2; n],
            // AmcState::new starts from a mid-range CQI 8 assumption.
            gnb_cqi: vec![8; n],
            avg_rate: vec![1.0; n],
            spot_leader,
            ch: Vec::with_capacity(UE_CHUNK),
            wants: vec![0; n],
            dl_prbs: vec![0; n],
            ul_prbs: vec![0; n],
            eligible: Vec::with_capacity(n),
            tbs_cache: TbsCache::new(),
            metrics: SlotMetrics::new(),
            params,
        }
    }

    /// Number of UEs in the cell.
    pub fn n_ues(&self) -> usize {
        self.positions.len()
    }

    /// Slots stepped so far.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// (De)activate a UE between steps (sequential-vs-simultaneous
    /// experiments toggle this).
    pub fn set_active(&mut self, ue: usize, active: bool) {
        self.active[ue] = active;
    }

    /// Move UE `ue` to `position`, having covered `moved_m` metres. Moves
    /// accumulate until the UE's next step, which hands their sum to the
    /// channel (a carrier with slower slots than the UE's clock sees
    /// several moves per step).
    pub fn move_ue(&mut self, ue: usize, position: Position, moved_m: f64) {
        self.positions[ue] = position;
        self.pending_move_m[ue] += moved_m;
    }

    /// Let UE `ue`'s UL use this carrier or not (NSA routing moves it to
    /// the LTE anchor when the NR link is weak). Gates both scheduling
    /// eligibility and transmission; on by default.
    pub fn set_ul_enabled(&mut self, ue: usize, enabled: bool) {
        self.ul_enabled[ue] = enabled;
    }

    /// Latest CQI UE `ue` reported to the gNB.
    pub fn cqi(&self, ue: usize) -> u8 {
        self.amc[ue].csi().cqi.value()
    }

    /// Override UE `ue`'s OLLA configuration (ablation experiments).
    pub fn set_olla(&mut self, ue: usize, olla: OllaConfig) {
        self.amc[ue] = AmcState::new(olla);
        self.gnb_cqi[ue] = self.cqi(ue);
    }

    /// Override UE `ue`'s HARQ configuration (ablation experiments).
    pub fn set_harq(&mut self, ue: usize, harq: HarqConfig) {
        self.dl_harq[ue] = HarqEntity::new(harq);
        self.ul_harq[ue] = HarqEntity::new(harq);
    }

    /// Install a pluggable DL workload behind a gNB queue for UE `ue`.
    pub fn set_dl_workload(&mut self, ue: usize, workload: Box<dyn Workload>, queue: QueueConfig) {
        self.dl_flows[ue] = Flow::pipeline(workload, queue);
    }

    /// Install a pluggable UL workload behind a queue for UE `ue`.
    pub fn set_ul_workload(&mut self, ue: usize, workload: Box<dyn Workload>, queue: QueueConfig) {
        self.ul_flows[ue] = Flow::pipeline(workload, queue);
    }

    /// Inspect UE `ue`'s DL traffic leg (queue depth, workload counters).
    pub fn dl_flow(&self, ue: usize) -> &Flow {
        &self.dl_flows[ue]
    }

    /// Mutable access to UE `ue`'s DL leg (draining delay samples).
    pub fn dl_flow_mut(&mut self, ue: usize) -> &mut Flow {
        &mut self.dl_flows[ue]
    }

    /// Run `slots` slots, streaming every record into `sink`, and call
    /// its `finish` once at the end.
    pub fn run_into<S: CellSink>(&mut self, slots: u64, sink: &mut S) {
        for _ in 0..slots {
            self.step_into(sink);
        }
        sink.finish();
    }

    /// Run `slots` slots and materialise one trace per UE (small-N
    /// convenience; load sweeps stream into bounded sinks instead).
    pub fn run(&mut self, slots: u64) -> Vec<KpiTrace> {
        let mut traces = CellTraces::new(self.n_ues());
        self.run_into(slots, &mut traces);
        traces.into_traces()
    }

    /// Advance the whole cell one slot (see the module docs for the
    /// three-phase contract).
    pub fn step_into<S: CellSink>(&mut self, sink: &mut S) {
        self.step_dyn(sink);
    }

    /// The slot itself. Not generic over the sink, so it compiles once in
    /// this crate, with the transmit leg, flows and HARQ inlined, whatever
    /// crate the caller lives in; a generic body compiled in the caller's
    /// crate could inline none of them and measured ~8% slower per slot.
    fn step_dyn(&mut self, sink: &mut dyn CellSink) {
        let slot = self.slot;
        self.slot += 1;
        let frame = self.frame[self.frame_pos];
        self.frame_pos += 1;
        if self.frame_pos == self.frame.len() {
            self.frame_pos = 0;
        }
        let slot_s = self.slot_s;
        let time_s = slot as f64 * slot_s;
        let n = self.n_ues();
        let auditing = audit::enabled();

        // Phase 1 — arrivals, then schedule on the CSI the gNB holds.
        self.schedule(slot, time_s, slot_s, auditing);

        // Phases 2 and 3, fused over UE chunks. Given the slot's grants
        // every per-UE column is independent across UEs, so running a
        // chunk's transmit legs right after its channel sweep changes no
        // value, only cache behaviour — and records still leave in UE
        // index order, DL before UL, exactly as the module contract says.
        let csi_slot = slot.is_multiple_of(DEFAULT_CSI_PERIOD_SLOTS);
        let mut deltas = MetricDeltas::default();
        let mut cqi_buf = [Cqi::saturating(0); UE_CHUNK];
        let mut start = 0;
        while start < n {
            let end = (start + UE_CHUNK).min(n);

            // Phase 2 — channel evolution and UE-side reporting.
            self.ch.clear();
            for i in start..end {
                if slot == 0 {
                    // Co-located UEs adopt the first occupant's large-scale
                    // cache; later slots hit each UE's own cache.
                    let leader = self.spot_leader[i] as usize;
                    if leader < i {
                        let (head, tail) = self.channels.split_at_mut(i);
                        tail[0].prime_cache_from(&head[leader]);
                    }
                }
                let moved_m = std::mem::take(&mut self.pending_move_m[i]);
                let ch = self.channels[i].step_at(self.positions[i], moved_m);
                self.ewma_sinr_db[i] = 0.9 * self.ewma_sinr_db[i] + 0.1 * ch.sinr_db;
                self.ch.push(ch);
            }
            if csi_slot {
                // One SIMD CQI evaluation for the whole chunk (bit-identical
                // to the scalar `AmcState::make_csi` per UE); rank stays
                // scalar — it threads per-UE hysteresis state.
                self.params
                    .link
                    .cqi_batch(&self.ewma_sinr_db[start..end], &mut cqi_buf[..end - start]);
                for i in start..end {
                    let cqi = cqi_buf[i - start];
                    let ri =
                        self.params.link.rank(self.ewma_sinr_db[i], self.prev_rank[i]);
                    let csi = CsiReport::new(ri, 0, cqi, 0);
                    self.prev_rank[i] = ri;
                    self.amc[i].update_csi(csi);
                    self.gnb_cqi[i] = csi.cqi.value();
                }
            }
            if auditing {
                for i in start..end {
                    audit::check(Invariant::CqiRange, self.gnb_cqi[i] <= 15);
                }
            }

            // Phase 3 — transmit per grant, stream records, update PF state.
            for i in start..end {
                let ctx = SlotCtx {
                    cfg: &self.params.cell,
                    link: &self.params.link,
                    slot,
                    time_s,
                    carrier: self.params.carrier,
                    cqi: self.gnb_cqi[i],
                    ch: &self.ch[i - start],
                    auditing,
                };
                // Taking the grants leaves both columns zeroed for the next
                // slot's scheduler.
                let dl_prbs = std::mem::take(&mut self.dl_prbs[i]);
                let ul_prbs = std::mem::take(&mut self.ul_prbs[i]);
                let dl = match grant(frame.dl, dl_prbs) {
                    Some(alloc) => leg::transmit(
                        &ctx,
                        Direction::Dl,
                        alloc,
                        &mut self.tbs_cache,
                        UeLeg {
                            amc: &mut self.amc[i],
                            harq: &mut self.dl_harq[i],
                            flow: &mut self.dl_flows[i],
                            rng: &mut self.bler_rng[i],
                        },
                        &mut deltas,
                    ),
                    None => ctx.idle(Direction::Dl),
                };
                sink.push(i as u32, &dl);
                if frame.ul.is_some() {
                    let ul = match grant(frame.ul, ul_prbs) {
                        Some(alloc) => leg::transmit(
                            &ctx,
                            Direction::Ul,
                            alloc,
                            &mut self.tbs_cache,
                            UeLeg {
                                amc: &mut self.amc[i],
                                harq: &mut self.ul_harq[i],
                                flow: &mut self.ul_flows[i],
                                rng: &mut self.bler_rng[i],
                            },
                            &mut deltas,
                        ),
                        None => ctx.idle(Direction::Ul),
                    };
                    sink.push(i as u32, &ul);
                }
                // PF bookkeeping: the long-term average tracks delivered DL
                // bits for every UE every slot (idle slots decay it).
                self.avg_rate[i] = 0.999 * self.avg_rate[i] + 0.001 * f64::from(dl.delivered_bits);
            }
            start = end;
        }
        self.metrics.flush(n as u64, deltas);
    }

    /// Phase 1: offer every UE's arrivals, then fill `dl_prbs`/`ul_prbs`
    /// (all zero: phase 3 takes each slot's grants) with this slot's
    /// integer grants. A UE holds a grant only in the directions it wants
    /// this slot.
    fn schedule(&mut self, slot: u64, time_s: f64, slot_s: f64, auditing: bool) {
        let n = self.n_ues();
        let traffic = self.params.traffic;
        self.eligible.clear();
        for i in 0..n {
            self.dl_flows[i].advance(time_s, slot_s);
            self.ul_flows[i].advance(time_s, slot_s);
            let dl = traffic.dl && self.dl_flows[i].needs_grant(self.dl_harq[i].has_ready(slot));
            let ul = traffic.ul
                && self.ul_enabled[i]
                && self.ul_flows[i].needs_grant(self.ul_harq[i].has_ready(slot));
            self.wants[i] = (u8::from(dl) * WANTS_DL) | (u8::from(ul) * WANTS_UL);
            if self.active[i] && (dl || ul) {
                self.eligible.push(i as u32);
            }
        }
        if self.eligible.is_empty() {
            return;
        }
        let (dl_budget, ul_budget) = (self.dl_budget, self.ul_budget);
        match self.params.policy {
            SchedulerPolicy::EqualShare => {
                let k = self.eligible.len();
                for (rank, &i) in self.eligible.iter().enumerate() {
                    let i = i as usize;
                    let wants = self.wants[i];
                    if wants & WANTS_DL != 0 {
                        self.dl_prbs[i] = scheduler::split_prbs(dl_budget, k, rank, slot);
                    }
                    if wants & WANTS_UL != 0 {
                        self.ul_prbs[i] = scheduler::split_prbs(ul_budget, k, rank, slot);
                    }
                }
            }
            SchedulerPolicy::RoundRobinSlots => {
                let pick = self.eligible[self.rr_next % self.eligible.len()] as usize;
                self.rr_next += 1;
                self.grant_whole_slot(pick);
            }
            SchedulerPolicy::MaxCqi => {
                // First index wins ties: strict comparison.
                let mut pick = self.eligible[0] as usize;
                for &i in &self.eligible[1..] {
                    if self.gnb_cqi[i as usize] > self.gnb_cqi[pick] {
                        pick = i as usize;
                    }
                }
                self.grant_whole_slot(pick);
            }
            SchedulerPolicy::ProportionalFair => {
                // Metric: CQI-implied instantaneous rate over average
                // rate. Last index wins ties (`>=`, `Iterator::max_by`'s
                // choice), which the contended-cell digests in
                // `ran/tests/golden.rs` were recorded with.
                let metric = |i: usize| {
                    f64::from(self.gnb_cqi[i]) / self.avg_rate[i].max(1e-9)
                };
                let mut pick = self.eligible[0] as usize;
                let mut best = metric(pick);
                for &i in &self.eligible[1..] {
                    let m = metric(i as usize);
                    if m >= best {
                        best = m;
                        pick = i as usize;
                    }
                }
                self.grant_whole_slot(pick);
            }
        }
        if auditing {
            let dl_sum: u64 = self.eligible.iter().map(|&i| u64::from(self.dl_prbs[i as usize])).sum();
            let ul_sum: u64 = self.eligible.iter().map(|&i| u64::from(self.ul_prbs[i as usize])).sum();
            audit::check(Invariant::RbBudgetConserved, dl_sum <= u64::from(dl_budget));
            audit::check(Invariant::RbBudgetConserved, ul_sum <= u64::from(ul_budget));
        }
    }

    /// Give UE `pick` the whole budget in each direction it wants.
    fn grant_whole_slot(&mut self, pick: usize) {
        let wants = self.wants[pick];
        if wants & WANTS_DL != 0 {
            self.dl_prbs[pick] = self.dl_budget;
        }
        if wants & WANTS_UL != 0 {
            self.ul_prbs[pick] = self.ul_budget;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Cbr, FiniteTransfer};

    /// A lone UE `distance_m` from a `bw_mhz` site.
    fn lone(bw_mhz: u32, distance_m: f64, seed: u64, traffic: TrafficPattern) -> CellSim {
        let params = CellParams { traffic, ..CellParams::midband(bw_mhz, SchedulerPolicy::ProportionalFair) };
        let spot = MobilityModel::Stationary { position: Position::new(distance_m, 0.0) };
        CellSim::single(params, spot, &SeedTree::new(seed))
    }

    fn run_lone(bw_mhz: u32, distance_m: f64, seed: u64, slots: u64) -> KpiTrace {
        lone(bw_mhz, distance_m, seed, TrafficPattern::BOTH).run(slots).swap_remove(0)
    }

    #[test]
    fn good_channel_dl_throughput_in_paper_range() {
        // 90 MHz near the site: the paper's V_Sp averages ~743 Mbps with
        // peaks above 1 Gbps. Expect several hundred Mbps to ~1.2 Gbps.
        let t = run_lone(90, 70.0, 1, 20_000);
        let mbps = t.mean_throughput_mbps(Direction::Dl);
        assert!(mbps > 400.0 && mbps < 1400.0, "DL {mbps} Mbps");
    }

    #[test]
    fn far_ue_gets_much_less() {
        let near = run_lone(90, 70.0, 2, 10_000).mean_throughput_mbps(Direction::Dl);
        let far = run_lone(90, 600.0, 2, 10_000).mean_throughput_mbps(Direction::Dl);
        assert!(far < near * 0.6, "near {near} far {far}");
    }

    #[test]
    fn ul_far_below_dl() {
        // §4.2: UL "well below 120 Mbps" while DL runs at hundreds.
        let t = run_lone(90, 70.0, 3, 20_000);
        let dl = t.mean_throughput_mbps(Direction::Dl);
        let ul = t.mean_throughput_mbps(Direction::Ul);
        assert!(ul < 130.0, "UL {ul}");
        assert!(dl > 3.0 * ul, "DL {dl} vs UL {ul}");
    }

    #[test]
    fn bler_near_olla_target() {
        // Mid-range conditions, where the MCS table is not saturated: OLLA
        // should hold BLER in the vicinity of its 10% target. (At very
        // good spots the highest MCS index still decodes with BLER ≈ 0 —
        // the outer loop clamps at the table edge; in outage the gNB does
        // not schedule at all.) The quasi-static shadowing makes each
        // (seed, distance) pair one realisation with ±several-dB swings,
        // so the probe point must sit mid-range *for this seed*: seed 4
        // at 100 m averages ~8 dB SINR / CQI 5 — squarely in OLLA's
        // operating regime.
        let t = run_lone(90, 100.0, 4, 40_000);
        let bler = t.dl_bler();
        assert!(bler > 0.01 && bler < 0.3, "bler {bler}");
    }

    #[test]
    fn wider_channel_higher_throughput_same_conditions() {
        // All else equal, 100 MHz > 80 MHz (it's the *other* factors the
        // paper blames for O_Sp's inversion, which operator profiles set).
        let t80 = run_lone(80, 80.0, 5, 15_000).mean_throughput_mbps(Direction::Dl);
        let t100 = run_lone(100, 80.0, 5, 15_000).mean_throughput_mbps(Direction::Dl);
        assert!(t100 > t80, "100 MHz {t100} vs 80 MHz {t80}");
    }

    #[test]
    fn qam64_cap_costs_throughput_in_good_conditions() {
        // The cap only binds where the uncapped link actually reaches the
        // 256QAM rows: at 30 m seed 6 holds ~20 dB / MCS 18 on the 256QAM
        // table, so capping to 64QAM costs real throughput.
        let mut params = CellParams::midband(90, SchedulerPolicy::ProportionalFair);
        params.cell.mcs_policy = nr_phy::cqi::CqiToMcsPolicy {
            cqi_table: nr_phy::cqi::CqiTable::Table2,
            mcs_table: nr_phy::mcs::McsTable::Qam64,
            index_offset: 0,
        };
        let spot = MobilityModel::Stationary { position: Position::new(30.0, 0.0) };
        let capped = CellSim::single(params, spot, &SeedTree::new(6)).run(15_000);
        let capped_mbps = capped[0].mean_throughput_mbps(Direction::Dl);
        let free_mbps = run_lone(90, 30.0, 6, 15_000).mean_throughput_mbps(Direction::Dl);
        assert!(capped_mbps < free_mbps, "64QAM cap {capped_mbps} should trail 256QAM {free_mbps}");
    }

    #[test]
    fn retransmissions_happen_and_recover_bits() {
        let t = run_lone(90, 350.0, 7, 30_000);
        let retx: Vec<SlotKpi> = t.direction(Direction::Dl).filter(|r| r.is_retx).collect();
        assert!(!retx.is_empty(), "expected retransmissions at cell edge");
        assert!(retx.iter().any(|r| r.delivered_bits > 0), "some retx succeed");
    }

    #[test]
    fn ul_slots_follow_tdd_pattern() {
        let t = run_lone(90, 70.0, 8, 10);
        for i in 0..10u64 {
            let has_ul = t.iter().any(|r| r.slot == i && r.direction == Direction::Ul);
            assert_eq!(has_ul, matches!(i % 5, 3 | 4), "slot {i}");
        }
    }

    #[test]
    fn cbr_traffic_caps_delivered_rate() {
        // A 100 Mbps CBR source over a channel that could carry several
        // hundred: goodput tracks the offered load, not the capacity.
        let mut ue = lone(90, 70.0, 21, TrafficPattern::DL);
        ue.set_dl_workload(0, Box::new(Cbr::new(100.0)), QueueConfig::unbounded());
        let trace = ue.run(20_000).swap_remove(0);
        let mbps = trace.mean_throughput_mbps(Direction::Dl);
        assert!((mbps - 100.0).abs() < 12.0, "goodput {mbps} for 100 Mbps offered");
        // TBs shrink to the queued backlog: the mean scheduled TB is far
        // below what the allocation could carry (~600 kbit at this SINR).
        let scheduled: Vec<u32> = trace
            .direction(Direction::Dl)
            .filter(|r| r.scheduled && !r.is_retx)
            .map(|r| r.tbs_bits)
            .collect();
        let mean_tb = scheduled.iter().map(|&b| f64::from(b)).sum::<f64>()
            / scheduled.len().max(1) as f64;
        assert!(mean_tb < 200_000.0, "mean TB {mean_tb} bits");
    }

    #[test]
    fn finite_transfer_drains_and_goes_quiet() {
        let mut ue = lone(90, 70.0, 22, TrafficPattern::DL);
        ue.set_dl_workload(0, Box::new(FiniteTransfer::new(100.0)), QueueConfig::unbounded());
        let trace = ue.run(20_000).swap_remove(0);
        let delivered: u64 =
            trace.direction(Direction::Dl).map(|r| u64::from(r.delivered_bits)).sum();
        let quiet_slots = trace.direction(Direction::Dl).filter(|r| !r.scheduled).count();
        // Every offered bit is accounted for: delivered, or lost when a
        // block exhausts its HARQ budget. A failed last block is still
        // granted its retransmissions after the queue runs dry.
        let stats = ue.dl_flow(0).workload_stats();
        assert_eq!(stats.offered_bits, 100_000_000);
        assert_eq!(stats.delivered_bits, delivered, "records and workload agree");
        assert_eq!(stats.delivered_bits + stats.lost_bits, 100_000_000);
        // The unbounded queue drops nothing, so every lost bit is a
        // HARQ-exhausted block.
        assert_eq!(ue.dl_flow(0).queue_counters(), (0, 0, 100_000_000));
        assert!(quiet_slots > 10_000, "channel goes quiet after the transfer");
    }

    #[test]
    fn moves_accumulate_until_the_next_step() {
        // A UE that reports two half-metre moves before a step must see
        // exactly the channel of one that reports a single metre.
        let route = MobilityModel::driving_loop(Position::ORIGIN, 150.0);
        let params = || CellParams::midband(90, SchedulerPolicy::ProportionalFair);
        let mut split = CellSim::single(params(), route.clone(), &SeedTree::new(23));
        let mut whole = CellSim::single(params(), route, &SeedTree::new(23));
        let mut a = CellTraces::new(1);
        let mut b = CellTraces::new(1);
        for k in 1..=400u32 {
            let to = Position::new(-150.0 + f64::from(k), -150.0);
            split.move_ue(0, to, 0.5);
            split.move_ue(0, to, 0.5);
            whole.move_ue(0, to, 1.0);
            split.step_into(&mut a);
            whole.step_into(&mut b);
        }
        assert_eq!(a.traces()[0], b.traces()[0]);
    }

    #[test]
    fn ul_gate_keeps_the_ue_off_nr_uplink() {
        let mut ue = lone(90, 70.0, 24, TrafficPattern::BOTH);
        ue.set_ul_enabled(0, false);
        let trace = ue.run(2_000).swap_remove(0);
        assert!(trace.direction(Direction::Ul).all(|r| !r.scheduled), "no UL grant");
        assert!(trace.mean_throughput_mbps(Direction::Dl) > 100.0, "DL unaffected");
    }

    #[test]
    fn reserved_prbs_shrink_the_dl_grant() {
        let params = CellParams {
            reserved_dl_prbs: 184,
            ..CellParams::midband(90, SchedulerPolicy::ProportionalFair)
        };
        let spot = MobilityModel::Stationary { position: Position::new(70.0, 0.0) };
        let trace = CellSim::single(params, spot, &SeedTree::new(25)).run(1_000).swap_remove(0);
        let scheduled = trace.direction(Direction::Dl).filter(|r| r.scheduled);
        assert!(scheduled.map(|r| r.n_prb).all(|n| n == 61), "245 - 184 PRBs");
    }

    fn spots(n: usize) -> Vec<UeSpec> {
        const D: [f64; 8] = [45.0, 70.0, 95.0, 117.0, 60.0, 85.0, 110.0, 135.0];
        (0..n).map(|i| UeSpec::at(D[i % D.len()], 0.0)).collect()
    }

    #[test]
    fn two_ues_roughly_halve_per_ue_throughput() {
        // The Fig. 14 mechanism at engine level: the same UE alone vs
        // sharing the cell with a second active UE.
        let run = |ues: Vec<UeSpec>| {
            let mut sim = CellSim::new(
                CellParams::midband(60, SchedulerPolicy::EqualShare),
                &ues,
                &SeedTree::new(14),
            );
            let traces = sim.run(20_000);
            traces[0].mean_throughput_mbps(Direction::Dl)
        };
        let mut alone = spots(2);
        alone[1].active = false;
        let solo = run(alone);
        let shared = run(spots(2));
        assert!(
            shared < solo * 0.65 && shared > solo * 0.3,
            "solo {solo} shared {shared}"
        );
    }

    #[test]
    fn max_cqi_starves_the_weak_ue() {
        let ues = vec![UeSpec::at(45.0, 0.0), UeSpec::at(300.0, 0.0)];
        let mut sim = CellSim::new(
            CellParams::midband(60, SchedulerPolicy::MaxCqi),
            &ues,
            &SeedTree::new(15),
        );
        let traces = sim.run(10_000);
        let strong = traces[0].mean_throughput_mbps(Direction::Dl);
        let weak = traces[1].mean_throughput_mbps(Direction::Dl);
        assert!(strong > 100.0, "strong {strong}");
        // Max-CQI all but starves the cell-edge UE.
        assert!(weak < strong * 0.05, "strong {strong} weak {weak}");
    }

    #[test]
    fn inactive_ues_cost_nothing_but_produce_idle_records() {
        let mut ues = spots(3);
        ues[1].active = false;
        let mut sim = CellSim::new(
            CellParams::midband(60, SchedulerPolicy::EqualShare),
            &ues,
            &SeedTree::new(16),
        );
        let traces = sim.run(2_000);
        assert_eq!(traces.len(), 3);
        // The inactive UE logs slots but never a grant.
        assert!(!traces[1].is_empty());
        assert!(traces[1].iter().all(|r| !r.scheduled));
        // Active UEs split the whole budget (162 RBs at 60 MHz) two ways.
        let mean_rb = |t: &KpiTrace| {
            let s: Vec<f64> = t
                .direction(Direction::Dl)
                .filter(|r| r.scheduled)
                .map(|r| f64::from(r.n_prb))
                .collect();
            s.iter().sum::<f64>() / s.len() as f64
        };
        assert!((mean_rb(&traces[0]) - 81.0).abs() < 1.0);
        assert!((mean_rb(&traces[2]) - 81.0).abs() < 1.0);
    }

    #[test]
    fn more_ues_than_rbs_still_conserves_and_serves() {
        // 200 UEs on a 20 MHz FDD-like budget exercise the k > budget
        // path: zero-PRB "grants" must not schedule, and over enough
        // slots the rotation serves everyone.
        let mut params = CellParams::midband(60, SchedulerPolicy::EqualShare);
        params.cell.n_rb = 51; // shrink the budget below the UE count
        let ues = spots(200);
        let mut sim = CellSim::new(params, &ues, &SeedTree::new(17));
        struct Served(Vec<u64>);
        impl CellSink for Served {
            fn push(&mut self, ue: u32, kpi: &SlotKpi) {
                if kpi.scheduled && kpi.direction == Direction::Dl {
                    self.0[ue as usize] += 1;
                }
            }
        }
        let mut served = Served(vec![0; 200]);
        sim.run_into(2_000, &mut served);
        let never = served.0.iter().filter(|&&n| n == 0).count();
        assert_eq!(never, 0, "{never} UEs never scheduled under rotation");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = CellSim::new(
                CellParams::midband(60, SchedulerPolicy::ProportionalFair),
                &spots(5),
                &SeedTree::new(18),
            );
            sim.run(3_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
        }
    }
}
