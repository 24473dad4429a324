#include "netsim/netsim.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>

#include "energy/energy_model.hpp"
#include "util/error.hpp"
#include "wsn/node.hpp"

namespace wsn::netsim {

using util::Require;

namespace {

// The checks below run once per node or class when a simulator is
// built, so each formats its message only when it fails.

/// Map class name -> index into config.classes; validates uniqueness.
std::unordered_map<std::string, std::size_t> ClassIndex(
    const std::vector<NodeClass>& classes) {
  std::unordered_map<std::string, std::size_t> index;
  index.reserve(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (!index.emplace(classes[c].name, c).second) {
      throw util::InvalidArgument("duplicate node class name '" +
                                  classes[c].name + "'");
    }
  }
  return index;
}

/// Index of node i's class, or size_t(-1) for "use the template".
std::size_t ClassOf(const NetSimConfig& config,
                    const std::unordered_map<std::string, std::size_t>& index,
                    std::size_t i) {
  if (config.node_class.empty()) return static_cast<std::size_t>(-1);
  const auto it = index.find(config.node_class[i]);
  if (it == index.end()) {
    throw util::InvalidArgument("unknown node class '" +
                                config.node_class[i] + "'");
  }
  return it->second;
}

/// Throws unless the battery override is empty or one entry per node.
void CheckOverrideArity(const NetSimConfig& config) {
  const std::size_t entries = config.battery_mah_override.size();
  if (entries == 0 || entries == config.positions.size()) return;
  throw util::InvalidArgument(
      "NetSimConfig::battery_mah_override has " + std::to_string(entries) +
      " entries for " + std::to_string(config.positions.size()) +
      " nodes (must be empty or one per node)");
}

}  // namespace

void NetSimConfig::Validate() const {
  Require(!positions.empty(), "netsim needs at least one node");
  Require(horizon_s > 0.0, "horizon must be positive");
  Require(timeline_interval_s >= 0.0, "timeline interval must be >= 0");
  CheckOverrideArity(*this);
  for (std::size_t i = 0; i < battery_mah_override.size(); ++i) {
    if (!(battery_mah_override[i] > 0.0)) {
      throw util::InvalidArgument(
          "NetSimConfig::battery_mah_override[" + std::to_string(i) +
          "] = " + std::to_string(battery_mah_override[i]) +
          " (capacities must be positive)");
    }
  }
  for (const NodeClass& cls : classes) cls.Validate();
  const auto index = ClassIndex(classes);
  if (!node_class.empty()) {
    Require(node_class.size() == positions.size(),
            "node class names must be empty or one entry per node");
    Require(!classes.empty(),
            "per-node class names given but no node classes defined");
    for (std::size_t i = 0; i < node_class.size(); ++i) {
      (void)ClassOf(*this, index, i);
    }
  }
  mac.Validate();
  cluster.Validate();
  faults.Validate();
  // Reuse the node-layer validation (duty cycle, sample bits, ...).
  node::SensorNode validator(network.node);
  (void)validator;
}

std::vector<node::Position> EffectiveSinks(const NetSimConfig& config) {
  if (!config.sinks.empty()) return config.sinks;
  return {config.network.sink};
}

std::vector<node::NodeConfig> PerNodeConfigs(const NetSimConfig& config) {
  CheckOverrideArity(config);
  const auto index = ClassIndex(config.classes);
  std::vector<node::NodeConfig> out;
  out.reserve(config.positions.size());
  for (std::size_t i = 0; i < config.positions.size(); ++i) {
    node::NodeConfig cfg = config.network.node;
    const std::size_t c = ClassOf(config, index, i);
    if (c != static_cast<std::size_t>(-1)) {
      const NodeClass& cls = config.classes[c];
      cfg.radio = cls.radio;
      cfg.listen_duty_cycle = cls.listen_duty_cycle;
      cfg.battery_mah = cls.battery_mah;
      cfg.battery_volts = cls.battery_volts;
    }
    if (!config.battery_mah_override.empty()) {
      cfg.battery_mah = config.battery_mah_override[i];
    }
    out.push_back(cfg);
  }
  return out;
}

namespace {

bool SameBits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// First field in which two per-node outcomes differ, or nullptr.
const char* FirstNodeDifference(const NodeSimStats& a, const NodeSimStats& b) {
  if (a.generated != b.generated) return "generated";
  if (a.forwarded != b.forwarded) return "forwarded";
  if (a.delivered != b.delivered) return "delivered";
  if (a.dropped != b.dropped) return "dropped";
  if (a.aggregated != b.aggregated) return "aggregated";
  if (a.head_elections != b.head_elections) return "head_elections";
  if (a.alive != b.alive) return "alive";
  if (!SameBits(a.energy_used_j, b.energy_used_j)) return "energy_used_j";
  if (!SameBits(a.remaining_j, b.remaining_j)) return "remaining_j";
  if (!SameBits(a.death_s, b.death_s)) return "death_s";
  if (a.timeline.size() != b.timeline.size()) return "timeline";
  for (std::size_t k = 0; k < a.timeline.size(); ++k) {
    if (!SameBits(a.timeline[k].time_s, b.timeline[k].time_s) ||
        !SameBits(a.timeline[k].remaining_j, b.timeline[k].remaining_j)) {
      return "timeline";
    }
  }
  return nullptr;
}

}  // namespace

std::string FirstReportDifference(const NetSimReport& a,
                                  const NetSimReport& b) {
  if (a.events != b.events) return "events";
  if (a.packets.generated != b.packets.generated) return "generated";
  if (a.packets.delivered != b.packets.delivered) return "delivered";
  if (a.packets.forwarded != b.packets.forwarded) return "forwarded";
  if (a.packets.retransmissions != b.packets.retransmissions) {
    return "retransmissions";
  }
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    if (a.packets.dropped[r] != b.packets.dropped[r]) {
      return std::string("dropped.") +
             DropReasonName(static_cast<DropReason>(r));
    }
  }
  if (a.in_flight != b.in_flight) return "in_flight";
  if (a.crashes != b.crashes) return "crashes";
  if (a.recoveries != b.recoveries) return "recoveries";
  if (a.jam_windows != b.jam_windows) return "jam_windows";
  if (a.sink_outage_windows != b.sink_outage_windows) {
    return "sink_outage_windows";
  }
  if (a.routing_repairs != b.routing_repairs) return "routing_repairs";
  if (a.rounds != b.rounds) return "rounds";
  if (a.elections != b.elections) return "elections";
  if (!SameBits(a.first_death_s, b.first_death_s)) return "first_death_s";
  if (a.first_dead_node != b.first_dead_node) return "first_dead_node";
  if (!SameBits(a.partition_s, b.partition_s)) return "partition_s";
  if (!SameBits(a.heal_s, b.heal_s)) return "heal_s";
  if (!SameBits(a.end_s, b.end_s)) return "end_s";
  if (a.nodes.size() != b.nodes.size()) return "nodes";
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (const char* field = FirstNodeDifference(a.nodes[i], b.nodes[i])) {
      return "nodes[" + std::to_string(i) + "]." + field;
    }
  }
  return {};
}

double CpuAveragePowerMw(const NetSimConfig& config,
                         const core::CpuEnergyModel& model) {
  const core::ModelEvaluation eval = model.Evaluate(config.network.node.cpu);
  return energy::AveragePowerMilliwatts(eval.shares,
                                        config.network.node.cpu_power);
}

NetworkSimulator::NetworkSimulator(NetSimConfig config, double cpu_power_mw,
                                   util::Rng rng)
    : config_(std::move(config)),
      rng_(rng),
      routing_(EffectiveSinks(config_), config_.network.max_hop_m,
               config_.positions),
      mac_(config_.mac, config_.positions.size(), rng_) {
  config_.Validate();
  Require(cpu_power_mw >= 0.0, "CPU power must be >= 0");

  const std::vector<node::NodeConfig> per_node = PerNodeConfigs(config_);
  const std::size_t n = config_.positions.size();
  battery_.reserve(n);
  elec_nj_per_bit_.reserve(n);
  amp_friis_.reserve(n);
  amp_multipath_.reserve(n);
  crossover_m_.reserve(n);
  baseline_mw_.reserve(n);
  traffic_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const node::NodeConfig& cfg = per_node[i];
    battery_.emplace_back(cfg.battery_mah, cfg.battery_volts);
    const energy::RadioModel radio(cfg.radio);  // validates the parameters
    elec_nj_per_bit_.push_back(radio.Parameters().elec_nj_per_bit);
    amp_friis_.push_back(radio.Parameters().amp_friis_pj_per_bit_m2);
    amp_multipath_.push_back(radio.Parameters().amp_multipath_pj_per_bit_m4);
    crossover_m_.push_back(radio.Parameters().crossover_m);
    baseline_mw_.push_back(cpu_power_mw +
                           cfg.listen_duty_cycle * cfg.radio.listen_mw +
                           (1.0 - cfg.listen_duty_cycle) * cfg.radio.sleep_mw);
    if (config_.traffic_factory) {
      traffic_[i] = config_.traffic_factory(i);
      Require(traffic_[i] != nullptr, "traffic factory returned null");
    } else {
      const double rate = cfg.cpu.arrival_rate * cfg.report_fraction;
      if (rate > 0.0) traffic_[i] = des::MakePoissonWorkload(rate);
    }
  }
  last_update_s_.assign(n, 0.0);
  alive_.assign(n, true);
  busy_.assign(n, 0);
  queues_ = PacketQueues(n);
  agg_payloads_.assign(n, 0);
  death_event_.assign(n, 0);
  arrival_event_.assign(n, 0);
  stats_.resize(n);

  if (config_.faults.Enabled()) {
    down_.assign(n, 0);
    tx_void_.assign(n, 0);
    down_since_.assign(n, 0.0);
    // One draw from the replication stream seeds a dedicated fault
    // stream: the whole plan costs the main stream a single uint64, and
    // with faults disabled (faults_ == nullptr) it costs zero draws —
    // which is what keeps every fault-free output bit-identical to the
    // pre-fault engine.
    faults_ = std::make_unique<FaultEngine>(
        FaultPlan::Generate(config_.faults, config_.positions,
                            EffectiveSinks(config_).size(), config_.horizon_s,
                            util::Rng(rng_())));
  }

  protocol_ = config_.cluster.MakeProtocol(n);
  if (protocol_ != nullptr) {
    cluster_next_.assign(n, RoutingTable::kNoRoute);
    cluster_dist_.assign(n, 0.0);
    energy_fraction_.assign(n, 1.0);
    aggregate_bits_ = config_.cluster.aggregate_bits != 0
                          ? config_.cluster.aggregate_bits
                          : config_.network.node.sample_bits;
  }

  if (config_.timeline_interval_s > 0.0) {
    // One sample per tick plus the closing sample appended at the end of
    // the run — sized up front so the hot loop never reallocates.
    const std::size_t samples =
        static_cast<std::size_t>(config_.horizon_s /
                                 config_.timeline_interval_s) +
        2;
    for (NodeSimStats& stats : stats_) stats.timeline.reserve(samples);
  }

  if (config_.obs.metrics) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    // Pre-resolved so OnDeath records through a raw pointer; the range
    // covers incremental repairs (~us) up to full recomputes.
    repair_hist_ = metrics_->TimingHist("netsim.routing.repair_latency_s",
                                        0.0, 0.05, 25);
    if (faults_ != nullptr) {
      outage_hist_ =
          metrics_->Hist("netsim.faults.outage_s", 0.0, config_.horizon_s, 20);
    }
  }
  if (config_.obs.trace.enabled) {
    trace_ = std::make_unique<obs::TraceSink>(config_.obs.trace);
  }
}

NetSimReport NetworkSimulator::Run() {
  Require(!ran_, "NetworkSimulator::Run is single-shot; make a new instance");
  ran_ = true;

  if (Clustered()) {
    ElectClusters(/*repair=*/false);  // round 0 election at t = 0
    sim_.ScheduleAt(config_.cluster.round_s, [this] { RoundTick(); });
  }
  CheckPartition();  // a deployment can be partitioned from the start
  const std::size_t n = battery_.size();
  for (std::size_t i = 0; i < n; ++i) {
    ScheduleNextArrival(i);
    RescheduleDeath(i);
  }
  if (faults_ != nullptr) {
    // The plan is immutable and time-sorted; each event carries only its
    // index, so the closures stay inline in the kernel's event slab.
    const std::vector<FaultEvent>& plan = faults_->Events();
    for (std::size_t k = 0; k < plan.size(); ++k) {
      if (plan[k].t > config_.horizon_s) break;
      sim_.ScheduleAt(plan[k].t, [this, k] { OnFaultEvent(k); });
    }
  }
  if (config_.timeline_interval_s > 0.0) {
    sim_.ScheduleAt(config_.timeline_interval_s, [this] { TimelineTick(); });
  }

  sim_.RunUntil(config_.horizon_s);

  const double end = stopped_ ? stop_time_s_ : config_.horizon_s;
  NetSimReport report;
  report.nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (alive_[i]) Touch(i, end);
    NodeSimStats& stats = stats_[i];
    stats.alive = alive_[i];
    stats.remaining_j = battery_[i].Remaining();
    stats.energy_used_j =
        battery_[i].CapacityJoules() - battery_[i].Remaining();
    if (config_.timeline_interval_s > 0.0 &&
        (stats.timeline.empty() || stats.timeline.back().time_s < end)) {
      stats.timeline.push_back({end, battery_[i].Remaining()});
    }
    report.nodes.push_back(std::move(stats));
  }
  report.packets = counters_;
  report.first_death_s = first_death_s_;
  report.first_dead_node = first_dead_node_;
  report.partition_s = partition_s_;
  report.heal_s = heal_s_;
  report.end_s = end;
  report.crashes = crashes_;
  report.recoveries = recoveries_;
  if (faults_ != nullptr) {
    report.jam_windows = faults_->JamWindows();
    report.sink_outage_windows = faults_->SinkOutages();
  }
  // Conservation bookkeeping: whatever is still buffered (MAC FIFOs and
  // head aggregation buffers) is "in flight at the horizon".  The packet
  // currently being transmitted stays at its queue front until FinishTx
  // pops it, so the queue walk already counts it.
  for (std::size_t i = 0; i < n; ++i) {
    report.in_flight += queues_.PayloadSum(i) + agg_payloads_[i];
  }
  report.events = sim_.ProcessedEvents();
  report.routing_repairs = repair_sw_.calls;
  report.routing_repair_s = repair_sw_.seconds;
  report.rounds = rounds_;
  report.elections = elections_;
  report.election_s = election_sw_.seconds;
  report.assign_s = assign_sw_.seconds;
  if (metrics_ != nullptr) CollectMetrics(report);
  if (trace_ != nullptr) report.trace = trace_->TakeText();
  return report;
}

void NetworkSimulator::ScheduleNextArrival(std::size_t i) {
  arrival_event_[i] = 0;
  if (!traffic_[i]) return;
  const auto next = traffic_[i]->NextArrival(sim_.Now(), rng_);
  if (!next) return;
  const double t = std::max(*next, sim_.Now());
  if (t > config_.horizon_s) return;
  arrival_event_[i] = sim_.ScheduleAt(t, [this, i] { OnArrival(i); });
}

void NetworkSimulator::OnArrival(std::size_t i) {
  arrival_event_[i] = 0;
  if (stopped_) return;
  if (!alive_[i]) return;  // dead sources stop reporting
  ++counters_.generated;
  ++stats_[i].generated;
  Packet pkt;
  pkt.id = next_packet_id_++;
  pkt.source = i;
  pkt.created_s = sim_.Now();
  pkt.bits = config_.network.node.sample_bits;
  TracePacket("gen", i, pkt);
  if (Clustered() && cluster_.IsHead(i)) {
    // A head's own sample joins its aggregation buffer directly — no
    // radio hop from a node to itself.
    AbsorbAtHead(i, pkt);
  } else {
    Enqueue(i, pkt);
  }
  ScheduleNextArrival(i);
}

void NetworkSimulator::Enqueue(std::size_t i, const Packet& pkt) {
  if (!alive_[i]) {
    DropPacket(i, DropReason::kNodeDied, pkt.payload);
    return;
  }
  if (queues_.Size(i) >= mac_.Config().max_queue) {
    DropPacket(i, DropReason::kQueueOverflow, pkt.payload);
    return;
  }
  queues_.PushBack(i, pkt);
  TracePacket("enqueue", i, pkt);
  StartNext(i);
}

void NetworkSimulator::StartNext(std::size_t i) {
  if (stopped_ || !alive_[i] || busy_[i]) return;
  if (queues_.Empty(i)) return;
  // The next hop is queried once: the routing table can only change when
  // a death (or a cluster election) recomputes it, never inside this
  // function.  A partitioned holder therefore sheds its whole backlog
  // immediately.
  const std::size_t receiver = Receiver(i);
  if (receiver == RoutingTable::kNoRoute) {
    while (!queues_.Empty(i)) {
      DropPacket(i, DropReason::kNoRoute, queues_.Front(i).payload);
      queues_.PopFront(i);
    }
    return;
  }
  busy_[i] = 1;
  const Packet& pkt = queues_.Front(i);
  const std::size_t mac_receiver = (receiver == RoutingTable::kSink)
                                       ? DutyCycledMac::kSinkReceiver
                                       : receiver;
  const DutyCycledMac::TxTiming tx =
      mac_.TxFinish(sim_.Now(), pkt.bits, mac_receiver, rng_, pkt.retries);
  ScheduleTxFinish(i, tx);
}

void NetworkSimulator::ScheduleTxFinish(std::size_t i,
                                        const DutyCycledMac::TxTiming& tx) {
  if (!tx.slotted || !config_.batch_mac_wakeups) {
    sim_.ScheduleAt(tx.finish_s, [this, i] { FinishTx(i); });
    return;
  }
  // Same-slot completions share a bit-identical timestamp (the MAC
  // computes slot + duration absolutely), so one kernel event per
  // distinct timestamp walks the whole batch.  The event is scheduled
  // when the batch opens, giving it the FIFO position of its first
  // waiter; later waiters append, preserving schedule order.
  const auto [it, opened] = wakeup_at_.try_emplace(tx.finish_s, 0);
  if (opened) {
    std::uint32_t slot;
    if (!wakeup_free_.empty()) {
      slot = wakeup_free_.back();
      wakeup_free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(wakeup_lists_.size());
      wakeup_lists_.emplace_back();
    }
    it->second = slot;
    wakeup_lists_[slot].t = tx.finish_s;
    const std::size_t s = slot;
    sim_.ScheduleAt(tx.finish_s, [this, s] { FireWakeups(s); });
  }
  wakeup_lists_[it->second].nodes.push_back(static_cast<std::uint32_t>(i));
}

void NetworkSimulator::FireWakeups(std::size_t slot) {
  // Swap the list into the walk scratch and release the slot *before*
  // walking: a FinishTx below can start new transmissions that open new
  // batches (possibly reusing this slot or growing wakeup_lists_), and
  // the scratch keeps this walk untouched by that.  The kernel fires one
  // event at a time, so FireWakeups never nests inside itself.
  WakeupBatch& batch = wakeup_lists_[slot];
  wakeup_at_.erase(batch.t);
  firing_.clear();
  firing_.swap(batch.nodes);
  wakeup_free_.push_back(static_cast<std::uint32_t>(slot));
  ++wakeup_batches_;
  wakeups_batched_ += firing_.size();
  for (std::uint32_t i : firing_) FinishTx(i);
}

void NetworkSimulator::FinishTx(std::size_t i) {
  if (stopped_) return;
  busy_[i] = 0;
  if (faults_ != nullptr && tx_void_[i]) {
    // A crash interrupted this transmission: the event fires but the
    // attempt never happened (the crash already flushed the packet), so
    // swallow it — and restart the pipeline if the node has recovered.
    tx_void_[i] = 0;
    if (alive_[i]) StartNext(i);
    return;
  }
  if (!alive_[i]) return;  // died mid-TX; the queue was flushed at death
  if (queues_.Empty(i)) return;
  Packet pkt = queues_.Front(i);
  queues_.PopFront(i);

  const std::size_t receiver = Receiver(i);
  if (receiver == RoutingTable::kNoRoute) {
    DropPacket(i, DropReason::kNoRoute, pkt.payload);
    StartNext(i);
    return;
  }
  // The sender pays for the attempt whatever its fate (this drain may
  // deplete the sender; the in-flight packet still completes the hop).
  DrainDiscrete(i, energy::ElectronicsEnergy(pkt.bits, elec_nj_per_bit_[i]) +
                      energy::AmplifierEnergy(pkt.bits, HopDistanceOf(i),
                                              amp_friis_[i], amp_multipath_[i],
                                              crossover_m_[i]));
  TracePacket("tx", i, pkt);

  // A sink inside an outage window accepts nothing: the attempt fails
  // exactly like a link loss (retries burn, then the packet drops).
  const bool sink_out =
      receiver == RoutingTable::kSink && faults_ != nullptr &&
      faults_->SinkDown(routing_.NearestSinkIndex(i), sim_.Now());
  if (receiver != RoutingTable::kSink && !alive_[receiver]) {
    DropPacket(i, DropReason::kDeadNextHop, pkt.payload);
  } else if (sink_out || AttemptLost(i)) {
    if (pkt.retries >= mac_.Config().max_retries) {
      DropPacket(i, DropReason::kLinkLoss, pkt.payload);
    } else if (alive_[i]) {
      ++counters_.retransmissions;
      ++pkt.retries;
      queues_.PushFront(i, pkt);
    } else {
      DropPacket(i, DropReason::kNodeDied, pkt.payload);
    }
  } else if (receiver == RoutingTable::kSink) {
    counters_.delivered += pkt.payload;
    stats_[pkt.source].delivered += pkt.payload;
    TracePacket("deliver", i, pkt);
  } else if (Clustered()) {
    // In clustered mode every node-to-node hand-off lands at a cluster
    // head, which folds the payload into its aggregation buffer instead
    // of relaying the packet verbatim.
    DrainDiscrete(receiver, energy::ElectronicsEnergy(
                                pkt.bits, elec_nj_per_bit_[receiver]));
    ++counters_.forwarded;
    ++stats_[receiver].forwarded;
    TracePacket("rx", receiver, pkt);
    if (alive_[receiver]) {
      AbsorbAtHead(receiver, pkt);
    } else {
      DropPacket(receiver, DropReason::kNodeDied, pkt.payload);
    }
  } else {
    DrainDiscrete(receiver, energy::ElectronicsEnergy(
                                pkt.bits, elec_nj_per_bit_[receiver]));
    pkt.retries = 0;
    if (++pkt.hops > battery_.size()) {
      DropPacket(receiver, DropReason::kTtlExceeded, pkt.payload);
    } else {
      ++counters_.forwarded;
      ++stats_[receiver].forwarded;
      TracePacket("rx", receiver, pkt);
      Enqueue(receiver, pkt);
    }
  }
  if (alive_[i]) StartNext(i);
}

void NetworkSimulator::Touch(std::size_t i, double now) {
  const double dt = now - last_update_s_[i];
  if (dt > 0.0) {
    battery_[i].Drain(baseline_mw_[i] * dt / 1000.0);
    last_update_s_[i] = now;
  }
}

void NetworkSimulator::DrainDiscrete(std::size_t i, double joules) {
  if (!alive_[i]) return;
  Touch(i, sim_.Now());
  battery_[i].Drain(joules);
  if (battery_[i].Depleted()) {
    OnDeath(i);
  } else {
    RescheduleDeath(i);
  }
}

void NetworkSimulator::RescheduleDeath(std::size_t i) {
  if (death_event_[i] != 0) {
    sim_.Cancel(death_event_[i]);
    death_event_[i] = 0;
  }
  if (baseline_mw_[i] <= 0.0) return;  // only discrete drains can kill
  const double seconds_left =
      battery_[i].Remaining() / (baseline_mw_[i] / 1000.0);
  const double when = sim_.Now() + seconds_left;
  if (when > config_.horizon_s) return;  // outlives the horizon
  death_event_[i] = sim_.ScheduleAt(when, [this, i] {
    if (stopped_ || !alive_[i]) return;
    death_event_[i] = 0;
    Touch(i, sim_.Now());
    battery_[i].Drain(battery_[i].Remaining());
    OnDeath(i);
  });
}

void NetworkSimulator::OnDeath(std::size_t i) {
  alive_[i] = false;
  stats_[i].death_s = sim_.Now();
  if (death_event_[i] != 0) {
    sim_.Cancel(death_event_[i]);
    death_event_[i] = 0;
  }
  while (!queues_.Empty(i)) {
    DropPacket(i, DropReason::kNodeDied, queues_.Front(i).payload);
    queues_.PopFront(i);
  }
  if (agg_payloads_[i] > 0) {
    // Buffered member payloads die with the head that held them.
    DropPacket(i, DropReason::kNodeDied, agg_payloads_[i]);
    agg_payloads_[i] = 0;
  }
  if (first_death_s_ == std::numeric_limits<double>::infinity()) {
    first_death_s_ = sim_.Now();
    first_dead_node_ = i;
    if (config_.stop_at_first_death) Stop();
  }
  if (stopped_) return;
  RepairAfterLoss(i);
}

void NetworkSimulator::RepairAfterLoss(std::size_t i) {
  // Every loss in clustered mode updates routing state (a member loss
  // clears its own uplink, a head loss rebuilds or repairs); in flat
  // mode only rerouting-enabled runs do.  Shared by battery deaths and
  // fault crashes: the routing consequence of leaving the alive set is
  // identical, only the death/crash bookkeeping around it differs.
  const bool repaired = Clustered() || config_.rerouting;
  obs::PhaseTimer repair_timer(repaired ? &repair_sw_ : nullptr);
  if (Clustered()) {
    if (cluster_.IsHead(i)) {
      if (config_.rerouting) {
        // Losing a head strands its members: repair the cluster now.
        // The in-place path drops only the dead head (its members
        // re-attach when they next transmit); ElectClusters is the
        // full-rebuild fallback (oracle runs, last head standing, or a
        // protocol that declines).
        if (!TryInPlaceClusterRepair(i)) {
          ElectClusters(/*repair=*/true);
        }
      } else {
        RebuildClusterRoutes();  // at least forget routes through the dead
      }
    } else {
      // A dead member invalidates only its own uplink; every other row
      // of the cluster routing state still points at a live head (or
      // was already kNoRoute), so a full rebuild would change nothing.
      // Leaving the alive set also removes the member from the
      // unrouted-alive count when it had no uplink.
      if (cluster_next_[i] == RoutingTable::kNoRoute) --cluster_unrouted_;
      cluster_next_[i] = RoutingTable::kNoRoute;
      cluster_dist_[i] = 0.0;
    }
  } else if (config_.rerouting) {
    if (config_.oracle) {
      routing_.Recompute(alive_);
    } else {
      routing_.RepairAfterDeath(i, alive_);
    }
  }
  const double repair_elapsed = repair_timer.Stop();
  if (repaired && repair_hist_ != nullptr) repair_hist_->Add(repair_elapsed);
  CheckPartition();
}

void NetworkSimulator::OnFaultEvent(std::size_t k) {
  if (stopped_) return;
  const FaultEvent& e = faults_->Events()[k];
  if (e.kind == FaultEventKind::kCrash) {
    OnCrash(e.node);
  } else {
    OnRecover(e.node);
  }
}

void NetworkSimulator::OnCrash(std::size_t i) {
  // A battery-dead or already-crashed node has nothing left to crash;
  // its paired recover event then no-ops too (down_ guard), so a Poisson
  // crash landing inside a battery-death window never resurrects anyone.
  if (!alive_[i]) return;
  const double now = sim_.Now();
  Touch(i, now);  // baseline paid up to the crash instant, none during it
  alive_[i] = false;
  down_[i] = 1;
  down_since_[i] = now;
  ++crashes_;
  if (death_event_[i] != 0) {
    sim_.Cancel(death_event_[i]);
    death_event_[i] = 0;
  }
  if (arrival_event_[i] != 0) {
    sim_.Cancel(arrival_event_[i]);
    arrival_event_[i] = 0;
  }
  // An interrupted transmission completes nothing: its pending FinishTx
  // must be swallowed, not treated as a finished attempt after recovery.
  if (busy_[i]) tx_void_[i] = 1;
  // The backlog dies with the crash.  Deliberately the same cause as a
  // battery death (the holder went silent with packets queued): a
  // dedicated crash reason would change the drops table layout every
  // fault-free pinned output shows.
  while (!queues_.Empty(i)) {
    DropPacket(i, DropReason::kNodeDied, queues_.Front(i).payload);
    queues_.PopFront(i);
  }
  if (agg_payloads_[i] > 0) {
    DropPacket(i, DropReason::kNodeDied, agg_payloads_[i]);
    agg_payloads_[i] = 0;
  }
  // Crashes are transient: no death_s stamp, no first-death latch — the
  // stop_at_first_death contract still means *battery* death.
  RepairAfterLoss(i);
}

void NetworkSimulator::OnRecover(std::size_t i) {
  if (stopped_ || !down_[i]) return;
  const double now = sim_.Now();
  down_[i] = 0;
  alive_[i] = true;
  // No baseline drain accrues over the outage: the node rejoins with the
  // charge it crashed with.
  last_update_s_[i] = now;
  ++recoveries_;
  if (outage_hist_ != nullptr) outage_hist_->Add(now - down_since_[i]);
  RescheduleDeath(i);

  // Re-admit the node to the routing state — the dual of RepairAfterLoss,
  // timed by the same stopwatch (recoveries are route updates too).
  const bool repaired = Clustered() || config_.rerouting;
  obs::PhaseTimer repair_timer(repaired ? &repair_sw_ : nullptr);
  if (Clustered()) {
    if (config_.rerouting) {
      ReadmitRevived(i);
    } else {
      RebuildClusterRoutes();
    }
  } else if (config_.rerouting) {
    if (config_.oracle) {
      routing_.Recompute(alive_);
    } else {
      routing_.RepairAfterRecovery(i, alive_);
    }
  }
  const double repair_elapsed = repair_timer.Stop();
  if (repaired && repair_hist_ != nullptr) repair_hist_->Add(repair_elapsed);
  CheckPartition();  // a revival can heal a partition
  ScheduleNextArrival(i);
}

void NetworkSimulator::ReadmitRevived(std::size_t i) {
  // The revived node rejoins as a member of its nearest live head; a
  // former head gets its next shot at the following round election.
  // The assignment's head index answers; oracle runs keep the linear
  // scan.  Both break ties toward the lowest head index, matching
  // AssignToNearestHead.
  const node::Position& p = config_.positions[i];
  std::size_t best = ClusterAssignment::kUnclustered;
  if (!config_.oracle) {
    // Every listed head is alive: each head death is repaired at once.
    if (!cluster_.heads.empty()) {
      const HeadIndex& index = cluster_.EnsureIndex(config_.positions);
      best = index.Head(index.Nearest(p));
    }
  } else {
    double best2 = std::numeric_limits<double>::infinity();
    for (std::size_t h : cluster_.heads) {
      if (!alive_[h]) continue;
      const double d2 = node::Distance2(p, config_.positions[h]);
      if (d2 < best2) {
        best2 = d2;
        best = h;
      }
    }
  }
  if (best == ClusterAssignment::kUnclustered) {
    if (i < cluster_.head_of.size()) {
      cluster_.head_of[i] = ClusterAssignment::kUnclustered;
    }
    cluster_next_[i] = RoutingTable::kNoRoute;
    cluster_dist_[i] = 0.0;
    ++cluster_unrouted_;
    return;
  }
  if (i < cluster_.head_of.size()) cluster_.head_of[i] = best;
  cluster_next_[i] = best;
  cluster_dist_[i] = node::Distance(p, config_.positions[best]);
}

bool NetworkSimulator::AttemptLost(std::size_t i) {
  if (faults_ == nullptr) return mac_.AttemptLost(rng_);
  const double extra = faults_->JamExtraLoss(config_.positions[i], sim_.Now());
  // No active jam over the sender: exactly the MAC's own draw (same
  // single uniform, same comparison), so jam-free stretches of a faulty
  // run replay the fault-free arithmetic.
  if (extra <= 0.0) return mac_.AttemptLost(rng_);
  const double p =
      1.0 - (1.0 - mac_.Config().p_loss) * (1.0 - extra);
  return util::UniformDouble(rng_) < p;
}

void NetworkSimulator::CheckPartition() {
  const bool latched = partition_s_ != std::numeric_limits<double>::infinity();
  // Once partitioned, fault-free runs are done here forever (nothing can
  // heal them), keeping the post-latch check O(1); with faults the
  // detector keeps watching until the first heal is recorded.
  if (latched &&
      (faults_ == nullptr ||
       heal_s_ != std::numeric_limits<double>::infinity())) {
    return;
  }
  bool partitioned = false;
  if (Clustered()) {
    // Every head death is repaired at once; a row still naming a dead
    // head is routed, since a surviving head exists to re-attach it.
    partitioned = cluster_unrouted_ > 0;
  } else if (config_.rerouting) {
    // The table is repaired after every death, so it is consistent with
    // alive_: a disconnected alive node exists iff some alive node holds
    // kNoRoute (greedy chains strictly approach the sink through alive
    // relays).  O(1) instead of the historical O(N * chain) sweep.
    partitioned = routing_.UnroutedAlive() > 0;
  } else {
    // Rerouting off: the table is stale, chains must be re-walked.
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      if (!alive_[i]) continue;
      if (!routing_.Connected(i, alive_)) {
        partitioned = true;
        break;
      }
    }
  }
  if (!latched) {
    if (partitioned) {
      partition_s_ = sim_.Now();
      if (config_.stop_at_partition) Stop();
    }
  } else if (!partitioned) {
    heal_s_ = sim_.Now();  // every alive node routes again: the cut healed
  }
}

void NetworkSimulator::DropPacket(std::size_t holder, DropReason reason,
                                  std::uint32_t payloads) {
  counters_.Drop(reason, payloads);
  stats_[holder].dropped += payloads;
  if (trace_ != nullptr) {
    // Drops are recorded per (holder, cause, payload count); several call
    // sites drop whole queues, so no single packet id applies.
    obs::TraceEvent event;
    event.t = sim_.Now();
    event.event = "drop";
    event.node = holder;
    event.payload = payloads;
    event.has_payload = true;
    event.cause = DropReasonName(reason);
    trace_->Record(event);
  }
}

void NetworkSimulator::TracePacket(const char* event_name, std::size_t node,
                                   const Packet& pkt) {
  if (trace_ == nullptr) return;
  obs::TraceEvent event;
  event.t = sim_.Now();
  event.event = event_name;
  event.node = node;
  event.packet = pkt.id;
  event.has_packet = true;
  event.source = pkt.source;
  event.has_source = true;
  event.payload = pkt.payload;
  event.has_payload = true;
  trace_->Record(event);
}

void NetworkSimulator::CollectMetrics(NetSimReport& report) {
  obs::MetricsRegistry& reg = *metrics_;
  const des::Simulator::KernelStats kernel = sim_.Stats();
  *reg.Counter("des.events.scheduled") += kernel.scheduled;
  *reg.Counter("des.events.fired") += kernel.fired;
  *reg.Counter("des.events.cancelled") += kernel.cancelled;
  *reg.Counter("des.slab.reuses") += kernel.slab_reuses;
  reg.GaugeMax("des.queue.live_hwm", static_cast<double>(kernel.live_hwm));
  reg.GaugeMax("des.slab.slots", static_cast<double>(kernel.slab_slots));

  *reg.Counter("netsim.packets.generated") += counters_.generated;
  *reg.Counter("netsim.packets.delivered") += counters_.delivered;
  *reg.Counter("netsim.packets.forwarded") += counters_.forwarded;
  *reg.Counter("netsim.packets.retransmissions") += counters_.retransmissions;
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    const auto reason = static_cast<DropReason>(r);
    *reg.Counter(std::string("netsim.drops.") + DropReasonName(reason)) +=
        counters_.Dropped(reason);
  }
  std::uint64_t deaths = 0;
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (!alive_[i]) ++deaths;
  }
  *reg.Counter("netsim.deaths") += deaths;
  if (faults_ != nullptr) {
    // Fault counters only exist in fault-enabled runs, so the metric
    // catalogue of every fault-free run is unchanged.
    *reg.Counter("netsim.faults.crashes") += crashes_;
    *reg.Counter("netsim.faults.recoveries") += recoveries_;
    *reg.Counter("netsim.faults.jam_windows") += faults_->JamWindows();
    *reg.Counter("netsim.faults.sink_outages") += faults_->SinkOutages();
  }
  *reg.Counter("netsim.routing.repairs") += repair_sw_.calls;
  *reg.Counter("netsim.cluster.rounds") += rounds_;
  *reg.Counter("netsim.cluster.elections") += elections_;
  *reg.Counter("netsim.cluster.reattachments") += reattachments_;
  *reg.Counter("netsim.mac.lpl_waits") += mac_.Lpl().waits;
  *reg.Sum("netsim.mac.lpl_wait_s") += mac_.Lpl().wait_s;
  *reg.Counter("netsim.mac.wakeup_batches") += wakeup_batches_;
  *reg.Counter("netsim.mac.wakeups_batched") += wakeups_batched_;
  reg.GaugeMax("netsim.queue.pool_slots",
               static_cast<double>(queues_.Slots()));
  if (trace_ != nullptr) {
    *reg.Counter("obs.trace.events") += trace_->Events();
    if (trace_->Truncated()) *reg.Counter("obs.trace.truncated") += 1;
  }

  reg.Timing("netsim.routing.repair_wall_s")->MergeFrom(repair_sw_);
  reg.Timing("netsim.cluster.election_wall_s")->MergeFrom(election_sw_);
  reg.Timing("netsim.cluster.assign_wall_s")->MergeFrom(assign_sw_);

  report.metrics = reg.Snapshot();
}

void NetworkSimulator::TimelineTick() {
  if (stopped_) return;
  const double now = sim_.Now();
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (!alive_[i]) continue;
    Touch(i, now);
    stats_[i].timeline.push_back({now, battery_[i].Remaining()});
  }
  const double next = now + config_.timeline_interval_s;
  if (next <= config_.horizon_s) {
    sim_.ScheduleAt(next, [this] { TimelineTick(); });
  }
}

void NetworkSimulator::Stop() {
  if (stopped_) return;
  stopped_ = true;
  stop_time_s_ = sim_.Now();
}

std::size_t NetworkSimulator::Receiver(std::size_t i) {
  if (!Clustered()) return routing_.NextHop(i);
  // A row names a head, kSink (i is a head) or kNoRoute; a named node
  // that is no longer a head died or crashed in this round.  head_of,
  // not alive_, decides: a head that crashed and recovered is alive but
  // now a member.
  const std::size_t next = cluster_next_[i];
  if (next < cluster_.head_of.size() && cluster_.head_of[next] != next) {
    return ReattachMember(i);
  }
  return next;
}

std::size_t NetworkSimulator::ReattachMember(std::size_t i) {
  ++reattachments_;
  const std::size_t head = cluster_.ResolveHead(i, config_.positions);
  cluster_next_[i] = head;
  cluster_dist_[i] =
      node::Distance(config_.positions[i], config_.positions[head]);
  return head;
}

double NetworkSimulator::HopDistanceOf(std::size_t i) const {
  return Clustered() ? cluster_dist_[i] : routing_.HopDistance(i);
}

void NetworkSimulator::ElectClusters(bool repair) {
  const double now = sim_.Now();
  if (!repair) {
    // Round elections drain every battery up to the election instant so
    // the protocol sees current energies.  Repairs skip the O(N) sweep —
    // batteries stay lazily drained (see Touch) and the rare repair that
    // actually reads energies refreshes them below — which regroups the
    // floating-point drain sums and therefore shifts clustered
    // trajectories by ULPs relative to the eager-sweep implementation
    // (identically with and without `oracle`).
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      if (alive_[i]) Touch(i, now);  // batteries current at the election
    }
  }
  ClusterView view;
  view.positions = &config_.positions;
  view.sinks = &routing_.Sinks();
  view.alive = &alive_;
  view.energy_fraction = &energy_fraction_;
  // The energy *fractions* are derived lazily: only an election that
  // actually reads energies (LEACH's nobody-volunteered draft) pays the
  // per-node touch + division, so the frequent head-death repairs skip
  // it.
  view.refresh_energy = [this, now] {
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      if (alive_[i]) {
        Touch(i, now);  // no-op when the round-election sweep already ran
        energy_fraction_[i] =
            battery_[i].Remaining() / battery_[i].CapacityJoules();
      } else {
        energy_fraction_[i] = 0.0;
      }
    }
  };
  view.assign_stopwatch = &assign_sw_;
  view.all_pairs = config_.oracle;

  // Election cost = protocol decision + member assignment + route
  // rebuild; the post-election queue wakeups below are ordinary TX work,
  // not election overhead, so they stay outside the timer.
  ClusterAssignment prev = std::move(cluster_);
  obs::PhaseTimer election_timer(&election_sw_);
  cluster_ = repair ? protocol_->Repair(prev, round_, view, rng_)
                    : protocol_->Elect(round_, view, rng_);
  ++elections_;
  if (!repair) ++rounds_;
  for (std::size_t h : cluster_.heads) ++stats_[h].head_elections;
  RebuildClusterRoutes(repair && prev.head_of.size() == cluster_.head_of.size()
                           ? &prev.head_of
                           : nullptr);
  election_timer.Stop();
  // Routes may have appeared (a repaired head) — wake up waiting queues.
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i] && !queues_.Empty(i)) StartNext(i);
  }
}

bool NetworkSimulator::TryInPlaceClusterRepair(std::size_t dead) {
  // Oracle runs take the full-rebuild path, the reference this one is
  // pinned against.
  if (config_.oracle) return false;
  ClusterView view;
  view.positions = &config_.positions;
  view.sinks = &routing_.Sinks();
  view.alive = &alive_;
  view.energy_fraction = &energy_fraction_;  // never read: repairs with a
                                             // surviving head skip energies
  view.assign_stopwatch = &assign_sw_;

  std::vector<std::uint32_t> unused;
  obs::PhaseTimer election_timer(&election_sw_);
  if (!protocol_->RepairInPlace(cluster_, dead, view, unused)) {
    // A declined attempt is not an election: the ElectClusters fallback
    // records the one that happens.
    election_timer.Discard();
    return false;
  }
  ++elections_;
  // Every surviving head "wins" the repair election, exactly as on the
  // full-rebuild path — head_elections is an output-visible stat.
  for (std::size_t h : cluster_.heads) ++stats_[h].head_elections;
  // The dead head forgets its sink uplink.  Its members' rows keep
  // naming it until Receiver re-attaches them, and cluster_unrouted_ is
  // untouched: the dead head left the alive set, not the routed set.
  // No queue needs a wake-up: an alive, idle node holds no backlog while
  // it has a route, because StartNext either starts a transmission or
  // sheds the whole backlog.  The one exception is a sender inside its
  // own FinishTx whose receiving head the RX drain just killed; that
  // FinishTx restarts it before anything draws a random number or
  // schedules an event.
  cluster_next_[dead] = RoutingTable::kNoRoute;
  cluster_dist_[dead] = 0.0;
  return true;
}

void NetworkSimulator::RebuildClusterRoutes(
    const std::vector<std::size_t>* prev_head_of) {
  const bool diff = prev_head_of != nullptr &&
                    prev_head_of->size() == cluster_.head_of.size() &&
                    cluster_.head_of.size() == alive_.size();
  if (!diff) cluster_unrouted_ = 0;
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (diff) {
      // A row whose assignment is unchanged still points at a live head
      // (repair never kills a kept head) at the same distance.
      if ((*prev_head_of)[i] == cluster_.head_of[i]) continue;
      if (alive_[i] && cluster_next_[i] == RoutingTable::kNoRoute) {
        --cluster_unrouted_;  // re-counted below if the row stays unrouted
      }
    }
    if (!alive_[i]) {
      cluster_next_[i] = RoutingTable::kNoRoute;
      cluster_dist_[i] = 0.0;
      continue;
    }
    const std::size_t head = i < cluster_.head_of.size()
                                 ? cluster_.head_of[i]
                                 : ClusterAssignment::kUnclustered;
    if (head == i) {
      // Heads uplink straight to their nearest sink; the routing table
      // precomputed that distance from the same sink set.
      cluster_next_[i] = RoutingTable::kSink;
      cluster_dist_[i] = routing_.DistanceToSink(i);
    } else if (head != ClusterAssignment::kUnclustered && alive_[head]) {
      cluster_next_[i] = head;
      cluster_dist_[i] =
          node::Distance(config_.positions[i], config_.positions[head]);
    } else {
      cluster_next_[i] = RoutingTable::kNoRoute;
      cluster_dist_[i] = 0.0;
      ++cluster_unrouted_;
    }
  }
}

void NetworkSimulator::RoundTick() {
  if (stopped_) return;
  // Demotion flush: partial aggregates leave under the *new* assignment
  // (the packets sit in the queue; the receiver is read at TX time).
  for (std::size_t h : cluster_.heads) {
    if (alive_[h]) FlushAggregate(h);
  }
  ++round_;
  ElectClusters(/*repair=*/false);
  CheckPartition();
  const double next = sim_.Now() + config_.cluster.round_s;
  if (next <= config_.horizon_s) {
    sim_.ScheduleAt(next, [this] { RoundTick(); });
  }
}

void NetworkSimulator::AbsorbAtHead(std::size_t head, const Packet& pkt) {
  stats_[head].aggregated += pkt.payload;
  agg_payloads_[head] += pkt.payload;
  if (agg_payloads_[head] >=
      static_cast<std::uint32_t>(config_.cluster.aggregation)) {
    FlushAggregate(head);
  }
}

void NetworkSimulator::FlushAggregate(std::size_t head) {
  if (agg_payloads_[head] == 0) return;
  Packet agg;
  agg.id = next_packet_id_++;
  agg.source = head;
  agg.created_s = sim_.Now();
  agg.bits = aggregate_bits_;
  agg.payload = agg_payloads_[head];
  agg_payloads_[head] = 0;
  Enqueue(head, agg);
}

}  // namespace wsn::netsim
