#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace edr::net {

void SimNetwork::attach(NodeId node, Handler handler) {
  if (node >= handlers_.size()) handlers_.resize(std::size_t{node} + 1);
  handlers_[node] = std::move(handler);
}

void SimNetwork::detach(NodeId node) {
  if (node < handlers_.size()) handlers_[node] = nullptr;
}

bool SimNetwork::attached(NodeId node) const {
  return node < handlers_.size() && handlers_[node] != nullptr;
}

void SimNetwork::set_client_links(NodeId first_client,
                                  const Matrix& latency_ms,
                                  std::span<const double> hub_bandwidth_mbps) {
  if (hub_bandwidth_mbps.size() != latency_ms.cols())
    throw std::invalid_argument(
        "SimNetwork: need one bandwidth per hub (latency matrix column)");
  if (first_client < latency_ms.cols())
    throw std::invalid_argument("SimNetwork: client ids overlap the hubs");
  first_client_ = first_client;
  clients_ = latency_ms.rows();
  hubs_ = latency_ms.cols();
  client_latency_ms_ = &latency_ms;
  client_bandwidth_mbps_.resize(clients_ * hubs_);
  for (std::size_t c = 0; c < clients_; ++c)
    std::copy(hub_bandwidth_mbps.begin(), hub_bandwidth_mbps.end(),
              client_bandwidth_mbps_.begin() +
                  static_cast<std::ptrdiff_t>(c * hubs_));
  busy_until_.assign(2 * clients_ * hubs_ + hubs_ * hubs_, 0.0);
}

void SimNetwork::scale_client_bandwidth(NodeId client, NodeId hub,
                                        double factor) {
  const std::size_t index = client_link(client, hub);
  if (index == kNoSlot)
    throw std::out_of_range("SimNetwork: not a client<->hub link");
  client_bandwidth_mbps_[index] *= factor;
}

std::size_t SimNetwork::client_link(NodeId client, NodeId hub) const {
  if (hub >= hubs_ || client < first_client_) return kNoSlot;
  const std::size_t c = client - first_client_;
  return c < clients_ ? c * hubs_ + hub : kNoSlot;
}

std::size_t SimNetwork::busy_slot(NodeId from, NodeId to) const {
  if (from < hubs_ && to < hubs_)
    return 2 * clients_ * hubs_ + std::size_t{from} * hubs_ + to;
  if (const std::size_t up = client_link(from, to); up != kNoSlot)
    return 2 * up;
  if (const std::size_t down = client_link(to, from); down != kNoSlot)
    return 2 * down + 1;
  return kNoSlot;
}

void SimNetwork::set_link(NodeId from, NodeId to, LinkParams params) {
  overrides_[pair_key(from, to)] = params;
}

LinkParams SimNetwork::link(NodeId from, NodeId to) const {
  return link_at(from, to, busy_slot(from, to));
}

LinkParams SimNetwork::link_at(NodeId from, NodeId to,
                               std::size_t slot) const {
  if (!overrides_.empty()) {
    const auto it = overrides_.find(pair_key(from, to));
    if (it != overrides_.end()) return it->second;
  }
  if (slot >= 2 * clients_ * hubs_) return default_link_;  // incl. kNoSlot
  // The latency matrix is C x H row-major, the same layout as the
  // per-link tables.
  const std::size_t index = slot / 2;
  LinkParams params;
  params.latency = client_latency_ms_->flat()[index];
  params.bandwidth_mbps = client_bandwidth_mbps_[index];
  return params;
}

TrafficStats& SimNetwork::stats_slot(NodeId node) {
  if (node >= stats_.size()) stats_.resize(std::size_t{node} + 1);
  return stats_[node];
}

SimTime SimNetwork::nominal_delay(NodeId from, NodeId to,
                                  std::size_t bytes) const {
  const LinkParams params = link(from, to);
  const double transmission =
      params.bandwidth_mbps > 0.0
          ? static_cast<double>(bytes) / (params.bandwidth_mbps * 1e6)
          : 0.0;
  return seconds(params.latency) + transmission;
}

void SimNetwork::send(Message message) {
  auto& sender = stats_slot(message.from);
  sender.messages_sent += 1;
  sender.bytes_sent += message.bytes;
  auto& type = type_slot(message.type);
  type.traffic.messages += 1;
  type.traffic.bytes += message.bytes;
  messages_sent_metric_.add(1);
  bytes_sent_metric_.add(message.bytes);
  if (telemetry_ != nullptr) {
    if (!type.metrics_registered) {
      const std::string label = type.name.empty()
                                    ? "type" + std::to_string(message.type)
                                    : type.name;
      auto& metrics = telemetry_->metrics();
      type.metrics = {metrics.counter("net.sent." + label + ".messages"),
                      metrics.counter("net.sent." + label + ".bytes")};
      type.metrics_registered = true;
    }
    type.metrics[0].add(1);
    type.metrics[1].add(message.bytes);
  }

  const std::size_t slot = busy_slot(message.from, message.to);
  const LinkParams params = link_at(message.from, message.to, slot);
  const double transmission =
      params.bandwidth_mbps > 0.0
          ? static_cast<double>(message.bytes) / (params.bandwidth_mbps * 1e6)
          : 0.0;

  // FIFO serialization on the directed link: transmission starts when the
  // link frees up.
  SimTime& busy_until =
      slot != kNoSlot ? busy_until_[slot]
                      : pair_busy_until_[pair_key(message.from, message.to)];
  const SimTime start = std::max(sim_.now(), busy_until);
  queue_delay_metric_.observe(start - sim_.now());
  busy_until = start + transmission;
  const SimTime delivery = busy_until + seconds(params.latency);

  // Flow arrow tail on the sender's track; the head is recorded at
  // delivery so the viewer draws send -> receive across the two tracks.
  std::uint64_t flow_id = 0;
  if (flow_parent_ != 0 && telemetry_ != nullptr &&
      telemetry_->tracer().enabled()) {
    auto& tracer = telemetry_->tracer();
    flow_id = tracer.new_id();
    tracer.flow_begin(flow_id, flow_name(message.type), "net", message.from,
                      flow_parent_);
  }

  // Loss happens on the wire: the sender already paid the transmission
  // slot, the receiver just never sees the frame.
  if (params.loss_probability > 0.0 &&
      loss_rng_.uniform() < params.loss_probability) {
    ++lost_;
    messages_lost_metric_.add(1);
    return;
  }

  const std::size_t index = in_flight_.insert({std::move(message), flow_id});
  sim_.schedule_at(delivery, [this, index] { deliver(index); });
}

void SimNetwork::deliver(std::size_t index) {
  const InFlight parcel = in_flight_.take(index);
  const Message& msg = parcel.message;
  if (!attached(msg.to)) return;  // crashed host: drop
  auto& receiver = stats_slot(msg.to);
  receiver.messages_received += 1;
  receiver.bytes_received += msg.bytes;
  messages_delivered_metric_.add(1);
  if (parcel.flow_id != 0 && telemetry_ != nullptr) {
    telemetry_->tracer().flow_end(parcel.flow_id, flow_name(msg.type), "net",
                                  msg.to);
  }
  handlers_[msg.to](msg);
}

TypeTraffic SimNetwork::traffic_in_range(int first_type,
                                         int last_type) const {
  TypeTraffic total;
  for (int type = std::max(first_type, 0);
       type <= last_type && static_cast<std::size_t>(type) < types_.size();
       ++type) {
    const TypeTraffic& traffic = types_[static_cast<std::size_t>(type)].traffic;
    total.messages += traffic.messages;
    total.bytes += traffic.bytes;
  }
  return total;
}

void SimNetwork::set_type_name(int type, std::string name) {
  type_slot(type).name = std::move(name);
}

SimNetwork::TypeSlot& SimNetwork::type_slot(int type) {
  if (type < 0)
    throw std::invalid_argument("SimNetwork: negative message type");
  const auto index = static_cast<std::size_t>(type);
  if (index >= types_.size()) types_.resize(index + 1);
  return types_[index];
}

std::string_view SimNetwork::flow_name(int type) const {
  const std::string& name = types_[static_cast<std::size_t>(type)].name;
  return name.empty() ? std::string_view{"message"} : std::string_view{name};
}

void SimNetwork::attach_telemetry(telemetry::Telemetry& telemetry) {
  telemetry_ = &telemetry;
  auto& metrics = telemetry.metrics();
  messages_sent_metric_ = metrics.counter("net.messages_sent");
  bytes_sent_metric_ = metrics.counter("net.bytes_sent");
  messages_delivered_metric_ = metrics.counter("net.messages_delivered");
  messages_lost_metric_ = metrics.counter("net.messages_lost");
  queue_delay_metric_ = metrics.histogram(
      "net.link_queue_delay_s", telemetry::MetricsRegistry::latency_bounds_s());
}

TrafficStats SimNetwork::stats(NodeId node) const {
  return node < stats_.size() ? stats_[node] : TrafficStats{};
}

TrafficStats SimNetwork::total_stats() const {
  TrafficStats total;
  for (const auto& s : stats_) {
    total.messages_sent += s.messages_sent;
    total.messages_received += s.messages_received;
    total.bytes_sent += s.bytes_sent;
    total.bytes_received += s.bytes_received;
  }
  return total;
}

}  // namespace edr::net
