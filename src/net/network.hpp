// Simulated network: nodes, links, message delivery.
//
// Models the paper's data-center interconnect at the fidelity the
// evaluation depends on: per-link propagation latency (which drives the
// latency-feasibility mask), per-link bandwidth with FIFO serialization
// (which drives transfer times and hence the power-trace peaks), and
// per-node traffic counters (which drive the communication-complexity
// comparisons between CDPSM, LDDM and DONAR).
#pragma once

#include <any>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/sim.hpp"
#include "telemetry/telemetry.hpp"

namespace edr::net {

using NodeId = std::uint32_t;

/// A message in flight.  `type` is interpreted by the receiving agent
/// (core defines its protocol enums); `bytes` drives transmission delay and
/// the traffic counters; `payload` carries typed content without copying
/// through a codec on every hop (the codec in net/wire.hpp is used to size
/// messages and at the transport boundary in live mode).
struct Message {
  NodeId from = 0;
  NodeId to = 0;
  int type = 0;
  std::size_t bytes = 0;
  std::any payload;
};

/// Static link properties.
struct LinkParams {
  Milliseconds latency = 0.5;
  /// Link rate in MB/s (paper: ~100 MB/s Ethernet).
  double bandwidth_mbps = 100.0;
  /// Independent per-message drop probability (0 = reliable, the default;
  /// the paper's TCP transport retransmits, but heartbeats and other
  /// datagram-style traffic see real loss — see cluster ring tests).
  double loss_probability = 0.0;
};

/// Per-node traffic statistics.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Per-message-type traffic totals (sent side).  Always on: the runtime
/// derives its coordination-traffic report from these instead of keeping a
/// parallel hand tally, and the telemetry exporters mirror them.
struct TypeTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Message handler: invoked at delivery time on the destination node.
using Handler = std::function<void(const Message&)>;

class SimNetwork {
 public:
  explicit SimNetwork(Simulator& sim) : sim_(sim) {}

  /// Seed the loss process (only consumed on links with loss_probability
  /// > 0, so reliable topologies stay bit-identical across seeds).
  void seed_loss(std::uint64_t seed) { loss_rng_.reseed(seed); }

  /// Register (or replace) the handler for `node`.  Handlers live in a
  /// table indexed by node id that grows here, so a handler must not attach
  /// a node id above every id attached so far (that would move the table
  /// under the running handler).
  void attach(NodeId node, Handler handler);

  /// Remove a node: pending deliveries to it are dropped (crash semantics).
  void detach(NodeId node);

  [[nodiscard]] bool attached(NodeId node) const;

  /// Default parameters for links without an explicit override.
  void set_default_link(LinkParams params) { default_link_ = params; }

  /// Star topology in one pass: hubs are nodes [0, H) and clients are nodes
  /// [first_client, first_client + C), with H = latency_ms.cols() and
  /// C = latency_ms.rows().  Client c and hub h share one symmetric,
  /// reliable link whose latency is latency_ms(c, h), read at send time:
  /// the caller's matrix is the single source of truth (it must outlive the
  /// network and keep its shape), so writing an entry is what changes the
  /// link.  Its bandwidth starts at hub_bandwidth_mbps[h] (see
  /// scale_client_bandwidth).  Every client<->hub and hub<->hub directed
  /// link gets a flat FIFO busy-time slot; hub<->hub links use the default
  /// parameters.
  void set_client_links(NodeId first_client, const Matrix& latency_ms,
                        std::span<const double> hub_bandwidth_mbps);
  /// Multiply the bandwidth of the client<->hub link (both directions).
  void scale_client_bandwidth(NodeId client, NodeId hub, double factor);

  /// Directed per-pair override; wins over the client links, and the
  /// link's FIFO busy time carries over unchanged.
  void set_link(NodeId from, NodeId to, LinkParams params);
  [[nodiscard]] LinkParams link(NodeId from, NodeId to) const;

  /// Send `message` (from/to must be set).  Delivery is scheduled after
  /// propagation latency plus transmission time; messages on the same
  /// directed link serialize FIFO behind each other (a busy link delays
  /// later sends).  Messages to detached nodes are silently dropped at
  /// delivery time, like packets to a crashed host.
  void send(Message message);

  /// Transmission + propagation delay a fresh message of `bytes` would see
  /// right now on from->to (ignoring queueing).
  [[nodiscard]] SimTime nominal_delay(NodeId from, NodeId to,
                                      std::size_t bytes) const;

  /// Traffic counters for `node`; a node that never sent or received
  /// returns the zero struct *without* growing any internal state (read-only
  /// queries on a const network must stay read-only, so a telemetry sweep
  /// over candidate ids cannot inflate the stats table).
  [[nodiscard]] TrafficStats stats(NodeId node) const;
  [[nodiscard]] TrafficStats total_stats() const;
  /// Size of the stats table: one slot per id up to the highest node that
  /// sent or received (regression hook for the no-insert-on-read guarantee
  /// above).
  [[nodiscard]] std::size_t tracked_nodes() const { return stats_.size(); }
  /// Messages dropped by lossy links so far.
  [[nodiscard]] std::uint64_t messages_lost() const { return lost_; }

  /// Sent-side totals over message types [first_type, last_type].
  [[nodiscard]] TypeTraffic traffic_in_range(int first_type,
                                             int last_type) const;

  /// Human-readable label for a message type in telemetry metric names
  /// (the protocol layer registers its enum names; unnamed types export as
  /// "type<k>").  Must be called before traffic of that type flows for the
  /// per-type counters to pick the label up.  Message types index a table,
  /// so they must be non-negative (std::invalid_argument otherwise).
  void set_type_name(int type, std::string name);

  /// Wire message/byte counters and the link queueing-delay histogram.
  void attach_telemetry(telemetry::Telemetry& telemetry);

  /// Causal flow tracing: while nonzero (and a tracer is attached and
  /// enabled), every send records a flow-begin on the sender's track and a
  /// flow-end at delivery on the receiver's, linked to `parent` (the
  /// enclosing round span).  The pipeline brackets a round's coordination
  /// fan-out with this; heartbeats and other background traffic keep
  /// parent 0 and record no flows.
  void set_flow_parent(std::uint64_t parent) { flow_parent_ = parent; }

  [[nodiscard]] Simulator& sim() { return sim_; }

 private:
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();
  [[nodiscard]] static std::uint64_t pair_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
  /// Index of client c's link to hub h in the per-link tables, or kNoSlot
  /// when `client` is outside the client range or `hub` is not a hub.
  [[nodiscard]] std::size_t client_link(NodeId client, NodeId hub) const;
  /// Busy-time slot of a directed link covered by set_client_links, or
  /// kNoSlot.
  [[nodiscard]] std::size_t busy_slot(NodeId from, NodeId to) const;
  /// link() with the busy slot already resolved.
  [[nodiscard]] LinkParams link_at(NodeId from, NodeId to,
                                   std::size_t slot) const;
  [[nodiscard]] TrafficStats& stats_slot(NodeId node);
  /// Per message type: name, sent-side totals and, once telemetry sees the
  /// type, its counters ([0] = messages, [1] = bytes).
  struct TypeSlot {
    std::string name;  // empty = unnamed
    TypeTraffic traffic;
    bool metrics_registered = false;
    std::array<telemetry::Counter, 2> metrics;
  };
  [[nodiscard]] TypeSlot& type_slot(int type);
  [[nodiscard]] std::string_view flow_name(int type) const;

  Simulator& sim_;
  Rng loss_rng_{0x1055ee7dULL};
  std::uint64_t lost_ = 0;
  LinkParams default_link_;

  // Client links (set_client_links).  Per-link tables are row-major by
  // client: entry c * hubs_ + h.  Busy slots: [0, 2·C·H) hold the client
  // links (even = client->hub, odd = hub->client), then H·H hub->hub slots.
  NodeId first_client_ = 0;
  std::size_t clients_ = 0;
  std::size_t hubs_ = 0;
  const Matrix* client_latency_ms_ = nullptr;
  std::vector<double> client_bandwidth_mbps_;
  std::vector<SimTime> busy_until_;

  // Pairs outside the client links, and overrides anywhere.
  std::unordered_map<std::uint64_t, LinkParams> overrides_;
  std::unordered_map<std::uint64_t, SimTime> pair_busy_until_;

  // Per node, indexed by id (empty handler = detached).
  std::vector<Handler> handlers_;
  std::vector<TrafficStats> stats_;

  std::vector<TypeSlot> types_;  // indexed by Message::type

  std::uint64_t flow_parent_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;  // null = sink handles only
  telemetry::Counter messages_sent_metric_;
  telemetry::Counter bytes_sent_metric_;
  telemetry::Counter messages_delivered_metric_;
  telemetry::Counter messages_lost_metric_;
  telemetry::Histogram queue_delay_metric_;
};

}  // namespace edr::net
