#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace edr::net {

namespace {

constexpr std::size_t kHeaderBytes = 16;  // [len][from][to][type]
constexpr std::size_t kFrameMetaBytes = 12;  // len counts from+to+type+payload

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void put_u32_at(std::vector<std::uint8_t>& buf, std::size_t offset,
                std::uint32_t value) {
  std::memcpy(buf.data() + offset, &value, sizeof(value));
}

std::uint32_t read_u32_at(const std::uint8_t* bytes) {
  std::uint32_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

std::vector<std::uint8_t> encode_frame(const Message& message) {
  const std::vector<std::uint8_t>* payload = nullptr;
  if (message.payload.has_value()) {
    payload = std::any_cast<std::vector<std::uint8_t>>(&message.payload);
    if (payload == nullptr)
      throw std::invalid_argument(
          "TcpTransport::send: payload must be std::vector<std::uint8_t>");
  }
  const std::size_t payload_size = payload != nullptr ? payload->size() : 0;
  std::vector<std::uint8_t> frame(kHeaderBytes + payload_size);
  put_u32_at(frame, 0,
             static_cast<std::uint32_t>(kFrameMetaBytes + payload_size));
  put_u32_at(frame, 4, message.from);
  put_u32_at(frame, 8, message.to);
  put_u32_at(frame, 12, static_cast<std::uint32_t>(message.type));
  // An empty vector's data() may be null, which memcpy must not receive
  // even for a zero-byte copy.
  if (payload_size != 0)
    std::memcpy(frame.data() + kHeaderBytes, payload->data(), payload_size);
  return frame;
}

}  // namespace

TcpTransport::TcpTransport(NodeId self) : TcpTransport(self, Options{}) {}

TcpTransport::TcpTransport(NodeId self, Options options)
    : self_(self), options_(options) {
  if (::pipe(wake_pipe_) != 0)
    throw std::runtime_error("TcpTransport: pipe() failed");
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::wake() {
  const char byte = 0;
  (void)!::write(wake_pipe_[1], &byte, 1);
}

void TcpTransport::start_io_thread_locked() {
  if (io_running_) return;
  io_running_ = true;
  io_thread_ = std::thread([this] { io_main(); });
}

std::uint16_t TcpTransport::listen(std::uint16_t port) {
  std::scoped_lock lock{mutex_};
  if (listen_fd_ >= 0) return listen_port_;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("TcpTransport: socket() failed");
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("TcpTransport: bind() failed");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("TcpTransport: listen() failed");
  }
  socklen_t len = sizeof(addr);
  (void)::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  set_nonblocking(fd);
  listen_fd_ = fd;
  listen_port_ = ntohs(addr.sin_port);
  start_io_thread_locked();
  wake();
  return listen_port_;
}

void TcpTransport::add_peer(NodeId peer, const std::string& host,
                            std::uint16_t port) {
  std::scoped_lock lock{mutex_};
  PeerState& state = peers_[peer];
  state.host = host;
  state.port = port;
  state.retry_at = Clock::now();
  state.backoff_ms = 0.0;
  register_peer_metrics_locked(peer, state);
  start_io_thread_locked();
  wake();
}

void TcpTransport::remove_peer(NodeId peer) {
  std::scoped_lock lock{mutex_};
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  if (it->second.fd >= 0) ::close(it->second.fd);
  peers_.erase(it);
  wake();
}

void TcpTransport::count_sent_locked(const Message& message,
                                     std::size_t frame_bytes) {
  auto& sender = stats_[message.from];
  sender.messages_sent += 1;
  sender.bytes_sent += frame_bytes;
  auto& by_type = traffic_by_type_[message.type];
  by_type.messages += 1;
  by_type.bytes += frame_bytes;
  messages_sent_metric_.add(1);
  bytes_sent_metric_.add(frame_bytes);
  if (telemetry_ != nullptr) {
    auto it = bytes_by_type_metrics_.find(message.type);
    if (it == bytes_by_type_metrics_.end()) {
      const auto name = type_names_.find(message.type);
      const std::string label = name != type_names_.end()
                                    ? name->second
                                    : std::to_string(message.type);
      it = bytes_by_type_metrics_
               .emplace(message.type,
                        telemetry_->metrics().counter(
                            "net.bytes_by_type{type=\"" + label + "\"}"))
               .first;
    }
    it->second.add(static_cast<double>(frame_bytes));
  }
}

void TcpTransport::register_peer_metrics_locked(NodeId id, PeerState& peer) {
  if (telemetry_ == nullptr) return;
  const std::string label = "{peer=\"" + std::to_string(id) + "\"}";
  peer.sendq_gauge = telemetry_->metrics().gauge("net.sendq_depth" + label);
  peer.backoff_gauge = telemetry_->metrics().gauge("net.backoff_ms" + label);
}

bool TcpTransport::send(Message message) {
  if (message.to == self_) {
    // Loopback: no socket, no fault hook (a process cannot lose a frame to
    // itself), but the counters still see it.
    const auto* payload =
        message.payload.has_value()
            ? std::any_cast<std::vector<std::uint8_t>>(&message.payload)
            : nullptr;
    const std::size_t frame_bytes =
        kHeaderBytes + (payload != nullptr ? payload->size() : 0);
    {
      std::scoped_lock lock{mutex_};
      count_sent_locked(message, frame_bytes);
      auto& receiver = stats_[message.to];
      receiver.messages_received += 1;
      receiver.bytes_received += frame_bytes;
      messages_delivered_metric_.add(1);
    }
    message.bytes = frame_bytes;
    deliver(std::move(message));
    return true;
  }

  std::vector<std::uint8_t> frame = encode_frame(message);
  FaultAction action;
  {
    std::scoped_lock lock{mutex_};
    const auto it = peers_.find(message.to);
    if (it == peers_.end()) return false;
    if (fault_hook_) action = fault_hook_(message);
    count_sent_locked(message, frame.size());
    if (action.drop) {
      ++fault_drops_;
      return true;  // the frame "left" the sender and died on the wire
    }
    PeerState& peer = it->second;
    const int copies = action.duplicate ? 2 : 1;
    if (action.delay_ms > 0.0) {
      const auto release =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 action.delay_ms));
      for (int i = 0; i < copies; ++i)
        delayed_.push_back({release, message.to, frame});
    } else {
      for (int i = 0; i < copies; ++i) {
        if (peer.sendq.size() >= options_.max_queued_frames) {
          ++queue_overflows_;
          return false;
        }
        peer.sendq.push_back(frame);
      }
      peer.sendq_gauge.set(static_cast<double>(peer.sendq.size()));
    }
  }
  wake();
  return true;
}

std::optional<Message> TcpTransport::receive() { return inbox_.pop(); }
std::optional<Message> TcpTransport::try_receive() {
  return inbox_.try_pop();
}
std::optional<Message> TcpTransport::receive_for(double timeout_s) {
  return inbox_.pop_for(timeout_s);
}

void TcpTransport::attach(NodeId node, Handler handler) {
  std::scoped_lock lock{mutex_};
  handlers_[node] = std::move(handler);
}

void TcpTransport::detach(NodeId node) {
  std::scoped_lock lock{mutex_};
  handlers_.erase(node);
}

bool TcpTransport::attached(NodeId node) const {
  std::scoped_lock lock{mutex_};
  return handlers_.contains(node);
}

void TcpTransport::set_fault_hook(FaultHook hook) {
  std::scoped_lock lock{mutex_};
  fault_hook_ = std::move(hook);
}

void TcpTransport::set_on_disconnect(std::function<void(NodeId)> callback) {
  std::scoped_lock lock{mutex_};
  on_disconnect_ = std::move(callback);
}

void TcpTransport::reset_connection(NodeId peer) {
  {
    std::scoped_lock lock{mutex_};
    pending_resets_.push_back(peer);
  }
  wake();
}

TrafficStats TcpTransport::stats(NodeId node) const {
  std::scoped_lock lock{mutex_};
  const auto it = stats_.find(node);
  return it == stats_.end() ? TrafficStats{} : it->second;
}

TrafficStats TcpTransport::total_stats() const {
  std::scoped_lock lock{mutex_};
  TrafficStats total;
  for (const auto& [node, s] : stats_) {
    total.messages_sent += s.messages_sent;
    total.messages_received += s.messages_received;
    total.bytes_sent += s.bytes_sent;
    total.bytes_received += s.bytes_received;
  }
  return total;
}

std::size_t TcpTransport::tracked_nodes() const {
  std::scoped_lock lock{mutex_};
  return stats_.size();
}

std::map<int, TypeTraffic> TcpTransport::traffic_by_type() const {
  std::scoped_lock lock{mutex_};
  return traffic_by_type_;
}

TypeTraffic TcpTransport::traffic_in_range(int first_type,
                                           int last_type) const {
  std::scoped_lock lock{mutex_};
  TypeTraffic total;
  for (auto it = traffic_by_type_.lower_bound(first_type);
       it != traffic_by_type_.end() && it->first <= last_type; ++it) {
    total.messages += it->second.messages;
    total.bytes += it->second.bytes;
  }
  return total;
}

void TcpTransport::set_type_name(int type, std::string name) {
  std::scoped_lock lock{mutex_};
  type_names_[type] = std::move(name);
}

void TcpTransport::attach_telemetry(telemetry::Telemetry& telemetry) {
  std::scoped_lock lock{mutex_};
  telemetry_ = &telemetry;
  auto& metrics = telemetry.metrics();
  messages_sent_metric_ = metrics.counter("net.messages_sent");
  bytes_sent_metric_ = metrics.counter("net.bytes_sent");
  messages_delivered_metric_ = metrics.counter("net.messages_delivered");
  frame_errors_metric_ = metrics.counter("net.frame_errors");
  reconnects_metric_ = metrics.counter("net.reconnects");
  for (auto& [id, peer] : peers_) register_peer_metrics_locked(id, peer);
}

std::uint64_t TcpTransport::queue_overflows() const {
  std::scoped_lock lock{mutex_};
  return queue_overflows_;
}
std::uint64_t TcpTransport::frame_errors() const {
  std::scoped_lock lock{mutex_};
  return frame_errors_;
}
std::uint64_t TcpTransport::connects_completed() const {
  std::scoped_lock lock{mutex_};
  return connects_completed_;
}
std::uint64_t TcpTransport::frames_dropped_by_fault() const {
  std::scoped_lock lock{mutex_};
  return fault_drops_;
}

void TcpTransport::shutdown() {
  {
    std::scoped_lock lock{mutex_};
    if (stop_ && !io_running_) return;
    stop_ = true;
  }
  // Unblock the io thread if it is stuck pushing into a full inbox, then
  // wake it out of poll().
  inbox_.close();
  wake();
  if (io_thread_.joinable()) io_thread_.join();
  std::scoped_lock lock{mutex_};
  io_running_ = false;
  for (auto& [id, peer] : peers_)
    if (peer.fd >= 0) {
      ::close(peer.fd);
      peer.fd = -1;
    }
  for (auto& conn : inbound_)
    if (conn.fd >= 0) ::close(conn.fd);
  inbound_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_pipe_[0] >= 0) {
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
}

void TcpTransport::begin_connect_locked(PeerState& peer) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    peer.backoff_ms = peer.backoff_ms <= 0.0
                          ? options_.backoff_initial_ms
                          : std::min(peer.backoff_ms * 2.0,
                                     options_.backoff_max_ms);
    peer.backoff_gauge.set(peer.backoff_ms);
    peer.retry_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double,
                                                             std::milli>(
                                           peer.backoff_ms));
    return;
  }
  set_nonblocking(fd);
  set_nodelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  if (::inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1)
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc == 0) {
    peer.fd = fd;
    peer.connecting = false;
    peer.was_connected = true;
    peer.backoff_ms = 0.0;
    peer.backoff_gauge.set(0.0);
    ++connects_completed_;
    reconnects_metric_.add(1);
    return;
  }
  if (errno == EINPROGRESS) {
    peer.fd = fd;
    peer.connecting = true;
    return;
  }
  ::close(fd);
  peer.backoff_ms = peer.backoff_ms <= 0.0
                        ? options_.backoff_initial_ms
                        : std::min(peer.backoff_ms * 2.0,
                                   options_.backoff_max_ms);
  peer.backoff_gauge.set(peer.backoff_ms);
  peer.retry_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(
                                         peer.backoff_ms));
}

void TcpTransport::close_peer_locked(PeerState& peer, bool notify) {
  (void)notify;  // notification is batched by the caller (io_main)
  if (peer.fd >= 0) ::close(peer.fd);
  peer.fd = -1;
  peer.connecting = false;
  peer.readbuf.clear();
  // A partially-written frame cannot be resumed on a new connection; drop
  // it so the fresh stream starts on a frame boundary.  Fully-queued frames
  // survive the reconnect.
  if (peer.write_offset > 0 && !peer.sendq.empty()) peer.sendq.pop_front();
  peer.write_offset = 0;
  peer.backoff_ms = peer.backoff_ms <= 0.0
                        ? options_.backoff_initial_ms
                        : std::min(peer.backoff_ms * 2.0,
                                   options_.backoff_max_ms);
  peer.sendq_gauge.set(static_cast<double>(peer.sendq.size()));
  peer.backoff_gauge.set(peer.backoff_ms);
  peer.retry_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(
                                         peer.backoff_ms));
}

void TcpTransport::flush_peer_locked(PeerState& peer) {
  while (!peer.sendq.empty()) {
    const auto& frame = peer.sendq.front();
    const std::size_t remaining = frame.size() - peer.write_offset;
    const ssize_t n = ::send(peer.fd, frame.data() + peer.write_offset,
                             remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_peer_locked(peer, true);
      return;
    }
    peer.write_offset += static_cast<std::size_t>(n);
    if (peer.write_offset == frame.size()) {
      peer.sendq.pop_front();
      peer.write_offset = 0;
    }
  }
  peer.sendq_gauge.set(static_cast<double>(peer.sendq.size()));
}

bool TcpTransport::parse_frames_locked(std::vector<std::uint8_t>& buf,
                                       std::vector<Message>& out,
                                       InboundConn* conn) {
  std::size_t offset = 0;
  while (buf.size() - offset >= 4) {
    const std::uint32_t len = read_u32_at(buf.data() + offset);
    if (len < kFrameMetaBytes || len > options_.max_frame_bytes) {
      ++frame_errors_;
      frame_errors_metric_.add(1);
      return false;  // protocol error: caller closes the connection
    }
    if (buf.size() - offset < 4 + static_cast<std::size_t>(len)) break;
    Message message;
    message.from = read_u32_at(buf.data() + offset + 4);
    message.to = read_u32_at(buf.data() + offset + 8);
    message.type =
        static_cast<int>(read_u32_at(buf.data() + offset + 12));
    const std::size_t payload_size = len - kFrameMetaBytes;
    message.bytes = 4 + len;  // real wire bytes for the counters
    if (payload_size > 0)
      message.payload = std::vector<std::uint8_t>(
          buf.begin() + static_cast<std::ptrdiff_t>(offset + kHeaderBytes),
          buf.begin() +
              static_cast<std::ptrdiff_t>(offset + kHeaderBytes +
                                          payload_size));
    if (conn != nullptr) {
      conn->has_from = true;
      conn->last_from = message.from;
    }
    auto& receiver = stats_[message.to];
    receiver.messages_received += 1;
    receiver.bytes_received += message.bytes;
    messages_delivered_metric_.add(1);
    out.push_back(std::move(message));
    offset += 4 + len;
  }
  if (offset > 0)
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(offset));
  return true;
}

void TcpTransport::deliver(Message message) {
  Handler handler;
  {
    std::scoped_lock lock{mutex_};
    const auto it = handlers_.find(message.to);
    if (it != handlers_.end()) handler = it->second;
  }
  if (handler) {
    handler(message);
  } else {
    (void)inbox_.push(std::move(message));
  }
}

void TcpTransport::io_main() {
  std::vector<pollfd> fds;
  std::vector<Message> delivered;
  std::vector<NodeId> disconnects;
  std::vector<char> scratch(64 * 1024);

  for (;;) {
    fds.clear();
    delivered.clear();
    disconnects.clear();
    Clock::time_point next_deadline = Clock::now() + std::chrono::hours(1);

    {
      std::scoped_lock lock{mutex_};
      if (stop_) return;

      // Chaos resets requested since the last tick.
      for (const NodeId id : pending_resets_) {
        const auto it = peers_.find(id);
        if (it != peers_.end() && it->second.fd >= 0) {
          close_peer_locked(it->second, false);
          it->second.backoff_ms = options_.backoff_initial_ms;
          it->second.backoff_gauge.set(it->second.backoff_ms);
          it->second.retry_at = Clock::now();
        }
      }
      pending_resets_.clear();

      // Release due delayed frames into their peer queues.
      const auto now = Clock::now();
      for (auto it = delayed_.begin(); it != delayed_.end();) {
        if (it->release_at <= now) {
          const auto peer_it = peers_.find(it->peer);
          if (peer_it != peers_.end() &&
              peer_it->second.sendq.size() < options_.max_queued_frames) {
            peer_it->second.sendq.push_back(std::move(it->frame));
            peer_it->second.sendq_gauge.set(
                static_cast<double>(peer_it->second.sendq.size()));
          }
          it = delayed_.erase(it);
        } else {
          next_deadline = std::min(next_deadline, it->release_at);
          ++it;
        }
      }

      // (Re)connect peers whose retry deadline passed.
      for (auto& [id, peer] : peers_) {
        if (peer.fd < 0 && !peer.host.empty()) {
          if (peer.retry_at <= now)
            begin_connect_locked(peer);
          else
            next_deadline = std::min(next_deadline, peer.retry_at);
        }
      }

      fds.push_back({wake_pipe_[0], POLLIN, 0});
      if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
      for (auto& [id, peer] : peers_) {
        if (peer.fd < 0) continue;
        short events = POLLIN;
        if (peer.connecting || !peer.sendq.empty()) events |= POLLOUT;
        fds.push_back({peer.fd, events, 0});
      }
      for (auto& conn : inbound_) fds.push_back({conn.fd, POLLIN, 0});
    }

    const auto now = Clock::now();
    int timeout_ms = 100;
    if (next_deadline > now) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                             next_deadline - now)
                             .count();
      timeout_ms = static_cast<int>(
          std::clamp<long long>(until, 1, timeout_ms));
    } else {
      timeout_ms = 0;
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) return;

    {
      std::scoped_lock lock{mutex_};
      if (stop_) return;

      for (const pollfd& pfd : fds) {
        if (pfd.revents == 0) continue;

        if (pfd.fd == wake_pipe_[0]) {
          while (::read(wake_pipe_[0], scratch.data(), scratch.size()) > 0) {
          }
          continue;
        }

        if (pfd.fd == listen_fd_) {
          for (;;) {
            const int client = ::accept(listen_fd_, nullptr, nullptr);
            if (client < 0) break;
            set_nonblocking(client);
            set_nodelay(client);
            inbound_.push_back({client, {}, false, 0});
          }
          continue;
        }

        // Outgoing peer socket?
        PeerState* peer = nullptr;
        NodeId peer_id = 0;
        for (auto& [id, state] : peers_)
          if (state.fd == pfd.fd) {
            peer = &state;
            peer_id = id;
            break;
          }
        if (peer != nullptr) {
          if (peer->connecting && (pfd.revents & (POLLOUT | POLLERR | POLLHUP))) {
            int err = 0;
            socklen_t len = sizeof(err);
            (void)::getsockopt(peer->fd, SOL_SOCKET, SO_ERROR, &err, &len);
            if (err != 0) {
              close_peer_locked(*peer, false);
              continue;
            }
            peer->connecting = false;
            peer->was_connected = true;
            peer->backoff_ms = 0.0;
            peer->backoff_gauge.set(0.0);
            ++connects_completed_;
            reconnects_metric_.add(1);
          }
          if (pfd.revents & (POLLERR | POLLHUP)) {
            const bool established = peer->was_connected && !peer->connecting;
            close_peer_locked(*peer, established);
            if (established) disconnects.push_back(peer_id);
            continue;
          }
          if (pfd.revents & POLLIN) {
            bool closed = false;
            for (;;) {
              const ssize_t n =
                  ::recv(peer->fd, scratch.data(), scratch.size(), 0);
              if (n > 0) {
                peer->readbuf.insert(peer->readbuf.end(), scratch.data(),
                                     scratch.data() + n);
              } else if (n == 0) {
                closed = true;
                break;
              } else {
                if (errno != EAGAIN && errno != EWOULDBLOCK) closed = true;
                break;
              }
            }
            if (!parse_frames_locked(peer->readbuf, delivered, nullptr))
              closed = true;
            if (closed) {
              close_peer_locked(*peer, true);
              disconnects.push_back(peer_id);
              continue;
            }
          }
          if ((pfd.revents & POLLOUT) && peer->fd >= 0 && !peer->connecting)
            flush_peer_locked(*peer);
          continue;
        }

        // Inbound connection.
        for (std::size_t i = 0; i < inbound_.size(); ++i) {
          InboundConn& conn = inbound_[i];
          if (conn.fd != pfd.fd) continue;
          bool closed = (pfd.revents & (POLLERR | POLLHUP)) != 0;
          if (pfd.revents & POLLIN) {
            for (;;) {
              const ssize_t n =
                  ::recv(conn.fd, scratch.data(), scratch.size(), 0);
              if (n > 0) {
                conn.readbuf.insert(conn.readbuf.end(), scratch.data(),
                                    scratch.data() + n);
              } else if (n == 0) {
                closed = true;
                break;
              } else {
                if (errno != EAGAIN && errno != EWOULDBLOCK) closed = true;
                break;
              }
            }
          }
          if (!parse_frames_locked(conn.readbuf, delivered, &conn))
            closed = true;
          if (closed) {
            if (conn.has_from) disconnects.push_back(conn.last_from);
            ::close(conn.fd);
            inbound_.erase(inbound_.begin() +
                           static_cast<std::ptrdiff_t>(i));
          }
          break;
        }
      }

      // Opportunistic flush for peers that became connected this tick.
      for (auto& [id, peer] : peers_)
        if (peer.fd >= 0 && !peer.connecting && !peer.sendq.empty())
          flush_peer_locked(peer);
    }

    // Deliveries and disconnect notifications run unlocked: handlers and
    // callbacks may call back into the transport.
    for (auto& message : delivered) deliver(std::move(message));
    if (!disconnects.empty()) {
      std::function<void(NodeId)> callback;
      {
        std::scoped_lock lock{mutex_};
        callback = on_disconnect_;
      }
      if (callback)
        for (const NodeId id : disconnects) callback(id);
    }
  }
}

}  // namespace edr::net
