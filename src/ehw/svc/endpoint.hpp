#pragma once
// svc::Endpoint — the one network front end under both service daemons
// (svc::Server and svc::Forwarder): a listener, an acceptor thread, a
// session thread per connection, and the session loop that frames,
// validates and dispatches requests through the owner's op table.
//
// Every role speaks the same session layer. On connect the endpoint
// sends the greeting {"event":"hello","service","protocol","version",
// <role fields>}; the client must answer {"op":"hello","protocol":1}
// (reply: ok + the same fields) before any other op, and a protocol
// mismatch is answered, then the connection closed. A frame longer than
// `max_line` gets "oversize_frame" and a close, a session silent for
// `idle_timeout_ms` gets "idle_timeout" and a close, and an unparsable
// or non-object frame gets "bad_request" while the session stays open.
// Requests dispatch on "op"; an "id" member is echoed into the reply.
//
// Handlers run on the session thread. One that streams frames of its
// own (watch) writes them through the session's channel, whose write
// lock keeps them from interleaving with replies, and returns nullopt.
//
// Stop is two-phase so the owner can finish its own work in between:
// close() stops accepting, closes the listener and shuts every session
// down (unblocking reads); join() then joins the session threads.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "ehw/common/json.hpp"
#include "ehw/obs/metrics.hpp"
#include "ehw/svc/protocol.hpp"
#include "ehw/svc/socket.hpp"

namespace ehw::svc {

/// The northbound endpoint fields every daemon config shares.
struct EndpointConfig {
  /// Bind address; loopback by default (the service is an operator-local
  /// daemon — remote backends are a future layer).
  std::string address = "127.0.0.1";
  /// 0 = ephemeral; the chosen port is readable via port().
  std::uint16_t port = 0;
  /// Per-session frame-length bound; 0 = LineChannel::kMaxLine (1 MiB).
  /// An oversize frame gets a clean "oversize_frame" error and a close —
  /// never unbounded buffering.
  std::size_t max_line = 0;
  /// Close sessions that send no request for this long (ms). Watch
  /// streams are exempt once subscribed (they legitimately go quiet).
  /// 0 disables the bound (library/test default — the daemons' CLI
  /// subcommands arm it).
  int idle_timeout_ms = 0;
};

class Endpoint {
 public:
  /// A session's channel; shared so a watch subscription can outlive the
  /// session thread (writes just start failing once the peer is gone).
  using Channel = std::shared_ptr<LineChannel>;
  /// One op: reply to `request`, or nullopt when the handler already
  /// wrote its own frames to `channel`.
  using Handler =
      std::function<std::optional<Json>(const Json&, const Channel&)>;
  using Ops = std::map<std::string, Handler, std::less<>>;

  /// Adapts a role's handler member to a Handler. The member takes
  /// (request, channel), (request) or nothing, whichever it needs.
  template <class Role, class Member>
  static Handler op(Role* role, Member handler) {
    return [role, handler](const Json& request,
                           const Channel& channel) -> std::optional<Json> {
      if constexpr (std::is_invocable_v<Member, Role*, const Json&,
                                        const Channel&>) {
        return (role->*handler)(request, channel);
      } else if constexpr (std::is_invocable_v<Member, Role*, const Json&>) {
        return (role->*handler)(request);
      } else {
        return (role->*handler)();
      }
    };
  }

  /// Binds and listens. `hello` holds the role's fields, appended after
  /// service/protocol/version in the greeting and the hello reply;
  /// `connections` counts accepted sessions. Throws std::runtime_error
  /// when the endpoint cannot be bound.
  Endpoint(const EndpointConfig& config, Json hello, Ops ops,
           obs::Counter& connections);
  /// Starts accepting. Separate from the constructor because handlers
  /// may reach back into the owner (stats reads sessions_open()), so the
  /// owner must have stored the endpoint first.
  void start();
  /// close() + join().
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Sessions whose thread has not finished yet.
  [[nodiscard]] std::size_t sessions_open() const;

  /// Stop phase one: refuse new connections and shut every session's
  /// channel down. Idempotent.
  void close();
  /// Stop phase two: join the session threads close() shut down. A
  /// session blocked in a handler (result) returns only when the handler
  /// does, so the owner unblocks those first.
  void join();

 private:
  struct Session;

  void accept_loop();
  void session_loop(Session& session);
  /// The reply to one frame (nullopt when the handler wrote its own).
  [[nodiscard]] std::optional<Json> respond(Session& session,
                                            const std::string& line);
  [[nodiscard]] std::optional<Json> dispatch(Session& session,
                                             const Json& request);
  /// `frame` + service/protocol/version + the role's hello fields.
  [[nodiscard]] Json identify(Json frame) const;

  const EndpointConfig config_;
  const Json hello_;
  const Ops ops_;
  obs::Counter& connections_;
  std::atomic<bool> stopping_{false};
  Listener listener_;
  std::uint16_t port_ = 0;
  mutable std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
  /// Sessions close() took out of the registry, for join(). Touched only
  /// by the stopping thread.
  std::vector<std::unique_ptr<Session>> closing_;
  std::thread acceptor_;
};

/// The "every" member of a watch request: stream every Nth wave (>= 1).
[[nodiscard]] std::uint64_t watch_every(const Json& request);

/// Resolves the "job" member of a status/result/cancel/watch request in
/// an id-keyed registry whose entries carry a `spec`: an exact id, or the
/// latest entry with that name (names may repeat over time). On a miss
/// returns nullptr and sets `error` to the "unknown_job" reply.
template <class Registry>
[[nodiscard]] typename Registry::mapped_type find_job(const Registry& jobs,
                                                      std::mutex& mutex,
                                                      const Json& request,
                                                      Json& error) {
  const auto miss = [&error](const std::string& message) {
    error = make_error(message, "unknown_job");
    return typename Registry::mapped_type();
  };
  const Json* job_field = request.get("job");
  if (job_field == nullptr) {
    return miss("request is missing 'job' (id or name)");
  }
  std::lock_guard lock(mutex);
  if (job_field->is_number()) {
    const double id = job_field->as_number();
    const auto it = json_number_is_exact_int(id) && id >= 0
                        ? jobs.find(static_cast<std::uint64_t>(id))
                        : jobs.end();
    if (it == jobs.end()) return miss("no such job id " + job_field->dump());
    return it->second;
  }
  if (job_field->is_string()) {
    const std::string& name = job_field->as_string();
    for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
      if (it->second->spec.name == name) return it->second;
    }
    return miss("no job named '" + name + "'");
  }
  return miss("'job' must be an id number or a name string");
}

}  // namespace ehw::svc
