#include "ehw/svc/endpoint.hpp"

#include <algorithm>
#include <iterator>

#include "ehw/common/version.hpp"

namespace ehw::svc {

struct Endpoint::Session {
  explicit Session(Socket socket)
      : channel(std::make_shared<LineChannel>(std::move(socket))) {}
  Channel channel;
  std::thread thread;
  std::atomic<bool> done{false};
  bool greeted = false;            // session-thread only
  bool close_after_reply = false;  // session-thread only
};

Endpoint::Endpoint(const EndpointConfig& config, Json hello, Ops ops,
                   obs::Counter& connections)
    : config_(config),
      hello_(std::move(hello)),
      ops_(std::move(ops)),
      connections_(connections),
      listener_(config_.address, config_.port),
      port_(listener_.port()) {}

void Endpoint::start() {
  acceptor_ = std::thread([this] { accept_loop(); });
}

Endpoint::~Endpoint() {
  close();
  join();
}

std::size_t Endpoint::sessions_open() const {
  std::lock_guard lock(sessions_mutex_);
  return static_cast<std::size_t>(
      std::count_if(sessions_.begin(), sessions_.end(), [](const auto& s) {
        return !s->done.load(std::memory_order_relaxed);
      }));
}

void Endpoint::close() {
  stopping_.store(true, std::memory_order_relaxed);
  // The acceptor polls with a short timeout and re-checks stopping_, so
  // join it FIRST and only then close the listener fd — closing while
  // the acceptor is inside poll/accept would race on the descriptor.
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  // Take the sessions out under the lock but join them (in join())
  // outside it: a session thread may be inside a "stats" handler, which
  // reads sessions_open() — joining while holding the lock would
  // deadlock. The acceptor is gone, so nothing else appends.
  {
    std::lock_guard lock(sessions_mutex_);
    std::move(sessions_.begin(), sessions_.end(),
              std::back_inserter(closing_));
    sessions_.clear();
  }
  for (const auto& session : closing_) session->channel->shutdown();
}

void Endpoint::join() {
  for (const auto& session : closing_) {
    if (session->thread.joinable()) session->thread.join();
  }
  closing_.clear();
}

void Endpoint::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::optional<Socket> socket = listener_.accept_one(/*timeout_ms=*/100);
    if (!socket.has_value()) continue;
    // A client that stops reading must not wedge the job thread writing
    // its progress events (or a session reply) forever: bound the stall,
    // then the channel poisons itself and the subscription goes quiet.
    socket->set_send_timeout(/*timeout_ms=*/10000);
    auto session = std::make_unique<Session>(std::move(*socket));
    Session* raw = session.get();
    {
      std::lock_guard lock(sessions_mutex_);
      // Reap sessions whose threads already finished.
      auto alive = sessions_.begin();
      for (auto& existing : sessions_) {
        if (existing->done.load(std::memory_order_acquire) &&
            existing->thread.joinable()) {
          existing->thread.join();
          continue;
        }
        *alive++ = std::move(existing);
      }
      sessions_.erase(alive, sessions_.end());
      sessions_.push_back(std::move(session));
    }
    connections_.add();
    raw->thread = std::thread([this, raw] { session_loop(*raw); });
  }
}

void Endpoint::session_loop(Session& session) {
  LineChannel& channel = *session.channel;
  channel.set_max_line(config_.max_line);
  if (config_.idle_timeout_ms > 0) {
    channel.set_recv_timeout(config_.idle_timeout_ms);
  }
  Json greeting = Json::object();
  greeting.set("event", "hello");
  bool open = channel.write_line(identify(std::move(greeting)).dump());
  std::string line;
  while (open && !session.close_after_reply) {
    const LineChannel::ReadStatus read = channel.read_frame(line);
    if (read == LineChannel::ReadStatus::kOversize ||
        read == LineChannel::ReadStatus::kTimeout) {
      // Clean protocol error, then close. Past a frame that never ended
      // framing is unrecoverable (the buffer was dropped as it streamed
      // in, so memory stayed bounded); a silent peer is evicted.
      const Json response =
          read == LineChannel::ReadStatus::kOversize
              ? make_error("frame exceeds the " +
                               std::to_string(channel.max_line()) +
                               " byte line limit",
                           "oversize_frame")
              : make_error("idle timeout: no request within " +
                               std::to_string(config_.idle_timeout_ms) +
                               " ms",
                           "idle_timeout");
      static_cast<void>(channel.write_line(response.dump()));
      break;
    }
    if (read != LineChannel::ReadStatus::kLine) break;  // closed
    const std::optional<Json> response = respond(session, line);
    if (response.has_value()) open = channel.write_line(response->dump());
  }
  channel.shutdown();
  session.done.store(true, std::memory_order_release);
}

std::optional<Json> Endpoint::respond(Session& session,
                                      const std::string& line) {
  Json request;
  try {
    request = Json::parse(line);
    if (!request.is_object()) {
      throw JsonError("request must be a JSON object", 0);
    }
  } catch (const JsonError& e) {
    return make_error(std::string("malformed request: ") + e.what(),
                      "bad_request");
  }
  std::optional<Json> response = dispatch(session, request);
  const Json* id = request.get("id");
  if (response.has_value() && id != nullptr) response->set("id", *id);
  return response;
}

std::optional<Json> Endpoint::dispatch(Session& session,
                                       const Json& request) {
  const Json* op_field = request.get("op");
  if (op_field == nullptr || !op_field->is_string()) {
    return make_error("request is missing string member 'op'", "bad_request");
  }
  const std::string& op = op_field->as_string();
  if (op == "hello") {
    const double protocol = request.get_number("protocol", -1);
    if (protocol != static_cast<double>(kProtocolVersion)) {
      session.close_after_reply = true;
      return make_error("unsupported protocol version (server speaks " +
                            std::to_string(kProtocolVersion) + ")",
                        "unsupported_protocol");
    }
    session.greeted = true;
    return identify(make_ok());
  }
  if (!session.greeted) {
    return make_error("handshake required: send {\"op\":\"hello\","
                      "\"protocol\":" +
                          std::to_string(kProtocolVersion) + "} first",
                      "bad_request");
  }
  const auto handler = ops_.find(op);
  if (handler == ops_.end()) {
    return make_error("unknown op '" + op + "'", "bad_request");
  }
  return handler->second(request, session.channel);
}

Json Endpoint::identify(Json frame) const {
  frame.set("service", kServiceName);
  frame.set("protocol", kProtocolVersion);
  frame.set("version", kVersion);
  for (const auto& [key, value] : hello_.as_object()) frame.set(key, value);
  return frame;
}

std::uint64_t watch_every(const Json& request) {
  const double every = request.get_number("every", 1);
  return json_number_is_exact_int(every) && every >= 1
             ? static_cast<std::uint64_t>(every)
             : 1;
}

}  // namespace ehw::svc
