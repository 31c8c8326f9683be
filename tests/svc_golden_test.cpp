// Golden wire transcripts of the two service front ends (svc::Server and
// svc::Forwarder). Each script drives raw LineChannel sessions through
// the session layer (greeting, handshake, framing errors, idle bound)
// and the mission ops, and the whole exchange is compared line by line
// against tests/golden/<role>.ndjson.
//
// Transcript lines are JSON objects naming the session and one event:
//   {"session":"b","send":"<raw request line>"}
//   {"session":"b","send_bytes":N}        an unterminated N-byte flood
//   {"session":"b","recv":<raw frame>}    the frame spliced in verbatim
//   {"session":"b","recv_keys":[...]}     stats/health: key paths only
//   {"session":"b","closed":true}         the peer hung up
// Received frames are byte-compared after masking the values that vary
// from run to run: instance_id, age_ms, poll_age_ms, port, and the
// per-phase wall times (total_ns) of the result profile. Json objects
// keep insertion order, so a change that reorders keys on the wire fails
// here. On a mismatch the actual transcript is written next to the test
// binary as <role>.actual.ndjson for diffing.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "ehw/common/json.hpp"
#include "ehw/svc/forwarder.hpp"
#include "ehw/svc/server.hpp"
#include "ehw/svc/socket.hpp"

namespace ehw::svc {
namespace {

constexpr int kReadTimeoutMs = 60'000;

std::string mask_volatile(const std::string& frame) {
  static const std::regex volatile_value(
      R"re("(instance_id|age_ms|poll_age_ms|port|total_ns)":)re"
      R"re(("(?:[^"\\]|\\.)*"|[-0-9.eE+]+))re");
  return std::regex_replace(frame, volatile_value, "\"$1\":\"*\"");
}

/// Recursive key paths of a JSON value in insertion order, array
/// elements folded into "[]" and repeats dropped.
void key_paths(const Json& value, const std::string& prefix,
               std::vector<std::string>& out) {
  const auto add = [&out](const std::string& path) {
    for (const std::string& seen : out) {
      if (seen == path) return;
    }
    out.push_back(path);
  };
  if (value.is_object()) {
    for (const auto& [key, child] : value.as_object()) {
      const std::string path = prefix.empty() ? key : prefix + "." + key;
      add(path);
      key_paths(child, path, out);
    }
  } else if (value.is_array()) {
    for (const Json& child : value.as_array()) {
      add(prefix + "[]");
      key_paths(child, prefix + "[]", out);
    }
  }
}

class Transcript {
 public:
  /// Opens (or reopens) a named session and records its greeting.
  void open(const std::string& session, std::uint16_t port) {
    auto channel = std::make_unique<LineChannel>(
        Socket::connect_to("127.0.0.1", port));
    channel->set_recv_timeout(kReadTimeoutMs);
    channels_[session] = std::move(channel);
    recv(session);
  }

  /// Sends one request line and records the `frames` frames it answers.
  void send(const std::string& session, const std::string& line,
            int frames = 1) {
    event(session, "\"send\":" + Json(line).dump());
    ASSERT_TRUE(channels_.at(session)->write_line(line)) << line;
    for (int i = 0; i < frames; ++i) recv(session);
  }

  /// Sends a request whose answer is recorded by key paths only.
  void send_keys(const std::string& session, const std::string& line) {
    event(session, "\"send\":" + Json(line).dump());
    ASSERT_TRUE(channels_.at(session)->write_line(line)) << line;
    std::string frame;
    ASSERT_TRUE(channels_.at(session)->read_line(frame)) << line;
    std::vector<std::string> paths;
    key_paths(Json::parse(frame), "", paths);
    Json keys = Json::array();
    for (const std::string& path : paths) keys.push_back(Json(path));
    event(session, "\"recv_keys\":" + keys.dump());
  }

  /// Floods `bytes` of one never-ending frame.
  void flood(const std::string& session, std::size_t bytes) {
    event(session, "\"send_bytes\":" + std::to_string(bytes));
    ASSERT_TRUE(channels_.at(session)->write_line(std::string(bytes, 'x')));
  }

  /// Records the next frame the peer sends unprompted.
  void recv(const std::string& session) {
    std::string frame;
    ASSERT_TRUE(channels_.at(session)->read_line(frame))
        << "session " << session << " got no frame";
    event(session, "\"recv\":" + mask_volatile(frame));
  }

  /// Records that the peer hung up.
  void closed(const std::string& session) {
    std::string frame;
    const bool hung_up = !channels_.at(session)->read_line(frame);
    EXPECT_TRUE(hung_up) << "session " << session << " sent " << frame;
    event(session, "\"closed\":" + std::string(hung_up ? "true" : "false"));
  }

  void compare_with(const std::string& role) const {
    const std::string path = std::string(EHW_GOLDEN_DIR) + "/" + role +
                             ".ndjson";
    std::ifstream golden(path);
    ASSERT_TRUE(golden) << "cannot open " << path;
    std::vector<std::string> expected;
    for (std::string line; std::getline(golden, line);) {
      expected.push_back(line);
    }
    bool same = expected.size() == lines_.size();
    for (std::size_t i = 0; i < std::min(expected.size(), lines_.size());
         ++i) {
      EXPECT_EQ(lines_[i], expected[i]) << role << ".ndjson line " << i + 1;
      same = same && lines_[i] == expected[i];
    }
    EXPECT_EQ(lines_.size(), expected.size()) << role << ".ndjson length";
    if (!same) {
      std::ofstream actual(role + ".actual.ndjson");
      for (const std::string& line : lines_) actual << line << "\n";
    }
  }

 private:
  void event(const std::string& session, const std::string& body) {
    lines_.push_back("{\"session\":" + Json(session).dump() + "," + body +
                     "}");
  }

  std::map<std::string, std::unique_ptr<LineChannel>> channels_;
  std::vector<std::string> lines_;
};

constexpr const char* kHello = R"({"op":"hello","protocol":1})";

/// Greeting, the handshake gate, a refused protocol, and the framing
/// errors that keep a session open. Leaves session "b" greeted.
void session_layer(Transcript& t, std::uint16_t port) {
  t.open("a", port);
  t.send("a", R"({"op":"list"})");
  t.send("a", R"({"op":"hello","protocol":99})");
  t.closed("a");

  t.open("b", port);
  t.send("b", kHello);
  t.send("b", "this is not json");
  t.send("b", "[1,2,3]");
  t.send("b", R"({"id":7})");
  t.send("b", R"({"op":"transmogrify","id":42})");
}

/// Submit validation, one tiny fixed-seed mission through every
/// job op, unknown job references, then drain and a refused submit.
/// `role_ops` runs between the mission and the drain.
template <class RoleOps>
void mission_ops(Transcript& t, RoleOps role_ops) {
  t.send_keys("b", R"({"op":"stats"})");
  t.send_keys("b", R"({"op":"health"})");
  t.send("b", R"({"op":"submit","spec":{"kind":"denoise","name":"bad",)"
              R"("lanes":0}})");
  t.send("b", R"({"op":"submit_batch","specs":[{"kind":"denoise",)"
              R"("name":"ok1"},{"kind":"nope","name":"x"}]})");
  t.send("b", R"({"op":"submit","id":"s1","spec":{"kind":"denoise",)"
              R"("name":"g1","lanes":1,"generations":4,"size":16,)"
              R"("seed":"7"}})");
  t.send("b", R"({"op":"result","job":1})");
  t.send("b", R"({"op":"status","job":1})");
  t.send("b", R"({"op":"status","job":"g1"})");
  // After result the job is terminal, so the watch frames (ack and the
  // done event) arrive in a fixed order.
  t.send("b", R"({"op":"watch","job":"g1","id":"w"})", 2);
  t.send("b", R"({"op":"list"})");
  t.send("b", R"({"op":"cancel","job":1})");
  t.send("b", R"({"op":"status","job":99})");
  t.send("b", R"({"op":"status","job":"nope"})");
  t.send("b", R"({"op":"cancel","job":99})");
  t.send("b", R"({"op":"cancel","job":"nope"})");
  role_ops();
  t.send("b", R"({"op":"drain"})");
  t.send("b", R"({"op":"submit","spec":{"kind":"denoise","name":"late"}})");
}

/// An oversize frame (error, then hangup) on a fresh session.
void oversize(Transcript& t, std::uint16_t port) {
  t.open("c", port);
  t.flood("c", 64 * 1024);
  t.recv("c");
  t.closed("c");
}

/// A silent session on an idle-bounded instance (error, then hangup).
void idle(Transcript& t, std::uint16_t port) {
  t.open("d", port);
  t.recv("d");
  t.closed("d");
}

ServerConfig golden_server_config() {
  ServerConfig config;
  config.pool.num_arrays = 1;
  config.max_line = 4096;
  return config;
}

TEST(SvcGolden, ServerTranscriptMatchesGolden) {
  Transcript t;
  Server server(golden_server_config());
  session_layer(t, server.port());
  mission_ops(t, [&] {
    t.send("b", R"({"op":"trace","mode":"bogus"})");
  });
  oversize(t, server.port());
  ServerConfig idle_config = golden_server_config();
  idle_config.idle_timeout_ms = 150;
  Server idle_server(idle_config);
  idle(t, idle_server.port());
  idle_server.stop();
  server.stop();
  t.compare_with("server");
}

TEST(SvcGolden, ForwarderTranscriptMatchesGolden) {
  Transcript t;
  Server backend(golden_server_config());
  ForwarderConfig config;
  config.max_line = 4096;
  BackendConfig endpoint;
  endpoint.port = backend.port();
  config.backends.push_back(endpoint);
  Forwarder forwarder(config);
  session_layer(t, forwarder.port());
  mission_ops(t, [&] {
    t.send("b", R"({"op":"trace","mode":"dump"})");
    t.send("b", R"({"op":"backend","action":"bogus"})");
    t.send("b", R"({"op":"backend","action":"add","port":0})");
    t.send("b", R"({"op":"backend","action":"remove","backend":0})");
  });
  oversize(t, forwarder.port());
  ForwarderConfig idle_config = config;
  idle_config.idle_timeout_ms = 150;
  Forwarder idle_forwarder(idle_config);
  idle(t, idle_forwarder.port());
  idle_forwarder.stop();
  forwarder.stop();
  backend.stop();
  t.compare_with("forwarder");
}

}  // namespace
}  // namespace ehw::svc
