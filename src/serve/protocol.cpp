#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "robust/faults.h"

namespace lvf2::serve {

namespace {

// Outcome of one injected socket fault. A fired fault is shaped by a
// deterministic draw: one in four is a hard failure, one in four a
// spurious EINTR, and the rest a short transfer — every branch of the
// retry loops gets exercised under the soak.
enum class InjectedIo { kNone, kEintr, kShort, kHard };

InjectedIo injected_io(robust::Fault fault) {
  if (!robust::fire(fault)) return InjectedIo::kNone;
  switch (robust::FaultInjector::instance().draw(fault) % 4) {
    case 0:
      obs::counter("serve.io.injected_hard").add(1);
      return InjectedIo::kHard;
    case 1:
      obs::counter("serve.io.injected_eintr").add(1);
      return InjectedIo::kEintr;
    default:
      obs::counter("serve.io.injected_short").add(1);
      return InjectedIo::kShort;
  }
}

// Reads exactly `size` bytes, absorbing EINTR and short reads. When
// `clean_eof` is non-null, an EOF before the first byte is a clean
// close (kCancelled) rather than a truncation (kUnavailable).
core::Status read_full(int fd, void* buf, std::size_t size,
                       bool allow_clean_eof) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t done = 0;
  while (done < size) {
    std::size_t want = size - done;
    switch (injected_io(robust::Fault::kSocketRead)) {
      case InjectedIo::kHard:
        return core::Status::unavailable("injected socket read failure");
      case InjectedIo::kEintr:
        obs::counter("serve.io.retry").add(1);
        continue;
      case InjectedIo::kShort:
        want = want > 1 ? want / 2 : want;
        break;
      case InjectedIo::kNone:
        break;
    }
    const ssize_t n = ::read(fd, p + done, want);
    if (n < 0) {
      if (errno == EINTR) {
        obs::counter("serve.io.retry").add(1);
        continue;
      }
      return core::Status::unavailable(std::string("socket read failed: ") +
                                       std::strerror(errno));
    }
    if (n == 0) {
      if (allow_clean_eof && done == 0) {
        return core::Status::cancelled("peer closed connection");
      }
      return core::Status::unavailable("truncated frame");
    }
    done += static_cast<std::size_t>(n);
  }
  return core::Status::ok();
}

// Writes exactly `size` bytes, absorbing EINTR and short writes.
core::Status write_full(int fd, const void* buf, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(buf);
  std::size_t done = 0;
  while (done < size) {
    std::size_t want = size - done;
    switch (injected_io(robust::Fault::kSocketWrite)) {
      case InjectedIo::kHard:
        return core::Status::unavailable("injected socket write failure");
      case InjectedIo::kEintr:
        obs::counter("serve.io.retry").add(1);
        continue;
      case InjectedIo::kShort:
        want = want > 1 ? want / 2 : want;
        break;
      case InjectedIo::kNone:
        break;
    }
    // MSG_NOSIGNAL: a peer that vanished mid-response must surface as
    // EPIPE here, not as a process-killing SIGPIPE. Non-socket fds
    // (tests over pipes) fall back to plain write().
    ssize_t n = ::send(fd, p + done, want, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p + done, want);
    if (n < 0) {
      if (errno == EINTR) {
        obs::counter("serve.io.retry").add(1);
        continue;
      }
      return core::Status::unavailable(std::string("socket write failed: ") +
                                       std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return core::Status::ok();
}

}  // namespace

core::Status read_frame(int fd, std::string& body) {
  unsigned char header[4];
  if (core::Status st = read_full(fd, header, sizeof(header), true);
      !st.is_ok()) {
    return st;
  }
  const std::uint32_t length = (static_cast<std::uint32_t>(header[0]) << 24) |
                               (static_cast<std::uint32_t>(header[1]) << 16) |
                               (static_cast<std::uint32_t>(header[2]) << 8) |
                               static_cast<std::uint32_t>(header[3]);
  if (length > kMaxFrameBytes) {
    return core::Status::resource_exhausted("frame of " +
                                            std::to_string(length) +
                                            " bytes exceeds the 1 MiB limit");
  }
  body.resize(length);
  if (length == 0) return core::Status::ok();
  return read_full(fd, body.data(), length, false);
}

core::Status write_frame(int fd, std::string_view body) {
  if (body.size() > kMaxFrameBytes) {
    return core::Status::resource_exhausted("response exceeds the frame limit");
  }
  const auto length = static_cast<std::uint32_t>(body.size());
  std::string frame;
  frame.reserve(body.size() + 4);
  frame.push_back(static_cast<char>((length >> 24) & 0xff));
  frame.push_back(static_cast<char>((length >> 16) & 0xff));
  frame.push_back(static_cast<char>((length >> 8) & 0xff));
  frame.push_back(static_cast<char>(length & 0xff));
  frame.append(body);
  return write_full(fd, frame.data(), frame.size());
}

core::Status parse_request(const std::string& body, Request& out) {
  std::string error;
  std::optional<obs::JsonValue> doc = obs::json_parse(body, &error);
  if (!doc) return core::Status::parse_error("bad request JSON: " + error);
  if (!doc->is_object()) {
    return core::Status::invalid_argument("request must be a JSON object");
  }
  out.id = static_cast<std::uint64_t>(doc->number_or("id", 0.0));
  out.op = doc->string_or("op", "");
  out.deadline_ms = doc->number_or("deadline_ms", 0.0);
  if (const obs::JsonValue* params = doc->find("params");
      params != nullptr && params->is_object()) {
    out.params = *params;
  } else {
    out.params = obs::json_object();
  }
  if (out.op.empty()) {
    return core::Status::invalid_argument("request is missing \"op\"");
  }
  return core::Status::ok();
}

std::string render_response(std::uint64_t id, const core::Status& status,
                            std::string_view degradation, double elapsed_ms,
                            const obs::JsonValue* result,
                            double retry_after_ms) {
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out += ",\"status\":";
  obs::json_append_string(out, core::to_string(status.code()));
  out += ",\"degradation\":";
  obs::json_append_string(out, degradation);
  out += ",\"elapsed_ms\":";
  obs::json_append_number(out, elapsed_ms);
  if (retry_after_ms > 0.0) {
    out += ",\"retry_after_ms\":";
    obs::json_append_number(out, retry_after_ms);
  }
  if (!status.is_ok() && !status.message().empty()) {
    out += ",\"error\":";
    obs::json_append_string(out, status.message());
  }
  if (result != nullptr) {
    out += ",\"result\":";
    obs::json_write(*result, out);
  }
  out += "}";
  return out;
}

}  // namespace lvf2::serve
