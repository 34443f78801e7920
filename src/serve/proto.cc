#include "serve/proto.h"

#include <cerrno>
#include <cstring>

#include "resilience/codec.h"
#include "resilience/iofault.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define DSA_HAVE_SOCKETS 1
#else
#define DSA_HAVE_SOCKETS 0
#endif

namespace dsa::serve {

namespace {

void PutU32(std::string& s, std::uint32_t v) {
  s.push_back(static_cast<char>(v & 0xFF));
  s.push_back(static_cast<char>((v >> 8) & 0xFF));
  s.push_back(static_cast<char>((v >> 16) & 0xFF));
  s.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t GetU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

#if DSA_HAVE_SOCKETS

// Frame writes route through the injectable host-I/O shim
// (resilience/iofault.h): an armed write-kind plan (enospc/eio/
// short-write) perturbs DSAS frames exactly like any other host write,
// which is how the chaos drill rehearses a daemon whose responses fail
// mid-frame. Short writes from the shim just continue the loop.
bool WriteAll(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = resilience::IoWrite(fd, data + off, len - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads exactly `len` bytes. 1 = done, 0 = EOF (bytes_read reports how
// far it got), -1 = read error.
int ReadExact(int fd, char* data, std::size_t len, std::size_t& bytes_read) {
  bytes_read = 0;
  while (bytes_read < len) {
    const ssize_t n = ::read(fd, data + bytes_read, len - bytes_read);
    if (n == 0) return 0;
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    bytes_read += static_cast<std::size_t>(n);
  }
  return 1;
}

#endif  // DSA_HAVE_SOCKETS

}  // namespace

std::string_view ToString(RecvStatus s) {
  switch (s) {
    case RecvStatus::kOk: return "ok";
    case RecvStatus::kClosed: return "closed";
    case RecvStatus::kCorrupt: return "corrupt";
    case RecvStatus::kError: return "error";
  }
  return "?";
}

bool SendFrame(int fd, char type, const std::string& json) {
#if DSA_HAVE_SOCKETS
  if (json.size() + 1 > kMaxFrameBytes) return false;
  std::string payload;
  payload.reserve(json.size() + 1);
  payload.push_back(type);
  payload += json;
  std::string frame;
  frame.reserve(payload.size() + 12);
  frame.append(kProtoMagic, 4);
  PutU32(frame, static_cast<std::uint32_t>(payload.size()));
  PutU32(frame, resilience::Crc32(payload.data(), payload.size()));
  frame += payload;
  return WriteAll(fd, frame.data(), frame.size());
#else
  (void)fd;
  (void)type;
  (void)json;
  return false;
#endif
}

RecvStatus RecvFrame(int fd, char& type, std::string& json) {
#if DSA_HAVE_SOCKETS
  char header[12];
  std::size_t got = 0;
  const int hr = ReadExact(fd, header, sizeof(header), got);
  if (hr < 0) return RecvStatus::kError;
  if (hr == 0) return got == 0 ? RecvStatus::kClosed : RecvStatus::kCorrupt;
  if (std::memcmp(header, kProtoMagic, 4) != 0) return RecvStatus::kCorrupt;
  const auto* p = reinterpret_cast<const unsigned char*>(header);
  const std::uint32_t len = GetU32(p + 4);
  const std::uint32_t crc = GetU32(p + 8);
  if (len == 0 || len > kMaxFrameBytes) return RecvStatus::kCorrupt;
  std::string payload(len, '\0');
  const int pr = ReadExact(fd, payload.data(), len, got);
  if (pr < 0) return RecvStatus::kError;
  if (pr == 0) return RecvStatus::kCorrupt;  // peer died mid-frame
  if (resilience::Crc32(payload.data(), payload.size()) != crc) {
    return RecvStatus::kCorrupt;
  }
  type = payload[0];
  json.assign(payload, 1, payload.size() - 1);
  return RecvStatus::kOk;
#else
  (void)fd;
  (void)type;
  (void)json;
  return RecvStatus::kError;
#endif
}

}  // namespace dsa::serve
