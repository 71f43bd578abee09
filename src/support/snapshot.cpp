#include "support/snapshot.h"

#include "support/check.h"

namespace cobra::support {
namespace {

// "COBRASNP" little-endian.
constexpr std::uint64_t kMagic = 0x504e534152424f43ULL;

constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

// --- StateWriter -------------------------------------------------------------

bool StateWriter::BeginSection(std::string_view name) {
  std::uint32_t name_len = static_cast<std::uint32_t>(name.size());
  U32(name_len);
  payload_.insert(payload_.end(), name.begin(), name.end());
  open_sections_.push_back(payload_.size());
  std::uint64_t placeholder = 0;  // body_len, patched at EndSection
  return U64(placeholder);
}

bool StateWriter::EndSection() {
  COBRA_CHECK_MSG(!open_sections_.empty(), "EndSection without BeginSection");
  const std::size_t len_at = open_sections_.back();
  open_sections_.pop_back();
  const std::uint64_t body_len =
      static_cast<std::uint64_t>(payload_.size() - (len_at + 8));
  for (int i = 0; i < 8; ++i) {
    payload_[len_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body_len >> (8 * i));
  }
  return true;
}

bool StateWriter::U32(std::uint32_t& v) {
  PutU32(payload_, v);
  return true;
}

bool StateWriter::U64(std::uint64_t& v) {
  PutU64(payload_, v);
  return true;
}

bool StateWriter::Bytes(void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  payload_.insert(payload_.end(), p, p + n);
  return true;
}

std::vector<std::uint8_t> StateWriter::Finish(std::uint32_t version) const {
  COBRA_CHECK_MSG(open_sections_.empty(), "Finish with open sections");
  std::vector<std::uint8_t> blob;
  blob.reserve(kHeaderBytes + payload_.size());
  PutU64(blob, kMagic);
  PutU32(blob, version);
  PutU64(blob, static_cast<std::uint64_t>(payload_.size()));
  PutU64(blob, Fnv1a(payload_.data(), payload_.size()));
  blob.insert(blob.end(), payload_.begin(), payload_.end());
  return blob;
}

// --- StateReader -------------------------------------------------------------

bool StateReader::Fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
  return false;
}

bool StateReader::FailField(std::string_view field, const std::string& detail) {
  const std::string section =
      section_names_.empty() ? "payload" : section_names_.back();
  return Fail("snapshot section '" + section + "': " + std::string(field) +
              " " + detail);
}

bool StateReader::Need(std::size_t n) {
  if (!Ok()) return false;
  if (n > Limit() - cursor_) {
    return Fail("snapshot truncated: read past " +
                std::string(section_ends_.empty() ? "payload" : "section") +
                " end");
  }
  return true;
}

bool StateReader::Open(const std::uint8_t* data, std::size_t size) {
  data_ = data;
  cursor_ = 0;
  end_ = 0;
  section_ends_.clear();
  section_names_.clear();
  error_.clear();
  if (size < kHeaderBytes) return Fail("snapshot truncated: no header");
  if (GetU64(data) != kMagic) return Fail("not a COBRA snapshot (bad magic)");
  const std::uint32_t version = GetU32(data + 8);
  if (version != kSnapshotFormatVersion) {
    return Fail("snapshot format version " + std::to_string(version) +
                " unsupported (expected " +
                std::to_string(kSnapshotFormatVersion) + ")");
  }
  const std::uint64_t payload_size = GetU64(data + 12);
  if (payload_size != size - kHeaderBytes) {
    return Fail("snapshot truncated: payload size mismatch");
  }
  const std::uint64_t checksum = GetU64(data + 20);
  if (Fnv1a(data + kHeaderBytes, payload_size) != checksum) {
    return Fail("snapshot corrupt: payload checksum mismatch");
  }
  cursor_ = kHeaderBytes;
  end_ = kHeaderBytes + payload_size;
  return true;
}

bool StateReader::BeginSection(std::string_view name) {
  std::uint32_t name_len = 0;
  if (!U32(name_len)) return false;
  if (!Need(name_len)) return false;
  const std::string_view found(reinterpret_cast<const char*>(data_ + cursor_),
                               name_len);
  if (found != name) {
    return Fail("snapshot section mismatch: expected '" + std::string(name) +
                "', found '" + std::string(found) + "'");
  }
  cursor_ += name_len;
  std::uint64_t body_len = 0;
  if (!U64(body_len)) return false;
  if (body_len > Limit() - cursor_) {
    return Fail("snapshot truncated: section '" + std::string(name) +
                "' body overruns enclosing bounds");
  }
  section_ends_.push_back(cursor_ + body_len);
  section_names_.emplace_back(name);
  return true;
}

bool StateReader::EndSection() {
  if (!Ok()) return false;
  if (section_ends_.empty()) return Fail("EndSection without BeginSection");
  if (cursor_ != section_ends_.back()) {
    return Fail("snapshot section '" + section_names_.back() +
                "' not fully consumed (layout drift)");
  }
  section_ends_.pop_back();
  section_names_.pop_back();
  return true;
}

bool StateReader::U8(std::uint8_t& v) {
  if (!Need(1)) return false;
  v = data_[cursor_++];
  return true;
}

bool StateReader::U32(std::uint32_t& v) {
  if (!Need(4)) return false;
  v = GetU32(data_ + cursor_);
  cursor_ += 4;
  return true;
}

bool StateReader::U64(std::uint64_t& v) {
  if (!Need(8)) return false;
  v = GetU64(data_ + cursor_);
  cursor_ += 8;
  return true;
}

bool StateReader::Bytes(void* data, std::size_t n) {
  if (!Need(n)) return false;
  std::memcpy(data, data_ + cursor_, n);
  cursor_ += n;
  return true;
}

bool StateReader::Count(std::uint64_t& n, std::size_t elem_bytes,
                        std::string_view field) {
  if (!U64(n)) return false;
  const std::size_t left = Limit() - cursor_;
  if (n > left / elem_bytes) {
    return FailField(field, "count " + std::to_string(n) +
                                " needs more than the " +
                                std::to_string(left) + " bytes left");
  }
  return true;
}

bool StateReader::Expect(bool ok, std::string_view field, std::int64_t blob,
                         std::int64_t machine) {
  if (!Ok()) return false;
  if (ok) return true;
  return FailField(field, std::to_string(blob) +
                              " in the blob does not fit this machine (" +
                              std::to_string(machine) + ")");
}

}  // namespace cobra::support
