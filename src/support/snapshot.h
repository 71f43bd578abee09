// Versioned binary snapshot protocol: the serialization substrate behind
// Machine::SaveCheckpoint / RestoreCheckpoint.
//
// A snapshot blob is
//
//   [magic u64][format_version u32]            header, outside the checksum
//   [payload_size u64][payload_fnv1a u64]
//   payload:  a sequence of named sections
//     [name_len u32][name bytes][body_len u64][body bytes] ...
//
// Each component lists its checkpointed fields once, in blob order, in one
// `bool Checkpoint(support::StateIO& io)` function that serves both
// directions: against a StateWriter every call appends the field's value,
// against a StateReader it overwrites the field from the blob. Readers
// consume sections strictly in write order (BeginSection checks the name,
// EndSection checks the cursor landed on the recorded section end).
// StateReader::Open validates magic, version, size and checksum before a
// caller reads anything; every later refusal (a shape mismatch, an
// out-of-range value, a count the section cannot hold) goes through the
// reader's failure path with a diagnostic naming the section and field.
//
// Everything is little-endian fixed-width; doubles travel bit-cast through
// u64 so restore is bit-exact. The format carries no host state.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace cobra::support {

// Bump when the section layout changes incompatibly. Readers reject any
// other version outright (no migration shims: snapshots are same-build
// artifacts, the version gate exists to fail loudly instead of strangely).
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

// The vocabulary a field list is written in. Every call returns false once
// the stream has failed, so a field list can run unchecked and test the
// result at a boundary; a writer never fails.
class StateIO {
 public:
  virtual ~StateIO() = default;

  // True for a reader. Components whose blob is a transform of their live
  // state (a sparse page list, sorted entries, re-decoded slots) branch on
  // it; everything else is direction-blind.
  virtual bool loading() const = 0;
  virtual bool Ok() const = 0;

  // --- Sections ------------------------------------------------------------
  // Sections nest; each BeginSection is closed by one EndSection. A reader
  // requires the next section to be named `name`, and EndSection to land
  // exactly on the recorded section end (catches layout drift at once).
  virtual bool BeginSection(std::string_view name) = 0;
  virtual bool EndSection() = 0;

  // --- Primitives ----------------------------------------------------------
  virtual bool U8(std::uint8_t& v) = 0;
  virtual bool U32(std::uint32_t& v) = 0;
  virtual bool U64(std::uint64_t& v) = 0;
  virtual bool Bytes(void* data, std::size_t n) = 0;
  bool I64(std::int64_t& v) { return Cast<std::uint64_t>(v); }
  bool F64(double& v) { return Cast<std::uint64_t>(v); }
  bool Bool(bool& v) {
    std::uint8_t b = v ? 1 : 0;
    if (!U8(b)) return false;
    if (loading()) v = b != 0;
    return true;
  }

  // The element count of a list that follows, travelling as a u64. A
  // reader refuses a count whose elements (each at least `elem_bytes` long)
  // cannot fit in the bytes left in the section, so no blob can size an
  // allocation beyond its own length.
  virtual bool Count(std::uint64_t& n, std::size_t elem_bytes,
                     std::string_view field) = 0;

  // Expect/reject: a writer ignores it; a reader turns `ok == false` into a
  // failure naming the section, the field, the blob's value and this
  // machine's (for a range check, the machine's bound).
  virtual bool Expect(bool ok, std::string_view field, std::int64_t blob,
                      std::int64_t machine) = 0;

  // A field whose blob word differs from its in-memory type (an enum or a
  // narrower integer): travels as `Wire`, and a loaded value outside
  // [lo, hi] is refused by name.
  template <typename Wire, typename T>
  bool Narrow(T& field, std::int64_t lo, std::int64_t hi,
              std::string_view name) {
    Wire wire = static_cast<Wire>(field);
    if (!Word(wire)) return false;
    const auto value = static_cast<std::int64_t>(wire);
    if (!Expect(value >= lo && value <= hi, name, value, hi)) return false;
    if (loading()) field = static_cast<T>(wire);
    return true;
  }

 private:
  bool Word(std::uint8_t& v) { return U8(v); }
  bool Word(std::uint32_t& v) { return U32(v); }
  bool Word(std::uint64_t& v) { return U64(v); }
  bool Word(std::int64_t& v) { return I64(v); }

  // Same-width bit-cast through the unsigned wire word.
  template <typename Wire, typename T>
  bool Cast(T& v) {
    static_assert(sizeof(Wire) == sizeof(T));
    Wire bits;
    std::memcpy(&bits, &v, sizeof bits);
    if (!Word(bits)) return false;
    if (loading()) std::memcpy(&v, &bits, sizeof v);
    return true;
  }
};

class StateWriter final : public StateIO {
 public:
  StateWriter() = default;

  bool loading() const override { return false; }
  bool Ok() const override { return true; }
  bool BeginSection(std::string_view name) override;
  bool EndSection() override;
  bool U8(std::uint8_t& v) override {
    payload_.push_back(v);
    return true;
  }
  bool U32(std::uint32_t& v) override;
  bool U64(std::uint64_t& v) override;
  bool Bytes(void* data, std::size_t n) override;
  bool Count(std::uint64_t& n, std::size_t, std::string_view) override {
    return U64(n);
  }
  bool Expect(bool, std::string_view, std::int64_t, std::int64_t) override {
    return true;
  }

  // Seals the blob: header + payload size + FNV-1a checksum + payload.
  // Aborts if a section is still open.
  std::vector<std::uint8_t> Finish(
      std::uint32_t version = kSnapshotFormatVersion) const;

 private:
  std::vector<std::uint8_t> payload_;
  // Byte offsets (into payload_) of the body_len fields of open sections,
  // patched with the final body length at EndSection.
  std::vector<std::size_t> open_sections_;
};

class StateReader final : public StateIO {
 public:
  StateReader() = default;

  // Validates the whole blob (magic, version, payload size, checksum) and
  // positions the cursor at the first section. On failure returns false and
  // sets error(); the reader stays unusable and the caller must not touch
  // any machine state.
  bool Open(const std::uint8_t* data, std::size_t size);
  bool Open(const std::vector<std::uint8_t>& blob) {
    return Open(blob.data(), blob.size());
  }

  bool loading() const override { return true; }
  bool Ok() const override { return error_.empty(); }
  bool BeginSection(std::string_view name) override;
  bool EndSection() override;
  bool U8(std::uint8_t& v) override;
  bool U32(std::uint32_t& v) override;
  bool U64(std::uint64_t& v) override;
  bool Bytes(void* data, std::size_t n) override;
  bool Count(std::uint64_t& n, std::size_t elem_bytes,
             std::string_view field) override;
  bool Expect(bool ok, std::string_view field, std::int64_t blob,
              std::int64_t machine) override;

  const std::string& error() const { return error_; }
  // True when every payload byte has been consumed and all sections closed.
  bool AtEnd() const { return Ok() && cursor_ == end_ && section_ends_.empty(); }

 private:
  bool Fail(std::string message);
  // Fails naming the innermost open section and `field`.
  bool FailField(std::string_view field, const std::string& detail);
  bool Need(std::size_t n);
  std::size_t Limit() const {
    return section_ends_.empty() ? end_ : section_ends_.back();
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t cursor_ = 0;  // next unread payload byte (absolute offset)
  std::size_t end_ = 0;     // one past the last payload byte
  std::vector<std::size_t> section_ends_;
  // Names of the open sections: diagnostics only, never part of the blob.
  std::vector<std::string> section_names_;
  std::string error_ = "snapshot not opened";
};

}  // namespace cobra::support
