#pragma once

// Versioned on-disk checkpoint container.
//
// A checkpoint is a flat sequence of named binary sections behind a
// tamper-evident header:
//
//   [8]  magic   "CAQRCKPT"
//   [u32] format version (kCheckpointVersion)
//   [u64] payload byte count
//   [u64] FNV-1a checksum of the payload
//   payload: repeated [u32 name_len][name][u64 size][bytes]
//
// Writes are atomic: the container is serialized to "<path>.tmp" and
// renamed over the target, so a kill mid-write leaves either the previous
// checkpoint or none — never a torn file. Loads validate magic, version,
// declared sizes, and the payload checksum; any violation (truncation, a
// flipped byte, a stale format) yields "no checkpoint" and callers fall back
// to a clean start instead of resuming from garbage.
//
// Sections hold trivially-copyable scalars, vectors of them, and matrices
// (dims + column-major data). Consumers (caqr/tsqr/rpca checkpointing)
// compose these into their own layouts and validate shape/options fields
// themselves on resume.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "ft/ft.hpp"
#include "linalg/matrix.hpp"

namespace caqr::ft {

inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr char kCheckpointMagic[9] = "CAQRCKPT";  // 8 bytes on disk

class CheckpointWriter {
 public:
  void bytes(const std::string& name, const void* data, std::size_t n) {
    const std::uint32_t name_len = static_cast<std::uint32_t>(name.size());
    append(&name_len, sizeof(name_len));
    payload_.append(name);
    const std::uint64_t size = n;
    append(&size, sizeof(size));
    payload_.append(static_cast<const char*>(data), n);
  }

  template <typename T>
  void scalar(const std::string& name, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(name, &v, sizeof(T));
  }

  template <typename T>
  void vec(const std::string& name, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(name, v.data(), v.size() * sizeof(T));
  }

  template <typename V>
  void matrix(const std::string& name, const V& m_in) {
    const auto m = cview(m_in);
    using T = view_scalar_t<V>;
    std::string data;
    const std::int64_t dims[2] = {m.rows(), m.cols()};
    data.append(reinterpret_cast<const char*>(dims), sizeof(dims));
    for (idx j = 0; j < m.cols(); ++j) {
      data.append(reinterpret_cast<const char*>(m.col(j)),
                  sizeof(T) * static_cast<std::size_t>(m.rows()));
    }
    bytes(name, data.data(), data.size());
  }

  // Serializes header + payload to "<path>.tmp", then renames over `path`.
  bool write(const std::string& path) const {
    std::string out;
    out.append(kCheckpointMagic, 8);
    const std::uint32_t version = kCheckpointVersion;
    out.append(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::uint64_t size = payload_.size();
    out.append(reinterpret_cast<const char*>(&size), sizeof(size));
    const std::uint64_t sum = detail::fnv1a(payload_.data(), payload_.size());
    out.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
    out.append(payload_);

    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) return false;
    const bool written = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    const bool closed = std::fclose(f) == 0;
    if (!written || !closed) {
      std::remove(tmp.c_str());
      return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
    return true;
  }

  std::size_t payload_bytes() const { return payload_.size(); }

 private:
  void append(const void* p, std::size_t n) {
    payload_.append(static_cast<const char*>(p), n);
  }

  std::string payload_;
};

class CheckpointReader {
 public:
  // Empty optional on any validation failure: missing file, short header,
  // wrong magic/version, truncated payload, checksum mismatch, or a section
  // whose declared size runs past the payload.
  static std::optional<CheckpointReader> load(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return std::nullopt;
    std::string raw;
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) raw.append(buf, n);
    std::fclose(f);

    const std::size_t header = 8 + sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);
    if (raw.size() < header) return std::nullopt;
    if (std::memcmp(raw.data(), kCheckpointMagic, 8) != 0) return std::nullopt;
    std::uint32_t version = 0;
    std::memcpy(&version, raw.data() + 8, sizeof(version));
    if (version != kCheckpointVersion) return std::nullopt;
    std::uint64_t size = 0, sum = 0;
    std::memcpy(&size, raw.data() + 12, sizeof(size));
    std::memcpy(&sum, raw.data() + 20, sizeof(sum));
    if (raw.size() != header + size) return std::nullopt;
    if (detail::fnv1a(raw.data() + header, size) != sum) return std::nullopt;

    CheckpointReader r;
    std::size_t pos = header;
    const std::size_t end = raw.size();
    while (pos < end) {
      if (end - pos < sizeof(std::uint32_t)) return std::nullopt;
      std::uint32_t name_len = 0;
      std::memcpy(&name_len, raw.data() + pos, sizeof(name_len));
      pos += sizeof(name_len);
      if (end - pos < name_len) return std::nullopt;
      std::string name(raw.data() + pos, name_len);
      pos += name_len;
      if (end - pos < sizeof(std::uint64_t)) return std::nullopt;
      std::uint64_t sec = 0;
      std::memcpy(&sec, raw.data() + pos, sizeof(sec));
      pos += sizeof(sec);
      if (end - pos < sec) return std::nullopt;
      r.sections_[name] = raw.substr(pos, sec);
      pos += sec;
    }
    return r;
  }

  bool has(const std::string& name) const {
    return sections_.count(name) != 0;
  }

  // All section names in sorted order. Owners of prefix-namespaced
  // sub-checkpoints (stream window state lives under "<prefix>...") use this
  // to enumerate and diagnose what a container actually holds — e.g. when a
  // migration target rejects a checkpoint, the mismatched section is
  // reportable instead of an opaque "load failed".
  std::vector<std::string> section_names() const {
    std::vector<std::string> out;
    out.reserve(sections_.size());
    for (const auto& kv : sections_) out.push_back(kv.first);
    return out;
  }

  template <typename T>
  bool scalar(const std::string& name, T& out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto it = sections_.find(name);
    if (it == sections_.end() || it->second.size() != sizeof(T)) return false;
    std::memcpy(&out, it->second.data(), sizeof(T));
    return true;
  }

  template <typename T>
  bool vec(const std::string& name, std::vector<T>& out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto it = sections_.find(name);
    if (it == sections_.end() || it->second.size() % sizeof(T) != 0) {
      return false;
    }
    out.resize(it->second.size() / sizeof(T));
    // An empty vector's data() may be null, and memcpy from or to null is
    // undefined even for zero bytes.
    if (!out.empty()) {
      std::memcpy(out.data(), it->second.data(), it->second.size());
    }
    return true;
  }

  template <typename T>
  bool matrix(const std::string& name, Matrix<T>& out) const {
    const auto it = sections_.find(name);
    if (it == sections_.end() || it->second.size() < 2 * sizeof(std::int64_t)) {
      return false;
    }
    std::int64_t dims[2];
    std::memcpy(dims, it->second.data(), sizeof(dims));
    if (dims[0] < 0 || dims[1] < 0) return false;
    const std::size_t expect =
        sizeof(dims) + sizeof(T) * static_cast<std::size_t>(dims[0]) *
                           static_cast<std::size_t>(dims[1]);
    if (it->second.size() != expect) return false;
    out = Matrix<T>(static_cast<idx>(dims[0]), static_cast<idx>(dims[1]));
    const char* src = it->second.data() + sizeof(dims);
    for (idx j = 0; j < out.cols() && out.rows() > 0; ++j) {
      std::memcpy(out.view().col(j), src,
                  sizeof(T) * static_cast<std::size_t>(out.rows()));
      src += sizeof(T) * static_cast<std::size_t>(out.rows());
    }
    return true;
  }

 private:
  std::map<std::string, std::string> sections_;
};

}  // namespace caqr::ft
