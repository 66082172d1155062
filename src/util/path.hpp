#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "util/contracts.hpp"
#include "util/ids.hpp"

namespace da {

/// A relay chain for EIG-style protocols: the sequence of node ids a value
/// travelled through, starting at the original sender. Paths in BYZ(t,m)
/// never repeat a node and never exceed m+1 hops, so a small inline array
/// avoids per-message heap allocation in the simulator's hot path.
///
/// Hops are stored as 16-bit `Hop`s (26 bytes per path, which keeps
/// `sim::Message` at one 64-byte cache line) but read back as `NodeId`:
/// `push_back` rejects ids outside the `Hop` range as a contract
/// violation, and `hash()` equals the hash of the same ids stored as
/// `NodeId`.
class Path {
 public:
  using Hop = std::int16_t;
  static constexpr std::size_t kMaxLen = 12;

  /// True if `id` fits a hop.
  [[nodiscard]] static constexpr bool holds(std::int64_t id) noexcept {
    return id >= std::numeric_limits<Hop>::min() &&
           id <= std::numeric_limits<Hop>::max();
  }

  constexpr Path() noexcept = default;

  Path(std::initializer_list<NodeId> ids) {
    DA_EXPECTS(ids.size() <= kMaxLen);
    for (NodeId id : ids) push_back(id);
  }

  [[nodiscard]] constexpr std::size_t size() const noexcept { return len_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return len_ == 0; }

  [[nodiscard]] constexpr NodeId operator[](std::size_t i) const noexcept {
    return nodes_[i];
  }

  [[nodiscard]] constexpr NodeId front() const noexcept { return nodes_[0]; }
  [[nodiscard]] constexpr NodeId back() const noexcept {
    return nodes_[len_ - 1];
  }

  void push_back(NodeId id) {
    DA_EXPECTS(len_ < kMaxLen);
    DA_EXPECTS(holds(id));
    nodes_[len_++] = static_cast<Hop>(id);
  }

  void pop_back() {
    DA_EXPECTS(len_ > 0);
    --len_;
  }

  [[nodiscard]] bool contains(NodeId id) const noexcept {
    return std::find(nodes_.begin(), nodes_.begin() + len_, id) !=
           nodes_.begin() + len_;
  }

  /// All elements pairwise distinct?
  [[nodiscard]] bool distinct() const noexcept {
    for (std::size_t i = 0; i < len_; ++i)
      for (std::size_t j = i + 1; j < len_; ++j)
        if (nodes_[i] == nodes_[j]) return false;
    return true;
  }

  /// A copy of this path with `id` appended.
  [[nodiscard]] Path extended(NodeId id) const {
    Path p = *this;
    p.push_back(id);
    return p;
  }

  /// Iteration yields `Hop`s, which convert to `NodeId` losslessly.
  [[nodiscard]] const Hop* begin() const noexcept { return nodes_.data(); }
  [[nodiscard]] const Hop* end() const noexcept {
    return nodes_.data() + len_;
  }

  friend bool operator==(const Path& a, const Path& b) noexcept {
    return a.len_ == b.len_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }

  /// Lexicographic order (used for deterministic iteration in maps).
  friend bool operator<(const Path& a, const Path& b) noexcept {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

  [[nodiscard]] std::string to_string() const {
    std::string s = "[";
    for (std::size_t i = 0; i < len_; ++i) {
      if (i) s += ",";
      s += std::to_string(nodes_[i]);
    }
    return s + "]";
  }

  [[nodiscard]] std::size_t hash() const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < len_; ++i) {
      // Widen through NodeId: the hash is that of the NodeId sequence,
      // which noise and fault-injection models derive decisions from.
      h ^= static_cast<std::uint64_t>(static_cast<NodeId>(nodes_[i])) +
           0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h ^ len_);
  }

 private:
  std::array<Hop, kMaxLen> nodes_{};
  std::uint8_t len_ = 0;
};

}  // namespace da

template <>
struct std::hash<da::Path> {
  std::size_t operator()(const da::Path& p) const noexcept { return p.hash(); }
};
