#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "protocols/common/eig_layout.hpp"
#include "util/ids.hpp"
#include "util/path.hpp"
#include "util/value.hpp"

namespace da::protocols {

/// Resolution rule applied when folding an EIG (exponential information
/// gathering) tree bottom-up. `n_sub` is the number of nodes participating
/// in the sub-instance rooted at the path being resolved — exactly the `n`
/// of the recursive call BYZ(t,m) that the paper's algorithm would have made
/// there — and `w` are the n_sub-1 values of step 3.
class Resolver {
 public:
  virtual ~Resolver() = default;
  [[nodiscard]] virtual Value resolve(int n_sub,
                                      std::span<const Value> w) const = 0;
};

/// The message tree of a recursive agreement protocol, from one receiver's
/// point of view.
///
/// The recursion of BYZ(t,m) (and of Lamport's OM(m)) unfolds into m+1
/// communication rounds: a value relayed through the chain of distinct
/// nodes p_0=sender, p_1, ..., p_r is stored at path [p_0,...,p_r]. A slot
/// that was never filled (omitted message) reads as the default value V_d —
/// assumption (b) of Section 4: the absence of a message can be detected.
///
/// Storage is a flat arena: the shared `EigLayout` maps each admissible
/// path to a dense ordinal (level-major, children contiguous per parent),
/// values live in one contiguous vector preinitialized to V_d, and a
/// presence bitmap backs `has()` and the first-write contract. `set`,
/// `get` and `has` require structurally admissible paths — rooted at the
/// sender, within depth, pairwise-distinct participant hops — and treat
/// malformed paths as contract violations, not silent V_d reads. The
/// receive path instead screens untrusted paths with `admit()`, which
/// validates and locates a path in one walk and stores by ordinal.
///
/// `resolve` then computes the receiver's decision exactly as step 3 of
/// BYZ(t,m): at an internal path sigma, the receiver's value vector is its
/// own directly-received value for sigma plus the recursively resolved
/// values of the sub-senders j (j not in sigma, j != self), folded with the
/// supplied rule. The fold is an iterative bottom-up pass over the arena
/// (leaves read in place, two level-sized scratch buffers above them, no
/// recursion, no per-node Path copies or hashing).
class EigTree {
 public:
  /// `nodes` lists every participant (sender included); `depth` is the
  /// number of rounds (maximum path length).
  EigTree(NodeId self, NodeId sender, std::vector<NodeId> nodes, int depth);

  /// Stores a received value. Writing a slot twice is a contract
  /// violation: receivers deduplicate deliveries upstream (`has()`), so a
  /// second write can only be a protocol bug and must not be masked.
  void set(const Path& path, Value v);

  /// `admit()`'s rejection sentinel.
  static constexpr std::uint32_t kReject = 0xffffffffu;

  /// Receive-side admission of an untrusted path, in one walk over its
  /// hops: returns the slot ordinal if the path is rooted at the sender,
  /// within depth, made of pairwise-distinct participants and free of
  /// this receiver (so the sender admits nothing), else `kReject`. An
  /// admitted path's ordinal equals `ordinal_of(path)`.
  [[nodiscard]] std::uint32_t admit(const Path& path) const;

  /// Dense slot ordinal of an admissible path (contract-checked).
  [[nodiscard]] std::uint32_t ordinal_of(const Path& path) const;

  /// `has()` + `set()` on an ordinal from `admit()`: stores `v` and
  /// returns true if the slot was empty, returns false (leaving the
  /// first-written value) if it was already filled.
  bool set_if_absent(std::uint32_t ordinal, Value v);

  /// Value at `path`; V_d if never set.
  [[nodiscard]] Value get(const Path& path) const;

  [[nodiscard]] bool has(const Path& path) const;

  /// Overwrites the stored values with `other`'s, reusing this tree's
  /// storage. Only the values differ between trees of one shape, so the
  /// shape (layout, sender, receiver) is contract-checked, not copied.
  void assign_values_from(const EigTree& other);

  /// Fold the tree with `rule` starting from the root path [sender].
  [[nodiscard]] Value resolve(const Resolver& rule) const;

  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] std::size_t stored() const { return stored_; }
  [[nodiscard]] const std::vector<NodeId>& nodes() const { return nodes_; }

  /// True if `id` is a participant (O(1) rank-table lookup).
  [[nodiscard]] bool is_participant(NodeId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < rank_of_.size() &&
           rank_of_[static_cast<std::size_t>(id)] >= 0;
  }

  /// The shared per-(n, sender, depth) arena layout (diagnostics/tests).
  [[nodiscard]] const EigLayout& layout() const { return *layout_; }

  /// This receiver's bit in the layout's rank space (cf. `hop_mask`).
  [[nodiscard]] std::uint64_t self_bit() const { return self_bit_; }

 private:
  NodeId self_;
  NodeId sender_;
  std::vector<NodeId> nodes_;
  int depth_;
  /// Rank this receiver prunes at resolve time, or -1 when self == sender
  /// (the sender excludes nobody — it never relays through itself anyway).
  int exclude_rank_ = -1;
  std::uint64_t self_bit_ = 0;  // this receiver's rank bit
  std::vector<std::int16_t> rank_of_;  // NodeId -> rank in nodes_, -1 unknown
  std::shared_ptr<const EigLayout> layout_;
  std::vector<Value> values_;          // arena, V_d where never set
  std::vector<std::uint8_t> present_;  // backs has() / first-write contract
  std::size_t stored_ = 0;
};

/// BYZ(t,m)'s rule: VOTE(n_sub - 1 - m, n_sub - 1). The fixed `m` threads
/// through every level of the recursion (the paper: "the values of n and t
/// change at each level of the recursion, however, the value of m remains
/// fixed").
class ByzResolver final : public Resolver {
 public:
  explicit ByzResolver(int m);
  [[nodiscard]] Value resolve(int n_sub,
                              std::span<const Value> w) const override;

 private:
  int m_;
};

/// Lamport OM(m)'s rule: simple majority, default on no-majority.
class MajorityResolver final : public Resolver {
 public:
  [[nodiscard]] Value resolve(int n_sub,
                              std::span<const Value> w) const override;
};

/// Point-to-point messages of one EIG instance with `n` nodes unfolding
/// over `depth` rounds and no omissions: round r carries one message per
/// length-r relay chain of distinct nodes starting at the sender, i.e.
/// sum over r in [1, depth] of (n-1)(n-2)...(n-r). Every EIG-shaped
/// protocol's analytic count — BYZ(t,m), OM(m), crusader, IC — is this
/// formula at its depth (see byz_message_count / om_message_count /
/// crusader_message_count / ic_message_count).
[[nodiscard]] std::uint64_t eig_message_count(int n, int depth);

}  // namespace da::protocols
