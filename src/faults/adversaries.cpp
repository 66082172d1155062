#include "faults/adversaries.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace da::faults {

namespace {

class SilentAdversary final : public sim::RewritingAdversary {
 public:
  bool rewrite(sim::Message&) override { return false; }
};

class ConstantLiar final : public sim::RewritingAdversary {
 public:
  explicit ConstantLiar(Value lie) : lie_(lie) {}
  bool rewrite(sim::Message& msg) override {
    msg.value = lie_;
    return true;
  }

 private:
  Value lie_;
};

class Equivocator final : public sim::RewritingAdversary {
 public:
  Equivocator(Value a, Value b) : a_(a), b_(b) {}
  bool rewrite(sim::Message& msg) override {
    msg.value = msg.to % 2 == 0 ? a_ : b_;
    return true;
  }

 private:
  Value a_;
  Value b_;
};

class PivotEquivocator final : public sim::RewritingAdversary {
 public:
  PivotEquivocator(Value low, Value high, NodeId pivot)
      : low_(low), high_(high), pivot_(pivot) {}
  bool rewrite(sim::Message& msg) override {
    msg.value = msg.to < pivot_ ? low_ : high_;
    return true;
  }

 private:
  Value low_;
  Value high_;
  NodeId pivot_;
};

class CrashAfter final : public sim::RewritingAdversary {
 public:
  explicit CrashAfter(int last_honest_round) : last_(last_honest_round) {}
  bool rewrite(sim::Message& msg) override { return msg.round <= last_; }

 private:
  int last_;
};

class RandomNoise final : public sim::RewritingAdversary {
 public:
  RandomNoise(std::uint64_t seed, std::int64_t lo, std::int64_t hi,
              double omit_prob)
      : seed_(seed), lo_(lo), hi_(hi), omit_prob_(omit_prob) {}

  bool rewrite(sim::Message& msg) override {
    // Derive everything from the message identity, never from call order.
    std::uint64_t h = mix64(seed_, static_cast<std::uint64_t>(msg.from));
    h = mix64(h, static_cast<std::uint64_t>(msg.to));
    h = mix64(h, static_cast<std::uint64_t>(msg.round));
    h = mix64(h, msg.path.hash());
    const double roll = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (roll < omit_prob_) return false;
    const auto span = static_cast<std::uint64_t>(hi_ - lo_ + 1);
    msg.value = Value::of(lo_ + static_cast<std::int64_t>(mix64(h) % span));
    return true;
  }

 private:
  std::uint64_t seed_;
  std::int64_t lo_;
  std::int64_t hi_;
  double omit_prob_;
};

class TargetedSplit final : public sim::RewritingAdversary {
 public:
  TargetedSplit(std::vector<NodeId> target, Value lie)
      : target_(std::move(target)), lie_(lie) {
    std::sort(target_.begin(), target_.end());
  }

  bool rewrite(sim::Message& msg) override {
    // Tell the target subset the truth, everyone else the lie.
    if (!std::binary_search(target_.begin(), target_.end(), msg.to)) {
      msg.value = lie_;
    }
    return true;
  }

 private:
  std::vector<NodeId> target_;
  Value lie_;
};

}  // namespace

std::unique_ptr<sim::Adversary> honest() {
  return std::make_unique<sim::HonestAdversary>();
}

std::unique_ptr<sim::Adversary> silent() {
  return std::make_unique<SilentAdversary>();
}

std::unique_ptr<sim::Adversary> constant_liar(Value lie) {
  return std::make_unique<ConstantLiar>(lie);
}

std::unique_ptr<sim::Adversary> default_spammer() {
  return std::make_unique<ConstantLiar>(Value::def());
}

std::unique_ptr<sim::Adversary> equivocator(Value a, Value b) {
  return std::make_unique<Equivocator>(a, b);
}

std::unique_ptr<sim::Adversary> pivot_equivocator(Value low, Value high,
                                                  NodeId pivot) {
  return std::make_unique<PivotEquivocator>(low, high, pivot);
}

std::unique_ptr<sim::Adversary> crash_after(int last_honest_round) {
  return std::make_unique<CrashAfter>(last_honest_round);
}

std::unique_ptr<sim::Adversary> random_noise(std::uint64_t seed,
                                             std::int64_t lo, std::int64_t hi,
                                             double omit_prob) {
  DA_EXPECTS(lo <= hi);
  return std::make_unique<RandomNoise>(seed, lo, hi, omit_prob);
}

std::unique_ptr<sim::Adversary> targeted_split(std::vector<NodeId> target,
                                               Value lie) {
  return std::make_unique<TargetedSplit>(std::move(target), lie);
}

}  // namespace da::faults
