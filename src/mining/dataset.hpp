// Boolean-attribute data streams with concept drift.
//
// The paper's Section 1 scenarios analyse "heterogeneous data streams
// across wireless networks"; its composition example is the stream-mining
// pipeline of Kargupta & Park [17] ("Mining decision trees from data
// streams in a mobile environment").  This module supplies the substrate:
// labelled boolean instances drawn from a hidden target concept that can
// drift over time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"

namespace pgrid::mining {

/// One labelled example: d boolean attributes and a boolean class.
struct Instance {
  std::vector<bool> features;
  bool label = false;
};

using Window = std::vector<Instance>;

/// A boolean target concept f: {0,1}^d -> {0,1}.
using Concept = std::function<bool(const std::vector<bool>&)>;

/// Random k-term DNF concepts — the classic learnable family.
Concept random_dnf(std::size_t dimensions, std::size_t terms,
                   std::size_t literals_per_term, common::Rng& rng);

/// Generates windows of labelled instances from a hidden concept, with
/// label noise and optional concept drift.
class StreamGenerator {
 public:
  StreamGenerator(std::size_t dimensions, common::Rng rng,
                  double label_noise = 0.0);

  std::size_t dimensions() const { return dimensions_; }

  /// Installs a fresh random DNF concept.
  void drift(std::size_t terms = 4, std::size_t literals_per_term = 3);

  /// Draws one window of `count` instances.
  Window next_window(std::size_t count);

  /// Ground-truth label (no noise) for an input — for accuracy evaluation.
  bool truth(const std::vector<bool>& features) const {
    return concept_(features);
  }

 private:
  std::size_t dimensions_;
  common::Rng rng_;
  double label_noise_;
  Concept concept_;
};

/// Fraction of instances a classifier labels correctly.
double accuracy(const std::function<bool(const std::vector<bool>&)>& classify,
                const Window& window);

}  // namespace pgrid::mining
