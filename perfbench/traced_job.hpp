// Traced rebuild of one parsecureml job.
//
// run_traced() replays what parsecureml::run_training / run_inference do for
// a secure mode, call for call through the same public APIs, with a timer
// around each call into a library module. The benchmark compares the
// replay's traffic and offline-byte counts against an untraced RunResult of
// the same config and seed, so a change to run_secure that this file does
// not follow makes the traced run fail instead of silently describing a
// different program.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "parsecureml/framework.hpp"

namespace psml::perfbench {

struct TracedResult {
  parsecureml::RunResult run;  // the same fields run_secure fills
  double wall_s = 0.0;
  // Inference only, against the plaintext forward pass of the same weights:
  // the share of rows whose reconstructed secure argmax differs, and the
  // largest output difference over the largest plaintext output.
  double row_mismatch_share = 0.0;
  double logit_error = 0.0;
  // Per-layer metric name -> value (names as in BENCHMARK.json).
  std::map<std::string, double> layers;
};

// Number of ml.layerN rows reported; models with fewer layers report 0.
inline constexpr std::size_t kMaxLayers = 5;

TracedResult run_traced(const parsecureml::RunConfig& cfg, bool training);

}  // namespace psml::perfbench
