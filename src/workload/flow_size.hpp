// Heavy-tailed flow-size distributions for datacenter-scale workloads.
//
// The extended version of the source paper ("Millions of Little Minions")
// evaluates TPPs on fat-tree fabrics driven by the two canonical
// empirical flow-size mixes of the datacenter literature:
//
//   web-search   the DCTCP production trace (Alizadeh et al., SIGCOMM'10),
//                ~55% of flows under 100 KB but >95% of bytes in flows
//                over 1 MB — mean ~1.7 MB;
//   data-mining  the VL2-style mix (Greenberg et al., SIGCOMM'09), half of
//                all flows a single packet with an extreme elephant tail.
//
// Both are encoded here as piecewise-linear CDFs over flow size in bytes
// (the standard pFabric encoding, packets x 1460 B) and drawn by inverse
// transform from a single uniform variate, so one draw consumes exactly
// one Rng value regardless of the distribution — a fixed seed yields a
// byte-identical draw sequence no matter which mix a scenario selects
// (scenarios precompute every draw before the simulation runs, see
// scenario.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/random.hpp"

namespace tpp::workload {

enum class FlowSizeDist : std::uint8_t {
  WebSearch,   // DCTCP web-search mix
  DataMining,  // VL2 data-mining mix
  Pareto,      // bounded Pareto (shape 1.2 over [2 KB, 1 MB])
  Fixed,       // every flow the same size (incast bursts, shuffles)
};

// "websearch" | "datamining" | "pareto" | "fixed" — returns false on any
// other spelling (scenario parser rejection path).
bool flowSizeDistFromName(std::string_view name, FlowSizeDist& out);
std::string_view flowSizeDistName(FlowSizeDist dist);

// One (size_bytes, cumulative_probability) knot of a piecewise-linear CDF.
// Two consecutive knots with equal size encode a point mass (the
// data-mining mix puts 50% of flows at exactly one packet).
struct CdfPoint {
  double bytes;
  double cum;
};

// Inverse-transform sampler over a piecewise-linear CDF, with every size
// multiplied by `scale` — scenarios scale the empirical mixes down so a
// bounded-runtime simulation keeps the shape (the heavy tail, the
// small-flow mass) without the multi-megabyte absolute sizes.
class FlowSizeSampler {
 public:
  FlowSizeSampler(FlowSizeDist dist, double scale = 1.0,
                  std::uint64_t fixedBytes = 64 * 1024);

  // One flow size in bytes (>= 1), consuming exactly one uniform draw.
  std::uint64_t draw(sim::Rng& rng) const;

  // Analytic moments of the *configured* (scaled) distribution — what the
  // statistical regression test checks 100k empirical draws against, and
  // what load-driven scenarios use to convert offered load into a Poisson
  // arrival rate.
  double meanBytes() const;
  double quantileBytes(double q) const;  // q in [0, 1]

  FlowSizeDist dist() const { return dist_; }
  double scale() const { return scale_; }
  std::span<const CdfPoint> cdf() const { return cdf_; }

 private:
  FlowSizeDist dist_;
  double scale_;
  std::uint64_t fixedBytes_;
  std::vector<CdfPoint> cdf_;  // empty for Pareto/Fixed
};

}  // namespace tpp::workload
