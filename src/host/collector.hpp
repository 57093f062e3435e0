// Interpreting executed TPPs at the end-host: splitting packet memory into
// per-hop records (§2.1: "the end-host knows exactly how to interpret
// values in the packet").
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/program.hpp"

namespace tpp::host {

// One hop's worth of values from a collect-style TPP.
using HopRecord = std::vector<std::uint32_t>;

// Splits a hop-mode TPP's packet memory into perHopWords-sized records,
// one per hop actually traversed.
std::vector<HopRecord> splitHopRecords(const core::ExecutedTpp& tpp);

// A stack-mode TPP's pushed values, split into per-hop records, and whether
// the pushed region divided into whole records. It does not when a
// TPP-unaware switch skipped its pushes or a corrupted header points past
// the allocated pmem; the partial record is then discarded. Since the record
// count is the hop count actually executed, complete(expectedHops) also
// flags a structurally-valid but short trace: a hole somewhere on the path.
struct RecordSplit {
  std::vector<HopRecord> records;
  bool truncated = false;  // stack region ended mid-record or outran pmem

  bool complete(std::size_t expectedHops) const {
    return !truncated && records.size() >= expectedHops;
  }
};

// The stack region starts after the immediates (initialSpWords words in)
// and each hop pushed `valuesPerHop` words.
RecordSplit splitStackRecords(const core::ExecutedTpp& tpp,
                              std::size_t valuesPerHop,
                              std::size_t initialSpWords = 0);

// Running accumulator of per-hop samples across many probes: per hop index,
// the mean of each value column. Used by RCP* to average queue samples over
// a control period.
class HopSampleAverager {
 public:
  explicit HopSampleAverager(std::size_t valuesPerHop);

  void add(const std::vector<HopRecord>& records);
  void reset();

  std::size_t probeCount() const { return probes_; }
  std::size_t hopCount() const { return sums_.size(); }
  // Mean of column `value` at `hop`; 0 if no samples.
  double mean(std::size_t hop, std::size_t value) const;

 private:
  std::size_t valuesPerHop_;
  std::size_t probes_ = 0;
  std::vector<std::vector<double>> sums_;   // [hop][value]
  std::vector<std::vector<double>> counts_;
};

}  // namespace tpp::host
