#include "src/host/collector.hpp"

namespace tpp::host {

RecordSplit splitStackRecords(const core::ExecutedTpp& tpp,
                              std::size_t valuesPerHop,
                              std::size_t initialSpWords) {
  RecordSplit out;
  if (valuesPerHop == 0) return out;
  const std::size_t spWords = tpp.header.stackPointer / core::kWordSize;
  if (spWords < initialSpWords) {
    out.truncated = true;
    return out;
  }
  std::size_t base = initialSpWords;
  for (; base + valuesPerHop <= spWords; base += valuesPerHop) {
    if (base + valuesPerHop > tpp.pmem.size()) {
      out.truncated = true;
      return out;
    }
    out.records.emplace_back(
        tpp.pmem.begin() + static_cast<std::ptrdiff_t>(base),
        tpp.pmem.begin() + static_cast<std::ptrdiff_t>(base + valuesPerHop));
  }
  if (base != spWords) out.truncated = true;  // partial trailing record
  return out;
}

std::vector<HopRecord> splitHopRecords(const core::ExecutedTpp& tpp) {
  std::vector<HopRecord> out;
  const std::size_t per = tpp.header.perHopWords;
  if (per == 0) return out;
  for (std::size_t hop = 0; hop < tpp.header.hopNumber; ++hop) {
    const std::size_t base = hop * per;
    if (base + per > tpp.pmem.size()) break;
    out.emplace_back(tpp.pmem.begin() + static_cast<std::ptrdiff_t>(base),
                     tpp.pmem.begin() + static_cast<std::ptrdiff_t>(base + per));
  }
  return out;
}

HopSampleAverager::HopSampleAverager(std::size_t valuesPerHop)
    : valuesPerHop_(valuesPerHop) {}

void HopSampleAverager::add(const std::vector<HopRecord>& records) {
  ++probes_;
  if (records.size() > sums_.size()) {
    sums_.resize(records.size(), std::vector<double>(valuesPerHop_, 0.0));
    counts_.resize(records.size(), std::vector<double>(valuesPerHop_, 0.0));
  }
  for (std::size_t h = 0; h < records.size(); ++h) {
    for (std::size_t v = 0; v < valuesPerHop_ && v < records[h].size(); ++v) {
      sums_[h][v] += records[h][v];
      counts_[h][v] += 1.0;
    }
  }
}

void HopSampleAverager::reset() {
  probes_ = 0;
  sums_.clear();
  counts_.clear();
}

double HopSampleAverager::mean(std::size_t hop, std::size_t value) const {
  if (hop >= sums_.size() || value >= valuesPerHop_) return 0.0;
  if (counts_[hop][value] == 0.0) return 0.0;
  return sums_[hop][value] / counts_[hop][value];
}

}  // namespace tpp::host
