#include "routing/link_appraiser.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

namespace ldr {

bool LinkAppraiser::Entry::operator==(const Entry& o) const {
  uint64_t a, b;
  std::memcpy(&a, &weight, sizeof a);
  std::memcpy(&b, &o.weight, sizeof b);
  return aggregate == o.aggregate && a == b;
}

LinkAppraiser::LinkAppraiser(const Graph& graph, const PathStore& store,
                             const std::vector<std::vector<double>>& segment_100ms,
                             const MultiplexOptions& opts)
    : g_(graph),
      store_(store),
      segment_(segment_100ms),
      opts_(opts),
      scatter_(graph.LinkCount()),
      memo_(graph.LinkCount()) {
  peak_.reserve(segment_.size());
  for (const std::vector<double>& s : segment_) peak_.push_back(SeriesPeak(s));
}

LinkAppraiser::Pass LinkAppraiser::Appraise(
    const std::vector<std::vector<PathAllocation>>& allocations) {
  for (std::vector<Entry>& on_link : scatter_) on_link.clear();
  for (size_t a = 0; a < allocations.size(); ++a) {
    for (const PathAllocation& pa : allocations[a]) {
      if (pa.fraction <= 1e-9) continue;
      for (LinkId l : store_.Links(pa.path)) {
        scatter_[static_cast<size_t>(l)].push_back({a, pa.fraction});
      }
    }
  }
  Pass pass;
  failing_.clear();
  for (size_t l = 0; l < scatter_.size(); ++l) {
    if (scatter_[l].empty()) continue;
    ++pass.checked;
    Memo& memo = memo_[l];
    if (scatter_[l] == memo.key) {
      ++pass.memo_hits;
    } else {
      memo.result = Check(static_cast<LinkId>(l), scatter_[l]);
      std::swap(memo.key, scatter_[l]);
    }
    if (memo.result.skipped_peak_test) ++pass.peak_skipped;
    if (!memo.result.pass) failing_.push_back(static_cast<LinkId>(l));
  }
  return pass;
}

LinkCheckResult LinkAppraiser::Check(LinkId link,
                                     const std::vector<Entry>& entries) {
  // fl(peak_a·w) is the scanned weighted peak for w > 0; the clamp keeps
  // the scan's answer (0) for a NaN weight too.
  double peak_sum = 0;
  inputs_.clear();
  for (const Entry& e : entries) {
    peak_sum += std::max(0.0, peak_[e.aggregate] * e.weight);
    inputs_.push_back({&segment_[e.aggregate], e.weight});
  }
  return CheckLinkGivenPeakSum(inputs_, peak_sum, g_.link(link).capacity_gbps,
                               opts_);
}

}  // namespace ldr
