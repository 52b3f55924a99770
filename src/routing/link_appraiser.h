// Step (3) of the LDR controller loop: appraise statistical multiplexing on
// every loaded link of a placement (the paper's Fig. 14 B/C checks), once
// per optimize/appraise round of one epoch.
//
// A LinkAppraiser lives for one epoch, over one measured segment, and does
// three things:
//
//  - scatter: spreads each round's allocations onto the links their paths
//    cross, as ordered (aggregate, weight) lists;
//  - peak table: peak_a = SeriesPeak(segment[a]), computed once, so each
//    link's peak-sum skip costs O(k) instead of O(k·T) — bitwise the same
//    sum as CheckLinkMultiplexing's scan (see traffic/multiplex.h);
//  - memo: each link remembers the list it was last checked on and the
//    LinkCheckResult it got. A later round that loads the link with the
//    exact same list (same aggregates, same order, same weight bits) gets
//    the stored result back without a check.
//
// A check is a pure function of the link's list, its capacity, the segment
// and the options. The segment and options are fixed for the appraiser's
// lifetime; so must the link capacities of the graph be, which holds within
// one controller epoch (topology deltas arrive between epochs).
#ifndef LDR_ROUTING_LINK_APPRAISER_H_
#define LDR_ROUTING_LINK_APPRAISER_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "graph/path_store.h"
#include "routing/scheme.h"
#include "traffic/multiplex.h"

namespace ldr {

class LinkAppraiser {
 public:
  // What one Appraise call did. Each checked link is either a memo hit or a
  // fresh check; peak_skipped counts both kinds whose result took the skip.
  struct Pass {
    size_t checked = 0;
    size_t memo_hits = 0;
    size_t peak_skipped = 0;
  };

  // `graph`, `store` and `segment_100ms` (one series per aggregate) must
  // outlive the appraiser.
  LinkAppraiser(const Graph& graph, const PathStore& store,
                const std::vector<std::vector<double>>& segment_100ms,
                const MultiplexOptions& opts);

  // Checks every link loaded by `allocations` (indexed like the segment;
  // fractions at or below 1e-9 load nothing).
  Pass Appraise(const std::vector<std::vector<PathAllocation>>& allocations);

  // Links that failed the last Appraise call, ascending.
  const std::vector<LinkId>& failing() const { return failing_; }

  // The result the last Appraise call gave `link`; meaningful only for a
  // link that call loaded.
  const LinkCheckResult& result(LinkId link) const {
    return memo_[static_cast<size_t>(link)].result;
  }

 private:
  struct Entry {
    size_t aggregate;
    double weight;
    bool operator==(const Entry& o) const;  // weights compared bitwise
  };
  struct Memo {
    std::vector<Entry> key;  // empty: never checked
    LinkCheckResult result;
  };

  LinkCheckResult Check(LinkId link, const std::vector<Entry>& entries);

  const Graph& g_;
  const PathStore& store_;
  const std::vector<std::vector<double>>& segment_;
  MultiplexOptions opts_;
  std::vector<double> peak_;                  // per aggregate
  std::vector<std::vector<Entry>> scatter_;   // per link, this call
  std::vector<Memo> memo_;                    // per link
  std::vector<WeightedSeries> inputs_;        // scratch for fresh checks
  std::vector<LinkId> failing_;
};

}  // namespace ldr

#endif  // LDR_ROUTING_LINK_APPRAISER_H_
