// Per-link statistical-multiplexing checks ( B and C in the paper's
// Fig. 14).
//
// Given the 100 ms rate series of the aggregates placed on a link (each
// weighted by the fraction of the aggregate routed there):
//
//  B  Temporal-correlation test: sum the time-aligned series; carry any
//     excess over capacity into the next period as queue; reject if the
//     worst-case queueing delay exceeds max_queue_ms.
//  C  Uncorrelated test: treat each aggregate's series as an independent
//     PMF, convolve via FFT, and require P(sum > capacity) below
//     max_queue_ms / measurement-window (10 ms / 60 s = 1.6e-4).
//
// Both are skipped — guaranteed pass — when the sum of the aggregates' peak
// rates does not exceed capacity (the paper's first optimization). A loaded
// link whose capacity is not positive fails outright: neither test can
// serve traffic at a rate of zero.
//
// One check core, two ways to feed it the peak sum. CheckLinkMultiplexing
// scans every weighted series for its peak, O(k·T) per link. The
// controller's LinkAppraiser (routing/link_appraiser.h) instead keeps a
// per-epoch peak table, peak_a = SeriesPeak(series_a), and sums
// fl(peak_a·w) in input order, O(k) per link. The two sums are bitwise
// equal for every weight w > 0: rounding to nearest is monotone, so
// max_t fl(w·v_t) = fl(w·max_t v_t), and clamping at zero commutes with a
// positive scale. The skip decision and the FFT bin width derived from the
// peak sum therefore come out the same either way. The appraiser also
// memoizes each link's LinkCheckResult on its exact (aggregate, weight)
// list, but only for one epoch: the series change between epochs, so its
// table and memo are rebuilt for each.
#ifndef LDR_TRAFFIC_MULTIPLEX_H_
#define LDR_TRAFFIC_MULTIPLEX_H_

#include <cstddef>
#include <vector>

namespace ldr {

// One aggregate's contribution to a link: its measured rate series (Gbps,
// fixed period) scaled by the routed fraction.
struct WeightedSeries {
  const std::vector<double>* series_gbps = nullptr;
  double weight = 1.0;
};

struct MultiplexOptions {
  double max_queue_ms = 10.0;
  double period_sec = 0.1;   // measurement period of the series
  size_t bins = 1024;        // quantization levels per distribution
};

// Worst queueing delay (ms) when the aligned sum is served at capacity.
double MaxQueueDelayMs(const std::vector<WeightedSeries>& inputs,
                       double capacity_gbps, double period_sec);

// P(sum of independent aggregates > capacity) via FFT convolution of
// per-aggregate PMFs (common bin width derived from the peak of the sum).
double ExceedProbability(const std::vector<WeightedSeries>& inputs,
                         double capacity_gbps, size_t bins);

// max(0, max_t series[t]): one entry of a per-epoch peak table.
double SeriesPeak(const std::vector<double>& series);

// Σ_i max(0, max_t fl(w_i·v_i[t])), summed in input order: the peak sum
// the skip test and ExceedProbability's bin width are derived from.
double PeakSum(const std::vector<WeightedSeries>& inputs);

struct LinkCheckResult {
  bool pass = true;
  bool skipped_peak_test = false;  // sum of peaks fit; tests skipped
  double queue_delay_ms = 0;
  double exceed_probability = 0;
};

// The check core. `peak_sum` must equal PeakSum(inputs) bitwise; it is
// passed in so that a caller holding a peak table pays O(k), not O(k·T).
LinkCheckResult CheckLinkGivenPeakSum(const std::vector<WeightedSeries>& inputs,
                                      double peak_sum, double capacity_gbps,
                                      const MultiplexOptions& opts);

// The stateless check: CheckLinkGivenPeakSum(inputs, PeakSum(inputs), ...).
LinkCheckResult CheckLinkMultiplexing(const std::vector<WeightedSeries>& inputs,
                                      double capacity_gbps,
                                      const MultiplexOptions& opts = {});

}  // namespace ldr

#endif  // LDR_TRAFFIC_MULTIPLEX_H_
