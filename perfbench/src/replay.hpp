// perfbench/src/replay.hpp
//
// Request replay: runs one serve request on the calling thread through
// the same public calls Service::execute makes (spec interning, synthesis,
// co-simulation split into its original leg and check_equivalence_with,
// static checks, trace mining, exploration, report rendering), timing
// each call as a layer. The replayed report must equal the service's, so
// the layer times describe the work the service did. Also holds the
// request-line and store-counter helpers the serve workloads share.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "explore/estimation_cache.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/spec_intern.hpp"
#include "src/bench.hpp"

namespace perfbench {

/// Layers a request replay times, in report order.
extern const std::vector<std::string> kReplayLayers;

struct ReplayResult {
  bool ok = false;     ///< the request's verdict
  std::string report;  ///< the deterministic report
  std::map<std::string, double> layer_us;
  /// The explorer's per-run estimate memo (explore requests only).
  double explore_cache_hits = 0, explore_cache_misses = 0;
  /// Sum of the layer times. The layers do not nest: a synth request's
  /// sim layers are the co-simulation's original leg, and core.cosim is
  /// the rest of it.
  double total_us() const;
};

/// Which replay-metric group a request belongs to: "synth", "check",
/// "conform" or "explore".
std::string replay_class(const ifsyn::serve::Request& request);

class RequestReplayer {
 public:
  explicit RequestReplayer(Spans& spans) : spans_(spans) {}

  /// Replay `request`. Interning goes through this replayer's own
  /// interner and estimation store, so a first replay of a spec pays the
  /// parse and the estimates, as a cold service does; later replays of
  /// the same spec hit, as a warm one does.
  ReplayResult replay(const ifsyn::serve::Request& request);

 private:
  Spans& spans_;
  ifsyn::serve::SpecInterner interner_;
  ifsyn::explore::EstimationCache estimates_;
};

/// Per-layer metrics and reconcile_pct.<class> from paired samples: for
/// each replayed request, its Service::execute wall time and its replay.
struct ReplaySample {
  std::string cls;
  double execute_us = 0;
  ReplayResult replay;
};
void set_replay_metrics(Outcome& out, const std::vector<ReplaySample>& samples);

/// Parse one JSONL request line the way the serve loop does.
ifsyn::Result<ifsyn::serve::Request> parse_line(const std::string& line);

/// serve.{spec,estimation,program}_cache.hit_ratio over the interval
/// between two snapshots of a Service's metrics.
void set_store_hit_ratios(Outcome& out,
                          const ifsyn::obs::MetricsSnapshot& before,
                          const ifsyn::obs::MetricsSnapshot& after);

}  // namespace perfbench
