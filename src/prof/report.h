// Measured-vs-modeled cost report: confronts the analytic hw::CostModel
// with per-layer wall-clock measurements taken by the prof span layer.
//
// The nn::Layer forward wrapper names its spans after the layer ("
// block0.conv0"), and the detectors name their host-side stage spans after
// the cost-profile entries ("pre.pillarize", "pre.scatter", "post.nms",
// "pre.normalize", "post.decode"), so matching a profile row to its
// measurement is a name lookup. The drift ratio measured/modeled says how
// far the analytic model is from this machine's reality — the model targets
// a Jetson Orin / RTX 4080, the measurement runs on the host CPU, so the
// absolute ratio is expected to be far from 1; what matters is that it is
// *consistent* across layers (a layer whose drift is 10x its neighbours' is
// where the model and the implementation disagree about the workload shape).
//
// Lives in its own library (upaq_prof_report) because hw sits above
// tensor/parallel, which themselves link the core prof library.
#pragma once

#include <string>
#include <vector>

#include "hw/cost.h"
#include "prof/prof.h"

namespace upaq::prof {

struct CostRow {
  std::string name;
  std::int64_t spans = 0;     ///< measured span count (0 = not observed)
  double measured_ms = 0.0;   ///< mean measured latency per pass
  double modeled_ms = 0.0;    ///< hw::CostModel latency
  double drift = 0.0;         ///< measured / modeled (0 when unmeasurable)
};

struct CostComparison {
  std::vector<CostRow> rows;       ///< profile order
  double measured_total_ms = 0.0;  ///< sum of matched measurements
  double modeled_total_ms = 0.0;
  int passes = 1;
  /// Median per-layer drift of the matched rows: the scale factor between
  /// this host and the modeled device. Rows whose drift sits far from this
  /// are the genuinely mispredicted layers.
  double median_drift = 0.0;
};

/// Matches `events` (spans named after profile entries) against the cost
/// model's per-layer latency. `passes` is how many forward passes the events
/// cover; measured latencies are per-pass means.
CostComparison build_cost_report(const std::vector<Event>& events,
                                 const hw::CostModel& model,
                                 const std::vector<hw::LayerProfile>& profile,
                                 int passes);

/// Fixed-width text rendering of the comparison.
std::string cost_report_table(const CostComparison& cmp);

/// One integer-path layer of the packed-vs-float comparison: the same
/// compressed model timed twice on identical inputs — once on the float
/// engines, once lowered onto the packed integer engines. The layer spans
/// are named after the layer in both runs, so the join is a name lookup.
struct IntSpeedupRow {
  std::string name;
  int weight_bits = 32;    ///< planned weight bitwidth (sets the model anchor)
  std::int64_t spans = 0;  ///< packed-run span count (0 = not observed)
  double fp32_ms = 0.0;    ///< median float-path latency per pass
  double packed_ms = 0.0;  ///< median packed-path latency per pass
  double measured = 0.0;   ///< fp32_ms / packed_ms (0 when unmeasurable)
  double modeled = 0.0;    ///< hw::DeviceSpec::int_gemm_speedup(weight_bits)
  double drift = 0.0;      ///< measured / modeled (0 when unmeasurable)
};

struct IntSpeedupReport {
  std::vector<IntSpeedupRow> rows;  ///< integer-path profile entries, in order
  double fp32_total_ms = 0.0;       ///< summed matched float-path means
  double packed_total_ms = 0.0;     ///< summed matched packed-path means
  /// Whole-path measured speedup over the matched layers.
  double measured_total = 0.0;
};

/// Confronts the measured per-layer packed-vs-float speedup with the device
/// model's int_gemm_speedup(bits) curve. Only profile entries flagged
/// integer_path are compared; both event sets must cover `passes` forward
/// passes. The drift column says how far this host's integer-path reality is
/// from the modeled device anchor — as with the cost report, consistency
/// across layers matters more than the absolute level.
IntSpeedupReport build_int_speedup_report(
    const std::vector<Event>& fp32_events,
    const std::vector<Event>& packed_events, const hw::DeviceSpec& spec,
    const std::vector<hw::LayerProfile>& profile, int passes);

/// Fixed-width text rendering of the integer-speedup comparison.
std::string int_speedup_table(const IntSpeedupReport& rep);

}  // namespace upaq::prof
