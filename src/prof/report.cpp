#include "prof/report.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace upaq::prof {

CostComparison build_cost_report(const std::vector<Event>& events,
                                 const hw::CostModel& model,
                                 const std::vector<hw::LayerProfile>& profile,
                                 int passes) {
  CostComparison cmp;
  cmp.passes = std::max(passes, 1);

  std::map<std::string, std::pair<std::int64_t, std::int64_t>> measured;
  for (const auto& e : events) {
    auto& [count, total_ns] = measured[e.name];
    ++count;
    total_ns += e.dur_ns;
  }

  std::vector<double> drifts;
  for (const auto& p : profile) {
    CostRow row;
    row.name = p.name;
    row.modeled_ms = model.layer_cost(p).latency_s * 1e3;
    if (auto it = measured.find(p.name); it != measured.end()) {
      row.spans = it->second.first;
      row.measured_ms = static_cast<double>(it->second.second) * 1e-6 /
                        static_cast<double>(cmp.passes);
      cmp.measured_total_ms += row.measured_ms;
      if (row.modeled_ms > 0.0) {
        row.drift = row.measured_ms / row.modeled_ms;
        drifts.push_back(row.drift);
      }
    }
    cmp.modeled_total_ms += row.modeled_ms;
    cmp.rows.push_back(std::move(row));
  }
  if (!drifts.empty()) {
    std::sort(drifts.begin(), drifts.end());
    cmp.median_drift = drifts[drifts.size() / 2];
  }
  return cmp;
}

std::string cost_report_table(const CostComparison& cmp) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-20s %8s %14s %14s %10s\n", "layer",
                "spans", "measured ms", "modeled ms", "drift");
  out += line;
  for (const auto& r : cmp.rows) {
    if (r.spans > 0) {
      std::snprintf(line, sizeof(line), "%-20s %8lld %14.4f %14.4f %9.1fx\n",
                    r.name.c_str(), static_cast<long long>(r.spans),
                    r.measured_ms, r.modeled_ms, r.drift);
    } else {
      std::snprintf(line, sizeof(line), "%-20s %8s %14s %14.4f %10s\n",
                    r.name.c_str(), "-", "-", r.modeled_ms, "-");
    }
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%-20s %8s %14.4f %14.4f %9.1fx (median per-layer %.1fx)\n",
                "total", "", cmp.measured_total_ms, cmp.modeled_total_ms,
                cmp.modeled_total_ms > 0.0
                    ? cmp.measured_total_ms / cmp.modeled_total_ms
                    : 0.0,
                cmp.median_drift);
  out += line;
  return out;
}

namespace {

/// Per-name MEDIAN span latency, scaled to ms per pass. The packed-vs-fp32
/// comparison divides two of these per layer; a mean would let a single
/// scheduler-preemption burst during one sweep swing a layer's ratio by
/// tens of percent on a shared box, while the median ignores bursts
/// entirely (both sweeps sample the same steady-state distribution).
std::map<std::string, std::pair<std::int64_t, double>> median_by_name(
    const std::vector<Event>& events, int passes) {
  std::map<std::string, std::vector<double>> durs;
  for (const auto& e : events)
    durs[e.name].push_back(static_cast<double>(e.dur_ns) * 1e-6);
  std::map<std::string, std::pair<std::int64_t, double>> out;
  for (auto& [name, d] : durs) {
    std::sort(d.begin(), d.end());
    const std::size_t n = d.size();
    const double median =
        n % 2 == 1 ? d[n / 2] : 0.5 * (d[n / 2 - 1] + d[n / 2]);
    // Layers called multiple times per pass (e.g. the PFN on pillar
    // batches) keep per-pass totals: median per call x calls per pass.
    const double calls_per_pass =
        static_cast<double>(n) / static_cast<double>(passes);
    out[name] = {static_cast<std::int64_t>(n), median * calls_per_pass};
  }
  return out;
}

}  // namespace

IntSpeedupReport build_int_speedup_report(
    const std::vector<Event>& fp32_events,
    const std::vector<Event>& packed_events, const hw::DeviceSpec& spec,
    const std::vector<hw::LayerProfile>& profile, int passes) {
  IntSpeedupReport rep;
  const int p_ = std::max(passes, 1);
  const auto fp32 = median_by_name(fp32_events, p_);
  const auto packed = median_by_name(packed_events, p_);
  for (const auto& p : profile) {
    if (!p.integer_path) continue;
    IntSpeedupRow row;
    row.name = p.name;
    row.weight_bits = p.weight_bits;
    row.modeled = spec.int_gemm_speedup(p.weight_bits);
    const auto f = fp32.find(p.name);
    const auto q = packed.find(p.name);
    if (f != fp32.end() && q != packed.end()) {
      row.spans = q->second.first;
      row.fp32_ms = f->second.second;
      row.packed_ms = q->second.second;
      rep.fp32_total_ms += row.fp32_ms;
      rep.packed_total_ms += row.packed_ms;
      if (row.packed_ms > 0.0) {
        row.measured = row.fp32_ms / row.packed_ms;
        if (row.modeled > 0.0) row.drift = row.measured / row.modeled;
      }
    }
    rep.rows.push_back(std::move(row));
  }
  if (rep.packed_total_ms > 0.0)
    rep.measured_total = rep.fp32_total_ms / rep.packed_total_ms;
  return rep;
}

std::string int_speedup_table(const IntSpeedupReport& rep) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-20s %5s %12s %12s %10s %9s %8s\n",
                "layer", "bits", "fp32 ms", "packed ms", "measured", "modeled",
                "drift");
  out += line;
  for (const auto& r : rep.rows) {
    if (r.spans > 0) {
      std::snprintf(line, sizeof(line),
                    "%-20s %5d %12.4f %12.4f %9.2fx %8.2fx %7.2fx\n",
                    r.name.c_str(), r.weight_bits, r.fp32_ms, r.packed_ms,
                    r.measured, r.modeled, r.drift);
    } else {
      std::snprintf(line, sizeof(line), "%-20s %5d %12s %12s %10s %8.2fx %8s\n",
                    r.name.c_str(), r.weight_bits, "-", "-", "-", r.modeled,
                    "-");
    }
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-20s %5s %12.4f %12.4f %9.2fx\n", "total",
                "", rep.fp32_total_ms, rep.packed_total_ms, rep.measured_total);
  out += line;
  return out;
}

}  // namespace upaq::prof
