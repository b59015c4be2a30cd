// upaq_tool: command-line front end for the compression pipeline.
//
//   upaq_tool [--model pointpillars|smoke] [--preset hck|lck]
//             [--nonzeros N] [--bits B1,B2,...] [--candidates K]
//             [--connectivity F] [--finetune ITERS] [--alpha A] [--beta B]
//             [--gamma G] [--cache DIR] [--no-finetune]
//
//   upaq_tool profile [--model pointpillars|smoke] [--scenes K] [--runs R]
//                     [--trace FILE] [--packed] [--json]
//
//   upaq_tool serve [--scenes N] [--rate HZ] [--fixed] [--batch B]
//                   [--capacity Q] [--deadline MS] [--no-pipeline]
//                   [--seed S] [--trace FILE] [--json]
//
//   upaq_tool scenarios [--scenes N] [--seed S] [--families a,b,...]
//                       [--margin X] [--out FILE] [--fp32-only]
//                       [--cache DIR] [--json]
//
//   upaq_tool metrics [--scenes N] [--rate HZ] [--seed S] [--json]
//                     [--out FILE] [--check]
//
// The default mode trains (or loads) the chosen detector, compresses it with
// the requested configuration, optionally fine-tunes, and prints the
// accuracy / compression / deployment-cost summary. Everything the Table-2
// bench does, but with the knobs exposed.
//
// `profile` runs eval-mode inference under the prof span layer and prints a
// per-layer stats table, the measured-vs-modeled cost report, the prof
// counters, and per-worker pool utilization. --trace exports a
// chrome://tracing JSON (open in chrome://tracing or Perfetto).
//
// `serve` replays a seeded synthetic scene stream open-loop through the
// upaq::serve batching/pipelining server and prints throughput, tail
// latency, the shed split, and the batch-size histogram (the single-load
// interactive sibling of bench/bench_serve).
//
// `scenarios` runs the scenario-diversity robustness suite (per-family mAP,
// per-class AP, critical-object recall, detect latency) on the zoo variants
// and applies the critical-recall compression gate — the interactive sibling
// of bench/bench_scenarios, with family selection and gate margin exposed.
//
// `metrics` drives a short serve workload and emits the always-on obs
// snapshot: Prometheus text exposition by default, the JSON form with
// --json. --check self-validates the exposition (the CI metrics smoke).
//
// `--json` on profile / serve / scenarios switches stdout to a single
// JSON document (the human tables go away), with the obs snapshot embedded.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/qmodel.h"
#include "core/upaq.h"
#include "data/scene.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "detectors/pointpillars.h"
#include "detectors/smoke.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "prof/report.h"
#include "serve/serve.h"
#include "serve/stream.h"
#include "tensor/workspace.h"
#include "zoo/experiment.h"
#include "zoo/scenarios.h"
#include "zoo/zoo.h"

namespace {

using namespace upaq;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--model pointpillars|smoke] [--preset hck|lck]\n"
               "          [--nonzeros N] [--bits B1,B2,...] [--candidates K]\n"
               "          [--connectivity F] [--finetune ITERS]\n"
               "          [--alpha A] [--beta B] [--gamma G] [--cache DIR]\n"
               "       %s profile [--model pointpillars|smoke] [--scenes K]\n"
               "          [--runs R] [--trace FILE] [--packed] [--json]\n"
               "       %s serve [--scenes N] [--rate HZ] [--fixed]\n"
               "          [--batch B] [--capacity Q] [--deadline MS]\n"
               "          [--no-pipeline] [--seed S] [--trace FILE] [--json]\n"
               "       %s scenarios [--scenes N] [--seed S]\n"
               "          [--families a,b,...] [--margin X] [--out FILE]\n"
               "          [--fp32-only] [--cache DIR] [--json]\n"
               "       %s metrics [--scenes N] [--rate HZ] [--seed S]\n"
               "          [--json] [--out FILE] [--check]\n",
               argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

/// `upaq_tool profile`: trace eval-mode inference of an untrained scaled
/// detector (weights seeded, not learned — the workload shape is what is
/// being profiled) and confront the measurements with the analytic model.
int run_profile(int argc, char** argv) {
  std::string model_name = "pointpillars";
  std::string trace_path;
  int scenes = 4, runs = 3;
  bool packed = false, json_out = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--model")
      model_name = next();
    else if (arg == "--scenes")
      scenes = std::atoi(next());
    else if (arg == "--runs")
      runs = std::atoi(next());
    else if (arg == "--trace")
      trace_path = next();
    else if (arg == "--packed")
      packed = true;
    else if (arg == "--json")
      json_out = true;
    else
      usage(argv[0]);
  }
  const bool is_pp = model_name == "pointpillars";
  if (!is_pp && model_name != "smoke") usage(argv[0]);
  if (scenes < 1 || runs < 1) usage(argv[0]);

  prof::set_thread_name("main");
  const int threads = parallel::thread_count();
  Rng rng(4242);
  std::unique_ptr<detectors::Detector3D> model;
  if (is_pp)
    model = std::make_unique<detectors::PointPillars>(
        detectors::PointPillarsConfig::scaled(), rng);
  else
    model = std::make_unique<detectors::Smoke>(detectors::SmokeConfig::scaled(),
                                               rng);
  model->set_training(false);

  // --packed: compress with the HCK preset and lower onto the qnn integer
  // engines, so the profile covers the packed path (integer GOP/s line,
  // qgemm_macs counter, per-layer integer spans) instead of the float one.
  std::unique_ptr<core::QuantizedModel> qmodel;
  detectors::Detector3D* target = model.get();
  if (packed) {
    core::UpaqCompressor compressor(core::UpaqConfig::hck());
    auto result = compressor.compress(*model);
    model->set_training(false);
    qmodel = std::make_unique<core::QuantizedModel>(*model,
                                                    std::move(result.plan));
    target = qmodel.get();
  }

  Rng srng(99);
  data::SceneGenerator gen;
  std::vector<data::Scene> set;
  for (int i = 0; i < scenes; ++i) set.push_back(gen.sample(srng));

  // Warm-up pass: page in weights, spin up the pool lanes, then drop its
  // events so the report only covers steady-state passes.
  prof::set_enabled(true);
  std::size_t sink = target->detect(set.front()).size();
  prof::reset();
  obs::reset();  // snapshot covers only the timed passes below

  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < runs; ++r)
    for (const auto& scene : set) sink += target->detect(scene).size();
  (void)sink;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  const auto events = prof::snapshot_events();
  const int passes = runs * scenes;
  if (!json_out) {
    std::printf("%s profile: %d scene%s x %d run%s, %d thread%s\n\n",
                target->model_name(), scenes, scenes == 1 ? "" : "s", runs,
                runs == 1 ? "" : "s", threads, threads == 1 ? "" : "s");
    std::printf("%s\n", prof::stats_table(prof::aggregate(events)).c_str());

    const hw::CostModel cost_model(
        hw::device_spec(hw::Device::kJetsonOrinNano));
    const auto cmp = prof::build_cost_report(events, cost_model,
                                             target->cost_profile(), passes);
    std::printf(
        "measured (host CPU) vs modeled (Jetson Orin Nano), per pass:\n%s\n",
        prof::cost_report_table(cmp).c_str());

    std::printf("counters:\n");
    for (int c = 0; c < static_cast<int>(prof::Counter::kCount); ++c) {
      const auto counter = static_cast<prof::Counter>(c);
      std::printf(
          "  %-22s %llu\n", prof::counter_name(counter),
          static_cast<unsigned long long>(prof::counter_value(counter)));
    }
  }

  // Achieved float-GEMM throughput over the profiled window, plus the arena
  // footprint the zero-allocation forward path settled into.
  const double gflops =
      wall_ms > 0.0
          ? static_cast<double>(
                prof::counter_value(prof::Counter::kGemmFlops)) /
                (wall_ms * 1e6)
          : 0.0;
  // Integer GEMM work is counted in MACs; report it as ops (2 per MAC) so
  // the number is directly comparable with the float GFLOP/s line.
  const double igops =
      wall_ms > 0.0
          ? 2.0 *
                static_cast<double>(
                    prof::counter_value(prof::Counter::kQgemmMacs)) /
                (wall_ms * 1e6)
          : 0.0;
  const workspace::Stats ws = workspace::stats();
  if (!json_out) {
    std::printf("\ngemm throughput: %.2f GFLOP/s achieved over %.1f ms wall\n",
                gflops, wall_ms);
    if (igops > 0.0)
      std::printf("integer gemm throughput: %.2f GOP/s achieved over the "
                  "same window\n",
                  igops);
    std::printf("workspace: high-water %.1f KiB, %llu block allocs, "
                "%llu arena reuses\n",
                ws.high_water_bytes / 1024.0,
                static_cast<unsigned long long>(ws.block_allocs),
                static_cast<unsigned long long>(ws.reuses));

    // Per-worker utilization: total pool.job time per thread. Lanes missing
    // from the table never claimed a job in the profiled window.
    std::map<std::uint64_t, double> lane_ms;
    for (const auto& e : events)
      if (e.name == "pool.job") lane_ms[e.tid] += e.dur_ns * 1e-6;
    std::map<std::uint64_t, std::string> names;
    for (const auto& [tid, name] : prof::thread_names()) names[tid] = name;
    std::printf("\npool lanes (pool.job time across %d passes):\n", passes);
    for (const auto& [tid, ms] : lane_ms) {
      const auto it = names.find(tid);
      std::printf("  tid %llu %-16s %8.2f ms\n",
                  static_cast<unsigned long long>(tid),
                  it == names.end() ? "(unnamed)" : it->second.c_str(), ms);
    }
    if (lane_ms.empty()) std::printf("  (no pool jobs recorded)\n");
  } else {
    std::printf(
        "{\"model\": \"%s\", \"scenes\": %d, \"runs\": %d, "
        "\"threads\": %d, \"packed\": %s, \"wall_ms\": %.4f, "
        "\"gemm_gflops\": %.4f, \"int_gemm_gops\": %.4f, "
        "\"workspace_high_water_bytes\": %llu,\n \"obs\": %s}\n",
        target->model_name(), scenes, runs, threads,
        packed ? "true" : "false", wall_ms, gflops, igops,
        static_cast<unsigned long long>(ws.high_water_bytes),
        obs::snapshot_json(obs::snapshot()).c_str());
  }

  if (!trace_path.empty()) {
    const bool ok = prof::write_chrome_trace(trace_path);
    if (ok && !json_out)
      std::printf("\nwrote chrome trace to %s\n", trace_path.c_str());
    if (!ok)
      std::fprintf(stderr, "\nfailed to write %s\n", trace_path.c_str());
  }
  return 0;
}

/// `upaq_tool serve`: one open-loop load level against the streaming server,
/// with the serve stage spans and counters on screen (and in --trace).
int run_serve(int argc, char** argv) {
  serve::StreamConfig scfg;
  scfg.rate_hz = 40.0;
  serve::ServeConfig cfg;
  std::string trace_path;
  bool json_out = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenes")
      scfg.scenes = std::atoi(next());
    else if (arg == "--rate")
      scfg.rate_hz = std::atof(next());
    else if (arg == "--fixed")
      scfg.poisson = false;
    else if (arg == "--seed")
      scfg.seed = static_cast<std::uint64_t>(std::atoll(next()));
    else if (arg == "--batch")
      cfg.max_batch = std::atoi(next());
    else if (arg == "--capacity")
      cfg.queue_capacity = std::atoi(next());
    else if (arg == "--deadline")
      cfg.deadline_ms = std::atof(next());
    else if (arg == "--no-pipeline")
      cfg.pipeline = false;
    else if (arg == "--trace")
      trace_path = next();
    else if (arg == "--json")
      json_out = true;
    else
      usage(argv[0]);
  }
  if (scfg.scenes < 1 || scfg.rate_hz <= 0.0 || cfg.max_batch < 1 ||
      cfg.queue_capacity < 1)
    usage(argv[0]);

  prof::set_thread_name("main");
  const int threads = parallel::thread_count();
  Rng rng(4242);
  detectors::PointPillars model(detectors::PointPillarsConfig::scaled(), rng);
  model.set_training(false);

  if (!json_out)
    std::printf("serve: %d scene%s at %.1f Hz (%s arrivals), batch<=%d, "
                "queue %d, deadline %s, pipeline %s, %d thread%s\n",
                scfg.scenes, scfg.scenes == 1 ? "" : "s", scfg.rate_hz,
                scfg.poisson ? "Poisson" : "fixed-rate", cfg.max_batch,
                cfg.queue_capacity,
                cfg.deadline_ms > 0.0
                    ? (std::to_string(cfg.deadline_ms) + " ms").c_str()
                    : "off",
                cfg.pipeline ? "on" : "off", threads,
                threads == 1 ? "" : "s");

  const auto arrivals = serve::make_stream(scfg);
  // Warm-up: first-detect lazy allocation otherwise lands in the p99 tail.
  (void)model.detect(arrivals.front().scene);
  prof::set_enabled(true);
  prof::reset();
  obs::reset();  // snapshot covers only the measured load below
  const auto rep = serve::run_open_loop(model, arrivals, cfg);

  if (json_out) {
    std::printf("{\"threads\": %d, \"rate_hz\": %.4f, \"scenes\": %d,\n"
                " \"load\": %s,\n \"obs\": %s}\n",
                threads, scfg.rate_hz, scfg.scenes,
                serve::load_report_json(rep).c_str(),
                obs::snapshot_json(obs::snapshot()).c_str());
  } else {
    std::printf("\noffered %.1f Hz -> achieved %.1f Hz over %.1f ms wall\n",
                rep.offered_hz, rep.achieved_hz, rep.wall_ms);
    std::printf("latency (queue+pipeline): p50 %.2f  p90 %.2f  p99 %.2f  "
                "p999 %.2f ms\n",
                rep.p50_ms, rep.p90_ms, rep.p99_ms, rep.p999_ms);
    std::printf("shed: %.1f%% (%llu capacity, %llu deadline) of %llu "
                "submitted\n",
                100.0 * rep.shed_rate,
                static_cast<unsigned long long>(rep.stats.shed_capacity),
                static_cast<unsigned long long>(rep.stats.shed_deadline),
                static_cast<unsigned long long>(rep.stats.submitted));
    std::printf("batches:");
    for (std::size_t k = 1; k < rep.stats.batch_hist.size(); ++k)
      std::printf(" size %zu x%llu", k,
                  static_cast<unsigned long long>(rep.stats.batch_hist[k]));
    std::printf("\n\n%s\n",
                prof::stats_table(prof::aggregate(prof::snapshot_events()), 14)
                    .c_str());
  }

  if (!trace_path.empty()) {
    const bool ok = prof::write_chrome_trace(trace_path);
    if (ok && !json_out)
      std::printf("wrote chrome trace to %s\n", trace_path.c_str());
    if (!ok)
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
  }
  return 0;
}

/// `upaq_tool scenarios`: the robustness matrix, interactively. Runs fp32 and
/// (unless --fp32-only) the cached UPAQ LCK/HCK packed variants over the
/// selected scenario families and applies the critical-recall gate.
int run_scenarios(int argc, char** argv) {
  zoo::ScenarioSuiteConfig scfg;
  scfg.scenes_per_family = 10;
  zoo::RecallGateConfig gate_cfg;
  zoo::ZooConfig zcfg;
  std::string out_path;
  bool fp32_only = false, json_out = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenes") {
      scfg.scenes_per_family = std::atoi(next());
    } else if (arg == "--seed") {
      scfg.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--families") {
      const std::string list = next();
      std::size_t start = 0;
      while (start <= list.size()) {
        const auto comma = list.find(',', start);
        const std::string tok = list.substr(
            start, comma == std::string::npos ? list.npos : comma - start);
        data::ScenarioFamily family;
        if (!data::scenario_from_name(tok, family)) {
          std::fprintf(stderr, "unknown scenario family: %s\n", tok.c_str());
          return 2;
        }
        scfg.families.push_back(family);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--margin") {
      gate_cfg.margin = std::atof(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--fp32-only") {
      fp32_only = true;
    } else if (arg == "--cache") {
      zcfg.cache_dir = next();
    } else if (arg == "--json") {
      json_out = true;
    } else {
      usage(argv[0]);
    }
  }
  if (scfg.scenes_per_family < 1) usage(argv[0]);

  zoo::Zoo z(zcfg);
  std::vector<zoo::VariantReport> reports;
  auto print_report = [json_out](const zoo::VariantReport& rep) {
    if (json_out) return;
    std::printf("%-16s %-14s %7s %7s %7s %7s %9s %8s %8s\n",
                rep.variant.c_str(), "family", "mAP", "car", "ped", "cyc",
                "recall", "p50ms", "p99ms");
    for (const auto& fm : rep.families)
      std::printf("%-16s %-14s %7.2f %7.3f %7.3f %7.3f %5d/%-3d %8.2f %8.2f\n",
                  "", fm.family.c_str(), fm.map_percent,
                  fm.ap_for(eval::kClassCar), fm.ap_for(eval::kClassPedestrian),
                  fm.ap_for(eval::kClassCyclist), fm.critical.recalled,
                  fm.critical.critical, fm.p50_ms, fm.p99_ms);
  };

  auto fp32 = z.pointpillars();
  reports.push_back(zoo::run_scenario_suite(*fp32, "fp32", scfg));
  print_report(reports.back());

  if (!fp32_only) {
    zoo::ExperimentRunner runner(z);
    auto lck =
        runner.run(zoo::Framework::kUpaqLck, zoo::ModelKind::kPointPillars);
    auto hck =
        runner.run(zoo::Framework::kUpaqHck, zoo::ModelKind::kPointPillars);
    {
      core::QuantizedModel packed(*lck.model, lck.plan);
      reports.push_back(zoo::run_scenario_suite(packed, "upaq_lck_packed",
                                                scfg));
      print_report(reports.back());
    }
    {
      core::QuantizedModel packed(*hck.model, hck.plan);
      reports.push_back(zoo::run_scenario_suite(packed, "upaq_hck_packed",
                                                scfg));
      print_report(reports.back());
    }
  }

  // Gate before the snapshot so violation events land in the embedded log.
  std::vector<zoo::GateViolation> violations;
  for (std::size_t i = 1; i < reports.size(); ++i) {
    auto v = zoo::check_recall_gate(reports[0], reports[i], gate_cfg);
    violations.insert(violations.end(), v.begin(), v.end());
  }

  std::string doc = zoo::scenario_suite_json(reports, scfg);
  const auto close = doc.rfind('}');
  if (close != std::string::npos)
    doc.insert(close,
               ",\n  \"obs\": " + obs::snapshot_json(obs::snapshot()) + "\n");

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (!json_out) std::printf("wrote %s\n", out_path.c_str());
  }
  if (json_out) std::fputs(doc.c_str(), stdout);

  for (const auto& v : violations)
    std::fprintf(stderr,
                 "recall gate VIOLATION: %s/%s critical recall %.3f < fp32 "
                 "%.3f - margin %.2f\n",
                 v.variant.c_str(), v.family.c_str(), v.variant_recall,
                 v.base_recall, gate_cfg.margin);
  if (!json_out && violations.empty() && reports.size() > 1)
    std::printf("recall gate: OK (margin %.2f)\n", gate_cfg.margin);
  return violations.empty() ? 0 : 1;
}

/// `upaq_tool metrics`: drive a short serve workload so every metric family
/// has data, then emit the obs snapshot — Prometheus text exposition by
/// default, the JSON form with --json. --check self-validates the exposition
/// instead of trusting it (the CI metrics-snapshot smoke path).
int run_metrics(int argc, char** argv) {
  serve::StreamConfig scfg;
  scfg.scenes = 16;
  scfg.rate_hz = 40.0;
  bool json_out = false, check = false;
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenes")
      scfg.scenes = std::atoi(next());
    else if (arg == "--rate")
      scfg.rate_hz = std::atof(next());
    else if (arg == "--seed")
      scfg.seed = static_cast<std::uint64_t>(std::atoll(next()));
    else if (arg == "--json")
      json_out = true;
    else if (arg == "--out")
      out_path = next();
    else if (arg == "--check")
      check = true;
    else
      usage(argv[0]);
  }
  if (scfg.scenes < 1 || scfg.rate_hz <= 0.0) usage(argv[0]);

  Rng rng(4242);
  detectors::PointPillars model(detectors::PointPillarsConfig::scaled(), rng);
  model.set_training(false);
  const auto arrivals = serve::make_stream(scfg);
  (void)model.detect(arrivals.front().scene);
  obs::reset();
  serve::ServeConfig cfg;
  (void)serve::run_open_loop(model, arrivals, cfg);

  const auto snap = obs::snapshot();
  const std::string text =
      json_out ? obs::snapshot_json(snap) + "\n" : obs::prometheus_text(snap);

  if (check && !json_out) {
    std::string err;
    if (!obs::validate_prometheus(text, &err)) {
      std::fprintf(stderr, "metrics check FAILED: %s\n", err.c_str());
      return 1;
    }
  }
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  } else {
    std::fputs(text.c_str(), stdout);
  }
  if (check && !json_out)
    std::fprintf(stderr, "metrics check OK: exposition validates\n");
  return 0;
}

std::vector<int> parse_bits(const std::string& arg) {
  std::vector<int> bits;
  std::size_t start = 0;
  while (start < arg.size()) {
    const auto comma = arg.find(',', start);
    const std::string tok =
        arg.substr(start, comma == std::string::npos ? arg.npos : comma - start);
    bits.push_back(std::atoi(tok.c_str()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return bits;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "profile") == 0)
    return run_profile(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
    return run_serve(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "scenarios") == 0)
    return run_scenarios(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "metrics") == 0)
    return run_metrics(argc, argv);

  std::string model_name = "pointpillars";
  core::UpaqConfig cfg = core::UpaqConfig::lck();
  int finetune = 300;
  zoo::ZooConfig zcfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--model") {
      model_name = next();
    } else if (arg == "--preset") {
      const std::string preset = next();
      if (preset == "hck")
        cfg = core::UpaqConfig::hck();
      else if (preset == "lck")
        cfg = core::UpaqConfig::lck();
      else
        usage(argv[0]);
    } else if (arg == "--nonzeros") {
      cfg.nonzeros = std::atoi(next());
    } else if (arg == "--bits") {
      cfg.quant_bits = parse_bits(next());
    } else if (arg == "--candidates") {
      cfg.candidates = std::atoi(next());
    } else if (arg == "--connectivity") {
      cfg.connectivity = std::atof(next());
    } else if (arg == "--finetune") {
      finetune = std::atoi(next());
    } else if (arg == "--no-finetune") {
      finetune = 0;
    } else if (arg == "--alpha") {
      cfg.es.alpha = std::atof(next());
    } else if (arg == "--beta") {
      cfg.es.beta = std::atof(next());
    } else if (arg == "--gamma") {
      cfg.es.gamma = std::atof(next());
    } else if (arg == "--cache") {
      zcfg.cache_dir = next();
    } else {
      usage(argv[0]);
    }
  }

  const bool is_pp = model_name == "pointpillars";
  if (!is_pp && model_name != "smoke") usage(argv[0]);

  zoo::Zoo z(zcfg);
  std::unique_ptr<detectors::Detector3D> model;
  std::vector<hw::LayerProfile> full_profile;
  double base_latency_ms = 0.0, base_energy_j = 0.0, eval_iou = 0.25;
  if (is_pp) {
    model = z.pointpillars();
    full_profile = detectors::PointPillars::cost_profile_for(
        detectors::PointPillarsConfig::full());
    base_latency_ms = 35.98;
    base_energy_j = 0.863;
  } else {
    model = z.smoke();
    full_profile =
        detectors::Smoke::cost_profile_for(detectors::SmokeConfig::full());
    base_latency_ms = 127.48;
    base_energy_j = 25.85;
    eval_iou = 0.10;
  }
  cfg.es_profile = full_profile;

  const double base_map =
      detectors::evaluate_map(*model, z.dataset().test, eval_iou);
  std::printf("%s: %lld params, base mAP@%.2f = %.2f\n", model->model_name(),
              static_cast<long long>(model->parameter_count()), eval_iou,
              base_map);
  std::printf("config: nonzeros=%d bits={", cfg.nonzeros);
  for (std::size_t i = 0; i < cfg.quant_bits.size(); ++i)
    std::printf("%s%d", i ? "," : "", cfg.quant_bits[i]);
  std::printf("} candidates=%d connectivity=%.2f Es=(%.2f,%.2f,%.2f)\n",
              cfg.candidates, cfg.connectivity, cfg.es.alpha, cfg.es.beta,
              cfg.es.gamma);

  core::UpaqCompressor compressor(cfg);
  const auto result = compressor.compress(*model);
  for (const auto& d : result.decisions)
    std::printf("  group %-16s pattern=%-18s bits=%2d sparsity=%.2f "
                "sqnr=%.1fdB Es=%.3f\n",
                d.root.c_str(), d.pattern.empty() ? "-" : d.pattern.c_str(),
                d.bits, d.sparsity, d.sqnr_db, d.es);

  if (finetune > 0) {
    std::printf("fine-tuning %d iterations...\n", finetune);
    z.finetune(*model, finetune, 1e-3f);
    core::requantize(*model, result.plan);
    z.finetune(*model, finetune / 4, 3e-4f);
    core::requantize(*model, result.plan);
  }

  const double final_map =
      detectors::evaluate_map(*model, z.dataset().test, eval_iou);
  const auto size = core::model_size(*model, result.plan);
  const hw::CalibratedCost orin(hw::device_spec(hw::Device::kJetsonOrinNano),
                                full_profile, base_latency_ms * 1e-3,
                                base_energy_j);
  const auto cost = orin.evaluate(core::apply_plan(full_profile, result.plan));

  std::printf("\nresult: mAP %.2f -> %.2f | compression %.2fx | Orin "
              "%.2f ms -> %.2f ms | %.3f J -> %.3f J\n",
              base_map, final_map, size.ratio(), base_latency_ms,
              cost.latency_s * 1e3, base_energy_j, cost.energy_j);
  return 0;
}
