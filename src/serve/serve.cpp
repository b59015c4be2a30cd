#include "serve/serve.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "tensor/check.h"

namespace upaq::serve {

namespace {

/// The steady clock (obs::now_ns) in milliseconds.
double steady_ms() { return static_cast<double>(obs::now_ns()) / 1e6; }

/// Histogram value of a ms duration. Negative deltas can't happen with a
/// monotonic clock, but clamp anyway before the unsigned conversion.
std::uint64_t hist_ns(double ms) {
  return static_cast<std::uint64_t>(std::max(ms, 0.0) * 1e6);
}

}  // namespace

Server::Server(detectors::PointPillars& model, ServeConfig cfg)
    : model_(model), cfg_(std::move(cfg)) {
  UPAQ_CHECK(cfg_.max_batch >= 1, "serve: max_batch must be >= 1");
  UPAQ_CHECK(cfg_.queue_capacity >= 1, "serve: queue_capacity must be >= 1");
  clock_ = cfg_.clock ? cfg_.clock : Clock(&steady_ms);
  t0_ = clock_();
  real_t0_ = steady_ms();
  stats_.batch_hist.assign(static_cast<std::size_t>(cfg_.max_batch) + 1, 0);
}

double Server::now_ms() const { return clock_() - t0_; }

double Server::real_now_ms() const { return steady_ms() - real_t0_; }

void Server::shed(Request req, double now, bool deadline) {
  Result r;
  r.id = req.id;
  r.priority = req.priority;
  r.shed = true;
  r.arrival_ms = req.arrival_ms;
  r.done_ms = now;
  r.queue_ms = now - req.arrival_ms;
  r.total_ms = r.queue_ms;
  done_.push_back(std::move(r));
  if (deadline)
    ++stats_.shed_deadline;
  else
    ++stats_.shed_capacity;
  obs::add(deadline ? obs::Counter::kShedDeadline
                    : obs::Counter::kShedCapacity);
  obs::log_event(obs::Level::kWarn, "serve.shed",
                 {obs::fuint("req_id", req.id),
                  obs::fint("priority", req.priority),
                  obs::fuint("queue_depth", queue_.size()),
                  obs::fstr("reason", deadline ? "deadline" : "capacity"),
                  obs::fnum("queued_ms", now - req.arrival_ms)});
}

std::uint64_t Server::submit(data::Scene scene, int priority) {
  const double now = now_ms();
  ++stats_.submitted;
  obs::add(obs::Counter::kSubmitted);
  Request r;
  r.id = next_id_++;
  r.priority = priority;
  r.arrival_ms = now;
  r.real_arrival_ms = real_now_ms();
  r.scene = std::move(scene);
  const std::uint64_t id = r.id;

  if (queue_.size() >= static_cast<std::size_t>(cfg_.queue_capacity)) {
    // Capacity shed: the oldest request of the lowest priority at or below
    // the incoming one. The queue is FIFO, so the first match is the
    // oldest. If everything queued outranks the newcomer, the newcomer
    // itself is the victim.
    auto victim = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it)
      if (it->priority <= r.priority &&
          (victim == queue_.end() || it->priority < victim->priority))
        victim = it;
    if (victim == queue_.end()) {
      shed(std::move(r), now, /*deadline=*/false);
      return id;
    }
    shed(std::move(*victim), now, /*deadline=*/false);
    queue_.erase(victim);
  }
  queue_.push_back(std::move(r));
  obs::gauge_set(obs::Gauge::kQueueDepth,
                 static_cast<std::int64_t>(queue_.size()));
  return id;
}

std::optional<Server::InFlight> Server::form_batch(double now) {
  if (cfg_.deadline_ms > 0.0) {
    // Deadline shed: drop-oldest-past-deadline. The queue is arrival
    // ordered, so one forward pass sheds oldest-first.
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (now - it->arrival_ms > cfg_.deadline_ms) {
        shed(std::move(*it), now, /*deadline=*/true);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (queue_.empty()) return std::nullopt;

  InFlight b;
  b.start_ms = now;
  b.real_start_ms = real_now_ms();
  while (static_cast<int>(b.reqs.size()) < cfg_.max_batch &&
         !queue_.empty()) {
    // Highest priority first; the strict '>' keeps the scan at the oldest
    // request within the winning priority (FIFO within priority).
    auto best = queue_.begin();
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it)
      if (it->priority > best->priority) best = it;
    b.reqs.push_back(std::move(*best));
    queue_.erase(best);
  }
  ++stats_.batches;
  ++stats_.batch_hist[b.reqs.size()];
  obs::add(obs::Counter::kBatches);
  obs::gauge_set(obs::Gauge::kBatchFill,
                 static_cast<std::int64_t>(b.reqs.size()));
  obs::gauge_set(obs::Gauge::kQueueDepth,
                 static_cast<std::int64_t>(queue_.size()));
  return b;
}

void Server::run_pre(InFlight& b) const {
  prof::Span span("serve.pre", std::to_string(b.reqs.size()) + " scenes");
  b.pre_start_ms = real_now_ms();
  b.pillars.reserve(b.reqs.size());
  for (const Request& req : b.reqs)
    b.pillars.push_back(model_.pillarize(req.scene));
  b.pre_dur_ms = real_now_ms() - b.pre_start_ms;
  obs::record(obs::Hist::kServePre, hist_ns(b.pre_dur_ms));
}

void Server::run_mid(InFlight& b) {
  prof::Span span("serve.detect", std::to_string(b.reqs.size()) + " scenes");
  b.mid_start_ms = real_now_ms();
  std::vector<const detectors::PointPillars::Pillars*> ptrs;
  ptrs.reserve(b.pillars.size());
  for (const auto& p : b.pillars) ptrs.push_back(&p);
  b.heads = model_.forward_batch(ptrs);
  b.mid_dur_ms = real_now_ms() - b.mid_start_ms;
  obs::record(obs::Hist::kServeDetect, hist_ns(b.mid_dur_ms));
}

void Server::run_post(InFlight& b) const {
  prof::Span span("serve.post", std::to_string(b.reqs.size()) + " scenes");
  b.post_start_ms = real_now_ms();
  b.dets.reserve(b.heads.size());
  for (const auto& h : b.heads)
    b.dets.push_back(model_.decode(h.cls_logits, h.reg_out));
  b.post_dur_ms = real_now_ms() - b.post_start_ms;
  obs::record(obs::Hist::kServePost, hist_ns(b.post_dur_ms));
}

void Server::retire(InFlight& b, double now) {
  const int batch_size = static_cast<int>(b.reqs.size());
  const double real_now = real_now_ms();
  std::size_t slowest = 0;
  double slowest_total = -1.0;
  for (std::size_t i = 0; i < b.reqs.size(); ++i) {
    Result r;
    r.id = b.reqs[i].id;
    r.priority = b.reqs[i].priority;
    r.detections = std::move(b.dets[i]);
    r.batch = batch_size;
    r.arrival_ms = b.reqs[i].arrival_ms;
    r.start_ms = b.start_ms;
    r.done_ms = now;
    r.queue_ms = b.start_ms - r.arrival_ms;
    r.pipeline_ms = now - b.start_ms;
    r.total_ms = now - r.arrival_ms;
    // Queue and total use the configured clock: they must agree with Result
    // and the virtual clocks tests drive. The stage histograms above time
    // real work, so they use the real clock.
    obs::record(obs::Hist::kServeQueue, hist_ns(r.queue_ms));
    obs::record(obs::Hist::kServeTotal, hist_ns(r.total_ms));
    done_.push_back(std::move(r));
    ++stats_.completed;
    const double real_total = real_now - b.reqs[i].real_arrival_ms;
    if (real_total > slowest_total) {
      slowest_total = real_total;
      slowest = i;
    }
  }
  if (!b.reqs.empty() && obs::enabled()) {
    // Tail-biased exemplar: offer this batch's slowest member (real clock);
    // the slot keeps the slowest request seen since the last reset.
    const Request& req = b.reqs[slowest];
    obs::RequestTrace t;
    t.req_id = req.id;
    t.priority = req.priority;
    t.batch = batch_size;
    t.total_ms = slowest_total;
    t.spans = {{"queue", req.real_arrival_ms,
                b.real_start_ms - req.real_arrival_ms},
               {"pre", b.pre_start_ms, b.pre_dur_ms},
               {"detect", b.mid_start_ms, b.mid_dur_ms},
               {"post", b.post_start_ms, b.post_dur_ms}};
    obs::offer_exemplar(t);
  }
}

bool Server::step() {
  const double now = now_ms();
  if (!pre_) pre_ = form_batch(now);
  if (!pre_ && !mid_ && !post_) return false;

  // The three stage slots hold disjoint batches and the stage bodies touch
  // disjoint model state (pillarize/decode are const-pure; forward_batch
  // owns the layer caches), so they may run concurrently. invoke() inlines
  // in index order at one thread, and each stage is internally
  // deterministic, so the slot contents after this call are identical at
  // every thread count — pipelining changes wall-clock, never results.
  std::vector<std::function<void()>> stages;
  if (pre_) stages.push_back([this] { run_pre(*pre_); });
  if (mid_) stages.push_back([this] { run_mid(*mid_); });
  if (post_) stages.push_back([this] { run_post(*post_); });
  {
    prof::Span span("serve.step");
    if (cfg_.pipeline) {
      parallel::invoke(stages);
    } else {
      for (const auto& fn : stages) fn();
    }
  }

  if (post_) {
    retire(*post_, now_ms());
    post_.reset();
  }
  post_ = std::move(mid_);
  mid_ = std::move(pre_);
  pre_.reset();
  return true;
}

void Server::drain() {
  while (step()) {
  }
}

bool Server::idle() const {
  return queue_.empty() && !pre_ && !mid_ && !post_;
}

std::vector<Result> Server::poll() {
  std::vector<Result> out;
  out.swap(done_);
  return out;
}

LoadReport run_open_loop(detectors::PointPillars& model,
                         const std::vector<Arrival>& arrivals,
                         const ServeConfig& cfg) {
  Server server(model, cfg);
  std::size_t next = 0;
  while (next < arrivals.size() || !server.idle()) {
    const double now = server.now_ms();
    while (next < arrivals.size() && arrivals[next].due_ms <= now)
      server.submit(arrivals[next++].scene);  // open loop: copy, never delay
    if (!server.step() && next < arrivals.size()) std::this_thread::yield();
  }

  LoadReport rep;
  rep.wall_ms = server.now_ms();
  rep.stats = server.stats();
  rep.results = server.poll();
  std::sort(rep.results.begin(), rep.results.end(),
            [](const Result& a, const Result& b) { return a.id < b.id; });

  if (!arrivals.empty() && arrivals.back().due_ms > 0.0)
    rep.offered_hz = static_cast<double>(arrivals.size()) /
                     (arrivals.back().due_ms / 1000.0);
  if (rep.wall_ms > 0.0)
    rep.achieved_hz =
        static_cast<double>(rep.stats.completed) / (rep.wall_ms / 1000.0);
  if (rep.stats.submitted > 0)
    rep.shed_rate = static_cast<double>(rep.stats.shed_capacity +
                                        rep.stats.shed_deadline) /
                    static_cast<double>(rep.stats.submitted);

  std::vector<double> lat;
  lat.reserve(rep.results.size());
  for (const Result& r : rep.results)
    if (!r.shed) lat.push_back(r.total_ms);
  std::sort(lat.begin(), lat.end());
  rep.p50_ms = prof::percentile(lat, 0.50);
  rep.p90_ms = prof::percentile(lat, 0.90);
  rep.p99_ms = prof::percentile(lat, 0.99);
  rep.p999_ms = prof::percentile(lat, 0.999);
  return rep;
}

std::string load_report_json(const LoadReport& rep) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"offered_hz\": %.4f, \"achieved_hz\": %.4f, "
                "\"wall_ms\": %.4f, \"p50_ms\": %.4f, \"p90_ms\": %.4f, "
                "\"p99_ms\": %.4f, \"p999_ms\": %.4f, \"submitted\": %llu, "
                "\"completed\": %llu, \"shed_capacity\": %llu, "
                "\"shed_deadline\": %llu, \"shed_rate\": %.4f, "
                "\"batches\": %llu, \"batch_hist\": [",
                rep.offered_hz, rep.achieved_hz, rep.wall_ms, rep.p50_ms,
                rep.p90_ms, rep.p99_ms, rep.p999_ms,
                static_cast<unsigned long long>(rep.stats.submitted),
                static_cast<unsigned long long>(rep.stats.completed),
                static_cast<unsigned long long>(rep.stats.shed_capacity),
                static_cast<unsigned long long>(rep.stats.shed_deadline),
                rep.shed_rate,
                static_cast<unsigned long long>(rep.stats.batches));
  std::string out = buf;
  for (std::size_t k = 0; k < rep.stats.batch_hist.size(); ++k) {
    std::snprintf(buf, sizeof(buf), "%s%llu", k ? ", " : "",
                  static_cast<unsigned long long>(rep.stats.batch_hist[k]));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace upaq::serve
