#include "tensor/workspace.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/obs.h"
#include "prof/prof.h"
#include "tensor/check.h"

namespace upaq::workspace {

namespace {

constexpr std::size_t kMinBlockBytes = 1 << 16;  // 64 KiB seed block

std::atomic<bool> g_reuse{true};

/// Registry of every arena Rep ever created, so stats() can aggregate across
/// threads (including pool workers). Reps are owned jointly by the creating
/// thread and the registry, mirroring prof's thread-buffer pattern.
struct RepRegistry;

std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) & ~(a - 1);
}

}  // namespace

struct Arena::Block {
  std::unique_ptr<unsigned char[]> data;
  std::size_t size = 0;
};

struct Arena::Rep {
  std::vector<Block> blocks;
  // Stats are written only by the owning thread; stats() reads them from
  // other threads, hence relaxed atomics rather than plain fields.
  std::atomic<std::uint64_t> block_allocs{0};
  std::atomic<std::uint64_t> reuses{0};
  std::atomic<std::uint64_t> high_water{0};
  std::atomic<std::uint64_t> capacity{0};
};

namespace {

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<Arena::Rep>>& registry() {
  static auto* r = new std::vector<std::shared_ptr<Arena::Rep>>();
  return *r;
}

std::shared_ptr<Arena::Rep> make_registered_rep() {
  auto rep = std::make_shared<Arena::Rep>();
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  registry().push_back(rep);
  return rep;
}

}  // namespace

Arena::~Arena() = default;  // Rep stays alive via the registry

Arena::Rep* Arena::rep() {
  if (rep_ == nullptr) {
    // The shared_ptr in the registry keeps the Rep alive for stats() even
    // after the owning thread (and this Arena) is gone; the raw pointer here
    // is valid for the arena's whole life because the registry never shrinks.
    rep_ = make_registered_rep().get();
  }
  return rep_;
}

void* Arena::alloc(std::size_t bytes, std::size_t align) {
  UPAQ_CHECK(align != 0 && (align & (align - 1)) == 0 && align <= 4096,
             "workspace: alignment must be a power of two <= 4096");
  Rep& r = *rep();
  // Live accounting adds the full alignment slack so a coalesced single
  // block sized to the high-water mark always fits the same allocation
  // sequence regardless of where alignment padding lands.
  live_ += bytes + align;
  const std::uint64_t hw = r.high_water.load(std::memory_order_relaxed);
  if (live_ > hw) {
    r.high_water.store(live_, std::memory_order_relaxed);
    // Process-wide ratchet: the gauge keeps the largest per-thread arena
    // high-water mark (the sizing number a coalesced block needs).
    obs::gauge_max(obs::Gauge::kArenaHighWater,
                   static_cast<std::int64_t>(live_));
  }

  while (cur_ < r.blocks.size()) {
    const std::size_t off = align_up(off_, align);
    if (off + bytes <= r.blocks[cur_].size) {
      off_ = off + bytes;
      r.reuses.fetch_add(1, std::memory_order_relaxed);
      return r.blocks[cur_].data.get() + off;
    }
    // Current block exhausted: move on (its tail is wasted until the next
    // release-to-empty coalesces the blocks).
    ++cur_;
    off_ = 0;
  }

  // Grow: geometric doubling bounded below by the request itself.
  std::size_t size = std::max<std::size_t>(kMinBlockBytes, bytes + align);
  size = std::max(size, static_cast<std::size_t>(
                            r.capacity.load(std::memory_order_relaxed)) *
                            2);
  Block b;
  b.data = std::make_unique<unsigned char[]>(size);
  b.size = size;
  r.capacity.fetch_add(size, std::memory_order_relaxed);
  r.block_allocs.fetch_add(1, std::memory_order_relaxed);
  prof::add(prof::Counter::kWorkspaceBytes, size);
  r.blocks.push_back(std::move(b));
  cur_ = r.blocks.size() - 1;
  const std::size_t off =
      align_up(reinterpret_cast<std::size_t>(r.blocks[cur_].data.get()),
               align) -
      reinterpret_cast<std::size_t>(r.blocks[cur_].data.get());
  off_ = off + bytes;
  return r.blocks[cur_].data.get() + off;
}

void Arena::release(const Mark& m) {
  cur_ = m.block;
  off_ = m.offset;
  live_ = m.live;
  if (live_ != 0 || rep_ == nullptr) return;
  Rep& r = *rep_;
  if (!g_reuse.load(std::memory_order_relaxed)) {
    // Ablation mode: drop everything so the next pass pays its allocations.
    if (!r.blocks.empty()) {
      r.capacity.store(0, std::memory_order_relaxed);
      r.blocks.clear();
      cur_ = off_ = 0;
    }
    return;
  }
  if (r.blocks.size() <= 1) return;
  // Fragmented warm-up: replace the block chain with one block that covers
  // the high-water mark. This is the last heap allocation a steady-state
  // workload ever sees — afterwards every pass replays inside this block.
  const std::size_t want = align_up(
      static_cast<std::size_t>(r.high_water.load(std::memory_order_relaxed)),
      4096);
  Block b;
  b.data = std::make_unique<unsigned char[]>(want);
  b.size = want;
  r.blocks.clear();
  r.blocks.push_back(std::move(b));
  r.capacity.store(want, std::memory_order_relaxed);
  r.block_allocs.fetch_add(1, std::memory_order_relaxed);
  prof::add(prof::Counter::kWorkspaceBytes, want);
  cur_ = off_ = 0;
}

std::uint64_t Arena::block_allocs() const {
  return rep_ ? rep_->block_allocs.load(std::memory_order_relaxed) : 0;
}
std::uint64_t Arena::reuses() const {
  return rep_ ? rep_->reuses.load(std::memory_order_relaxed) : 0;
}
std::uint64_t Arena::high_water() const {
  return rep_ ? rep_->high_water.load(std::memory_order_relaxed) : 0;
}
std::uint64_t Arena::capacity() const {
  return rep_ ? rep_->capacity.load(std::memory_order_relaxed) : 0;
}

Arena& thread_arena() {
  thread_local Arena arena;
  return arena;
}

Stats stats() {
  Stats s;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& rep : registry()) {
    s.block_allocs += rep->block_allocs.load(std::memory_order_relaxed);
    s.reuses += rep->reuses.load(std::memory_order_relaxed);
    s.high_water_bytes += rep->high_water.load(std::memory_order_relaxed);
    s.capacity_bytes += rep->capacity.load(std::memory_order_relaxed);
  }
  return s;
}

void set_reuse(bool on) { g_reuse.store(on, std::memory_order_relaxed); }
bool reuse_enabled() { return g_reuse.load(std::memory_order_relaxed); }

}  // namespace upaq::workspace
