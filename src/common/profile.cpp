// Profiling registry + process-wide allocation instrumentation.
//
// The replaced global operator new/delete pairs below forward to
// malloc/free and bump relaxed atomics. They are always on: the cost is two
// relaxed fetch_adds per allocation, far below malloc itself, and having
// them unconditionally means every bench and test can report allocation
// behavior without a special build. The counters deliberately do NOT track
// live bytes (sized deletes are unreliable through ABI boundaries); they
// track cumulative allocation traffic, which is the quantity the arena work
// is judged on.

#include "common/profile.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string_view>

#include "common/json.hpp"

namespace caqr::prof {

namespace {

struct Node {
  Counter counter;
  Node* next;
  explicit Node(const char* name) : counter(name), next(nullptr) {}
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

Node*& registry_head() {
  static Node* head = nullptr;
  return head;
}

std::atomic<long long> g_alloc_count{0};
std::atomic<long long> g_alloc_bytes{0};
std::atomic<long long> g_free_count{0};

struct HistNode {
  Histogram hist;
  HistNode* next;
  explicit HistNode(std::string name) : hist(std::move(name)), next(nullptr) {}
};

HistNode*& hist_registry_head() {
  static HistNode* head = nullptr;
  return head;
}

}  // namespace

Counter& counter(const char* name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (Node* n = registry_head(); n != nullptr; n = n->next) {
    if (std::string_view(n->counter.name) == name) return n->counter;
  }
  // Leaked by design: counters live for the process.
  Node* n = new Node(name);
  n->next = registry_head();
  registry_head() = n;
  return n->counter;
}

std::vector<Sample> snapshot() {
  std::vector<Sample> out;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    for (Node* n = registry_head(); n != nullptr; n = n->next) {
      Sample s;
      s.name = n->counter.name;
      s.count = n->counter.count.load(std::memory_order_relaxed);
      s.value = n->counter.value.load(std::memory_order_relaxed);
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

void reset() {
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    for (Node* n = registry_head(); n != nullptr; n = n->next) {
      n->counter.count.store(0, std::memory_order_relaxed);
      n->counter.value.store(0, std::memory_order_relaxed);
    }
    for (HistNode* n = hist_registry_head(); n != nullptr; n = n->next) {
      n->hist.reset();
    }
  }
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_free_count.store(0, std::memory_order_relaxed);
}

long long Histogram::count() const {
  long long c = 0;
  for (int i = 0; i < kBuckets; ++i) {
    c += buckets_[i].load(std::memory_order_relaxed);
  }
  return c;
}

double Histogram::mean_ns() const {
  const long long c = count();
  return c > 0 ? static_cast<double>(
                     total_ns_.load(std::memory_order_relaxed)) /
                     static_cast<double>(c)
               : 0.0;
}

double Histogram::quantile(double q) const {
  long long counts[kBuckets];
  long long total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the requested quantile (1-based), then linear interpolation
  // across the width of the bucket it lands in.
  const double rank = q * static_cast<double>(total - 1) + 1.0;
  long long seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(seen + counts[i]) >= rank) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(1ULL << (i - 1));
      const double hi = static_cast<double>(
          i >= 63 ? 2.0 * lo : static_cast<double>(1ULL << i));
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * (frac < 0 ? 0 : (frac > 1 ? 1 : frac));
    }
    seen += counts[i];
  }
  return static_cast<double>(1ULL << (kBuckets - 2));
}

void Histogram::reset() {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  total_ns_.store(0, std::memory_order_relaxed);
}

Histogram& histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (HistNode* n = hist_registry_head(); n != nullptr; n = n->next) {
    if (n->hist.name() == name) return n->hist;
  }
  // Leaked by design, like counters: histograms live for the process.
  HistNode* n = new HistNode(name);
  n->next = hist_registry_head();
  hist_registry_head() = n;
  return n->hist;
}

std::vector<HistogramSample> histogram_snapshot() {
  std::vector<HistogramSample> out;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    for (HistNode* n = hist_registry_head(); n != nullptr; n = n->next) {
      HistogramSample s;
      s.name = n->hist.name();
      s.count = n->hist.count();
      s.mean_ns = n->hist.mean_ns();
      s.p50_ns = n->hist.quantile(0.50);
      s.p95_ns = n->hist.quantile(0.95);
      s.p99_ns = n->hist.quantile(0.99);
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramSample& a, const HistogramSample& b) {
              return a.name < b.name;
            });
  return out;
}

long long allocation_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
long long allocation_bytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}
long long free_count() {
  return g_free_count.load(std::memory_order_relaxed);
}

std::string to_json() {
  json::Writer w;
  w.begin_object().key("counters").begin_object();
  for (const auto& c : snapshot()) {
    w.key(c.name).begin_object();
    w.field("count", c.count).field("value", c.value).end_object();
  }
  w.end_object().key("histograms").begin_object();
  for (const auto& h : histogram_snapshot()) {
    w.key(h.name).begin_object();
    w.field("count", h.count).field("mean_ns", h.mean_ns);
    w.field("p50_ns", h.p50_ns).field("p95_ns", h.p95_ns);
    w.field("p99_ns", h.p99_ns).end_object();
  }
  w.end_object().key("allocations").begin_object();
  w.field("count", allocation_count()).field("bytes", allocation_bytes());
  w.field("frees", free_count()).end_object();
  w.end_object();
  return w.str();
}

namespace detail {

void* counted_alloc(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<long long>(size),
                          std::memory_order_relaxed);
  if (align > alignof(std::max_align_t)) {
    const std::size_t bytes = (size + align - 1) / align * align;
    return std::aligned_alloc(align, bytes);
  }
  return std::malloc(size != 0 ? size : 1);
}

void counted_free(void* p) {
  if (p != nullptr) g_free_count.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace detail

}  // namespace caqr::prof

// Process-wide replacement of the replaceable allocation functions
// ([new.delete]); aligned and nothrow forms included so every allocation in
// the process is counted.

void* operator new(std::size_t size) {
  void* p = caqr::prof::detail::counted_alloc(size, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = caqr::prof::detail::counted_alloc(size, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = caqr::prof::detail::counted_alloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = caqr::prof::detail::counted_alloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return caqr::prof::detail::counted_alloc(size, 0);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return caqr::prof::detail::counted_alloc(size, 0);
}

void operator delete(void* p) noexcept { caqr::prof::detail::counted_free(p); }
void operator delete[](void* p) noexcept {
  caqr::prof::detail::counted_free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  caqr::prof::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  caqr::prof::detail::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  caqr::prof::detail::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  caqr::prof::detail::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  caqr::prof::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  caqr::prof::detail::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  caqr::prof::detail::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  caqr::prof::detail::counted_free(p);
}
