#include "obs/tracer.hpp"
// ilu-lint: atomics-floor(relaxed) - the tracer uid counter only needs uniqueness; the record-cap count is bumped and reset under shard locks

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <unordered_map>

#include "util/dcheck.hpp"

namespace ilu {

namespace {
std::atomic<std::uint64_t> g_tracer_uid{0};

/// Per-thread stack of open ScopedSpans (shared across tracers: nesting is a
/// property of the thread's call stack, not of any one tracer). The name is
/// the ScopedSpan's static string, kept so debug-check failures can say what
/// the thread was doing (see span_dcheck_context below).
struct OpenSpan {
  SpanId id = kNoSpan;
  const char* name = nullptr;
};
thread_local std::vector<OpenSpan> t_span_stack;

/// ILU_DCHECK context provider: report the innermost open span on the
/// failing thread, so an ownership-auditor abort names the operation (e.g.
/// "invoke") instead of just a file:line deep in the runtime.
void span_dcheck_context(char* buf, std::size_t n) {
  if (t_span_stack.empty()) return;
  const OpenSpan& s = t_span_stack.back();
  std::snprintf(buf, n, "%s #%llu, depth %zu",
                s.name != nullptr ? s.name : "?",
                static_cast<unsigned long long>(s.id), t_span_stack.size());
}

/// Registered at static-initialization time, before any simulation threads
/// exist (the hook contract in util/dcheck.hpp).
const struct DcheckContextRegistrar {
  DcheckContextRegistrar() {
    detail::g_dcheck_context = &span_dcheck_context;
  }
} g_dcheck_context_registrar;

/// An interned span name: a dense id (index into the shards' SpanStats
/// arrays) and a view of the table's copy of the name.
struct SpanName {
  std::uint32_t id = 0;
  std::string_view name;
};

/// The process-wide span-name table. Names live in a deque, whose elements
/// never move, so every view handed out stays valid; the table is never
/// shrunk.
class SpanNameTable {
 public:
  SpanName intern(std::string_view name) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return {it->second, names_[it->second]};
    const auto id = static_cast<std::uint32_t>(names_.size());
    const std::string& stored = names_.emplace_back(name);
    ids_.emplace(stored, id);
    return {id, stored};
  }

  std::string_view name(std::uint32_t id) {
    std::lock_guard<std::mutex> lk(mu_);
    return names_[id];
  }

 private:
  std::mutex mu_;
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, std::uint32_t> ids_;
};

SpanNameTable& span_name_table() {
  // Never destroyed: a span record held by a static object must not
  // outlive its name.
  static auto* table = new SpanNameTable;
  return *table;
}

/// Per-thread open-addressed cache in front of the table, keyed by the
/// caller's pointer (span names are almost always string literals) and
/// confirmed by content, so a reused buffer now holding another name misses
/// instead of aliasing. Filled past 3/4 (many distinct buffers), it starts
/// over.
class SpanNameCache {
 public:
  SpanName lookup(std::string_view name) {
    if (name.data() == nullptr) name = "";
    std::size_t i = slot_of(name.data());
    for (;; i = (i + 1) % kSlots) {
      Slot& s = slots_[i];
      if (s.key == nullptr) break;
      if (s.key == name.data() && s.name.name == name) return s.name;
    }
    if (used_ + 1 > kSlots * 3 / 4) {
      slots_ = {};
      used_ = 0;
      i = slot_of(name.data());
    }
    ++used_;
    slots_[i] = {name.data(), span_name_table().intern(name)};
    return slots_[i].name;
  }

 private:
  static constexpr unsigned kBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kBits;
  struct Slot {
    const char* key = nullptr;
    SpanName name;
  };
  static std::size_t slot_of(const char* p) {
    return static_cast<std::size_t>(
        (reinterpret_cast<std::uintptr_t>(p) * 0x9E3779B97F4A7C15ull) >>
        (64 - kBits));
  }
  std::array<Slot, kSlots> slots_{};
  std::size_t used_ = 0;
};

SpanName cached_span_name(std::string_view name) {
  thread_local SpanNameCache cache;
  return cache.lookup(name);
}

SpanStats& stats_at(std::vector<SpanStats>& stats, std::uint32_t id) {
  if (id >= stats.size()) stats.resize(id + 1);
  return stats[id];
}
}  // namespace

TransactionTracer::TransactionTracer(bool enabled, std::size_t max_records)
    : uid_(g_tracer_uid.fetch_add(1, std::memory_order_relaxed) + 1),
      record_cap_(max_records),
      enabled_(enabled) {}

TransactionTracer::~TransactionTracer() = default;

TransactionTracer::Shard& TransactionTracer::local_shard() {
  // Cache shard pointers per (thread, tracer uid). Entries for destroyed
  // tracers are never looked up again (uids are unique), so stale pointers
  // are harmless; they cost a few bytes per tracer a thread ever touched.
  thread_local std::unordered_map<std::uint64_t, Shard*> t_shards;
  auto it = t_shards.find(uid_);
  if (it != t_shards.end()) return *it->second;
  std::lock_guard<std::mutex> lk(shards_mu_);
  auto shard = std::make_unique<Shard>();
  shard->index = static_cast<std::uint32_t>(shards_.size());
  Shard* raw = shard.get();
  shards_.push_back(std::move(shard));
  t_shards.emplace(uid_, raw);
  return *raw;
}

SpanId TransactionTracer::record(TransactionId tx, std::string_view name,
                                 TimePoint start, Duration dur,
                                 SpanId parent) {
  if (!enabled()) return kNoSpan;
  SpanId id = next_span_id();
  record_with_id(id, tx, name, start, dur, parent);
  return id;
}

void TransactionTracer::record_with_id(SpanId id, TransactionId tx,
                                       std::string_view name, TimePoint start,
                                       Duration dur, SpanId parent) {
  if (!enabled()) return;
  const SpanName n = cached_span_name(name);
  Shard& s = local_shard();
  std::lock_guard<SpinLock> lk(s.lock);
  stats_at(s.stats, n.id).add_ms(dur);
  if (offered_.fetch_add(1, std::memory_order_relaxed) >= record_cap_) return;
  s.records.push_back(SpanRecord{.tx = tx,
                                 .id = id,
                                 .parent = parent,
                                 .name = n.name,
                                 .start = start,
                                 .dur = dur,
                                 .thread = s.index});
}

void TransactionTracer::record_aggregate(std::string_view name, Duration dur) {
  if (!enabled()) return;
  const SpanName n = cached_span_name(name);
  Shard& s = local_shard();
  std::lock_guard<SpinLock> lk(s.lock);
  stats_at(s.stats, n.id).add_ms(dur);
}

std::vector<SpanRecord> TransactionTracer::collect() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lk(shards_mu_);
    for (const auto& s : shards_) {
      std::lock_guard<SpinLock> sl(s->lock);
      out.insert(out.end(), s->records.begin(), s->records.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a,
                                       const SpanRecord& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.id < b.id;
  });
  return out;
}

std::map<std::string, SpanStats> TransactionTracer::aggregate() const {
  std::vector<SpanStats> merged;
  {
    std::lock_guard<std::mutex> lk(shards_mu_);
    for (const auto& s : shards_) {
      std::lock_guard<SpinLock> sl(s->lock);
      for (std::uint32_t id = 0; id < s->stats.size(); ++id) {
        stats_at(merged, id).merge(s->stats[id]);
      }
    }
  }
  std::map<std::string, SpanStats> out;
  for (std::uint32_t id = 0; id < merged.size(); ++id) {
    if (merged[id].count() == 0) continue;
    // Ids below merged.size() were all handed out by the table already.
    out.emplace(std::string(span_name_table().name(id)), merged[id]);
  }
  return out;
}

SpanStats TransactionTracer::stats(std::string_view name) const {
  const std::uint32_t id = cached_span_name(name).id;
  SpanStats out;
  std::lock_guard<std::mutex> lk(shards_mu_);
  for (const auto& s : shards_) {
    std::lock_guard<SpinLock> sl(s->lock);
    if (id < s->stats.size()) out.merge(s->stats[id]);
  }
  return out;
}

std::uint64_t TransactionTracer::dropped_records() const {
  const std::uint64_t offered = offered_.load(std::memory_order_relaxed);
  return offered > record_cap_ ? offered - record_cap_ : 0;
}

void TransactionTracer::clear() {
  // Every shard's lock at once: a record's offer and its log append happen
  // under one shard lock, so no record can land on either side of the reset.
  std::lock_guard<std::mutex> lk(shards_mu_);
  for (const auto& s : shards_) s->lock.lock();
  for (const auto& s : shards_) {
    s->records.clear();
    s->stats.clear();
  }
  offered_.store(0, std::memory_order_relaxed);
  for (const auto& s : shards_) s->lock.unlock();
}

ScopedSpan::ScopedSpan(TransactionTracer& tracer, Runtime& rt,
                       TransactionId tx, const char* name)
    : tracer_(tracer), rt_(rt), tx_(tx), name_(name) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.next_span_id();
  parent_ = t_span_stack.empty() ? kNoSpan : t_span_stack.back().id;
  t_span_stack.push_back(OpenSpan{id_, name});
  start_ = rt_.now();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == kNoSpan) return;
  t_span_stack.pop_back();
  tracer_.record_with_id(id_, tx_, name_, start_, rt_.now() - start_,
                         parent_);
}

}  // namespace ilu
