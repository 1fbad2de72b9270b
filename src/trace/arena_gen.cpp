#include "trace/arena_gen.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>

#include "trace/arena_file.hpp"

namespace ilu {

namespace {

[[noreturn]] void io_fail(const std::string& path, const char* what) {
  throw std::runtime_error("arena gen " + path + ": " + what + " (" +
                           std::strerror(errno) + ")");
}

std::string chunk_path(const std::string& out_path, const std::string& tmp_dir,
                       std::size_t index) {
  std::string stem = out_path;
  if (!tmp_dir.empty()) {
    auto slash = out_path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? out_path : out_path.substr(slash + 1);
    stem = tmp_dir + "/" + base;
  }
  return stem + ".tmp-chunk" + std::to_string(index);
}

/// Temp chunk files, removed on scope exit (success or throw).
struct ChunkFiles {
  std::vector<std::string> paths;
  ~ChunkFiles() {
    for (const auto& p : paths) std::remove(p.c_str());
  }
};

/// Buffered sequential reader over one sorted chunk file of raw u64 keys.
class ChunkReader {
 public:
  static constexpr std::size_t kBufKeys = 8192;  // 64 KiB per open chunk

  explicit ChunkReader(const std::string& path) : path_(path) {
    f_ = std::fopen(path.c_str(), "rb");
    if (f_ == nullptr) io_fail(path_, "cannot reopen chunk");
    refill();
  }
  ~ChunkReader() {
    if (f_ != nullptr) std::fclose(f_);
  }
  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;

  bool empty() const { return pos_ == len_ && eof_; }
  std::uint64_t head() const { return buf_[pos_]; }
  void pop() {
    if (++pos_ == len_ && !eof_) refill();
  }

 private:
  void refill() {
    len_ = std::fread(buf_, sizeof(std::uint64_t), kBufKeys, f_);
    pos_ = 0;
    if (len_ < kBufKeys) {
      if (std::ferror(f_) != 0) io_fail(path_, "chunk read failed");
      eof_ = true;
    }
  }

  std::string path_;
  std::FILE* f_ = nullptr;
  std::uint64_t buf_[kBufKeys];
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  bool eof_ = false;
};

void write_chunk(const std::string& path,
                 const std::vector<std::uint64_t>& keys) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) io_fail(path, "cannot create chunk");
  std::size_t wrote =
      std::fwrite(keys.data(), sizeof(std::uint64_t), keys.size(), f);
  if (wrote != keys.size() || std::fclose(f) != 0) {
    std::fclose(f);
    io_fail(path, "chunk write failed");
  }
}

}  // namespace

ArenaGenStats generate_arena_file(const AzureTraceModel& model,
                                  const std::vector<std::size_t>& fn_indices,
                                  double rate_scale,
                                  const std::string& out_path,
                                  const ArenaGenConfig& cfg) {
  if (cfg.chunk_functions == 0) {
    throw std::logic_error("arena gen: chunk_functions must be positive");
  }
  ArenaGenStats stats;
  stats.functions = fn_indices.size();

  std::vector<FunctionProfile> functions;
  functions.reserve(fn_indices.size());
  for (std::size_t idx : fn_indices) {
    functions.push_back(model.profile_for(idx));
  }
  const Duration duration = secs(model.config().days * 86400.0);

  ArenaFileWriter writer(out_path);
  writer.begin(functions, duration);

  std::vector<std::uint64_t> keys;
  auto generate_chunk = [&](std::size_t fi_begin, std::size_t fi_end) {
    keys.clear();
    model.generate_events(fn_indices, rate_scale, fi_begin, fi_end,
                          [&](TimePoint at, FunctionId fn) {
                            keys.push_back(Trace::pack(at, fn));
                          });
    std::sort(keys.begin(), keys.end());
  };

  if (fn_indices.size() <= cfg.chunk_functions) {
    // Single chunk: sort in RAM, stream straight to the writer.
    generate_chunk(0, fn_indices.size());
    writer.append_keys(keys.data(), keys.size());
    stats.chunks = keys.empty() ? 0 : 1;
    stats.events = keys.size();
    if (cfg.progress) cfg.progress(fn_indices.size(), stats.events);
    stats.file_bytes = writer.finalize();
    return stats;
  }

  ChunkFiles chunks;
  for (std::size_t fi = 0; fi < fn_indices.size();
       fi += cfg.chunk_functions) {
    std::size_t end = std::min(fi + cfg.chunk_functions, fn_indices.size());
    generate_chunk(fi, end);
    if (!keys.empty()) {
      std::string path = chunk_path(out_path, cfg.tmp_dir, chunks.paths.size());
      write_chunk(path, keys);
      chunks.paths.push_back(std::move(path));
      stats.events += keys.size();
    }
    if (cfg.progress) cfg.progress(end, stats.events);
  }
  keys.shrink_to_fit();
  stats.chunks = chunks.paths.size();

  // K-way merge of the sorted chunks into the writer. Equal keys can only
  // come from one function (the key encodes the fn id and each function
  // lives in exactly one chunk), so pop order on ties cannot change the
  // output bytes.
  std::vector<std::unique_ptr<ChunkReader>> readers;
  readers.reserve(chunks.paths.size());
  for (const auto& p : chunks.paths) {
    readers.push_back(std::make_unique<ChunkReader>(p));
  }
  using HeapItem = std::pair<std::uint64_t, std::size_t>;  // (key, reader)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (!readers[i]->empty()) heap.emplace(readers[i]->head(), i);
  }
  std::vector<std::uint64_t> out_buf;
  out_buf.reserve(1 << 16);
  while (!heap.empty()) {
    auto [key, i] = heap.top();
    heap.pop();
    out_buf.push_back(key);
    if (out_buf.size() == out_buf.capacity()) {
      writer.append_keys(out_buf.data(), out_buf.size());
      out_buf.clear();
    }
    readers[i]->pop();
    if (!readers[i]->empty()) heap.emplace(readers[i]->head(), i);
  }
  writer.append_keys(out_buf.data(), out_buf.size());
  stats.file_bytes = writer.finalize();
  return stats;
}

double rate_scale_for_target_events(const AzureTraceModel& model,
                                    const std::vector<std::size_t>& fn_indices,
                                    double target_events) {
  if (target_events <= 0.0) return 1.0;
  const AzureModelConfig& cfg = model.config();
  // The generator draws Poisson(60 / iat × diurnal × activity) per function
  // for each minute of [0, llround(days × 1440)). Weigh each minute of day
  // by its diurnal factor times how often the window visits it; prefix sums
  // then give any function's in-window weight in O(1).
  constexpr std::size_t kDay = 1440;
  const auto num_minutes =
      static_cast<std::size_t>(std::llround(cfg.days * 1440.0));
  std::vector<double> prefix(kDay + 1, 0.0);
  for (std::size_t d = 0; d < kDay; ++d) {
    const auto visits = static_cast<double>(num_minutes / kDay +
                                            (d < num_minutes % kDay ? 1 : 0));
    prefix[d + 1] = prefix[d] + visits * model.diurnal(static_cast<double>(d));
  }
  // Weight of the minutes of day d with lo <= d < hi.
  auto weight = [&](double lo, double hi) {
    auto bound = [](double x) {
      return static_cast<std::size_t>(
          std::clamp(std::ceil(x), 0.0, static_cast<double>(kDay)));
    };
    const std::size_t a = bound(lo);
    const std::size_t b = bound(hi);
    return b > a ? prefix[b] - prefix[a] : 0.0;
  };
  const double all = prefix[kDay];

  double expected = 0.0;
  for (std::size_t idx : fn_indices) {
    const AzureFunctionMeta& m = model.population().at(idx);
    double minutes = all;
    if (cfg.active_window_median_min > 0.0) {
      // The active window [start, start + len) wraps past midnight.
      const double end = m.active_start_min + m.active_len_min;
      const double active =
          weight(m.active_start_min, end) + weight(0.0, end - 1440.0);
      minutes = m.active_boost * active + cfg.inactive_weight * (all - active);
    }
    expected += 60.0 / m.mean_iat_s * minutes;
  }
  return expected > 0.0 ? target_events / expected : 1.0;
}

}  // namespace ilu
