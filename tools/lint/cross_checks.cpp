#include "lint/cross_checks.hpp"

#include <algorithm>
#include <sstream>

#include "lint/support.hpp"

namespace ilu::lint {

namespace {

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// What a function transitively acquires: lock id -> how we got there.
struct ReachWitness {
  std::string chain;     // "f" or "f→g→h" (call names along the way)
  std::string acq_file;  // where the acquisition site actually is
  int acq_line = 0;
};

struct FnRef {
  const FileModel* file = nullptr;
  const FunctionModel* fn = nullptr;
};

struct LockWorld {
  std::vector<FnRef> fns;  // sorted (qual, file, line): deterministic order
  std::map<std::string, std::vector<std::size_t>> by_name;
  std::map<std::string, std::vector<std::size_t>> by_qual;
  std::vector<std::map<std::string, ReachWitness>> reach;  // per fns index
};

LockWorld build_lock_world(const RepoModel& m) {
  LockWorld w;
  for (const FileModel& f : m.files) {
    for (const FunctionModel& fn : f.functions) {
      w.fns.push_back({&f, &fn});
    }
  }
  std::sort(w.fns.begin(), w.fns.end(), [](const FnRef& a, const FnRef& b) {
    if (a.fn->qual != b.fn->qual) return a.fn->qual < b.fn->qual;
    if (a.file->rel_path != b.file->rel_path) {
      return a.file->rel_path < b.file->rel_path;
    }
    return a.fn->line < b.fn->line;
  });
  for (std::size_t i = 0; i < w.fns.size(); ++i) {
    w.by_name[w.fns[i].fn->name].push_back(i);
    w.by_qual[w.fns[i].fn->qual].push_back(i);
  }

  // Direct acquisitions.
  w.reach.resize(w.fns.size());
  for (std::size_t i = 0; i < w.fns.size(); ++i) {
    for (const LockSite& s : w.fns[i].fn->locks) {
      w.reach[i].emplace(
          s.lock, ReachWitness{"", w.fns[i].file->rel_path, s.line});
    }
  }
  return w;
}

/// Functions a call can land on. Receiver-typed calls restrict to that
/// class's methods. An *unresolved* receiver (`it->second->f()`, auto&)
/// matches only a repo-unique bare name — fanning such calls out to every
/// class with a `snapshot`/`count`/`merge` method manufactures lock cycles
/// that do not exist. Receiver-free calls try the caller's own class first,
/// then free functions, then a unique method.
std::vector<std::size_t> resolve_call(const LockWorld& w, const CallSite& c,
                                      const std::string& caller_cls) {
  if (!c.receiver_type.empty()) {
    auto it = w.by_qual.find(c.receiver_type + "::" + c.callee);
    if (it != w.by_qual.end()) return it->second;
    return {};  // a typed receiver without such a method models nothing
  }
  auto it = w.by_name.find(c.callee);
  if (it == w.by_name.end()) return {};
  if (c.has_receiver) {
    return it->second.size() == 1 ? it->second : std::vector<std::size_t>{};
  }
  if (!caller_cls.empty()) {
    auto q = w.by_qual.find(caller_cls + "::" + c.callee);
    if (q != w.by_qual.end()) return q->second;
  }
  std::vector<std::size_t> free_fns;
  for (std::size_t t : it->second) {
    if (w.fns[t].fn->cls.empty()) free_fns.push_back(t);
  }
  if (!free_fns.empty()) return free_fns;
  return it->second.size() == 1 ? it->second : std::vector<std::size_t>{};
}

/// Propagate transitive acquisitions through the call graph to fixpoint.
/// Iteration order is fully sorted, so the first witness recorded for each
/// (function, lock) pair is canonical.
void propagate_reach(LockWorld& w) {
  for (int round = 0; round < 32; ++round) {
    bool changed = false;
    for (std::size_t i = 0; i < w.fns.size(); ++i) {
      for (const CallSite& c : w.fns[i].fn->calls) {
        for (std::size_t t : resolve_call(w, c, w.fns[i].fn->cls)) {
          if (t == i) continue;
          for (const auto& [lock, rw] : w.reach[t]) {
            if (w.reach[i].count(lock) > 0) continue;
            ReachWitness nw;
            nw.chain =
                c.callee + (rw.chain.empty() ? "" : "→" + rw.chain);
            nw.acq_file = rw.acq_file;
            nw.acq_line = rw.acq_line;
            w.reach[i].emplace(lock, std::move(nw));
            changed = true;
          }
        }
      }
    }
    if (!changed) break;
  }
}

std::string loc(const std::string& file, int line) {
  return file + ":" + std::to_string(line);
}

void check_lock_order(const RepoModel& m, const Digraph& g,
                      const std::map<std::pair<std::string, std::string>,
                                     LockEdge>& edges,
                      std::vector<Finding>& out) {
  // Direct same-lock re-acquisition (non-recursive mutex self-deadlock).
  for (const FileModel& f : m.files) {
    for (const FunctionModel& fn : f.functions) {
      for (const LockSite& a : fn.locks) {
        for (const LockSite& b : fn.locks) {
          if (&a == &b || b.tok_begin <= a.tok_begin ||
              b.tok_begin >= a.tok_end || a.lock != b.lock) {
            continue;
          }
          if (a.base_expr != b.base_expr) continue;  // distinct instances?
          out.push_back(
              {f.rel_path, b.line, "lock-order",
               "`" + a.lock + "` acquired at line " +
                   std::to_string(b.line) + " while already held (line " +
                   std::to_string(a.line) +
                   ") — a non-recursive lock self-deadlocks here"});
        }
      }
    }
  }

  for (const auto& [a, b] : g.mutually_reachable_pairs()) {
    auto witness = [&](const std::vector<std::string>& path) {
      std::string s;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        auto it = edges.find({path[i], path[i + 1]});
        if (it == edges.end()) continue;
        if (!s.empty()) s += "; then ";
        s += it->second.text;
      }
      return s;
    };
    auto pab = g.path(a, b), pba = g.path(b, a);
    if (pab.size() < 2 || pba.size() < 2) continue;
    auto anchor = edges.find({pab[0], pab[1]});
    if (anchor == edges.end()) continue;
    out.push_back(
        {anchor->second.file, anchor->second.line, "lock-order",
         "lock-order inversion between `" + a + "` and `" + b + "`: [" +
             a + "→" + b + "] " + witness(pab) + " | [" + b + "→" +
             a + "] " + witness(pba) +
             " — pick one global acquisition order (see "
             "tools/lint/lock_order.dot and DESIGN.md §15)"});
  }
}

// ---------------------------------------------------------------------------
// atomics-discipline
// ---------------------------------------------------------------------------

constexpr std::string_view kAtomicsZone[] = {"runtime/", "obs/flight.",
                                             "util/dcheck."};

const char* rank_name(int r) {
  switch (r) {
    case 0: return "relaxed";
    case 1: return "consume";
    case 2: return "acquire/release";
    case 3: return "acq_rel";
    default: return "seq_cst";
  }
}

void check_atomics(const RepoModel& m, std::vector<Finding>& out) {
  for (const FileModel& f : m.files) {
    if (f.atomic_ops.empty()) continue;
    bool zone = in_any(f.rel_path, kAtomicsZone);
    int default_rank = -1;
    std::map<std::string, int> var_rank;
    for (const FloorPragma& p : f.floors) {
      if (p.vars.empty()) {
        default_rank = std::max(default_rank, p.rank);
      } else {
        for (const std::string& v : p.vars) {
          auto [it, fresh] = var_rank.emplace(v, p.rank);
          if (!fresh) it->second = std::max(it->second, p.rank);
        }
      }
    }
    bool has_floor = !f.floors.empty();
    if (!has_floor) {
      if (zone) {
        out.push_back(
            {f.rel_path, f.atomic_ops.front().line, "atomics-discipline",
             "this concurrency-zone file performs atomic operations but "
             "declares no ordering floor — add a header pragma "
             "`// ilu-lint: atomics-floor(<order>[: var,...]) - <reason>` "
             "stating the weakest memory_order it relies on"});
      } else {
        for (const AtomicOp& op : f.atomic_ops) {
          std::string site = op.var.empty()
                                 ? "a std::atomic " + op.method
                                 : "`" + op.var +
                                       (op.method == "=" || op.method == "++"
                                            ? op.method
                                            : "." + op.method + "(...)") +
                                       "`";
          out.push_back(
              {f.rel_path, op.line, "atomics-discipline",
               site +
                   " outside the concurrency zone (runtime/, obs/flight.*, "
                   "util/dcheck.*) — move it behind the runtime layer, or "
                   "declare this file's ordering contract with "
                   "`// ilu-lint: atomics-floor(<order>) - <reason>`"});
        }
      }
      continue;
    }
    int file_floor = default_rank < 0 ? 0 : default_rank;
    for (const AtomicOp& op : f.atomic_ops) {
      int floor = file_floor;
      auto it = var_rank.find(op.var);
      if (it != var_rank.end()) floor = it->second;
      for (const auto& [name, rank] : op.orders) {
        if (rank < 0 || rank >= floor) continue;
        out.push_back(
            {f.rel_path, op.line, "atomics-discipline",
             "memory_order_" + name + " on `" +
                 (op.var.empty() ? std::string("<fence>") : op.var) +
                 "` is below this file's declared atomics floor (" +
                 rank_name(floor) +
                 (it != var_rank.end() ? ", set per-variable" : "") +
                 ") — strengthen the order or lower the floor pragma with "
                 "a reason"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------------

/// Cold/diagnostic layers where the lock exists to serialize exactly this
/// work (util/log's mutex guards the stream; obs aggregation and exp
/// harness setup are off the simulated hot path).
constexpr std::string_view kBlockingExempt[] = {"obs/", "exp/", "util/"};

void check_blocking(const RepoModel& m, std::vector<Finding>& out) {
  for (const FileModel& f : m.files) {
    if (in_any(f.rel_path, kBlockingExempt)) continue;
    for (const FunctionModel& fn : f.functions) {
      if (fn.locks.empty()) continue;
      for (const BlockingOp& op : fn.blocking) {
        // Innermost lock held at the op site.
        const LockSite* held = nullptr;
        for (const LockSite& s : fn.locks) {
          if (op.tok > s.tok_begin && op.tok < s.tok_end &&
              (held == nullptr || s.tok_begin > held->tok_begin)) {
            held = &s;
          }
        }
        if (held == nullptr) continue;
        std::string why;
        if (op.kind == "allocation") {
          why = "`" + op.what + "` allocates";
        } else if (op.kind == "container-growth") {
          why = "`" + op.what + "(...)` may grow/rehash its container";
        } else if (op.kind == "io") {
          why = "I/O (`" + op.what + "`)";
        } else {
          why = "a MetricsRegistry name lookup (`" + op.what + "`)";
        }
        out.push_back(
            {f.rel_path, op.line, "blocking-under-lock",
             why + " while `" + held->lock + "` is held (acquired line " +
                 std::to_string(held->line) +
                 ") — hoist it out of the critical section or annotate why "
                 "the latency under this lock is acceptable"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// include-layering
// ---------------------------------------------------------------------------

/// The allowed DAG, bottom-up:
///   util(0) → common(1) → obs/metrics(2) → trace/runtime(3)
///   → containers/keepalive/queueing(4) → core/lb/baseline(5) → exp(6).
/// A file may include same-or-lower layers only. Top-level src files (no
/// directory, e.g. iluvatar.hpp) may include anything and are included by
/// nothing. Unknown directories are exempt from layer comparison but still
/// participate in cycle detection.
int layer_rank(std::string_view rel) {
  std::size_t slash = rel.find('/');
  if (slash == std::string_view::npos) return 1000;
  std::string_view dir = rel.substr(0, slash);
  if (dir == "util") return 0;
  if (dir == "common") return 1;
  if (dir == "obs" || dir == "metrics") return 2;
  if (dir == "trace" || dir == "runtime") return 3;
  if (dir == "containers" || dir == "keepalive" || dir == "queueing") {
    return 4;
  }
  if (dir == "core" || dir == "lb" || dir == "baseline") return 5;
  if (dir == "exp") return 6;
  return -1;
}

std::string layer_dir(std::string_view rel) {
  std::size_t slash = rel.find('/');
  return std::string(slash == std::string_view::npos ? rel
                                                     : rel.substr(0, slash));
}

void check_layering(const RepoModel& m, std::vector<Finding>& out) {
  Digraph inc_graph;
  for (const FileModel& f : m.files) {
    int a = layer_rank(f.rel_path);
    for (const auto& [inc, line] : f.includes) {
      int b = layer_rank(inc);
      if (a >= 0 && b >= 0 && b > a && a != 1000) {
        out.push_back(
            {f.rel_path, line, "include-layering",
             "`" + f.rel_path + "` (layer " + layer_dir(f.rel_path) + "=" +
                 std::to_string(a) + ") includes `" + inc + "` (layer " +
                 layer_dir(inc) + "=" + std::to_string(b) +
                 "): back-edge against util → common → "
                 "obs/metrics → trace/runtime → "
                 "containers/keepalive/queueing → core/lb/baseline "
                 "→ exp — move the shared piece down a layer or invert "
                 "the dependency through an interface"});
      }
      // Cycle graph over includes that resolve inside the model.
      auto it = m.by_path.find(inc);
      if (it == m.by_path.end()) {
        std::size_t s = f.rel_path.rfind('/');
        if (s != std::string::npos) {
          it = m.by_path.find(f.rel_path.substr(0, s + 1) + inc);
        }
      }
      if (it != m.by_path.end() && it->first != f.rel_path) {
        inc_graph.add_edge(f.rel_path, it->first, "");
      }
    }
  }
  for (const auto& cyc : inc_graph.cycles()) {
    if (cyc.size() < 2) continue;
    // Anchor at the include in cyc[0] that points into the cycle.
    int line = 1;
    auto it = m.by_path.find(cyc[0]);
    if (it != m.by_path.end()) {
      for (const auto& [inc, l] : m.files[it->second].includes) {
        if (inc == cyc[1] || ends_with(cyc[1], "/" + inc)) {
          line = l;
          break;
        }
      }
    }
    std::string chain;
    for (const std::string& n : cyc) {
      if (!chain.empty()) chain += " → ";
      chain += n;
    }
    out.push_back({cyc[0], line, "include-layering",
                   "include cycle: " + chain +
                       " — break it with a forward declaration or by "
                       "moving the shared types down a layer"});
  }
}

}  // namespace

Digraph build_lock_graph(
    const RepoModel& m,
    std::map<std::pair<std::string, std::string>, LockEdge>* edges) {
  LockWorld w = build_lock_world(m);
  propagate_reach(w);

  Digraph g;
  auto add = [&](const std::string& from, const std::string& to,
                 const LockEdge& e) {
    if (!g.has_edge(from, to) && edges != nullptr) {
      (*edges)[{from, to}] = e;
    }
    g.add_edge(from, to, loc(e.file, e.line));
  };

  for (std::size_t i = 0; i < w.fns.size(); ++i) {
    const FileModel& f = *w.fns[i].file;
    const FunctionModel& fn = *w.fns[i].fn;
    for (const LockSite& s : fn.locks) {
      g.add_node(s.lock);
      // Direct nesting inside this function.
      for (const LockSite& s2 : fn.locks) {
        if (&s2 == &s || s2.tok_begin <= s.tok_begin ||
            s2.tok_begin >= s.tok_end || s2.lock == s.lock) {
          continue;
        }
        add(s.lock, s2.lock,
            {f.rel_path, s2.line,
             "`" + s.lock + "` (held since " + loc(f.rel_path, s.line) +
                 ") nests `" + s2.lock + "` at " +
                 loc(f.rel_path, s2.line)});
      }
      // Acquisitions reached through calls made while held.
      for (const CallSite& c : fn.calls) {
        if (c.tok <= s.tok_begin || c.tok >= s.tok_end) continue;
        for (std::size_t t : resolve_call(w, c, fn.cls)) {
          if (t == i) continue;
          for (const auto& [lock, rw] : w.reach[t]) {
            if (lock == s.lock) continue;  // instance aliasing, skip
            std::string chain =
                c.callee + (rw.chain.empty() ? "" : "→" + rw.chain);
            add(s.lock, lock,
                {f.rel_path, c.line,
                 "`" + s.lock + "` (held since " + loc(f.rel_path, s.line) +
                     ") calls `" + chain + "` which acquires `" + lock +
                     "` at " + loc(rw.acq_file, rw.acq_line)});
          }
        }
      }
    }
  }
  return g;
}

void run_cross_checks(const RepoModel& m, std::vector<Finding>& out) {
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  Digraph g = build_lock_graph(m, &edges);
  check_lock_order(m, g, edges, out);
  check_atomics(m, out);
  check_blocking(m, out);
  check_layering(m, out);
}

}  // namespace ilu::lint
