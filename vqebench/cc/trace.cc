#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "obs/export.h"

namespace vqebench {
namespace {

struct OpenSpan {
  const char* name;
  int64_t start_ns;
  int64_t child_ns;
  int64_t kept;  // index into ThreadState::kept, or -1
};

struct ThreadState {
  uint32_t tid = 0;
  std::vector<OpenSpan> stack;
  std::vector<std::pair<const char*, LayerTotals>> totals;
  std::vector<SpanRecord> kept;
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadState>>& States() {
  static auto* states = new std::vector<std::unique_ptr<ThreadState>>();
  return *states;
}
std::atomic<int64_t> g_keep_budget{0};
thread_local ThreadState* tls_state = nullptr;
thread_local uint64_t tls_request = 0;

ThreadState& State() {
  if (tls_state == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    auto state = std::make_unique<ThreadState>();
    state->tid = static_cast<uint32_t>(States().size() + 1);
    state->stack.reserve(32);
    tls_state = state.get();
    States().push_back(std::move(state));
  }
  return *tls_state;
}

LayerTotals& TotalsFor(ThreadState& s, const char* name) {
  for (auto& entry : s.totals) {
    if (entry.first == name) return entry.second;
  }
  s.totals.emplace_back(name, LayerTotals{});
  return s.totals.back().second;
}

}  // namespace

std::atomic<bool> Tracer::on_{false};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Enable(bool on, size_t keep_spans) {
  g_keep_budget.store(static_cast<int64_t>(keep_spans));
  on_.store(on);
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& s : States()) {
    s->stack.clear();
    s->totals.clear();
    s->kept.clear();
    s->kept.shrink_to_fit();
  }
}

std::map<std::string, LayerTotals> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, LayerTotals> out;
  for (const auto& s : States()) {
    for (const auto& [name, t] : s->totals) {
      LayerTotals& acc = out[name];
      acc.count += t.count;
      acc.incl_ns += t.incl_ns;
      acc.self_ns += t.self_ns;
    }
  }
  return out;
}

void Tracer::SetRequest(uint64_t request) { tls_request = request; }

const char* Tracer::Intern(const std::string& name) {
  static std::mutex mu;
  static auto* names = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return names->insert(name).first->c_str();
}

void Span::Begin(const char* name) {
  ThreadState& s = State();
  int64_t kept = -1;
  if (g_keep_budget.load(std::memory_order_relaxed) > 0 &&
      g_keep_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
    SpanRecord rec;
    rec.name = name;
    rec.parent = -1;
    for (auto it = s.stack.rbegin(); it != s.stack.rend(); ++it) {
      if (it->kept >= 0) {
        rec.parent = it->kept;
        break;
      }
    }
    rec.request = tls_request;
    rec.tid = s.tid;
    kept = static_cast<int64_t>(s.kept.size());
    s.kept.push_back(rec);
  }
  s.stack.push_back({name, NowNs(), 0, kept});
  open_ = true;
}

void Span::End() {
  const int64_t end = NowNs();
  ThreadState& s = *tls_state;
  const OpenSpan top = s.stack.back();
  s.stack.pop_back();
  const int64_t dur = end - top.start_ns;
  LayerTotals& t = TotalsFor(s, top.name);
  ++t.count;
  t.incl_ns += static_cast<double>(dur);
  t.self_ns += static_cast<double>(dur - top.child_ns);
  if (!s.stack.empty()) s.stack.back().child_ns += dur;
  if (top.kept >= 0) {
    SpanRecord& rec = s.kept[static_cast<size_t>(top.kept)];
    rec.start_ns = top.start_ns;
    rec.end_ns = end;
  }
}

vqe::Status Tracer::WriteChromeTrace(const std::string& path) {
  std::vector<const SpanRecord*> spans;
  std::vector<const ThreadState*> owners;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& s : States()) {
      for (const SpanRecord& rec : s->kept) {
        if (rec.end_ns == 0) continue;  // never closed
        spans.push_back(&rec);
        owners.push_back(s.get());
      }
    }
  }
  int64_t origin = 0;
  if (!spans.empty()) {
    origin = (*std::min_element(spans.begin(), spans.end(),
                                [](const SpanRecord* a, const SpanRecord* b) {
                                  return a->start_ns < b->start_ns;
                                }))
                 ->start_ns;
  }
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Chrome's per-track ordering: by thread, then start, outer spans first.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const SpanRecord& x = *spans[a];
    const SpanRecord& y = *spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.end_ns > y.end_ns;
  });
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  char buf[96];
  for (size_t k = 0; k < order.size(); ++k) {
    const SpanRecord& rec = *spans[order[k]];
    const ThreadState& owner = *owners[order[k]];
    const char* parent =
        rec.parent >= 0 ? owner.kept[static_cast<size_t>(rec.parent)].name
                        : "";
    if (k > 0) os << ',';
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(rec.start_ns - origin) / 1e3);
    os << "{\"name\":\"" << rec.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << rec.tid << ",\"ts\":" << buf;
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(rec.end_ns - rec.start_ns) / 1e3);
    os << ",\"dur\":" << buf << ",\"args\":{\"request\":" << rec.request
       << ",\"parent\":\"" << parent << "\"}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  const std::string json = os.str();
  VQE_RETURN_NOT_OK(vqe::ValidateChromeTrace(json));
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json;
  out.close();
  if (!out) return vqe::Status::Internal("cannot write trace file " + path);
  return vqe::Status::OK();
}

}  // namespace vqebench
