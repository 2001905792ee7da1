#include "core/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

/// Open spans of the calling thread, innermost last: (tracer, span id).
thread_local std::vector<std::pair<const Tracer*, int64_t>> t_open;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name, int64_t op,
                     std::string_view tag)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    span_.id = tracer_->next_id_++;
  }
  if (!t_open.empty() && t_open.back().first == tracer_) {
    span_.parent = t_open.back().second;
  }
  t_open.emplace_back(tracer_, span_.id);
  span_.op = op;
  span_.name = name;
  span_.tag = tag;
  span_.start_us = tracer_->NowUs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_us = tracer_->NowUs();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(std::move(span_));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"op\":%lld,\"name\":\"%s\","
                 "\"tag\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), JsonEscape(s.name).c_str(),
                 JsonEscape(s.tag).c_str(), s.start_us, s.end_us,
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

double SelfTimeUs(double start_us, double end_us,
                  std::vector<std::pair<double, double>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, start_us);
    c.second = std::min(c.second, end_us);
  }
  std::sort(children.begin(), children.end());
  double covered = 0;
  double cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : children) {
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return std::max(0.0, (end_us - start_us) - covered);
}

namespace {

std::unordered_map<int64_t, std::vector<const Span*>> ChildrenOf(
    const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  return children;
}

}  // namespace

SpanSummary Summarize(const std::vector<Span>& spans) {
  const auto children = ChildrenOf(spans);
  SpanSummary summary;
  for (const Span& s : spans) {
    summary.duration_us[s.name].push_back(s.duration_us());
    if (!s.tag.empty()) {
      summary.tagged_duration_us[s.name + "|" + s.tag].push_back(
          s.duration_us());
    }
    std::vector<std::pair<double, double>> intervals;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        intervals.emplace_back(c->start_us, c->end_us);
      }
    }
    summary.self_us[s.name].push_back(
        SelfTimeUs(s.start_us, s.end_us, std::move(intervals)));
  }
  return summary;
}

int64_t OverfullOpSpans(const std::vector<Span>& spans,
                        const std::string& op_name, double slack_us) {
  const auto children = ChildrenOf(spans);
  int64_t overfull = 0;
  for (const Span& s : spans) {
    if (s.name != op_name) continue;
    double sum = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) sum += c->duration_us();
    }
    if (sum > s.duration_us() + slack_us) ++overfull;
  }
  return overfull;
}

}  // namespace perfbench
