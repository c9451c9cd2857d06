#include "obs/trace.h"

#include <algorithm>
#include <tuple>

namespace bgls::obs {

namespace {

// Top of the current thread's open-span stack, for parent linking.
thread_local TraceSpan* t_current_span = nullptr;

void fnv1a_mix(std::uint64_t& hash, const void* data, std::size_t size) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kPrime;
  }
}

}  // namespace

std::uint64_t Trace::span_id(std::uint64_t trace_id, std::string_view name,
                             std::uint64_t index) noexcept {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis
  fnv1a_mix(hash, &trace_id, sizeof(trace_id));
  fnv1a_mix(hash, name.data(), name.size());
  fnv1a_mix(hash, &index, sizeof(index));
  // Reserve 0 as "no span" (parent of roots).
  return hash == 0 ? 1 : hash;
}

void Trace::record(SpanRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Trace::spans() const {
  std::vector<SpanRecord> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return std::tie(a.name, a.index, a.id) <
                     std::tie(b.name, b.index, b.id);
            });
  return out;
}

TraceSpan::TraceSpan(Trace* trace, std::string_view name, std::uint64_t index,
                     Nest nest) {
  if (trace == nullptr || !enabled()) return;
  trace_ = trace;
  name_ = std::string(name);
  index_ = index;
  id_ = Trace::span_id(trace->id(), name, index);
  // Parent = innermost open span of the same trace on this thread,
  // falling back to the trace's root. kRoot skips the thread's stack
  // (and stays off it) so parentage is thread-placement-independent.
  parent_ = trace->root();
  if (nest == Nest::kEnclosing) {
    if (t_current_span != nullptr && t_current_span->trace_ == trace) {
      parent_ = t_current_span->id_;
    }
    enclosing_ = t_current_span;
    t_current_span = this;
  }
  start_ = std::chrono::steady_clock::now();
}

void TraceSpan::finish() {
  if (trace_ == nullptr) return;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  if (t_current_span == this) t_current_span = enclosing_;
  trace_->record(SpanRecord{id_, parent_, std::move(name_), index_, seconds});
  trace_ = nullptr;
}

}  // namespace bgls::obs
