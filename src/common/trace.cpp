#include "common/trace.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/json.h"
#include "common/log.h"
#include "common/memory.h"

namespace cs {

namespace {

constexpr std::size_t kDefaultCapacity = 1 << 16;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Thread-local binding of this thread to its buffer, invalidated when the
/// tracer generation changes (clear() discards old buffers).
struct ThreadSlot {
  void* buffer = nullptr;  // Tracer::ThreadBuffer*, owned by the registry
  std::uint64_t generation = 0;
};

thread_local ThreadSlot t_slot;

}  // namespace

Tracer::Tracer() : capacity_(kDefaultCapacity) { epoch_ns_ = steady_ns(); }

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  buffers_.clear();
  for (auto& g : gauges_) g->value.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_relaxed);
  epoch_ns_ = steady_ns();
}

void Tracer::set_buffer_capacity(std::size_t events) {
  capacity_.store(events > 0 ? events : kDefaultCapacity,
                  std::memory_order_relaxed);
}

double Tracer::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

Tracer::ThreadBuffer* Tracer::buffer_for_this_thread() {
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (t_slot.buffer != nullptr && t_slot.generation == gen)
    return static_cast<ThreadBuffer*>(t_slot.buffer);
  auto buffer = std::make_shared<ThreadBuffer>();
  buffer->capacity = capacity_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    // clear() may have bumped the generation between the load above and
    // here; registering under the lock keeps the buffer either visible to
    // the new generation or dropped with the old list, never leaked.
    buffer->tid = static_cast<int>(buffers_.size());
    buffers_.push_back(buffer);
  }
  t_slot.buffer = buffer.get();
  t_slot.generation = gen;
  return buffer.get();
}

void Tracer::record(TracePhase phase, const char* category, const char* name,
                    double counter_value, std::string args) {
  if (!enabled()) return;
  const double ts = now_us();
  ThreadBuffer* buffer = buffer_for_this_thread();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  // Ring policy: drop new begin/instant/counter events once full, but keep
  // end events of spans whose begin was recorded (bounded by the open span
  // depth), so exported traces always have balanced B/E pairs.
  if (phase == TracePhase::kEnd) {
    if (buffer->open_dropped > 0) {
      --buffer->open_dropped;
      ++buffer->dropped;
      return;
    }
  } else if (buffer->events.size() >= buffer->capacity) {
    ++buffer->dropped;
    if (phase == TracePhase::kBegin) ++buffer->open_dropped;
    return;
  }
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = phase;
  e.ts_us = ts;
  e.counter_value = counter_value;
  e.args = std::move(args);
  buffer->events.push_back(std::move(e));
}

void Tracer::name_thread(const char* name) {
  if (!enabled()) return;
  ThreadBuffer* buffer = buffer_for_this_thread();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->thread_name = name;
}

long Tracer::gauge_add(const char* name, long delta) {
  Gauge* gauge = nullptr;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (auto& g : gauges_)
      if (g->name == name) {
        gauge = g.get();
        break;
      }
    if (gauge == nullptr) {
      gauges_.push_back(std::make_unique<Gauge>());
      gauges_.back()->name = name;
      gauge = gauges_.back().get();
    }
  }
  const long now = gauge->value.fetch_add(delta, std::memory_order_relaxed) +
                   delta;
  if (enabled())
    record(TracePhase::kCounter, "counter", gauge->name.c_str(),
           static_cast<double>(now));
  return now;
}

void Tracer::sample_counters() {
  if (!enabled()) return;
  auto& tracker = MemoryTracker::instance();
  record(TracePhase::kCounter, "counter", "memory.current",
         static_cast<double>(tracker.current()));
  record(TracePhase::kCounter, "counter", "memory.peak",
         static_cast<double>(tracker.peak()));
  // Per-tag attribution gauges. Tags that never saw a byte are skipped so
  // idle subsystems don't add empty counter tracks to the timeline; once a
  // tag has a nonzero peak we keep sampling it (including zeros) so its
  // track drops back to the axis instead of ending mid-run.
  for (std::size_t t = 0; t < kMemTagCount; ++t) {
    const auto tag = static_cast<MemTag>(t);
    const std::size_t now = tracker.tag_current(tag);
    if (now == 0 && tracker.tag_peak(tag) == 0) continue;
    record(TracePhase::kCounter, "counter", mem_tag_counter_name(tag),
           static_cast<double>(now));
  }
  std::vector<std::pair<const char*, long>> snapshot;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    snapshot.reserve(gauges_.size());
    for (const auto& g : gauges_)
      snapshot.emplace_back(g->name.c_str(),
                            g->value.load(std::memory_order_relaxed));
  }
  for (const auto& [name, value] : snapshot)
    record(TracePhase::kCounter, "counter", name,
           static_cast<double>(value));
}

std::string Tracer::to_json() const {
  // Snapshot the buffer list, then serialize each buffer under its own
  // mutex. Buffer names referenced by events are string literals or gauge
  // names owned by the (locked) registry, so no lifetime issues here.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers = buffers_;
  }

  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"coupled-solver\"}}";

  char buf[64];
  std::size_t dropped = 0;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    dropped += buffer->dropped;
    if (!buffer->thread_name.empty()) {
      out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
      out += std::to_string(buffer->tid);
      out += ",\"args\":{\"name\":\"" + json::escape(buffer->thread_name) +
             "\"}}";
    }
    for (const TraceEvent& e : buffer->events) {
      out += ",\n{\"name\":\"";
      out += json::escape(e.name);
      out += "\",\"cat\":\"";
      out += json::escape(e.category);
      out += "\",\"ph\":\"";
      out.push_back(static_cast<char>(e.phase));
      out += "\",\"pid\":1,\"tid\":";
      out += std::to_string(buffer->tid);
      out += ",\"ts\":";
      std::snprintf(buf, sizeof(buf), "%.3f", e.ts_us);
      out += buf;
      if (e.phase == TracePhase::kCounter) {
        // json::number: a non-finite counter value must render as null,
        // never as bare nan/inf (invalid JSON).
        out += ",\"args\":{\"value\":";
        out += json::number(e.counter_value);
        out += "}";
      } else if (e.phase == TracePhase::kInstant) {
        out += ",\"s\":\"t\"";
        if (!e.args.empty()) out += ",\"args\":{" + e.args + "}";
      } else if (!e.args.empty()) {
        out += ",\"args\":{" + e.args + "}";
      }
      out += "}";
    }
  }
  out += "\n],\"otherData\":{\"dropped_events\":" + std::to_string(dropped) +
         "}}\n";
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  const std::string text = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_warn("trace: cannot open ", path, " for writing");
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) log_warn("trace: short write to ", path);
  return ok;
}

std::size_t Tracer::thread_count() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return buffers_.size();
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> b(buffer->mutex);
    n += buffer->events.size();
  }
  return n;
}

std::size_t Tracer::dropped_count() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> b(buffer->mutex);
    n += buffer->dropped;
  }
  return n;
}

// -- TraceSpan ---------------------------------------------------------------

std::string TraceSpan::format_number(double value) {
  // Span args land verbatim inside the exported JSON: non-finite doubles
  // must become null there too.
  return json::number(value);
}

void TraceSpan::append(const char* key, const std::string& rendered) {
  if (!args_.empty()) args_ += ",";
  args_ += "\"";
  args_ += key;
  args_ += "\":";
  args_ += rendered;
}

TraceSpan& TraceSpan::arg(const char* key, const std::string& value) {
  if (enabled_) append(key, "\"" + json::escape(value) + "\"");
  return *this;
}

// -- TraceSampler ------------------------------------------------------------

struct TraceSampler::Impl {
  std::mutex mutex;
  std::condition_variable cv;
  bool stop = false;
  std::thread thread;
};

TraceSampler::TraceSampler(std::int64_t period_us) {
  if (period_us <= 0 || !Tracer::instance().enabled()) return;
  impl_ = std::make_unique<Impl>();
  Impl* impl = impl_.get();
  impl->thread = std::thread([impl, period_us] {
    trace_thread_name("sampler");
    auto& tracer = Tracer::instance();
    std::unique_lock<std::mutex> lock(impl->mutex);
    while (!impl->stop) {
      lock.unlock();
      tracer.sample_counters();
      lock.lock();
      impl->cv.wait_for(lock, std::chrono::microseconds(period_us),
                        [impl] { return impl->stop; });
    }
  });
}

TraceSampler::~TraceSampler() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  impl_->thread.join();
  // One final sample so the counter tracks extend to the end of the run.
  Tracer::instance().sample_counters();
}

// -- validation --------------------------------------------------------------

namespace {

std::string check_event(const json::Value& e, std::size_t index) {
  const auto at = "traceEvents[" + std::to_string(index) + "]";
  if (!e.is_object()) return at + " is not an object";
  const json::Value* name = e.find("name");
  if (name == nullptr || !name->is_string())
    return at + " lacks a string \"name\"";
  const json::Value* ph = e.find("ph");
  if (ph == nullptr || !ph->is_string() || ph->string.size() != 1)
    return at + " lacks a one-character \"ph\"";
  const json::Value* pid = e.find("pid");
  const json::Value* tid = e.find("tid");
  if (pid == nullptr || !pid->is_number() || tid == nullptr ||
      !tid->is_number())
    return at + " lacks numeric pid/tid";
  if (ph->string == "M") return {};  // metadata: no timestamp required
  const json::Value* ts = e.find("ts");
  if (ts == nullptr || !ts->is_number())
    return at + " lacks a numeric \"ts\"";
  if (ph->string == "C") {
    const json::Value* args = e.find("args");
    if (args == nullptr || !args->is_object() || args->object.empty() ||
        !args->object.front().second.is_number())
      return at + " is a counter without a numeric args series";
  }
  return {};
}

}  // namespace

std::string validate_chrome_trace(const std::string& json_text) {
  json::Value root;
  std::string error;
  if (!json::parse(json_text, &root, &error))
    return "JSON parse error: " + error;
  if (!root.is_object()) return "root is not an object";
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array())
    return "missing traceEvents array";

  // Per-thread span stacks and timestamp monotonicity.
  std::map<double, std::vector<std::string>> open;  // tid -> span names
  std::map<double, double> last_ts;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const json::Value& e = events->array[i];
    std::string problem = check_event(e, i);
    if (!problem.empty()) return problem;
    const std::string& ph = e.find("ph")->string;
    if (ph == "M") continue;
    const double tid = e.find("tid")->number;
    const double ts = e.find("ts")->number;
    auto it = last_ts.find(tid);
    if (it != last_ts.end() && ts < it->second)
      return "timestamps not monotonic on tid " + std::to_string(tid) +
             " at traceEvents[" + std::to_string(i) + "]";
    last_ts[tid] = ts;
    if (ph == "B") {
      open[tid].push_back(e.find("name")->string);
    } else if (ph == "E") {
      auto& stack = open[tid];
      if (stack.empty())
        return "unbalanced E event at traceEvents[" + std::to_string(i) +
               "]";
      if (stack.back() != e.find("name")->string)
        return "mismatched span nesting at traceEvents[" +
               std::to_string(i) + "]: expected \"" + stack.back() +
               "\", got \"" + e.find("name")->string + "\"";
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : open)
    if (!stack.empty())
      return "span \"" + stack.back() + "\" left open on tid " +
             std::to_string(tid);
  return {};
}

// -- Metrics -----------------------------------------------------------------

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kPanelsFolded: return "schur.panels_folded";
    case Metric::kMultifactoJobs: return "multifacto.jobs";
    case Metric::kAdmissionWaits: return "admission.waits";
    case Metric::kAdmissionWaitSec: return "admission.wait_s";
    case Metric::kAdmissionDegraded: return "admission.degraded";
    case Metric::kRecompressions: return "recompress.count";
    case Metric::kRecompressRankMax: return "recompress.rank_max";
    case Metric::kAcaFallbacks: return "aca.fallbacks";
    case Metric::kRefineSweeps: return "refine.sweeps";
    case Metric::kFailpointFires: return "failpoint.fires";
    case Metric::kRecoveries: return "recovery.actions";
    case Metric::kOocRetries: return "ooc.retries";
    case Metric::kOocInCoreFallbacks: return "ooc.incore_fallbacks";
    case Metric::kRefineStalls: return "refine.stalls";
    case Metric::kPrecisionEscalations: return "precision.escalations";
    case Metric::kAcaIterations: return "aca.iterations";
    case Metric::kAcaRankHintHits: return "aca.rank_hint_hits";
    case Metric::kAcaRankHintMisses: return "aca.rank_hint_misses";
    case Metric::kSparseAnalysisReuses: return "mf.analysis_reuses";
    case Metric::kHmatStructureReuses: return "hmat.structure_reuses";
    case Metric::kLaggedSolves: return "sweep.lagged_solves";
    case Metric::kServeRequests: return "serve.requests";
    case Metric::kServeCacheHits: return "serve.cache_hit";
    case Metric::kServeCacheMisses: return "serve.cache_miss";
    case Metric::kServeCacheEvictions: return "serve.cache_evict";
    case Metric::kServeCacheSpills: return "serve.cache_spill";
    case Metric::kServeCacheRestores: return "serve.cache_restore";
    case Metric::kServeFactorizations: return "serve.factorizations";
    case Metric::kServeCoalescedBatches: return "serve.coalesced_batches";
    case Metric::kServeCoalescedColumns: return "serve.coalesced_columns";
    case Metric::kCount: break;
  }
  return "?";
}

Metrics& Metrics::instance() {
  static Metrics metrics;
  return metrics;
}

std::map<std::string, double> Metrics::snapshot() const {
  std::map<std::string, double> out;
  for (int m = 0; m < static_cast<int>(Metric::kCount); ++m) {
    const double v = get(static_cast<Metric>(m));
    if (v != 0.0) out[metric_name(static_cast<Metric>(m))] = v;
  }
  return out;
}

std::map<std::string, double> Metrics::delta_since(
    const Values& before) const {
  std::map<std::string, double> out;
  for (int i = 0; i < static_cast<int>(Metric::kCount); ++i) {
    const Metric m = static_cast<Metric>(i);
    const double now = get(m);
    const double base = before[static_cast<std::size_t>(i)];
    if (is_high_water(m)) {
      // A high-water mark that advanced during the run belongs to it; one
      // that did not is stale history and is omitted.
      if (now > base) out[metric_name(m)] = now;
    } else if (now != base) {
      out[metric_name(m)] = now - base;
    }
  }
  return out;
}

}  // namespace cs
