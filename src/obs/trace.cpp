#include "obs/trace.h"

#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace robotune::obs {

bool parse_trace_format(std::string_view text, TraceFormat& out) {
  if (text == "jsonl") {
    out = TraceFormat::kJsonl;
    return true;
  }
  if (text == "chrome") {
    out = TraceFormat::kChrome;
    return true;
  }
  return false;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void write_span_json(std::ostream& out, const SpanRecord& span,
                     TraceFormat format) {
  if (format == TraceFormat::kJsonl) {
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(span.category) << "\",\"ts_us\":" << span.start_us
        << ",\"dur_us\":" << span.dur_us << ",\"tid\":" << span.tid
        << ",\"depth\":" << span.depth;
  } else {
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(span.category.empty() ? std::string("robotune")
                                             : span.category)
        << "\",\"ph\":\"X\",\"ts\":" << span.start_us
        << ",\"dur\":" << std::max<std::int64_t>(span.dur_us, 1)
        << ",\"pid\":1,\"tid\":" << span.tid;
  }
  if (!span.args.empty() || format == TraceFormat::kChrome) {
    out << ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : span.args) {
      if (!first) out << ",";
      first = false;
      out << "\"" << json_escape(key) << "\":\"" << json_escape(value)
          << "\"";
    }
    if (format == TraceFormat::kChrome) {
      if (!first) out << ",";
      out << "\"depth\":\"" << span.depth << "\"";
    }
    out << "}";
  }
  out << "}";
}

template <typename WriteFn>
bool atomic_write(const std::string& path, WriteFn&& write_fn) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    write_fn(out);
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

void write_spans(const std::vector<SpanRecord>& spans, std::ostream& out,
                 TraceFormat format) {
  if (format == TraceFormat::kJsonl) {
    for (const auto& span : spans) {
      write_span_json(out, span, format);
      out << "\n";
    }
    return;
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata so Perfetto labels the lanes.
  std::vector<std::uint32_t> tids;
  for (const auto& span : spans) tids.push_back(span.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (const std::uint32_t tid : tids) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\""
        << (tid == 0 ? "session" : "worker-" + std::to_string(tid))
        << "\"}}";
  }
  for (const auto& span : spans) {
    if (!first) out << ",";
    first = false;
    write_span_json(out, span, format);
  }
  out << "]}\n";
}

bool write_spans_file(const std::vector<SpanRecord>& spans,
                      const std::string& path, TraceFormat format) {
  return atomic_write(
      path, [&](std::ostream& out) { write_spans(spans, out, format); });
}

struct Tracer::Buffer {
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  ///< currently open spans on this thread
  std::vector<SpanRecord> spans;
};

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Same id-keyed thread-local registration scheme as the metrics shards
/// (see metrics.cpp): ids are process-unique so stale entries can never
/// be revived by address reuse, and the tracer owns every buffer.
struct TlsEntry {
  std::uint64_t tracer_id = 0;
  Tracer::Buffer* buffer = nullptr;
};
thread_local std::vector<TlsEntry> tls_buffers;

}  // namespace

Tracer::Tracer()
    : id_(next_tracer_id()), epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

Tracer::Buffer& Tracer::local_buffer() {
  for (const auto& entry : tls_buffers) {
    if (entry.tracer_id == id_) return *entry.buffer;
  }
  auto buffer = std::make_shared<Buffer>();
  {
    std::scoped_lock lock(mutex_);
    buffer->tid = next_tid_++;
    buffers_.push_back(buffer);
  }
  tls_buffers.push_back({id_, buffer.get()});
  return *buffer;
}

std::vector<SpanRecord> Tracer::records() const {
  std::vector<SpanRecord> out;
  {
    std::scoped_lock lock(mutex_);
    for (const auto& buffer : buffers_) {
      out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     if (a.tid != b.tid) return a.tid < b.tid;
                     // Parents before children: longer first, and when a
                     // whole subtree fits in one microsecond (equal start
                     // and duration), shallower first.
                     if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
                     return a.depth < b.depth;
                   });
  return out;
}

void Tracer::reset() {
  std::scoped_lock lock(mutex_);
  for (const auto& buffer : buffers_) {
    buffer->spans.clear();
    buffer->depth = 0;
  }
  epoch_ = std::chrono::steady_clock::now();
}

void Tracer::write(std::ostream& out, TraceFormat format) const {
  write_spans(records(), out, format);
}

bool Tracer::write_file(const std::string& path, TraceFormat format) const {
  return atomic_write(
      path, [&](std::ostream& out) { write(out, format); });
}

Span::Span(std::string_view name, std::string_view category)
    : Span(name, category, obs::tracer()) {}

Span::Span(std::string_view name, std::string_view category,
           Tracer& tracer) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  buffer_ = &tracer.local_buffer();
  record_.name.assign(name);
  record_.category.assign(category);
  record_.tid = buffer_->tid;
  record_.depth = buffer_->depth++;
  record_.start_us = tracer.now_us();
  // Multi-session attribution (the service layer): every span opened
  // under an obs::ScopedSession carries its session id, which is what
  // parents an "iteration" span to its owning "session" in a process
  // hosting many interleaved sessions.
  if (const std::uint64_t sid = ScopedSession::current(); sid != 0) {
    arg("session", sid);
  }
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.dur_us = tracer_->now_us() - record_.start_us;
  --buffer_->depth;
  buffer_->spans.push_back(std::move(record_));
}

void Span::arg(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  record_.args.emplace_back(std::string(key), std::string(value));
}

void Span::arg(std::string_view key, std::int64_t value) {
  arg(key, std::string_view(std::to_string(value)));
}

void Span::arg(std::string_view key, std::uint64_t value) {
  arg(key, std::string_view(std::to_string(value)));
}

void Span::arg(std::string_view key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  arg(key, std::string_view(buf));
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace robotune::obs
