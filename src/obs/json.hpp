// JsonWriter: the one compact JSON encoder of the observability exports
// (metrics JSON, trace rings, fleet timelines, postmortems, propagation
// trees, Chrome traces, forensics). It writes no whitespace, escapes
// every string through json_escape and places the commas between
// members and elements itself, so an export states only its keys and
// values:
//
//   JsonWriter w;
//   w.obj().key("epoch").u64(7).key("hops").arr().i64(-1);
//   std::move(w).take();  // {"epoch":7,"hops":[-1]}
//
// The spaced `"key": value` style of the committed BENCH_*.json files is
// sim::JsonObject's, not this writer's.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace waku::obs {

/// JSON string escaping: quotes, backslashes and control characters.
[[nodiscard]] std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  /// Opens an object or an array; end() closes the innermost open one.
  JsonWriter& obj();
  JsonWriter& arr();
  JsonWriter& end();
  /// The next member's key; the value call that follows completes it.
  JsonWriter& key(std::string_view name);

  JsonWriter& str(std::string_view s);
  JsonWriter& u64(std::uint64_t v);
  JsonWriter& i64(std::int64_t v);
  JsonWriter& boolean(bool v);
  JsonWriter& null();
  /// A double through format_double (%.9g).
  JsonWriter& num(double v);
  /// A value printed with an explicit printf format and written as is:
  /// "%.3f", or "\"%016" PRIx64 "\"" for a quoted hex trace key.
  template <typename... Args>
  JsonWriter& fmt(const char* format, Args... args) {
    char buf[64];
    std::snprintf(buf, sizeof buf, format, args...);
    return raw(buf);
  }
  /// A value that is already rendered JSON.
  JsonWriter& raw(std::string_view json);

  /// The document, with every container still open closed.
  [[nodiscard]] std::string take() &&;

 private:
  /// The comma before a member or an element: none at the start of a
  /// container or right after a key.
  void sep();

  std::string out_;
  std::string closers_;  ///< closing bracket of each open container
};

}  // namespace waku::obs
