#include "obs/json.hpp"

#include "obs/telemetry.hpp"  // format_double

namespace waku::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::sep() {
  if (!out_.empty() && out_.back() != '{' && out_.back() != '[' &&
      out_.back() != ':') {
    out_ += ',';
  }
}

JsonWriter& JsonWriter::obj() {
  sep();
  out_ += '{';
  closers_ += '}';
  return *this;
}

JsonWriter& JsonWriter::arr() {
  sep();
  out_ += '[';
  closers_ += ']';
  return *this;
}

JsonWriter& JsonWriter::end() {
  out_ += closers_.back();
  closers_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  str(name);
  out_ += ':';
  return *this;
}

JsonWriter& JsonWriter::str(std::string_view s) {
  sep();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::u64(std::uint64_t v) { return raw(std::to_string(v)); }

JsonWriter& JsonWriter::i64(std::int64_t v) { return raw(std::to_string(v)); }

JsonWriter& JsonWriter::boolean(bool v) { return raw(v ? "true" : "false"); }

JsonWriter& JsonWriter::null() { return raw("null"); }

JsonWriter& JsonWriter::num(double v) { return raw(format_double(v)); }

JsonWriter& JsonWriter::raw(std::string_view json) {
  sep();
  out_ += json;
  return *this;
}

std::string JsonWriter::take() && {
  while (!closers_.empty()) end();
  return std::move(out_);
}

}  // namespace waku::obs
