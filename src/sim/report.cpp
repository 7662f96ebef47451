#include "sim/report.hpp"

#include <cstdio>

namespace waku::sim {

namespace {

std::string format_double(double v, const char* format) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

}  // namespace

JsonObject& JsonObject::add(std::string_view key, const std::string& value) {
  if (out_.size() > 1) out_ += ", ";
  out_.append("\"").append(key).append("\": ").append(value);
  return *this;
}

JsonObject& JsonObject::number(std::string_view key, double v,
                               const char* format) {
  return add(key, format_double(v, format));
}

JsonObject& JsonObject::integers(std::string_view key,
                                 const std::vector<std::uint64_t>& v) {
  std::string array = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) array += ", ";
    array += std::to_string(v[i]);
  }
  return add(key, array + "]");
}

JsonObject& JsonObject::numbers(std::string_view key,
                                const std::vector<double>& v,
                                const char* format) {
  std::string array = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) array += ", ";
    array += format_double(v[i], format);
  }
  return add(key, array + "]");
}

std::string AdversaryVerdict::to_json() const {
  return JsonObject()
      .string("name", name)
      .integer("spam_sent", spam_sent)
      .integer("controlled_nodes", controlled_nodes)
      .integer("slashes", slashes)
      .optional("time_to_slash_ms", time_to_slash_ms)
      .integer("schema", 1)
      .str();
}

std::string ScenarioVerdict::to_json() const {
  std::string adversaries = "[";
  for (std::size_t i = 0; i < per_adversary.size(); ++i) {
    if (i > 0) adversaries += ", ";
    adversaries += per_adversary[i].to_json();
  }
  adversaries += "]";
  return JsonObject()
      .string("scenario", scenario)
      .integer("seed", seed)
      .integer("nodes", nodes)
      .integer("honest_nodes", honest_nodes)
      .integer("adversary_nodes", adversary_nodes)
      .integer("spam_sent", spam_sent)
      .integer("spam_delivered_honest", spam_delivered_honest)
      .number("spam_containment_ratio", spam_containment_ratio, "%.6f")
      .integer("honest_sent", honest_sent)
      .integer("honest_delivered_honest", honest_delivered_honest)
      .number("honest_delivery_ratio", honest_delivery_ratio, "%.6f")
      .integer("slashes", slashes)
      .integer("adversary_slashes", adversary_slashes)
      .integer("honest_slashes", honest_slashes)
      .number("honest_false_positive_rate", honest_false_positive_rate, "%.6f")
      .integer("withdrawals", withdrawals)
      .optional("time_to_slash_ms", time_to_slash_ms)
      .optional("time_to_slash_epochs", time_to_slash_epochs)
      .raw("per_adversary", adversaries, "[]")
      .raw("fleet_timeline", fleet_timeline_json, "[]")
      .raw("propagation", propagation_json, "{}")
      .integer("schema", 4)
      .str();
}

std::string Report::to_json() const {
  JsonObject metrics;
  for (const char* section :
       {"node", "router", "pipeline", "executor", "trace", "operator"}) {
    metrics.raw(section, rln::telemetry_section_json(deployment, section),
                "{}");
  }
  metrics.raw("net",
              JsonObject()
                  .integer("messages_sent", traffic.messages_sent)
                  .integer("messages_received", traffic.messages_received)
                  .integer("bytes_sent", traffic.bytes_sent)
                  .integer("bytes_received", traffic.bytes_received)
                  .str(),
              "{}");
  return "{\"verdict\": " + verdict.to_json() +
         ",\n\"metrics\": " + metrics.str() + "}";
}

}  // namespace waku::sim
