#include "src/obs/rank_recorder_io.hpp"

#include <map>
#include <stdexcept>

#include "src/obs/durable_file.hpp"

namespace mrpic::obs {

namespace {

constexpr int kVersion = 1;

void write_rank_stats(json::Writer& w, const RankStepStats& r) {
  w.begin_object()
      .field("rank", r.rank)
      .field("compute_s", r.compute_s)
      .field("comm_s", r.comm_s)
      .field("retry_s", r.retry_s)
      .field("bytes_sent", r.bytes_sent)
      .field("bytes_recv", r.bytes_recv)
      .field("messages", r.messages)
      .field("retries", r.retries)
      .field("boxes", r.boxes)
      .end_object();
}

} // namespace

void write_recorder_json(const RankRecorder& rec, std::ostream& os) {
  json::Writer w(os);
  w.begin_object();
  w.field("format", "mrpic-ranks");
  w.field("version", std::int64_t(kVersion));
  w.field("nranks", rec.nranks());
  w.begin_array("steps");
  for (const auto& step : rec.steps()) {
    w.begin_object().field("step", step.step);
    w.begin_array("ranks");
    for (const auto& r : step.ranks) { write_rank_stats(w, r); }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.begin_array("messages");
  for (const auto& m : rec.messages()) {
    w.begin_object()
        .field("step", m.step)
        .field("src_rank", m.src_rank)
        .field("dst_rank", m.dst_rank)
        .field("src_box", m.src_box)
        .field("dst_box", m.dst_box)
        .field("bytes", m.bytes)
        .field("latency_s", m.latency_s)
        .field("transfer_s", m.transfer_s)
        .field("attempts", m.attempts)
        .field("retry_s", m.retry_s)
        .end_object();
  }
  w.end_array();
  w.begin_array("rebalances");
  for (const auto& rb : rec.rebalances()) {
    w.begin_object().field("step", rb.step);
    w.begin_array("rank_cost_before");
    for (double c : rb.rank_cost_before) { w.value(c); }
    w.end_array();
    w.begin_array("rank_cost_after");
    for (double c : rb.rank_cost_after) { w.value(c); }
    w.end_array();
    w.field("imbalance_before", rb.imbalance_before)
        .field("imbalance_after", rb.imbalance_after)
        .end_object();
  }
  w.end_array();
  w.begin_array("fault_events");
  for (const auto& ev : rec.fault_events()) {
    w.begin_object()
        .field("step", ev.step)
        .field("kind", ev.kind)
        .field("rank", ev.rank)
        .field("time_s", ev.time_s)
        .field("detail", ev.detail)
        .end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

bool write_recorder_json(const RankRecorder& rec, const std::string& path) {
  return rewrite_json_atomic(path, [&](std::ostream& os) { write_recorder_json(rec, os); });
}

RankRecorder read_recorder_json(const json::Value& doc) {
  if (!doc.is_object() || !doc["format"].is_string() ||
      doc["format"].as_string() != "mrpic-ranks") {
    throw std::runtime_error("rank_recorder_io: not a mrpic-ranks document");
  }
  if (!doc["version"].is_number() || doc["version"].as_int() != kVersion) {
    throw std::runtime_error("rank_recorder_io: unsupported version");
  }
  if (!doc["steps"].is_array() || !doc["messages"].is_array()) {
    throw std::runtime_error("rank_recorder_io: missing steps/messages arrays");
  }

  RankRecorder rec(doc["nranks"].is_number() ? static_cast<int>(doc["nranks"].as_int())
                                             : 0);
  // add_step() re-tags messages with the breakdown's step, so group the
  // message log by step tag first.
  std::map<std::int64_t, std::vector<HaloMessage>> msgs_by_step;
  for (const auto& mv : doc["messages"].as_array()) {
    HaloMessage m;
    m.step = mv["step"].as_int();
    m.src_rank = static_cast<int>(mv["src_rank"].as_int());
    m.dst_rank = static_cast<int>(mv["dst_rank"].as_int());
    m.src_box = static_cast<int>(mv["src_box"].as_int());
    m.dst_box = static_cast<int>(mv["dst_box"].as_int());
    m.bytes = mv["bytes"].as_int();
    m.latency_s = mv["latency_s"].as_number();
    m.transfer_s = mv["transfer_s"].as_number();
    m.attempts = mv["attempts"].is_number() ? static_cast<int>(mv["attempts"].as_int()) : 1;
    m.retry_s = mv["retry_s"].is_number() ? mv["retry_s"].as_number() : 0;
    msgs_by_step[m.step].push_back(m);
  }
  for (const auto& sv : doc["steps"].as_array()) {
    if (!sv.is_object() || !sv["ranks"].is_array()) {
      throw std::runtime_error("rank_recorder_io: malformed step record");
    }
    RankStepBreakdown b;
    b.step = sv["step"].as_int();
    for (const auto& rv : sv["ranks"].as_array()) {
      RankStepStats r;
      r.rank = static_cast<int>(rv["rank"].as_int());
      r.compute_s = rv["compute_s"].as_number();
      r.comm_s = rv["comm_s"].as_number();
      r.retry_s = rv["retry_s"].is_number() ? rv["retry_s"].as_number() : 0;
      r.bytes_sent = rv["bytes_sent"].as_int();
      r.bytes_recv = rv["bytes_recv"].as_int();
      r.messages = rv["messages"].as_int();
      r.retries = rv["retries"].is_number() ? rv["retries"].as_int() : 0;
      r.boxes = static_cast<int>(rv["boxes"].as_int());
      b.ranks.push_back(r);
    }
    const auto it = msgs_by_step.find(b.step);
    rec.add_step(std::move(b),
                 it == msgs_by_step.end() ? std::vector<HaloMessage>{} : it->second);
  }
  if (doc["rebalances"].is_array()) {
    for (const auto& rv : doc["rebalances"].as_array()) {
      RebalanceRecord rb;
      rb.step = rv["step"].as_int();
      for (const auto& c : rv["rank_cost_before"].as_array()) {
        rb.rank_cost_before.push_back(c.as_number());
      }
      for (const auto& c : rv["rank_cost_after"].as_array()) {
        rb.rank_cost_after.push_back(c.as_number());
      }
      rb.imbalance_before = rv["imbalance_before"].as_number();
      rb.imbalance_after = rv["imbalance_after"].as_number();
      rec.add_rebalance(std::move(rb));
    }
  }
  if (doc["fault_events"].is_array()) {
    for (const auto& ev : doc["fault_events"].as_array()) {
      FaultEvent e;
      e.step = ev["step"].as_int();
      e.kind = ev["kind"].as_string();
      e.rank = static_cast<int>(ev["rank"].as_int());
      e.time_s = ev["time_s"].as_number();
      e.detail = ev["detail"].as_string();
      rec.add_fault_event(std::move(e));
    }
  }
  return rec;
}

RankRecorder read_recorder_json(const std::string& text) {
  return read_recorder_json(json::parse(text));
}

RankRecorder read_recorder_file(const std::string& path) {
  return read_recorder_json(load_json(path));
}

} // namespace mrpic::obs
