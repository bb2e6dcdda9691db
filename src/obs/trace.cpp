#include "src/obs/trace.hpp"

#include <set>

#include "src/obs/durable_file.hpp"
#include "src/obs/json.hpp"
#include "src/obs/rank_recorder.hpp"

namespace mrpic::obs {

namespace {

void write_name_meta(json::Writer& w, const char* kind, int pid, int tid,
                     const std::string& name) {
  w.begin_object().field("name", kind).field("ph", "M").field("pid", pid).field("tid", tid);
  w.begin_object("args").field("name", name).end_object();
  w.end_object();
}

// Profiler events on pid 0, with process/thread naming metadata.
void write_profiler_events(json::Writer& w, const std::vector<TraceEvent>& events,
                           const std::string& process_name) {
  write_name_meta(w, "process_name", 0, 0, process_name);
  std::set<int> tids;
  for (const auto& ev : events) { tids.insert(ev.tid); }
  for (int tid : tids) {
    write_name_meta(w, "thread_name", 0, tid,
                    tid == 0 ? "main" : "worker " + std::to_string(tid));
  }
  for (const auto& ev : events) {
    w.begin_object()
        .field("name", ev.name)
        .field("cat", "mrpic")
        .field("ph", "X")
        .field("ts", ev.ts_us)
        .field("dur", ev.dur_us)
        .field("pid", 0)
        .field("tid", ev.tid);
    w.begin_object("args").field("step", ev.step).end_object();
    w.end_object();
  }
}

// Rank lanes: pid = rank + 1, one synthetic timeline where recorded steps
// are laid out back-to-back (step k spans the max over ranks of its
// compute + comm). Flow events connect the halo slices of message partners.
void write_rank_lanes(json::Writer& w, const RankRecorder& ranks) {
  for (int r = 0; r < ranks.nranks(); ++r) {
    write_name_meta(w, "process_name", r + 1, 0, "rank " + std::to_string(r));
    write_name_meta(w, "thread_name", r + 1, 0, "timeline");
  }

  // Step start offsets on the synthetic timeline, keyed by position in the
  // recorded sequence (steps() and messages() share step tags).
  std::vector<double> step_start_us(ranks.steps().size(), 0.0);
  double t_us = 0;
  for (std::size_t k = 0; k < ranks.steps().size(); ++k) {
    step_start_us[k] = t_us;
    t_us += ranks.steps()[k].max_total_s() * 1e6;
  }

  for (std::size_t k = 0; k < ranks.steps().size(); ++k) {
    const auto& step = ranks.steps()[k];
    const double t0 = step_start_us[k];
    for (const auto& rs : step.ranks) {
      if (rs.compute_s > 0) {
        w.begin_object()
            .field("name", "compute")
            .field("cat", "rank")
            .field("ph", "X")
            .field("ts", t0)
            .field("dur", rs.compute_s * 1e6)
            .field("pid", rs.rank + 1)
            .field("tid", 0);
        w.begin_object("args")
            .field("step", step.step)
            .field("boxes", rs.boxes)
            .end_object();
        w.end_object();
      }
      if (rs.comm_s > 0) {
        // Producers that split comm into phases get back-to-back halo_post /
        // halo_wait sub-spans (post_s + wait_s == comm_s, so the lane covers
        // the same interval); legacy recorders keep the single halo slice.
        const bool phased = rs.post_s + rs.wait_s > 0;
        if (phased && rs.post_s > 0) {
          w.begin_object()
              .field("name", "halo_post")
              .field("cat", "rank")
              .field("ph", "X")
              .field("ts", t0 + rs.compute_s * 1e6)
              .field("dur", rs.post_s * 1e6)
              .field("pid", rs.rank + 1)
              .field("tid", 0);
          w.begin_object("args")
              .field("step", step.step)
              .field("messages", rs.messages)
              .end_object();
          w.end_object();
        }
        if (phased && rs.wait_s > 0) {
          w.begin_object()
              .field("name", "halo_wait")
              .field("cat", "rank")
              .field("ph", "X")
              .field("ts", t0 + (rs.compute_s + rs.post_s) * 1e6)
              .field("dur", rs.wait_s * 1e6)
              .field("pid", rs.rank + 1)
              .field("tid", 0);
          w.begin_object("args")
              .field("step", step.step)
              .field("bytes_sent", rs.bytes_sent)
              .field("bytes_recv", rs.bytes_recv)
              .field("messages", rs.messages)
              .field("interior_compute_s", rs.interior_compute_s)
              .field("overlap_headroom_s", rs.overlap_headroom_s)
              .end_object();
          w.end_object();
        }
        if (!phased) {
          w.begin_object()
              .field("name", "halo")
              .field("cat", "rank")
              .field("ph", "X")
              .field("ts", t0 + rs.compute_s * 1e6)
              .field("dur", rs.comm_s * 1e6)
              .field("pid", rs.rank + 1)
              .field("tid", 0);
          w.begin_object("args")
              .field("step", step.step)
              .field("bytes_sent", rs.bytes_sent)
              .field("bytes_recv", rs.bytes_recv)
              .field("messages", rs.messages)
              .end_object();
          w.end_object();
        }
      }
    }
  }

  // Flow events: "s" anchored inside the source rank's halo slice, "f"
  // (binding point "e": the enclosing slice) inside the destination's.
  // Matching cat+id pairs them; Perfetto draws the arrow between lanes.
  std::int64_t flow_id = 0;
  std::size_t k = 0;
  for (const auto& msg : ranks.messages()) {
    while (k + 1 < ranks.steps().size() && ranks.steps()[k].step != msg.step) { ++k; }
    if (k >= ranks.steps().size() || ranks.steps()[k].step != msg.step) { continue; }
    const auto& step = ranks.steps()[k];
    const auto halo_mid_us = [&](int rank) {
      const auto& rs = step.ranks[static_cast<std::size_t>(rank)];
      return step_start_us[k] + (rs.compute_s + rs.comm_s / 2) * 1e6;
    };
    w.begin_object()
        .field("name", "halo_msg")
        .field("cat", "halo")
        .field("ph", "s")
        .field("id", flow_id)
        .field("ts", halo_mid_us(msg.src_rank))
        .field("pid", msg.src_rank + 1)
        .field("tid", 0);
    w.begin_object("args").field("bytes", msg.bytes).end_object();
    w.end_object();
    w.begin_object()
        .field("name", "halo_msg")
        .field("cat", "halo")
        .field("ph", "f")
        .field("bp", "e")
        .field("id", flow_id)
        .field("ts", halo_mid_us(msg.dst_rank))
        .field("pid", msg.dst_rank + 1)
        .field("tid", 0);
    w.begin_object("args").field("bytes", msg.bytes).end_object();
    w.end_object();
    ++flow_id;
  }

  // Fault/recovery events (crash, detect, rollback, remap, replay,
  // checkpoint, slowdown) as instant events on the affected rank's lane,
  // anchored at the start of their step (events past the recorded steps
  // land at the end of the timeline).
  for (const auto& ev : ranks.fault_events()) {
    double ts = t_us;
    for (std::size_t j = 0; j < ranks.steps().size(); ++j) {
      if (ranks.steps()[j].step == ev.step) {
        ts = step_start_us[j];
        break;
      }
    }
    w.begin_object()
        .field("name", ev.kind)
        .field("cat", "fault")
        .field("ph", "i")
        .field("s", "p")
        .field("ts", ts)
        .field("pid", (ev.rank < 0 ? 0 : ev.rank) + 1)
        .field("tid", 0);
    w.begin_object("args")
        .field("step", ev.step)
        .field("rank", ev.rank)
        .field("time_s", ev.time_s)
        .field("detail", ev.detail)
        .end_object();
    w.end_object();
  }
}

void write_trace_doc(std::ostream& os, const std::vector<TraceEvent>& events,
                     const RankRecorder* ranks, const std::string& process_name) {
  json::Writer w(os);
  w.begin_object();
  w.begin_array("traceEvents");
  write_profiler_events(w, events, process_name);
  if (ranks != nullptr) { write_rank_lanes(w, *ranks); }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
}

} // namespace

void write_chrome_trace(const std::vector<TraceEvent>& events, std::ostream& os,
                        const std::string& process_name) {
  write_trace_doc(os, events, nullptr, process_name);
}

void write_chrome_trace(const std::vector<TraceEvent>& events, const RankRecorder& ranks,
                        std::ostream& os, const std::string& process_name) {
  write_trace_doc(os, events, &ranks, process_name);
}

bool write_chrome_trace(const Profiler& profiler, const std::string& path,
                        const std::string& process_name) {
  return rewrite_json_atomic(path, [&](std::ostream& os) {
    write_chrome_trace(profiler.trace_events(), os, process_name);
  });
}

bool write_chrome_trace(const Profiler& profiler, const RankRecorder& ranks,
                        const std::string& path, const std::string& process_name) {
  return rewrite_json_atomic(path, [&](std::ostream& os) {
    write_chrome_trace(profiler.trace_events(), ranks, os, process_name);
  });
}

} // namespace mrpic::obs
