#pragma once

// obs durable files: the one implementation of how telemetry reaches disk
// and is read back. Every JSON/JSONL producer and reader goes through these
// four operations (DESIGN.md, "Durable files and cadences"):
//  - JsonlAppender: append one line and flush, so each record is on disk
//    before the next step can crash (events, insitu series, health alerts
//    and ledger, bench history);
//  - rewrite_json_atomic: write <path>.tmp, flush, swap it with <path>
//    (or rename it there), so a poller never reads a torn document
//    (run.json, progress.json, stream manifest, traces and reports);
//  - read_jsonl: tolerant line reader (a crashed writer's half line or a
//    foreign schema is skipped and counted);
//  - load_json: read and parse one whole document.

#include <cstddef>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>

#include "src/obs/json.hpp"

namespace mrpic::obs {

// Serializes one record (a JSONL line without its newline, or a document).
using JsonWriteFn = std::function<void(std::ostream&)>;

class JsonlAppender {
public:
  // Open `path`, truncating it unless `append`. Returns false (and stays
  // closed) when the file cannot be opened.
  bool open(const std::string& path, bool append);
  bool is_open() const { return m_os.is_open(); }
  const std::string& path() const { return m_path; }

  // Write one line, end it and flush. Returns false when the appender is
  // closed or the stream failed.
  bool append(const JsonWriteFn& write);

private:
  std::ofstream m_os;
  std::string m_path;
};

// Replace `path` atomically with one document (plus a trailing newline).
// Returns false, leaving `path` untouched and no tmp file behind, when the
// document cannot be written or renamed.
bool rewrite_json_atomic(const std::string& path, const JsonWriteFn& write);

// Feed every non-empty line of `path` to `parse`, in file order. A line for
// which `parse` throws is skipped; `on_skip` (when set) gets its 1-based
// line number and the error. Returns the number of skipped lines; throws
// std::runtime_error("cannot open <what>: <path>") when the file cannot be
// opened.
std::size_t read_jsonl(const std::string& path, const std::string& what,
                       const std::function<void(const std::string&)>& parse,
                       const std::function<void(std::size_t, const char*)>& on_skip = {});

// Read and parse one whole JSON document.
json::Value load_json(const std::string& path);

} // namespace mrpic::obs
