#include "src/obs/durable_file.hpp"

#include <fcntl.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

namespace mrpic::obs {

bool JsonlAppender::open(const std::string& path, bool append) {
  m_os = std::ofstream(path, append ? std::ios::app : std::ios::trunc);
  m_path = m_os.is_open() ? path : std::string();
  return m_os.is_open();
}

bool JsonlAppender::append(const JsonWriteFn& write) {
  if (!m_os.is_open()) { return false; }
  write(m_os);
  m_os << '\n';
  m_os.flush();
  return m_os.good();
}

namespace {

// Atomically swap two existing files (renameat2 RENAME_EXCHANGE). False
// when `to` does not exist yet, or the platform or filesystem lacks the
// call.
bool exchange_files(const std::string& from, const std::string& to) {
#ifdef RENAME_EXCHANGE
  return ::renameat2(AT_FDCWD, from.c_str(), AT_FDCWD, to.c_str(), RENAME_EXCHANGE) == 0;
#else
  (void)from;
  (void)to;
  return false;
#endif
}

} // namespace

bool rewrite_json_atomic(const std::string& path, const JsonWriteFn& write) {
  const std::string tmp = path + ".tmp";
  bool ok = false;
  {
    std::ofstream os(tmp, std::ios::trunc);  // a failed open fails good()
    write(os);
    os << '\n';
    os.flush();
    ok = os.good();
  }
  // Replace an existing document by swapping it with the tmp file and then
  // deleting the tmp (now the old document) rather than renaming over it:
  // on ext4 a rename over an existing file starts writeback of the new
  // file's data, which made a heartbeat rewrite right after a step cost
  // 0.4-0.5 ms instead of ~0.2 ms. Readers see the old or the new document
  // either way.
  if (ok && exchange_files(tmp, path)) {
    std::remove(tmp.c_str());
    return true;
  }
  std::error_code ec;
  if (ok) { std::filesystem::rename(tmp, path, ec); }
  if (!ok || ec) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::size_t read_jsonl(const std::string& path, const std::string& what,
                       const std::function<void(const std::string&)>& parse,
                       const std::function<void(std::size_t, const char*)>& on_skip) {
  std::ifstream is(path);
  if (!is) { throw std::runtime_error("cannot open " + what + ": " + path); }
  std::size_t skipped = 0;
  std::size_t lineno = 0;
  std::string line;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) { continue; }
    try {
      parse(line);
    } catch (const std::exception& e) {
      ++skipped;
      if (on_skip) { on_skip(lineno, e.what()); }
    }
  }
  return skipped;
}

json::Value load_json(const std::string& path) {
  std::ifstream is(path);
  if (!is) { throw std::runtime_error("cannot open " + path); }
  std::stringstream ss;
  ss << is.rdbuf();
  try {
    return json::parse(ss.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

} // namespace mrpic::obs
