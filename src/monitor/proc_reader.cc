#include "monitor/proc_reader.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/io.h"

namespace lfm::monitor {
namespace {

double ticks_to_seconds(unsigned long long ticks) {
  static const long hz = sysconf(_SC_CLK_TCK);
  return static_cast<double>(ticks) / static_cast<double>(hz > 0 ? hz : 100);
}

long page_size() {
  static const long sz = sysconf(_SC_PAGESIZE);
  return sz > 0 ? sz : 4096;
}

// Read a /proc file whole, NUL-terminated so the text parses in place.
// False when it cannot be read, as once the process or thread has exited.
bool read_proc_file(const char* path, std::vector<uint8_t>& text) {
  const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  text.clear();
  const io::ReadStatus status = io::read_available(fd, text);
  ::close(fd);
  if (status != io::ReadStatus::kEof) return false;
  text.push_back('\0');
  return true;
}

const char* as_text(const std::vector<uint8_t>& text) {
  return reinterpret_cast<const char*>(text.data());
}

// The value on the line that starts with `key` in a /proc/<pid>/io dump.
int64_t io_field(const char* text, const char* key) {
  const char* at = std::strstr(text, key);
  return at == nullptr ? 0 : std::strtoll(at + std::strlen(key), nullptr, 10);
}

}  // namespace

std::optional<ProcSample> sample_process(pid_t pid) {
  char path[64];
  std::vector<uint8_t> text;
  std::snprintf(path, sizeof path, "/proc/%d/stat", pid);
  if (!read_proc_file(path, text)) return std::nullopt;

  // Field 2 (comm) may contain spaces/parens; skip past the last ')'.
  const char* rest = std::strrchr(as_text(text), ')');
  if (rest == nullptr) return std::nullopt;
  ++rest;

  // After comm: state(3) ppid(4) ... utime(14) stime(15) cutime(16)
  // cstime(17) ... rss(24, pages).
  char state = 0;
  long ppid = 0, pgrp = 0, session = 0, tty = 0, tpgid = 0;
  unsigned long flags = 0, minflt = 0, cminflt = 0, majflt = 0, cmajflt = 0;
  unsigned long long utime = 0, stime = 0;
  long long cutime = 0, cstime = 0;
  long priority = 0, nice = 0, nthreads = 0, itrealvalue = 0;
  unsigned long long starttime = 0;
  unsigned long vsize = 0;
  long rss_pages = 0;
  const int n = std::sscanf(
      rest,
      " %c %ld %ld %ld %ld %ld %lu %lu %lu %lu %lu %llu %llu %lld %lld %ld %ld %ld %ld %llu %lu %ld",
      &state, &ppid, &pgrp, &session, &tty, &tpgid, &flags, &minflt, &cminflt,
      &majflt, &cmajflt, &utime, &stime, &cutime, &cstime, &priority, &nice,
      &nthreads, &itrealvalue, &starttime, &vsize, &rss_pages);
  if (n < 22) return std::nullopt;

  ProcSample s;
  s.pid = pid;
  s.utime = ticks_to_seconds(utime);
  s.stime = ticks_to_seconds(stime);
  s.cutime = ticks_to_seconds(static_cast<unsigned long long>(cutime < 0 ? 0 : cutime));
  s.cstime = ticks_to_seconds(static_cast<unsigned long long>(cstime < 0 ? 0 : cstime));
  s.rss_bytes = static_cast<int64_t>(rss_pages) * page_size();

  // /proc/<pid>/io requires no special privilege for our own children. Its
  // first line is rchar, so both keys match only at a line start.
  std::snprintf(path, sizeof path, "/proc/%d/io", pid);
  if (read_proc_file(path, text)) {
    s.read_bytes = io_field(as_text(text), "\nread_bytes:");
    s.write_bytes = io_field(as_text(text), "\nwrite_bytes:");
  }
  return s;
}

std::vector<pid_t> process_subtree(pid_t root) {
  // Walk down from the root. A child is listed under the thread that forked
  // it, so every thread's children file is read, not only the main one's.
  std::vector<pid_t> out;
  std::vector<pid_t> pending{root};
  std::vector<uint8_t> text;
  char path[64];
  while (!pending.empty()) {
    const pid_t pid = pending.back();
    pending.pop_back();
    std::snprintf(path, sizeof path, "/proc/%d/task", pid);
    DIR* tasks = ::opendir(path);
    if (tasks == nullptr) continue;  // exited since its parent listed it
    out.push_back(pid);
    while (const dirent* entry = ::readdir(tasks)) {
      if (entry->d_name[0] == '.') continue;
      std::snprintf(path, sizeof path, "/proc/%d/task/%.16s/children", pid,
                    entry->d_name);
      if (!read_proc_file(path, text)) continue;  // the thread exited
      for (const char* cur = as_text(text);;) {
        char* end = nullptr;
        const long child = std::strtol(cur, &end, 10);
        if (end == cur) break;
        pending.push_back(static_cast<pid_t>(child));
        cur = end;
      }
    }
    ::closedir(tasks);
  }
  return out;
}

ResourceUsage sample_subtree(pid_t root, double wall_time) {
  ResourceUsage usage;
  usage.wall_time = wall_time;
  for (const pid_t pid : process_subtree(root)) {
    const auto s = sample_process(pid);
    if (!s) continue;  // exited between the walk and the sample
    usage.cpu_time += s->utime + s->stime;
    // Children that already exited and were reaped fold their CPU time into
    // the parent's cumulative counters — this is how short-lived forks are
    // captured between polls.
    usage.cpu_time += s->cutime + s->cstime;
    usage.rss_bytes += s->rss_bytes;
    usage.disk_read_bytes += s->read_bytes;
    usage.disk_write_bytes += s->write_bytes;
    usage.processes += 1;
  }
  usage.max_rss_bytes = usage.rss_bytes;
  usage.max_processes = usage.processes;
  usage.cores = wall_time > 0.0 ? usage.cpu_time / wall_time : 0.0;
  return usage;
}

}  // namespace lfm::monitor
