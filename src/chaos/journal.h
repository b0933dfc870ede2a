// Master-side write-ahead task-attempt journal (chaos & recovery subsystem).
//
// Every durable scheduler decision — worker registration, task submission,
// dispatch (the label decision as applied), completion, permanent failure,
// cancellation, and the labeler's exhaustion observations — is appended as
// one record. The journal is the master's recovery truth: a task counts as
// done if and only if its terminal record was journaled, so a master that
// dies mid-run can be rebuilt with Master::recover(journal) and finish the
// workload with every task completed exactly once (in-flight attempts at
// crash time were never journaled terminal and simply re-run).
//
// Each record is written once, as bytes: a varint length, then the
// JournalEntry's fields in declaration order through serde::Writer (the
// task spec only on submit records). The journal keeps its log as those
// bytes and, with a file attached, appends the same bytes to the file
// before the appender returns — the write-ahead discipline: the record is
// written before the state change's downstream effects (completion
// callbacks, requeues) run. Records are decoded only when they are read
// (entries(), completed_task_ids(), Journal::decode).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "alloc/resources.h"
#include "serde/value.h"
#include "wq/task.h"

namespace lfm::chaos {

// The record's kind byte. The values are written to journal files: add a
// kind only at the end.
enum class EntryKind : uint8_t {
  kWorkerAdded,  // worker joined the pool
  kWorkerLost,   // worker crashed or retired
  kSubmitted,    // task entered the system
  kDispatched,   // attempt sent to a worker with its allocation
  kCompleted,    // terminal: result landed (observed peak attached)
  kFailed,       // terminal: permanently failed (reason attached)
  kCancelled,    // terminal: cancelled by the user
  kExhaustion,   // the labeler's exhaustion observation for one attempt
};

struct JournalEntry {
  EntryKind kind = EntryKind::kSubmitted;
  double ts = 0.0;           // simulation time of the append
  uint64_t task = 0;         // task id (task-scoped records)
  int worker = -1;           // worker id (worker-scoped records)
  int attempt = 0;           // kDispatched
  double ready_time = 0.0;   // kWorkerAdded
  // kWorkerAdded: capacity; kDispatched/kExhaustion: the allocation;
  // kCompleted: the observed peak.
  alloc::Resources res;
  std::string text;          // kExhaustion: category; kFailed: reason
  std::string text2;         // kExhaustion: exhausted resource
  wq::TaskSpec spec;         // kSubmitted only
};

class Journal {
 public:
  Journal() = default;  // in-memory only
  // Also append every record to `path` (opened in binary mode, truncated).
  // The stream is OS-buffered; call flush() at checkpoints if the file must
  // be current.
  explicit Journal(const std::string& path);

  Journal(Journal&&) = default;
  Journal& operator=(Journal&&) = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // --- typed appenders (ts = simulation time) ------------------------------
  void worker_added(int worker_id, const alloc::Resources& capacity,
                    double ready_time, double ts);
  // A worker left the pool (crash or idle retirement); recovery re-adds only
  // workers that were still live when the journal ends.
  void worker_lost(int worker_id, double ts);
  void submitted(const wq::TaskSpec& spec, double ts);
  void dispatched(uint64_t task_id, int worker_id, int attempt,
                  const alloc::Resources& alloc, double ts);
  // The "done" record carries the observed peak so recovery can replay the
  // labeler's success observation exactly once per completed task.
  void completed(uint64_t task_id, const alloc::Resources& observed_peak,
                 double ts);
  void failed(uint64_t task_id, const std::string& reason, double ts);
  void cancelled(uint64_t task_id, double ts);
  void observed_exhaustion(uint64_t task_id, const std::string& category,
                           const alloc::Resources& allocated,
                           const std::string& resource, double ts);

  // The records, decoded, in append order.
  std::vector<JournalEntry> entries() const;
  size_t size() const { return records_; }
  void flush();

  // The done flags: ids of every task with a kCompleted record. This is the
  // exactly-once dedup set a restarted (or federated) master consults —
  // resubmitting a task whose id appears here must not run it again.
  std::unordered_set<uint64_t> completed_task_ids() const;

  // The log as written, which is also what a file-backed journal's file
  // holds.
  const serde::Bytes& bytes() const { return log_; }
  // Parse a log (bytes() or a journal file's contents). Each record is read
  // within its exact length; a truncated record, a length mismatch, an
  // unknown kind or a bad flag byte throws lfm::Error naming the record's
  // index. The result is in-memory only (no file sink).
  static Journal decode(const serde::Bytes& bytes);

 private:
  void append(const JournalEntry& entry);

  serde::Bytes log_;
  size_t records_ = 0;
  serde::Bytes record_;  // scratch: the record being appended
  std::unique_ptr<std::ofstream> file_;
};

}  // namespace lfm::chaos
