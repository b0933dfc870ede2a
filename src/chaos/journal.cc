#include "chaos/journal.h"

#include <algorithm>

#include "serde/pickle.h"
#include "util/error.h"

namespace lfm::chaos {
namespace {

using RecordWriter = serde::Writer<serde::Bytes>;

constexpr uint8_t kLastKind = static_cast<uint8_t>(EntryKind::kExhaustion);

void write_resources(RecordWriter& w, const alloc::Resources& r) {
  w.real(r.cores);
  w.real(r.memory_bytes);
  w.real(r.disk_bytes);
}

alloc::Resources read_resources(serde::Reader& r) {
  alloc::Resources res;
  res.cores = r.real();
  res.memory_bytes = r.real();
  res.disk_bytes = r.real();
  return res;
}

uint8_t read_flag(serde::Reader& r) {
  const uint8_t b = r.u8();
  if (b > 1) throw Error("bad flag byte " + std::to_string(b));
  return b;
}

void write_spec(RecordWriter& w, const wq::TaskSpec& spec) {
  w.varint(spec.id);
  w.str(spec.category);
  w.varint(spec.inputs.size());
  for (const wq::InputFile& f : spec.inputs) {
    w.str(f.name);
    w.svarint(f.size_bytes);
    w.u8(f.cacheable ? 1 : 0);
    w.real(f.unpack_seconds);
  }
  w.svarint(spec.output_bytes);
  w.real(spec.exec_seconds);
  w.real(spec.true_cores);
  write_resources(w, spec.true_peak);
  w.real(spec.peak_fraction);
}

wq::TaskSpec read_spec(serde::Reader& r) {
  wq::TaskSpec spec;
  spec.id = r.varint();
  spec.category = std::string(r.str());
  const uint64_t n = r.varint();
  spec.inputs.reserve(std::min<uint64_t>(n, r.remaining()));
  for (uint64_t i = 0; i < n; ++i) {
    wq::InputFile f;
    f.name = std::string(r.str());
    f.size_bytes = r.svarint();
    f.cacheable = read_flag(r) == 1;
    f.unpack_seconds = r.real();
    spec.inputs.push_back(std::move(f));
  }
  spec.output_bytes = r.svarint();
  spec.exec_seconds = r.real();
  spec.true_cores = r.real();
  spec.true_peak = read_resources(r);
  spec.peak_fraction = r.real();
  return spec;
}

JournalEntry read_entry(serde::Reader& r) {
  JournalEntry e;
  const uint8_t kind = r.u8();
  if (kind > kLastKind) throw Error("unknown kind " + std::to_string(kind));
  e.kind = static_cast<EntryKind>(kind);
  e.ts = r.real();
  e.task = r.varint();
  e.worker = static_cast<int>(r.svarint());
  e.attempt = static_cast<int>(r.svarint());
  e.ready_time = r.real();
  e.res = read_resources(r);
  e.text = std::string(r.str());
  e.text2 = std::string(r.str());
  if (e.kind == EntryKind::kSubmitted) e.spec = read_spec(r);
  return e;
}

JournalEntry entry(EntryKind kind, double ts) {
  JournalEntry e;
  e.kind = kind;
  e.ts = ts;
  return e;
}

// Calls fn with each record of `log`, decoded, in order.
template <typename Fn>
void read_records(const serde::Bytes& log, Fn&& fn) {
  serde::Reader r(log);
  for (size_t index = 0; r.remaining() > 0; ++index) {
    try {
      const uint64_t len = r.varint();
      if (len > r.remaining()) throw Error("truncated record");
      serde::Reader record(r.raw(len), len);
      JournalEntry e = read_entry(record);
      if (record.remaining() != 0) throw Error("record length mismatch");
      fn(std::move(e));
    } catch (const Error& e) {
      throw Error("Journal: record " + std::to_string(index) + ": " + e.what());
    }
  }
}

}  // namespace

Journal::Journal(const std::string& path) {
  file_ = std::make_unique<std::ofstream>(
      path, std::ios::out | std::ios::binary | std::ios::trunc);
  if (!*file_) throw Error("Journal: cannot open '" + path + "' for writing");
}

void Journal::append(const JournalEntry& e) {
  record_.clear();
  RecordWriter w(record_);
  w.u8(static_cast<uint8_t>(e.kind));
  w.real(e.ts);
  w.varint(e.task);
  w.svarint(e.worker);
  w.svarint(e.attempt);
  w.real(e.ready_time);
  write_resources(w, e.res);
  w.str(e.text);
  w.str(e.text2);
  if (e.kind == EntryKind::kSubmitted) write_spec(w, e.spec);

  const size_t at = log_.size();
  RecordWriter(log_).bytes(record_);  // varint length + the record
  ++records_;
  if (file_) {
    file_->write(reinterpret_cast<const char*>(log_.data() + at),
                 static_cast<std::streamsize>(log_.size() - at));
    if (!*file_) throw Error("Journal: write failed");
  }
}

void Journal::flush() {
  if (file_) file_->flush();
}

void Journal::worker_added(int worker_id, const alloc::Resources& capacity,
                           double ready_time, double ts) {
  JournalEntry e = entry(EntryKind::kWorkerAdded, ts);
  e.worker = worker_id;
  e.res = capacity;
  e.ready_time = ready_time;
  append(e);
}

void Journal::worker_lost(int worker_id, double ts) {
  JournalEntry e = entry(EntryKind::kWorkerLost, ts);
  e.worker = worker_id;
  append(e);
}

void Journal::submitted(const wq::TaskSpec& spec, double ts) {
  JournalEntry e = entry(EntryKind::kSubmitted, ts);
  e.task = spec.id;
  e.spec = spec;
  append(e);
}

void Journal::dispatched(uint64_t task_id, int worker_id, int attempt,
                         const alloc::Resources& alloc, double ts) {
  JournalEntry e = entry(EntryKind::kDispatched, ts);
  e.task = task_id;
  e.worker = worker_id;
  e.attempt = attempt;
  e.res = alloc;
  append(e);
}

void Journal::completed(uint64_t task_id, const alloc::Resources& observed_peak,
                        double ts) {
  JournalEntry e = entry(EntryKind::kCompleted, ts);
  e.task = task_id;
  e.res = observed_peak;
  append(e);
}

void Journal::failed(uint64_t task_id, const std::string& reason, double ts) {
  JournalEntry e = entry(EntryKind::kFailed, ts);
  e.task = task_id;
  e.text = reason;
  append(e);
}

void Journal::cancelled(uint64_t task_id, double ts) {
  JournalEntry e = entry(EntryKind::kCancelled, ts);
  e.task = task_id;
  append(e);
}

void Journal::observed_exhaustion(uint64_t task_id, const std::string& category,
                                  const alloc::Resources& allocated,
                                  const std::string& resource, double ts) {
  JournalEntry e = entry(EntryKind::kExhaustion, ts);
  e.task = task_id;
  e.text = category;
  e.res = allocated;
  e.text2 = resource;
  append(e);
}

std::vector<JournalEntry> Journal::entries() const {
  std::vector<JournalEntry> out;
  out.reserve(records_);
  read_records(log_, [&out](JournalEntry&& e) { out.push_back(std::move(e)); });
  return out;
}

std::unordered_set<uint64_t> Journal::completed_task_ids() const {
  std::unordered_set<uint64_t> done;
  read_records(log_, [&done](JournalEntry&& e) {
    if (e.kind == EntryKind::kCompleted) done.insert(e.task);
  });
  return done;
}

Journal Journal::decode(const serde::Bytes& bytes) {
  Journal journal;
  read_records(bytes, [&journal](JournalEntry&&) { ++journal.records_; });
  journal.log_ = bytes;
  return journal;
}

}  // namespace lfm::chaos
