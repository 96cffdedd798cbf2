#include "span_trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace perfbench {

thread_local ThreadTrace* tl_trace = nullptr;

namespace {
uint32_t Clamp32(uint64_t ns) {
  return static_cast<uint32_t>(
      std::min<uint64_t>(ns, std::numeric_limits<uint32_t>::max()));
}
}  // namespace

const char* SpanNameStr(SpanName name) {
  switch (name) {
    case SpanName::kOp: return "op";
    case SpanName::kBegin: return "odepp.begin";
    case SpanName::kInvoke: return "odepp.invoke";
    case SpanName::kInvokeTabort: return "odepp.invoke_tabort";
    case SpanName::kLoad: return "odepp.load";
    case SpanName::kCommit: return "odepp.commit";
    case SpanName::kAbort: return "odepp.abort";
    case SpanName::kNew: return "odepp.new";
    case SpanName::kActivate: return "odepp.activate";
    case SpanName::kIsActive: return "odepp.is_active";
    case SpanName::kStorageRead: return "storage.read";
    case SpanName::kStorageWrite: return "storage.write";
    case SpanName::kStorageAlloc: return "storage.alloc";
    case SpanName::kStorageFree: return "storage.free";
    case SpanName::kStorageExists: return "storage.exists";
    case SpanName::kStorageRoot: return "storage.root";
    case SpanName::kStorageBegin: return "storage.begin";
    case SpanName::kStorageCommit: return "storage.commit";
    case SpanName::kStorageCommitWait: return "storage.commit_wait";
    case SpanName::kStorageAbort: return "storage.abort";
    case SpanName::kWalAppend: return "device.wal_append";
    case SpanName::kWalSync: return "device.wal_sync";
    case SpanName::kPageRead: return "device.page_read";
    case SpanName::kPageWrite: return "device.page_write";
    case SpanName::kPageSync: return "device.page_sync";
    case SpanName::kCount: break;
  }
  return "?";
}

ThreadTrace::ThreadTrace(uint16_t thread, size_t keep_limit)
    : thread_(thread), keep_limit_(keep_limit) {
  stack_.reserve(16);
  kept_.reserve(keep_limit);
}

void ThreadTrace::BeginOp() {
  current_op_ = (static_cast<uint64_t>(thread_) << 40) | ++op_seq_;
  // Stop keeping raw spans at an op boundary, so every exported op is
  // complete.
  if (kept_.size() >= keep_limit_) keeping_ = false;
  stack_.push_back(Open{NowNs(), 0, next_id_++, 0});
}

uint64_t ThreadTrace::EndOp(uint8_t label) {
  const uint64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const uint64_t dur = end - open.start;
  op_ns_ += dur;
  covered_ns_ += open.child_ns;
  dur_[static_cast<size_t>(SpanName::kOp)].push_back(Clamp32(dur));
  if (keeping_) {
    kept_.push_back(SpanRecord{open.start, end, current_op_, open.id, 0,
                               thread_, SpanName::kOp, label});
  }
  return dur;
}

void ThreadTrace::Begin() {
  const uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Open{NowNs(), 0, next_id_++, parent});
}

void ThreadTrace::End(SpanName name) {
  const uint64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const uint64_t dur = end - open.start;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  const size_t k = static_cast<size_t>(name);
  dur_[k].push_back(Clamp32(dur));
  // Self time is kept only where it is reported: the Session calls and
  // the storage commit. The many leaf spans below skip the second push.
  if (name < SpanName::kStorageRead || name == SpanName::kStorageCommit) {
    self_[k].push_back(Clamp32(dur - open.child_ns));
  }
  if (keeping_) {
    kept_.push_back(SpanRecord{open.start, end, current_op_, open.id,
                               open.parent, thread_, name, 0});
  }
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const ThreadTrace*>& traces,
                      const std::vector<std::string>& op_labels) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = std::numeric_limits<uint64_t>::max();
  for (const ThreadTrace* t : traces) {
    for (const SpanRecord& r : t->kept()) t0 = std::min(t0, r.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const ThreadTrace* t : traces) {
    for (const SpanRecord& r : t->kept()) {
      std::string name = SpanNameStr(r.name);
      if (r.name == SpanName::kOp && r.label < op_labels.size()) {
        name += "." + op_labels[r.label];
      }
      const char* cat =
          r.name == SpanName::kStorageCommitWait ? "wait" : "span";
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%llu,\"id\":%u,\"parent\":%u}}",
                   first ? "" : ",\n", name.c_str(), cat,
                   static_cast<unsigned>(r.thread),
                   static_cast<double>(r.start_ns - t0) / 1000.0,
                   static_cast<double>(r.end_ns - r.start_ns) / 1000.0,
                   static_cast<unsigned long long>(r.op), r.id, r.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
