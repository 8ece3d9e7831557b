#include "gles2/cmdstream.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "common/fault.h"
#include "gles2/context.h"

namespace mgpu::gles2::cmd {
namespace {

// Commands per list before the open list auto-submits: long enough to
// amortize the submit handshake, short enough that the device pipeline
// stays busy while the client keeps recording.
constexpr std::size_t kAutoFlush = 256;
// Lists one queue may have in flight before Flush blocks (backpressure, so
// a producer that never syncs cannot queue unbounded memory).
constexpr int kMaxInFlight = 64;
// Per-draw cap on snapshotted client-array bytes; a draw that would copy
// more falls back to sync+inline instead of duplicating a huge array.
constexpr std::uint64_t kMaxSnapshotBytes = 1ull << 30;

int ElemSize(GLenum type) {
  switch (type) {
    case GL_FLOAT:
      return 4;
    case GL_SHORT:
    case GL_UNSIGNED_SHORT:
      return 2;
    default:  // GL_BYTE / GL_UNSIGNED_BYTE (the shadow holds valid types)
      return 1;
  }
}

}  // namespace

void CommandList::Execute(Context& ctx) {
  for (const Cmd& c : cmds_) c(ctx);
}

// The process-wide submit device: one consumer thread executing command
// lists from every live context in FIFO arrival order — the fairness model
// real VC4 gives multiple clients of one GPU. A function-local static so
// the thread exists only once some context actually records, and is joined
// at process exit (keeps ASan/TSan happy about lingering threads).
class Device {
 public:
  static Device& Get() {
    static Device device;
    return device;
  }

  void Register(CommandQueue* q) {
    std::lock_guard<std::mutex> lk(mu_);
    queues_.push_back(q);
  }

  void Unregister(CommandQueue* q) {
    std::lock_guard<std::mutex> lk(mu_);
    queues_.erase(std::remove(queues_.begin(), queues_.end(), q),
                  queues_.end());
  }

  // Hands a list to the consumer. Blocks while the queue is at its
  // in-flight cap. The seeded kCmdSubmit fault drops the list wholesale
  // here — the "lost control list" the fault tests sweep.
  void Submit(CommandQueue* q, CommandList list) {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [q] { return q->in_flight_ < kMaxInFlight; });
    if (fault::ShouldFail(fault::Site::kCmdSubmit)) {
      q->submit_failed_.store(true, std::memory_order_release);
      q->lists_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ++q->in_flight_;
    fifo_.push_back(Pending{q, std::move(list)});
    work_cv_.notify_one();
  }

  // Waits until every list submitted by `q` has retired.
  void Join(CommandQueue* q) {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [q] { return q->in_flight_ == 0; });
  }

  // Fault-registry quiesce hook: flush and drain every queue so deferred
  // work executes under the current armed state before it changes. Runs on
  // the arming thread; the fault threading contract guarantees no client
  // thread is recording concurrently.
  void QuiesceAll() {
    std::vector<CommandQueue*> qs;
    {
      std::lock_guard<std::mutex> lk(mu_);
      qs = queues_;
    }
    for (CommandQueue* q : qs) q->Flush();
    for (CommandQueue* q : qs) Join(q);
  }

  [[nodiscard]] bool OnDeviceThread() const {
    return std::this_thread::get_id() == thread_id_;
  }

 private:
  struct Pending {
    CommandQueue* q;
    CommandList list;
  };

  Device() {
    thread_ = std::thread(&Device::Loop, this);
    thread_id_ = thread_.get_id();
    // Hook last: from here on Arm/Disarm/Hits drain this device first.
    fault::SetQuiesceHook([] { Device::Get().QuiesceAll(); });
  }

  ~Device() {
    // Unhook first so a late Arm/Disarm cannot call into a dying device.
    fault::SetQuiesceHook(nullptr);
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    thread_.join();
  }

  void Loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      work_cv_.wait(lk, [this] { return stop_ || !fifo_.empty(); });
      if (fifo_.empty()) {
        if (stop_) return;  // drained — safe to exit
        continue;
      }
      Pending p = std::move(fifo_.front());
      fifo_.pop_front();
      lk.unlock();
      // The queue outlives its in-flight lists: ~CommandQueue joins before
      // unregistering, so `p.q` and its owner context are alive here.
      bool ok = true;
      try {
        p.list.Execute(*p.q->owner_);
      } catch (...) {
        // A command escaping with an exception means the rest of the list
        // is lost — same client-visible contract as a dropped submit.
        ok = false;
      }
      if (ok) {
        p.q->lists_executed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        p.q->submit_failed_.store(true, std::memory_order_release);
        p.q->lists_dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      lk.lock();
      --p.q->in_flight_;
      done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;   // consumer wakeup
  std::condition_variable done_cv_;   // backpressure / join wakeup
  std::deque<Pending> fifo_;
  std::vector<CommandQueue*> queues_;
  bool stop_ = false;
  std::thread thread_;
  std::thread::id thread_id_;
};

CommandQueue::CommandQueue(Context* owner, std::size_t attrib_count)
    : owner_(owner), attribs_(attrib_count) {
  Device::Get().Register(this);
}

CommandQueue::~CommandQueue() {
  Flush();
  Device::Get().Join(this);
  Device::Get().Unregister(this);
}

bool CommandQueue::Recording() const {
  return !Device::Get().OnDeviceThread();
}

void CommandQueue::Push(std::function<void(Context&)> cmd) {
  ++stats_.recorded;
  open_.Push(std::move(cmd));
  if (open_.size() >= kAutoFlush) Flush();
}

void CommandQueue::Flush() {
  if (open_.empty()) return;
  ++stats_.lists_submitted;
  Device::Get().Submit(this, std::move(open_));
  open_ = CommandList();
}

void CommandQueue::Join() { Device::Get().Join(this); }

bool CommandQueue::TakeSubmitFailure() {
  if (!submit_failed_.exchange(false, std::memory_order_acq_rel)) {
    return false;
  }
  ResyncShadow();
  return true;
}

Stats CommandQueue::stats() const {
  Stats s = stats_;
  s.lists_executed = lists_executed_.load(std::memory_order_relaxed);
  s.lists_dropped = lists_dropped_.load(std::memory_order_relaxed);
  return s;
}

void CommandQueue::ResyncShadow() {
  const std::size_t n = std::min(attribs_.size(), owner_->attribs_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = owner_->attribs_[i];
    attribs_[i] = AttribShadow{a.enabled, a.size,    a.type,
                               a.stride,  a.pointer, a.buffer};
  }
  array_buffer_ = owner_->array_buffer_;
  element_array_buffer_ = owner_->element_array_buffer_;
}

// --- attribute / buffer shadow mirrors -----------------------------------

void CommandQueue::EnableVertexAttribArray(GLuint index) {
  if (index < attribs_.size()) attribs_[index].enabled = true;
  Push([index](Context& c) { c.EnableVertexAttribArray(index); });
}

void CommandQueue::DisableVertexAttribArray(GLuint index) {
  if (index < attribs_.size()) attribs_[index].enabled = false;
  Push([index](Context& c) { c.DisableVertexAttribArray(index); });
}

void CommandQueue::VertexAttribPointer(GLuint index, GLint size, GLenum type,
                                       GLboolean normalized, GLsizei stride,
                                       const void* pointer) {
  const bool type_ok = type == GL_FLOAT || type == GL_UNSIGNED_BYTE ||
                       type == GL_BYTE || type == GL_SHORT ||
                       type == GL_UNSIGNED_SHORT;
  if (index < attribs_.size() && size >= 1 && size <= 4 && stride >= 0 &&
      type_ok) {
    AttribShadow& a = attribs_[index];
    a.size = size;
    a.type = type;
    a.stride = stride;
    a.pointer = pointer;
    a.buffer = array_buffer_;
  }
  Push([index, size, type, normalized, stride, pointer](Context& c) {
    c.VertexAttribPointer(index, size, type, normalized, stride, pointer);
  });
}

void CommandQueue::BindBuffer(GLenum target, GLuint id) {
  if (target == GL_ARRAY_BUFFER) {
    array_buffer_ = id;
  } else if (target == GL_ELEMENT_ARRAY_BUFFER) {
    element_array_buffer_ = id;
  }
  Push([target, id](Context& c) { c.BindBuffer(target, id); });
}

void CommandQueue::DeleteBuffers(GLsizei n, const GLuint* ids) {
  std::shared_ptr<std::vector<GLuint>> copy;
  if (ids != nullptr && n > 0) {
    copy = std::make_shared<std::vector<GLuint>>(ids, ids + n);
    for (const GLuint id : *copy) {
      if (id == 0) continue;
      if (array_buffer_ == id) array_buffer_ = 0;
      if (element_array_buffer_ == id) element_array_buffer_ = 0;
      // Mirrors the context's delete-detach semantics: attributes sourcing
      // a deleted buffer fall back to a null client pointer.
      for (AttribShadow& a : attribs_) {
        if (a.buffer == id) {
          a.buffer = 0;
          a.pointer = nullptr;
        }
      }
    }
  }
  Push([n, copy](Context& c) {
    c.DeleteBuffers(copy ? static_cast<GLsizei>(copy->size()) : n,
                    copy ? copy->data() : nullptr);
  });
}

// --- draw recording ------------------------------------------------------

bool CommandQueue::HasClientAttribs() const {
  for (const AttribShadow& a : attribs_) {
    if (a.enabled && a.buffer == 0 && a.pointer != nullptr) return true;
  }
  return false;
}

bool CommandQueue::SnapshotClientAttribs(
    GLuint max_vertex, std::shared_ptr<std::vector<AttribCopy>>* out) {
  auto copies = std::make_shared<std::vector<AttribCopy>>();
  for (std::size_t i = 0; i < attribs_.size(); ++i) {
    const AttribShadow& a = attribs_[i];
    if (!a.enabled || a.buffer != 0 || a.pointer == nullptr) continue;
    const std::uint64_t esz =
        static_cast<std::uint64_t>(ElemSize(a.type));
    const std::uint64_t stride =
        a.stride != 0 ? static_cast<std::uint64_t>(a.stride)
                      : static_cast<std::uint64_t>(a.size) * esz;
    // Exactly the bytes the immediate-mode gather may touch for vertices
    // [0, max_vertex]: client arrays carry no size, so this span is what
    // the GL contract obliges the caller to keep readable.
    const std::uint64_t bytes =
        stride * max_vertex + static_cast<std::uint64_t>(a.size) * esz;
    if (bytes > kMaxSnapshotBytes) return false;
    const auto* src = static_cast<const std::uint8_t*>(a.pointer);
    AttribCopy copy;
    copy.index = static_cast<GLuint>(i);
    copy.bytes = std::make_shared<std::vector<std::uint8_t>>(
        src, src + static_cast<std::size_t>(bytes));
    copies->push_back(std::move(copy));
  }
  *out = std::move(copies);
  return true;
}

bool CommandQueue::DrawArrays(GLenum mode, GLint first, GLsizei count) {
  if (!ShadowTrusted()) return false;  // sync, repair, run inline
  // Argument errors (first<0, count<0) and empty draws never read vertex
  // memory, and neither does a draw with no enabled client arrays (VBO
  // contents travel inside the recorded stream) — record those plain.
  if (first < 0 || count <= 0 || !HasClientAttribs()) {
    ++stats_.draws;
    Push([mode, first, count](Context& c) { c.DrawArrays(mode, first, count); });
    return true;
  }
  // Client arrays with a nonzero base vertex would snapshot [0, first)
  // bytes immediate mode never reads; rare enough to just run inline.
  if (first > 0) return false;
  std::shared_ptr<std::vector<AttribCopy>> copies;
  if (!SnapshotClientAttribs(static_cast<GLuint>(count - 1), &copies)) {
    return false;
  }
  ++stats_.draws;
  Push([mode, first, count, copies](Context& c) {
    c.ReplayRecordedDraw(mode, first, count, /*elements=*/false, 0, nullptr,
                         copies);
  });
  return true;
}

bool CommandQueue::DrawElements(GLenum mode, GLsizei count, GLenum type,
                                const void* indices) {
  if (!ShadowTrusted()) return false;
  // Argument errors surface at execution without touching index memory.
  if (count <= 0 ||
      (type != GL_UNSIGNED_BYTE && type != GL_UNSIGNED_SHORT)) {
    ++stats_.draws;
    Push([mode, count, type, indices](Context& c) {
      c.DrawElements(mode, count, type, indices);
    });
    return true;
  }
  const bool client_attribs = HasClientAttribs();
  if (element_array_buffer_ != 0) {
    // Indices live in a VBO whose contents the record stream owns; but
    // with client vertex arrays the snapshot span needs the index range,
    // which is unknowable here — run those inline.
    if (client_attribs) return false;
    ++stats_.draws;
    Push([mode, count, type, indices](Context& c) {
      c.DrawElements(mode, count, type, indices);
    });
    return true;
  }
  if (indices == nullptr) {
    // Null client index pointer: errors at execution, reads nothing.
    ++stats_.draws;
    Push([mode, count, type, indices](Context& c) {
      c.DrawElements(mode, count, type, indices);
    });
    return true;
  }
  // Client index array: copy it now (the GL contract consumes it at the
  // call), and scan the range for the attribute snapshot span.
  const std::size_t esz = type == GL_UNSIGNED_BYTE ? 1 : 2;
  const auto* src = static_cast<const std::uint8_t*>(indices);
  auto idx = std::make_shared<std::vector<std::uint8_t>>(
      src, src + static_cast<std::size_t>(count) * esz);
  std::shared_ptr<std::vector<AttribCopy>> copies;
  if (client_attribs) {
    GLuint minv = ~0u, maxv = 0;
    for (GLsizei i = 0; i < count; ++i) {
      GLuint v;
      if (type == GL_UNSIGNED_BYTE) {
        v = (*idx)[static_cast<std::size_t>(i)];
      } else {
        std::uint16_t raw;
        std::memcpy(&raw, idx->data() + static_cast<std::size_t>(i) * 2, 2);
        v = raw;
      }
      minv = std::min(minv, v);
      maxv = std::max(maxv, v);
    }
    // A min index above 0 would make the snapshot read [0, min) bytes the
    // immediate gather never touches — run inline instead.
    if (minv > 0) return false;
    if (!SnapshotClientAttribs(maxv, &copies)) return false;
  }
  ++stats_.draws;
  Push([mode, count, type, idx, copies](Context& c) {
    c.ReplayRecordedDraw(mode, /*first=*/0, count, /*elements=*/true, type,
                         idx, copies);
  });
  return true;
}

}  // namespace mgpu::gles2::cmd
