#include "src/server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "src/obs/export.h"
#include "src/vfs/vfs.h"

namespace atomfs {

namespace {

// How much one readiness cycle will read from a single connection before
// yielding to the shard's other connections (fairness under pipelined load).
constexpr size_t kReadChunk = 64u << 10;
constexpr size_t kMaxReadPerCycle = 256u << 10;
// iovec slots offered to one sendmsg; the flush loop chunks longer outboxes.
constexpr int kMaxIov = 64;

uint64_t NowMs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Success responses begin with wire status 0.
std::vector<std::byte> OkResponse(WireWriter&& body) {
  std::vector<std::byte> out;
  out.reserve(1 + body.buf().size());
  out.push_back(std::byte{0});
  out.insert(out.end(), body.buf().begin(), body.buf().end());
  return out;
}

std::vector<std::byte> StatusResponse(Status st) {
  WireWriter w;
  w.U8(WireStatusOf(st.code()));
  return w.Take();
}

// --- routable-op mapping -----------------------------------------------------
// The protocol's path-based FileSystem surface maps onto the one FsOp
// descriptor (src/vfs/filesystem.h): normal dispatch, transactional dispatch
// and the response encoding share this mapping instead of keeping a switch
// statement each.

std::optional<OpKind> PathOpKindOf(WireOp op) {
  switch (op) {
    case WireOp::kMkdir:
      return OpKind::kMkdir;
    case WireOp::kMknod:
      return OpKind::kMknod;
    case WireOp::kRmdir:
      return OpKind::kRmdir;
    case WireOp::kUnlink:
      return OpKind::kUnlink;
    case WireOp::kRename:
      return OpKind::kRename;
    case WireOp::kExchange:
      return OpKind::kExchange;
    case WireOp::kStat:
      return OpKind::kStat;
    case WireOp::kReadDir:
      return OpKind::kReadDir;
    case WireOp::kRead:
      return OpKind::kRead;
    case WireOp::kWrite:
      return OpKind::kWrite;
    case WireOp::kTruncate:
      return OpKind::kTruncate;
    default:
      return std::nullopt;
  }
}

// Parses the request's paths into the descriptor. The write payload stays a
// view into the request, valid for the duration of the dispatch.
Result<FsOp> FsOpOfRequest(OpKind kind, const WireRequest& req) {
  FsOp op;
  op.kind = kind;
  auto a = ParsePath(req.path_a);
  if (!a.ok()) {
    return a.status();
  }
  op.a = std::move(*a);
  if (kind == OpKind::kRename || kind == OpKind::kExchange) {
    auto b = ParsePath(req.path_b);
    if (!b.ok()) {
      return b.status();
    }
    op.b = std::move(*b);
  }
  op.offset = req.offset;
  op.len = req.count;
  op.payload = std::span<const std::byte>(req.data);
  return op;
}

std::vector<std::byte> FsOpResponse(OpKind kind, const FsOpResult& r) {
  if (!r.status.ok()) {
    return StatusResponse(r.status);
  }
  WireWriter body;
  switch (kind) {
    case OpKind::kStat:
      EncodeAttr(body, r.attr);
      break;
    case OpKind::kReadDir:
      EncodeDirEntries(body, r.entries);
      break;
    case OpKind::kRead:
      body.Blob(std::span<const std::byte>(r.data.data(), r.data.size()));
      break;
    case OpKind::kWrite:
      body.U64(r.nbytes);
      break;
    default:
      break;  // status-only reply
  }
  return OkResponse(std::move(body));
}

// Prepends the u32 length header: a ready-to-send frame.
std::vector<std::byte> FrameOf(std::span<const std::byte> payload) {
  std::vector<std::byte> out;
  out.reserve(4 + payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xff));
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

uint32_t PeekU32(const std::byte* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint32_t>(p[i]);
  }
  return v;
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

}  // namespace

// One decoded request unit awaiting execution. A poison item marks the spot
// in the pipeline where framing broke: it is answered with kProto, in order,
// and closes the connection behind it.
struct ConnReadyItem {
  WireRequest req;
  bool poison = false;
};

// Per-connection state. Loop-owned fields are touched only by the owning
// shard thread; fields below `mu` are the loop<->worker handoff.
struct AtomFsServer::Conn {
  explicit Conn(FileSystem* fs) : vfs(fs) {}

  uint64_t id = 0;
  int fd = -1;
  Shard* shard = nullptr;
  // Per-connection descriptor table. Touched only by the connection's one
  // executor: the loop for an all-short ready queue, else one worker.
  Vfs vfs;
  // Open transaction id (0 = none). Same ownership as `vfs`: requests for
  // one connection execute on one thread at a time, and teardown reads it
  // only after the worker handoff (exec_scheduled) has quiesced.
  uint64_t active_txn = 0;

  // Loop-owned.
  std::vector<std::byte> rbuf;
  size_t rpos = 0;
  bool peer_eof = false;
  bool poisoned = false;  // framing broke; never read or decode again
  bool stalled = false;   // decode parked on a full window (metric edge)
  // A parsed frame waiting for window room (kept parsed so re-admission
  // after replies drain costs nothing); decode stalls while this is set.
  std::unique_ptr<WireRequest> parked;
  uint32_t parked_units = 0;
  uint32_t armed_mask = 0;
  uint64_t last_activity_ms = 0;
  size_t out_head_off = 0;  // bytes of outbox.front() already written

  // Shared loop<->worker state.
  std::mutex mu;
  std::deque<ConnReadyItem> ready;
  std::deque<std::vector<std::byte>> outbox;  // framed replies, FIFO
  size_t outbox_bytes = 0;
  uint32_t inflight = 0;  // admitted request units without a reply in the outbox
  uint32_t window = 1;    // negotiated max_inflight
  bool exec_scheduled = false;
  bool want_close = false;  // drain ready+outbox, then close
  bool dead = false;        // transport broken; close as soon as no worker holds us
};

struct AtomFsServer::Shard {
  int epoll_fd = -1;
  int event_fd = -1;
  std::atomic<bool> stop{false};
  std::mutex mu;                       // guards intake + completions
  std::vector<int> intake;             // accepted sockets awaiting registration
  std::vector<uint64_t> completions;   // conn ids with fresh worker output
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;  // loop-owned
};

AtomFsServer::AtomFsServer(FileSystem* fs, ServerOptions options)
    : fs_(fs), opts_(std::move(options)) {
  if (opts_.metrics != nullptr) {
    metrics_ = opts_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  connections_accepted_ = metrics_->GetCounter("server.connections");
  protocol_errors_ = metrics_->GetCounter("server.protocol_errors");
  loop_wakeups_ = metrics_->GetCounter("server.loop.wakeups");
  backpressure_stalls_ = metrics_->GetCounter("server.backpressure_stalls");
  idle_timeouts_ = metrics_->GetCounter("server.idle_timeouts");
  inline_ops_ = metrics_->GetCounter("server.loop.inline_ops");
  active_conns_ = metrics_->GetGauge("server.conns.active");
  work_queue_depth_ = metrics_->GetGauge("server.work_queue.depth");
  exec_batch_size_ = metrics_->GetHistogram("server.worker.batch_size");
  for (uint8_t op = kWireOpMin; op <= kWireOpMax; ++op) {
    op_latency_[op] = metrics_->GetHistogram(
        "server.op." + std::string(WireOpName(static_cast<WireOp>(op))) + ".latency_ns");
  }
}

AtomFsServer::~AtomFsServer() { Stop(); }

Status AtomFsServer::Start() {
  if (running_) {
    return Status(Errc::kBusy);
  }
  if (opts_.unix_path.empty() && !opts_.tcp_listen) {
    return Status(Errc::kInval);
  }

  if (!opts_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status(Errc::kNameTooLong);
    }
    std::strncpy(addr.sun_path, opts_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status(Errc::kIo);
    }
    unlink(opts_.unix_path.c_str());  // stale socket from a crashed daemon
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 || listen(fd, 128) < 0) {
      close(fd);
      return Status(Errc::kIo);
    }
    listen_fds_.push_back(fd);
  }

  if (opts_.tcp_listen) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      Stop();
      return Status(Errc::kIo);
    }
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts_.tcp_port);
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 || listen(fd, 128) < 0) {
      close(fd);
      Stop();
      return Status(Errc::kIo);
    }
    socklen_t len = sizeof addr;
    getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_tcp_port_ = ntohs(addr.sin_port);
    listen_fds_.push_back(fd);
  }

  const int n_shards = opts_.shards > 0 ? opts_.shards : 1;
  for (int i = 0; i < n_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    shard->event_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (shard->epoll_fd < 0 || shard->event_fd < 0) {
      shards_.push_back(std::move(shard));
      Stop();
      return Status(Errc::kIo);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr marks the wakeup eventfd
    epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->event_fd, &ev);
    shards_.push_back(std::move(shard));
  }

  stopping_ = false;
  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    shard_threads_.emplace_back([this, s = shard.get()] { ShardLoop(*s); });
  }
  const int workers = opts_.workers > 0 ? opts_.workers : 1;
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  for (int fd : listen_fds_) {
    acceptors_.emplace_back([this, fd] { AcceptLoop(fd); });
  }
  return Status::Ok();
}

void AtomFsServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    if (!running_.load(std::memory_order_acquire) && listen_fds_.empty() && shards_.empty()) {
      return;
    }
    stopping_ = true;
  }
  // Closing the listeners makes accept() fail and the acceptors exit.
  for (int fd : listen_fds_) {
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  listen_fds_.clear();
  for (std::thread& t : acceptors_) {
    t.join();
  }
  acceptors_.clear();
  // Workers next: once they are joined, nobody but the shard threads can
  // touch a Conn, so the shards can tear their connections down safely.
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
  workers_.clear();
  for (auto& shard : shards_) {
    shard->stop.store(true, std::memory_order_release);
    if (shard->event_fd >= 0) {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n = write(shard->event_fd, &one, sizeof one);
    }
  }
  for (std::thread& t : shard_threads_) {
    t.join();
  }
  shard_threads_.clear();
  {
    // Only now is the queue quiescent: shard threads were the last producers
    // (RunOrSchedule), and they are joined. The lock still pairs with
    // RunOrSchedule's stopping_ check for any straggler between the flag
    // flip and the joins above.
    std::lock_guard<std::mutex> lock(work_mu_);
    work_queue_depth_.Sub(static_cast<int64_t>(work_queue_.size()));
    work_queue_.clear();
  }
  for (auto& shard : shards_) {
    for (auto& [id, c] : shard->conns) {
      if (opts_.txn != nullptr && c->active_txn != 0) {
        opts_.txn->TxAbort(c->active_txn);  // never leave a txn half-open
      }
      close(c->fd);
      active_conns_.Sub(1);
    }
    shard->conns.clear();
    for (int fd : shard->intake) {
      close(fd);
    }
    shard->intake.clear();
    if (shard->epoll_fd >= 0) {
      close(shard->epoll_fd);
    }
    if (shard->event_fd >= 0) {
      close(shard->event_fd);
    }
  }
  shards_.clear();
  if (!opts_.unix_path.empty()) {
    unlink(opts_.unix_path.c_str());
  }
  running_.store(false, std::memory_order_release);
}

void AtomFsServer::AcceptLoop(int listen_fd) {
  for (;;) {
    const int sock = accept(listen_fd, nullptr, nullptr);
    if (sock < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener closed (Stop) or fatal error
    }
    // Pipelined framing is still latency-bound on the last frame of a burst:
    // without this, Nagle holds the tail until the client's delayed ACK.
    // No-op (ENOTSUP) on unix-domain sockets.
    const int one = 1;
    setsockopt(sock, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_accepted_.Inc();
    {
      std::lock_guard<std::mutex> lock(work_mu_);
      if (stopping_) {
        close(sock);
        return;
      }
    }
    // Relaxed: the counter only round-robins placement; the socket itself is
    // handed over under shard.mu below.
    Shard& shard =
        *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size()];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.intake.push_back(sock);
    }
    const uint64_t one64 = 1;
    [[maybe_unused]] ssize_t n = write(shard.event_fd, &one64, sizeof one64);
  }
}

// --- shard event loop --------------------------------------------------------

void AtomFsServer::ShardLoop(Shard& shard) {
  epoll_event evs[64];
  const int timeout_ms =
      opts_.idle_timeout_ms > 0 ? std::max(1, static_cast<int>(opts_.idle_timeout_ms / 4)) : -1;
  for (;;) {
    const int n = epoll_wait(shard.epoll_fd, evs, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    loop_wakeups_.Inc();
    if (shard.stop.load(std::memory_order_acquire)) {
      return;  // Stop() closes the fds after joining us
    }
    bool notified = n == 0;  // timeout: still sweep below
    // Pass 1: socket readiness. The wakeup eventfd is drained here but its
    // work (intake, completions) runs after, so it can never reference a
    // connection this pass is about to destroy... the other way round is
    // safe: completions look connections up by id.
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.ptr == nullptr) {
        uint64_t junk = 0;
        while (read(shard.event_fd, &junk, sizeof junk) > 0) {
        }
        notified = true;
        continue;
      }
      Conn* c = static_cast<Conn*>(evs[i].data.ptr);
      const uint32_t events = evs[i].events;
      if ((events & EPOLLERR) != 0) {
        {
          std::lock_guard<std::mutex> lk(c->mu);
          c->dead = true;
          c->want_close = true;
        }
        MaybeClose(shard, c);
        continue;
      }
      if ((events & EPOLLOUT) != 0) {
        if (!FlushOutbox(shard, c)) {
          continue;
        }
        UpdateReadInterest(shard, c);
        if (!MaybeClose(shard, c)) {
          continue;
        }
      }
      if ((events & (EPOLLIN | EPOLLHUP)) != 0) {
        OnReadable(shard, c);
      }
    }
    if (notified) {
      RegisterIntake(shard);
      HandleCompletions(shard);
    }
    if (opts_.idle_timeout_ms > 0) {
      SweepIdle(shard);
    }
  }
}

void AtomFsServer::RegisterIntake(Shard& shard) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    fds.swap(shard.intake);
  }
  for (int fd : fds) {
    SetNonBlocking(fd);
    auto conn = std::make_unique<Conn>(fs_);
    Conn* c = conn.get();
    // Relaxed: pure unique-id allocation; the Conn is published to workers
    // via work_mu_ (RunOrSchedule), never through this counter.
    c->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    c->fd = fd;
    c->shard = &shard;
    c->window = std::clamp<uint32_t>(opts_.default_inflight, 1,
                                     std::max<uint32_t>(1, opts_.max_inflight));
    c->last_activity_ms = NowMs();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c;
    if (epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      close(fd);
      continue;
    }
    c->armed_mask = EPOLLIN;
    active_conns_.Add(1);
    shard.conns.emplace(c->id, std::move(conn));
  }
}

void AtomFsServer::HandleCompletions(Shard& shard) {
  std::vector<uint64_t> done;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    done.swap(shard.completions);
  }
  for (uint64_t id : done) {
    auto it = shard.conns.find(id);
    if (it == shard.conns.end()) {
      continue;  // closed while the worker ran
    }
    Conn* c = it->second.get();
    if (FlushOutbox(shard, c)) {
      Advance(shard, c);
    }
  }
}

bool AtomFsServer::OnReadable(Shard& shard, Conn* c) {
  if (c->poisoned) {
    // Reading is disarmed, but EPOLLHUP still lands here.
    return MaybeClose(shard, c);
  }
  size_t total = 0;
  for (;;) {
    const size_t old_size = c->rbuf.size();
    c->rbuf.resize(old_size + kReadChunk);
    const ssize_t n = recv(c->fd, c->rbuf.data() + old_size, kReadChunk, 0);
    if (n < 0) {
      c->rbuf.resize(old_size);
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      std::lock_guard<std::mutex> lk(c->mu);
      c->dead = true;
      c->want_close = true;
      break;
    }
    if (n == 0) {
      c->rbuf.resize(old_size);
      c->peer_eof = true;
      break;
    }
    c->rbuf.resize(old_size + static_cast<size_t>(n));
    total += static_cast<size_t>(n);
    if (static_cast<size_t>(n) < kReadChunk || total >= kMaxReadPerCycle) {
      break;  // drained, or yield to the shard's other connections
    }
  }
  c->last_activity_ms = NowMs();
  return Advance(shard, c);
}

bool AtomFsServer::Advance(Shard& shard, Conn* c) {
  // Replies the loop just ran reach the outbox, so the window may have
  // opened: decode frames parked in the read buffer and go round again.
  for (;;) {
    if (!c->poisoned) {
      DecodeBuffered(c);
    }
    if (!RunOrSchedule(c)) {
      break;
    }
    if (!FlushOutbox(shard, c)) {
      return false;
    }
  }
  UpdateReadInterest(shard, c);
  return MaybeClose(shard, c);
}

void AtomFsServer::DecodeBuffered(Conn* c) {
  while (!c->poisoned) {
    // Admission: a frame enters the pipeline only when its request units fit
    // the remaining window *whole*, so admitted inflight never exceeds the
    // negotiated window. The one exception is a frame arriving with nothing
    // inflight — it always admits, so a msgbatch that alone exceeds the
    // window cannot park forever; execution sheds it with BACKPRESSURE.
    if (c->parked != nullptr) {
      bool admitted = false;
      {
        std::lock_guard<std::mutex> lk(c->mu);
        if (c->inflight == 0 || c->inflight + c->parked_units <= c->window) {
          c->ready.push_back(ConnReadyItem{std::move(*c->parked), false});
          c->inflight += c->parked_units;
          admitted = true;
        } else if (!c->stalled) {
          // Window full: park. Reads throttle; the next reply drain
          // re-enters this loop.
          c->stalled = true;
          backpressure_stalls_.Inc();
        }
      }
      if (!admitted) {
        break;
      }
      c->parked.reset();
      c->stalled = false;
    }
    const size_t avail = c->rbuf.size() - c->rpos;
    if (avail < 4) {
      break;
    }
    const uint32_t len = PeekU32(c->rbuf.data() + c->rpos);
    if (len > opts_.max_frame_bytes) {
      // Oversized declared length: framing is beyond resynchronization.
      PoisonConn(c);
      break;
    }
    if (avail < 4 + static_cast<size_t>(len)) {
      break;
    }
    auto payload = std::span<const std::byte>(c->rbuf.data() + c->rpos + 4, len);
    Result<WireRequest> req = ParseRequest(payload);
    c->rpos += 4 + static_cast<size_t>(len);
    if (!req.ok()) {
      PoisonConn(c);
      break;
    }
    c->parked_units =
        req->op == WireOp::kMsgBatch ? static_cast<uint32_t>(req->batch.size()) : 1;
    c->parked = std::make_unique<WireRequest>(std::move(*req));
    // Loop back to the admission step above.
  }
  if (c->rpos > 0 && (c->rpos == c->rbuf.size() || c->rpos >= kReadChunk)) {
    c->rbuf.erase(c->rbuf.begin(), c->rbuf.begin() + static_cast<ptrdiff_t>(c->rpos));
    c->rpos = 0;
  }
  // EOF with everything decodable decoded: answer what was admitted, flush,
  // then close. A trailing partial frame is dropped with the connection; a
  // parked frame (parsed or still buffered) is work still owed.
  if (c->peer_eof && !c->poisoned && c->parked == nullptr) {
    const size_t avail = c->rbuf.size() - c->rpos;
    const bool complete_frame_parked =
        avail >= 4 && avail >= 4 + static_cast<size_t>(PeekU32(c->rbuf.data() + c->rpos));
    if (!complete_frame_parked) {
      std::lock_guard<std::mutex> lk(c->mu);
      c->want_close = true;
    }
  }
}

void AtomFsServer::PoisonConn(Conn* c) {
  NoteProtocolError();
  c->poisoned = true;
  c->rbuf.clear();
  c->rpos = 0;
  c->parked.reset();  // decode never runs again; drop any admitted-pending frame
  std::lock_guard<std::mutex> lk(c->mu);
  c->ready.push_back(ConnReadyItem{WireRequest{}, true});
  c->inflight += 1;
}

bool AtomFsServer::FlushOutbox(Shard& shard, Conn* c) {
  for (;;) {
    iovec iov[kMaxIov];
    int n_iov = 0;
    size_t offered = 0;
    {
      std::lock_guard<std::mutex> lk(c->mu);
      if (c->dead) {
        break;
      }
      size_t head_off = c->out_head_off;
      for (const auto& frame : c->outbox) {
        if (n_iov == kMaxIov) {
          break;
        }
        iov[n_iov].iov_base = const_cast<std::byte*>(frame.data()) + head_off;
        iov[n_iov].iov_len = frame.size() - head_off;
        offered += iov[n_iov].iov_len;
        head_off = 0;
        ++n_iov;
      }
    }
    if (n_iov == 0) {
      break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(n_iov);
    const ssize_t wrote = sendmsg(c->fd, &msg, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ApplyMask(shard, c, (c->armed_mask & EPOLLIN) | EPOLLOUT);
        return true;
      }
      {
        std::lock_guard<std::mutex> lk(c->mu);
        c->dead = true;
        c->want_close = true;
      }
      return MaybeClose(shard, c);
    }
    {
      std::lock_guard<std::mutex> lk(c->mu);
      size_t left = static_cast<size_t>(wrote);
      while (left > 0 && !c->outbox.empty()) {
        auto& front = c->outbox.front();
        const size_t remain = front.size() - c->out_head_off;
        if (left >= remain) {
          left -= remain;
          c->outbox_bytes -= front.size();
          c->outbox.pop_front();
          c->out_head_off = 0;
        } else {
          c->out_head_off += left;
          left = 0;
        }
      }
    }
    if (static_cast<size_t>(wrote) < offered) {
      ApplyMask(shard, c, (c->armed_mask & EPOLLIN) | EPOLLOUT);
      return true;
    }
  }
  ApplyMask(shard, c, c->armed_mask & ~static_cast<uint32_t>(EPOLLOUT));
  return true;
}

void AtomFsServer::UpdateReadInterest(Shard& shard, Conn* c) {
  // A parked frame means the window is effectively full: reading more would
  // only grow the buffer behind a frame that cannot be admitted yet.
  bool want_read = !c->poisoned && !c->peer_eof && c->parked == nullptr;
  if (want_read) {
    std::lock_guard<std::mutex> lk(c->mu);
    want_read = !c->dead && !c->want_close && c->inflight < c->window &&
                c->outbox_bytes <= opts_.max_outbox_bytes;
  }
  const uint32_t mask = (want_read ? EPOLLIN : 0u) | (c->armed_mask & EPOLLOUT);
  ApplyMask(shard, c, mask);
}

void AtomFsServer::ApplyMask(Shard& shard, Conn* c, uint32_t mask) {
  if (mask == c->armed_mask) {
    return;
  }
  epoll_event ev{};
  ev.events = mask;
  ev.data.ptr = c;
  epoll_ctl(shard.epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  c->armed_mask = mask;
}

void AtomFsServer::SweepIdle(Shard& shard) {
  const uint64_t now = NowMs();
  std::vector<Conn*> victims;
  for (auto& [id, conn] : shard.conns) {
    Conn* c = conn.get();
    if (now - c->last_activity_ms < opts_.idle_timeout_ms) {
      continue;
    }
    std::lock_guard<std::mutex> lk(c->mu);
    if (!c->exec_scheduled && c->inflight == 0 && c->outbox.empty() && c->ready.empty() &&
        !c->want_close) {
      victims.push_back(c);
    }
  }
  for (Conn* c : victims) {
    idle_timeouts_.Inc();
    // Best-effort courtesy frame; if the peer is half-open it just fails.
    const std::vector<std::byte> frame = FrameOf(StatusResponse(Status(Errc::kTimedOut)));
    send(c->fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    DestroyConn(shard, c);
  }
}

bool AtomFsServer::RunsOnLoop(const WireRequest& req) const {
  // A mutation the host fdatasyncs would park the loop on the disk.
  const bool syncs = opts_.txn != nullptr && opts_.txn->SyncsCommits();
  switch (req.op) {
    case WireOp::kPing:
    case WireOp::kHello:
    case WireOp::kStat:
    case WireOp::kReadDir:
    case WireOp::kRead:
    case WireOp::kClose:
    case WireOp::kFdRead:
    case WireOp::kFdPread:
    case WireOp::kFstat:
    case WireOp::kFdReadDir:
    case WireOp::kSeek:
      return true;
    case WireOp::kOpen:
      return !syncs || (req.flags & (OpenFlags::kCreate | OpenFlags::kTrunc)) == 0;
    case WireOp::kMkdir:
    case WireOp::kMknod:
    case WireOp::kRmdir:
    case WireOp::kUnlink:
    case WireOp::kRename:
    case WireOp::kExchange:
    case WireOp::kTruncate:
    case WireOp::kWrite:
    case WireOp::kFdWrite:
    case WireOp::kFdPwrite:
    case WireOp::kFtruncate:
      return !syncs;
    default:
      // MSGBATCH, the transaction brackets, CHECKPOINT and the admin dumps:
      // each may hold a lock or copy state for long.
      return false;
  }
}

bool AtomFsServer::RunOrSchedule(Conn* c) {
  bool on_loop = false;
  {
    std::lock_guard<std::mutex> lk(c->mu);
    if (c->ready.empty() || c->exec_scheduled || c->dead) {
      return false;  // nothing to run, or the worker holding c drains it
    }
    c->exec_scheduled = true;
    on_loop = std::all_of(c->ready.begin(), c->ready.end(), [this](const ConnReadyItem& item) {
      return !item.poison && RunsOnLoop(item.req);
    });
  }
  if (on_loop) {
    DrainReady(c, /*on_loop=*/true);
    return true;
  }
  std::lock_guard<std::mutex> lock(work_mu_);
  if (stopping_) {
    return false;  // Stop() tears every connection down; nothing left to execute
  }
  work_queue_.push_back(c);
  work_queue_depth_.Add(1);
  work_cv_.notify_one();
  return false;
}

bool AtomFsServer::MaybeClose(Shard& shard, Conn* c) {
  bool destroy = false;
  {
    std::lock_guard<std::mutex> lk(c->mu);
    if (c->exec_scheduled) {
      return true;  // a worker holds this conn; completion re-checks
    }
    if (c->dead) {
      destroy = true;
    } else if (c->want_close && c->ready.empty() && c->outbox.empty()) {
      destroy = true;
    }
  }
  if (destroy) {
    DestroyConn(shard, c);
    return false;
  }
  return true;
}

void AtomFsServer::DestroyConn(Shard& shard, Conn* c) {
  if (opts_.txn != nullptr && c->active_txn != 0) {
    // Dropping the connection rolls its open transaction back — its ops
    // were buffered in the txn's private view and are never visible.
    opts_.txn->TxAbort(c->active_txn);
    c->active_txn = 0;
  }
  epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
  close(c->fd);
  active_conns_.Sub(1);
  shard.conns.erase(c->id);
}

// --- worker pool -------------------------------------------------------------

void AtomFsServer::WorkerLoop() {
  for (;;) {
    Conn* c = nullptr;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !work_queue_.empty(); });
      if (stopping_) {
        return;  // leftover queue entries are torn down by Stop
      }
      c = work_queue_.front();
      work_queue_.pop_front();
      work_queue_depth_.Sub(1);
    }
    ExecuteConn(c);
  }
}

void AtomFsServer::ExecuteConn(Conn* c) {
  // Captured before the drain: once exec_scheduled drops, the loop may
  // destroy the connection and `c` must not be touched again.
  Shard* home = c->shard;
  const uint64_t id = c->id;
  DrainReady(c, /*on_loop=*/false);
  {
    std::lock_guard<std::mutex> lock(home->mu);
    home->completions.push_back(id);
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(home->event_fd, &one, sizeof one);
}

void AtomFsServer::DrainReady(Conn* c, bool on_loop) {
  for (;;) {
    std::deque<ConnReadyItem> todo;
    {
      std::lock_guard<std::mutex> lk(c->mu);
      if (c->ready.empty()) {
        c->exec_scheduled = false;
        return;
      }
      todo.swap(c->ready);
    }
    if (on_loop) {
      inline_ops_.Inc(todo.size());
    } else {
      exec_batch_size_.Record(todo.size());
    }
    for (ConnReadyItem& item : todo) {
      std::vector<std::vector<std::byte>> frames;
      bool close_after = false;
      if (item.poison) {
        frames.push_back(FrameOf(StatusResponse(Status(Errc::kProto))));
        close_after = true;
      } else if (item.req.op == WireOp::kMsgBatch) {
        uint32_t window = 0;
        {
          std::lock_guard<std::mutex> lk(c->mu);
          window = c->window;
        }
        WallTimer batch_timer;
        if (item.req.batch.size() > window) {
          // Over-committed batch: shed the whole frame, execute nothing.
          // Every sub-request still gets its reply slot.
          for (size_t i = 0; i < item.req.batch.size(); ++i) {
            frames.push_back(FrameOf(StatusResponse(Status(Errc::kBackpressure))));
          }
        } else {
          for (const WireRequest& sub : item.req.batch) {
            WallTimer timer;
            frames.push_back(FrameOf(DispatchOne(*c, sub)));
            RecordLatency(sub.op, timer.ElapsedNanos());
          }
        }
        RecordLatency(WireOp::kMsgBatch, batch_timer.ElapsedNanos());
      } else {
        WallTimer timer;
        frames.push_back(FrameOf(DispatchOne(*c, item.req)));
        RecordLatency(item.req.op, timer.ElapsedNanos());
      }
      std::lock_guard<std::mutex> lk(c->mu);
      for (std::vector<std::byte>& f : frames) {
        c->outbox_bytes += f.size();
        c->outbox.push_back(std::move(f));
        if (c->inflight > 0) {
          --c->inflight;
        }
      }
      if (close_after) {
        c->want_close = true;
      }
    }
  }
}

// --- dispatch ----------------------------------------------------------------

std::vector<std::byte> AtomFsServer::DispatchOne(Conn& conn, const WireRequest& req) {
  if (conn.active_txn != 0 && opts_.txn != nullptr) {
    std::vector<std::byte> routed = DispatchInTxn(conn, req);
    if (!routed.empty()) {
      return routed;  // the op executed inside (or was refused by) the txn
    }
    // Empty: an admin/session/txn-control op; normal dispatch below.
  }
  Vfs& vfs = conn.vfs;
  switch (req.op) {
    case WireOp::kPing:
      return OkResponse(WireWriter());
    case WireOp::kMkdir:
    case WireOp::kMknod:
    case WireOp::kRmdir:
    case WireOp::kUnlink:
    case WireOp::kRename:
    case WireOp::kExchange:
    case WireOp::kTruncate:
    case WireOp::kStat:
    case WireOp::kReadDir:
    case WireOp::kRead:
    case WireOp::kWrite: {
      const OpKind kind = *PathOpKindOf(req.op);
      auto op = FsOpOfRequest(kind, req);
      if (!op.ok()) {
        return StatusResponse(op.status());
      }
      return FsOpResponse(kind, fs_->Dispatch(*op));
    }
    case WireOp::kOpen: {
      auto fd = vfs.Open(req.path_a, req.flags);
      if (!fd.ok()) {
        return StatusResponse(fd.status());
      }
      WireWriter body;
      body.I32(*fd);
      return OkResponse(std::move(body));
    }
    case WireOp::kClose:
      return StatusResponse(vfs.Close(req.fd));
    case WireOp::kFdRead: {
      std::vector<std::byte> buf(req.count);
      auto n = vfs.Read(req.fd, buf);
      if (!n.ok()) {
        return StatusResponse(n.status());
      }
      WireWriter body;
      body.Blob(std::span<const std::byte>(buf.data(), *n));
      return OkResponse(std::move(body));
    }
    case WireOp::kFdWrite: {
      auto n = vfs.Write(req.fd, req.data);
      if (!n.ok()) {
        return StatusResponse(n.status());
      }
      WireWriter body;
      body.U64(*n);
      return OkResponse(std::move(body));
    }
    case WireOp::kFdPread: {
      std::vector<std::byte> buf(req.count);
      auto n = vfs.Pread(req.fd, req.offset, buf);
      if (!n.ok()) {
        return StatusResponse(n.status());
      }
      WireWriter body;
      body.Blob(std::span<const std::byte>(buf.data(), *n));
      return OkResponse(std::move(body));
    }
    case WireOp::kFdPwrite: {
      auto n = vfs.Pwrite(req.fd, req.offset, req.data);
      if (!n.ok()) {
        return StatusResponse(n.status());
      }
      WireWriter body;
      body.U64(*n);
      return OkResponse(std::move(body));
    }
    case WireOp::kFstat: {
      auto attr = vfs.Fstat(req.fd);
      if (!attr.ok()) {
        return StatusResponse(attr.status());
      }
      WireWriter body;
      EncodeAttr(body, *attr);
      return OkResponse(std::move(body));
    }
    case WireOp::kFdReadDir: {
      auto entries = vfs.ReadDirFd(req.fd);
      if (!entries.ok()) {
        return StatusResponse(entries.status());
      }
      WireWriter body;
      EncodeDirEntries(body, *entries);
      return OkResponse(std::move(body));
    }
    case WireOp::kFtruncate:
      return StatusResponse(vfs.Ftruncate(req.fd, req.offset));
    case WireOp::kSeek: {
      auto pos = vfs.Seek(req.fd, req.offset);
      if (!pos.ok()) {
        return StatusResponse(pos.status());
      }
      WireWriter body;
      body.U64(*pos);
      return OkResponse(std::move(body));
    }
    case WireOp::kStats: {
      WireWriter body;
      EncodeServerStats(body, StatsSnapshot());
      return OkResponse(std::move(body));
    }
    case WireOp::kMetrics: {
      WireWriter body;
      EncodeMetricsSnapshot(body, metrics_->Snapshot());
      return OkResponse(std::move(body));
    }
    case WireOp::kTraceDump: {
      // Export capped below the frame limit; ExportChromeTrace drops the
      // oldest events if the full window would not fit (flight-recorder
      // semantics carried through to the wire).
      const size_t cap = opts_.max_frame_bytes > 256 ? opts_.max_frame_bytes - 256 : 256;
      const std::string json =
          opts_.trace_ring != nullptr
              ? ExportChromeTrace(opts_.trace_ring->Snapshot(), cap)
              : ExportChromeTrace({});
      WireWriter body;
      body.Str(json);
      return OkResponse(std::move(body));
    }
    case WireOp::kProm: {
      WireWriter body;
      body.Str(PrometheusText(metrics_->Snapshot()));
      return OkResponse(std::move(body));
    }
    case WireOp::kHello: {
      if (req.proto_version < kWireProtoVersionMin || req.proto_version > kWireProtoVersion) {
        // Unknown version: a clean error reply, not a dropped connection.
        // The peer may retry with a version we speak.
        return StatusResponse(Status(Errc::kProto));
      }
      const uint32_t cap = std::max<uint32_t>(1, opts_.max_inflight);
      const uint32_t granted =
          req.max_inflight == 0
              ? std::clamp<uint32_t>(opts_.default_inflight, 1, cap)
              : std::min(req.max_inflight, cap);
      {
        std::lock_guard<std::mutex> lk(conn.mu);
        conn.window = granted;
      }
      // Reply in the client's version: a v2 peer gets the v2-shaped body, a
      // v3 peer additionally gets the capability bitmask (rule 3 of the
      // versioning contract — bodies are frozen per opcode *per version*).
      WireHello reply;
      reply.version = req.proto_version;
      reply.max_inflight = granted;
      reply.caps = fs_->Capabilities() | (opts_.txn != nullptr ? kFsCapTxn : 0);
      WireWriter body;
      EncodeHello(body, reply);
      return OkResponse(std::move(body));
    }
    case WireOp::kTxBegin: {
      if (opts_.txn == nullptr) {
        return StatusResponse(Status(Errc::kInval));
      }
      if (conn.active_txn != 0) {
        // One open transaction per connection: finish it first.
        return StatusResponse(Status(Errc::kBusy));
      }
      auto id = opts_.txn->TxBegin();
      if (!id.ok()) {
        return StatusResponse(id.status());
      }
      conn.active_txn = *id;
      WireWriter body;
      body.U64(*id);
      return OkResponse(std::move(body));
    }
    case WireOp::kTxCommit:
    case WireOp::kTxAbort: {
      if (opts_.txn == nullptr) {
        return StatusResponse(Status(Errc::kInval));
      }
      const uint64_t target = req.txid != 0 ? req.txid : conn.active_txn;
      if (target == 0 || target != conn.active_txn) {
        return StatusResponse(Status(Errc::kInval));
      }
      // The transaction is finished either way — a commit that loses the
      // conflict race rolls back and reports kTxConflict, it does not stay
      // open for a retry under the same id.
      conn.active_txn = 0;
      return StatusResponse(req.op == WireOp::kTxCommit ? opts_.txn->TxCommit(target)
                                                        : opts_.txn->TxAbort(target));
    }
    case WireOp::kCheckpoint:
      // Journal admin: checkpoint + compact now. Fails soft with EINVAL on a
      // server without a journaled transaction layer (TxnHost's default).
      if (opts_.txn == nullptr) {
        return StatusResponse(Status(Errc::kInval));
      }
      return StatusResponse(opts_.txn->TxCheckpoint());
    case WireOp::kMsgBatch:
      // Batches are unpacked in DrainReady and nesting is rejected at
      // parse; reaching here means a logic error upstream.
      return StatusResponse(Status(Errc::kProto));
  }
  return StatusResponse(Status(Errc::kProto));
}

std::vector<std::byte> AtomFsServer::DispatchInTxn(Conn& conn, const WireRequest& req) {
  const std::optional<OpKind> kind = PathOpKindOf(req.op);
  if (!kind.has_value()) {
    switch (req.op) {
      case WireOp::kOpen:
      case WireOp::kClose:
      case WireOp::kFdRead:
      case WireOp::kFdWrite:
      case WireOp::kFdPread:
      case WireOp::kFdPwrite:
      case WireOp::kFstat:
      case WireOp::kFdReadDir:
      case WireOp::kFtruncate:
      case WireOp::kSeek:
        // Descriptor ops run against the shared backend directly, so inside a
        // transaction they would bypass its snapshot (reads) and its write
        // buffer (writes). Refuse them rather than leak uncommitted state.
        return StatusResponse(Status(Errc::kBusy));
      default:
        return {};  // not a FileSystem op: fall through to normal dispatch
    }
  }
  auto op = FsOpOfRequest(*kind, req);
  if (!op.ok()) {
    return StatusResponse(op.status());
  }
  return FsOpResponse(*kind, opts_.txn->TxApply(conn.active_txn, OpCall::FromFsOp(*op)));
}

void AtomFsServer::RecordLatency(WireOp op, uint64_t nanos) {
  op_latency_[static_cast<uint8_t>(op)].Record(nanos);
}

void AtomFsServer::NoteProtocolError() { protocol_errors_.Inc(); }

WireServerStats AtomFsServer::StatsSnapshot() const {
  WireServerStats out;
  const MetricsSnapshot snap = metrics_->Snapshot();
  out.connections_accepted = snap.CounterValue("server.connections");
  out.protocol_errors = snap.CounterValue("server.protocol_errors");
  for (uint8_t op = kWireOpMin; op <= kWireOpMax; ++op) {
    const HistogramSnapshot* h = snap.FindHistogram(
        "server.op." + std::string(WireOpName(static_cast<WireOp>(op))) + ".latency_ns");
    if (h == nullptr || h->count == 0) {
      continue;
    }
    WireOpStats s;
    s.op = op;
    s.count = h->count;
    s.mean_ns = static_cast<uint64_t>(h->Mean());
    s.p50_ns = h->Percentile(0.50);
    s.p99_ns = h->Percentile(0.99);
    s.p999_ns = h->Percentile(0.999);
    out.ops.push_back(s);
  }
  return out;
}

}  // namespace atomfs
