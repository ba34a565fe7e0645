#include "perfbench/wire_conn.h"

#include "perfbench/layers.h"
#include "perfbench/measure.h"

namespace perfbench {

using atomfs::Errc;
using atomfs::OpKind;
using atomfs::Result;
using atomfs::Status;
using atomfs::WireOp;
using atomfs::WireReader;
using atomfs::WireRequest;

namespace {

const KindNames& CallNames() {
  static const KindNames names("client.call");
  return names;
}

WireRequest PathRequest(WireOp op, const std::string& path) {
  WireRequest req;
  req.op = op;
  req.path_a = path;
  return req;
}

}  // namespace

void ServedFs::Stop() {
  clients.clear();
  if (server) {
    server->Stop();
    server.reset();
  }
}

Result<ServedFs> Serve(atomfs::FileSystem* fs, atomfs::TxnHost* txn,
                       atomfs::MetricsRegistry* registry, atomfs::TraceRing* ring,
                       const std::string& socket_path, int clients) {
  atomfs::ServerOptions options;
  options.unix_path = socket_path;
  options.workers = 8;  // atomfsd's default
  options.metrics = registry;
  options.trace_ring = ring;
  options.txn = txn;
  ServedFs served;
  served.server = std::make_unique<atomfs::AtomFsServer>(fs, options);
  if (!served.server->Start().ok()) {
    return Errc::kIo;
  }
  for (int i = 0; i < clients; ++i) {
    auto c = atomfs::AtomFsClient::ConnectUnix(socket_path);
    if (!c.ok()) {
      return Errc::kIo;
    }
    served.clients.push_back(std::move(*c));
  }
  return served;
}

void AddWireLayers(Report& r, const std::map<std::string, SpanTotals>& spans,
                   const LoopStats& loop, const std::vector<std::string>& server_roots) {
  auto span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals client = SumSpans(spans, "client.call.");
  SpanTotals server;
  for (const auto& prefix : server_roots) {
    const SpanTotals t = SumSpans(spans, prefix + ".");
    server.count += t.count;
    server.total_ns += t.total_ns;
  }
  r.Add("client.call_us", client.MeanUs(), "us", client.count, "client-observed call time");
  r.Add("client.flush_us", span("client.flush").MeanUs(), "us", span("client.flush").count);
  r.Add("client.wait_us", span("client.wait").MeanUs(), "us", span("client.wait").count);
  r.Add("net.encode_ns", span("net.encode").MeanUs() * 1e3, "ns", span("net.encode").count);
  r.Add("net.parse_ns", span("net.parse").MeanUs() * 1e3, "ns", span("net.parse").count,
        "requests and reply bodies");
  r.Add("server.fs_us", server.MeanUs(), "us", server.count);
  r.Add("server.hop_us", client.MeanUs() - server.MeanUs(), "us", client.count,
        "client.call_us - server.fs_us");
  // Per op kind, across the wire: both sides aggregated by kind.
  const KindNames client_names("client.call");
  const KindNames server_names(server_roots.front().c_str());
  for (size_t k = 0; k < kOpKinds; ++k) {
    const auto kind = static_cast<atomfs::OpKind>(k);
    const SpanTotals c = span(client_names[kind]);
    const SpanTotals s = span(server_names[kind]);
    if (c.count > 0) {
      r.notes.push_back(std::string("by kind ") + std::string(atomfs::OpKindName(kind)) +
                        ": client " + std::to_string(c.MeanUs()) + " us, server " +
                        std::to_string(s.MeanUs()) + " us, hop " +
                        std::to_string(c.MeanUs() - s.MeanUs()) + " us (n=" +
                        std::to_string(c.count) + ")");
    }
  }
  const double calls = static_cast<double>(std::max<uint64_t>(loop.measured_calls, 1));
  r.Add("server.loop.wakeups_per_op",
        CounterDelta(loop.window_start, loop.window_end, "server.loop.wakeups") / calls,
        "count", loop.measured_calls);
  const auto batch = HistogramDelta(loop.window_start, loop.window_end, "server.worker.batch_size");
  r.Add("server.worker.batch_size", batch.second > 0 ? batch.first / batch.second : 0.0, "count",
        static_cast<uint64_t>(batch.second));
}

Result<std::vector<std::byte>> WireConn::RoundTrip(const WireRequest& req, const char* span) {
  if (Spans::enabled()) {
    std::vector<std::byte> bytes;
    {
      ScopedSpan encode("net.encode");
      bytes = atomfs::EncodeRequest(req);
    }
    ScopedSpan parse("net.parse");
    (void)atomfs::ParseRequest(bytes);
  }
  ScopedSpan call(span);
  atomfs::ClientSession::Future f;
  {
    ScopedSpan submit("client.submit");
    f = s_->Submit(req);
  }
  {
    // A failed flush breaks the session; Wait then reports the failure.
    ScopedSpan flush("client.flush");
    (void)s_->Flush();
  }
  ScopedSpan wait("client.wait");
  return f.Wait();
}

Status WireConn::StatusOnly(const WireRequest& req, const char* span) {
  auto body = RoundTrip(req, span);
  return body.ok() ? Status::Ok() : body.status();
}

Status WireConn::Mknod(const std::string& path) {
  return StatusOnly(PathRequest(WireOp::kMknod, path), CallNames()[OpKind::kMknod]);
}

Status WireConn::Unlink(const std::string& path) {
  return StatusOnly(PathRequest(WireOp::kUnlink, path), CallNames()[OpKind::kUnlink]);
}

Status WireConn::Rename(const std::string& src, const std::string& dst) {
  WireRequest req = PathRequest(WireOp::kRename, src);
  req.path_b = dst;
  return StatusOnly(req, CallNames()[OpKind::kRename]);
}

Result<uint64_t> WireConn::Write(const std::string& path, uint64_t offset,
                                 std::span<const std::byte> data) {
  WireRequest req = PathRequest(WireOp::kWrite, path);
  req.offset = offset;
  req.data.assign(data.begin(), data.end());
  auto body = RoundTrip(req, CallNames()[OpKind::kWrite]);
  if (!body.ok()) {
    return body.status();
  }
  ScopedSpan parse("net.parse");
  WireReader r(*body);
  uint64_t written = 0;
  if (!r.U64(&written) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return written;
}

Result<atomfs::Attr> WireConn::Stat(const std::string& path) {
  auto body = RoundTrip(PathRequest(WireOp::kStat, path), CallNames()[OpKind::kStat]);
  if (!body.ok()) {
    return body.status();
  }
  ScopedSpan parse("net.parse");
  WireReader r(*body);
  atomfs::Attr attr;
  if (!atomfs::ParseAttr(r, &attr) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return attr;
}

Result<std::vector<std::byte>> WireConn::Read(const std::string& path, uint64_t offset,
                                              uint32_t count) {
  WireRequest req = PathRequest(WireOp::kRead, path);
  req.offset = offset;
  req.count = count;
  auto body = RoundTrip(req, CallNames()[OpKind::kRead]);
  if (!body.ok()) {
    return body.status();
  }
  ScopedSpan parse("net.parse");
  WireReader r(*body);
  std::vector<std::byte> data;
  if (!r.Blob(&data, count) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return data;
}

Result<uint64_t> WireConn::TxBegin() {
  WireRequest req;
  req.op = WireOp::kTxBegin;
  auto body = RoundTrip(req, "client.call.txbegin");
  if (!body.ok()) {
    return body.status();
  }
  ScopedSpan parse("net.parse");
  WireReader r(*body);
  uint64_t txid = 0;
  if (!r.U64(&txid) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return txid;
}

Status WireConn::TxCommit() {
  WireRequest req;
  req.op = WireOp::kTxCommit;
  return StatusOnly(req, "client.call.txcommit");
}

}  // namespace perfbench
