// One worker's synchronous, depth-1 wire conversation: every call is
// Submit + Flush + Wait on its own ClientSession, with client.* spans around
// the three steps and a client.call.<kind> span around the whole call. In
// traced slices each request is also encoded and parsed once more outside
// the call, so net.encode / net.parse time the codec on the workload's own
// requests; reply bodies are decoded inside net.parse spans.

#ifndef ATOMFS_PERFBENCH_WIRE_CONN_H_
#define ATOMFS_PERFBENCH_WIRE_CONN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/client/client.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/server.h"

namespace perfbench {

// An in-process atomfsd with the daemon's default serving options (2 event
// loops, 8 workers) on a Unix socket, plus `n` connected clients.
struct ServedFs {
  std::unique_ptr<atomfs::AtomFsServer> server;
  std::vector<std::unique_ptr<atomfs::AtomFsClient>> clients;

  ServedFs() = default;
  ServedFs(ServedFs&&) = default;
  ServedFs& operator=(ServedFs&&) = default;
  ~ServedFs() { Stop(); }
  // Disconnects the clients and stops the server (joins its threads).
  void Stop();
};

// kIo when the server cannot start or a client cannot connect.
atomfs::Result<ServedFs> Serve(atomfs::FileSystem* fs, atomfs::TxnHost* txn,
                               atomfs::MetricsRegistry* registry, atomfs::TraceRing* ring,
                               const std::string& socket_path, int clients);

// The client / net / server per-layer metrics of a wire workload. Server-
// side time is the sum of the spans "<root>.*" for each of `server_roots`
// (the decorators wrapping every call the server makes into its backend);
// server.hop_us is the client-observed call time minus that.
void AddWireLayers(Report& r, const std::map<std::string, SpanTotals>& spans,
                   const LoopStats& loop, const std::vector<std::string>& server_roots);

class WireConn {
 public:
  explicit WireConn(atomfs::ClientSession* session) : s_(session) {}

  atomfs::Status Mknod(const std::string& path);
  atomfs::Status Unlink(const std::string& path);
  atomfs::Status Rename(const std::string& src, const std::string& dst);
  atomfs::Result<uint64_t> Write(const std::string& path, uint64_t offset,
                                 std::span<const std::byte> data);
  atomfs::Result<atomfs::Attr> Stat(const std::string& path);
  atomfs::Result<std::vector<std::byte>> Read(const std::string& path, uint64_t offset,
                                              uint32_t count);
  atomfs::Result<uint64_t> TxBegin();
  atomfs::Status TxCommit();

 private:
  // The response body past the status byte of one round trip.
  atomfs::Result<std::vector<std::byte>> RoundTrip(const atomfs::WireRequest& req,
                                                   const char* span);
  atomfs::Status StatusOnly(const atomfs::WireRequest& req, const char* span);

  atomfs::ClientSession* s_;
};

}  // namespace perfbench

#endif  // ATOMFS_PERFBENCH_WIRE_CONN_H_
