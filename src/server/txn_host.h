// TxnHost: the narrow interface the serving layer uses to drive transactions
// (wire ops TXBEGIN / TXCOMMIT / TXABORT and in-transaction execution of the
// path-based FileSystem ops).
//
// This lives in src/server rather than src/txn so that atomfs_net does not
// link the transaction (and hence journal/workload) libraries: the server
// depends only on this pure interface, and a TxnManager (src/txn/txn.h) is
// plugged in by the embedder (tools/atomfsd.cpp) when transactions are
// enabled. A server with no TxnHost answers the transaction opcodes EINVAL.
//
// Threading: the calls may arrive concurrently from the server's event-loop
// and worker threads (for different transactions); implementations
// synchronize internally. The server guarantees that calls for one
// transaction id are serialized (one connection's requests run on one
// thread at a time). TxApply runs on a loop thread, as do the direct
// mutations of a host that is also the served FileSystem, unless
// SyncsCommits() is true; TxBegin, TxCommit, TxAbort and TxCheckpoint run
// on a worker (TxAbort also when a connection drops or the server stops).

#ifndef ATOMFS_SRC_SERVER_TXN_HOST_H_
#define ATOMFS_SRC_SERVER_TXN_HOST_H_

#include <cstdint>

#include "src/afs/op.h"
#include "src/util/status.h"

namespace atomfs {

class TxnHost {
 public:
  virtual ~TxnHost() = default;

  // Opens a transaction and returns its id (> 0).
  virtual Result<uint64_t> TxBegin() = 0;
  // Atomically applies the transaction's buffered ops, or rolls the whole
  // transaction back: kTxConflict if it lost an optimistic-concurrency race,
  // the failing op's error if its ops no longer apply cleanly. The
  // transaction is finished either way. kInval for an unknown id.
  virtual Status TxCommit(uint64_t txid) = 0;
  // Discards the transaction; its ops were never visible. kInval for an
  // unknown id.
  virtual Status TxAbort(uint64_t txid) = 0;
  // Executes one op inside the transaction, against its private snapshot
  // (read-your-writes; invisible to other transactions until commit).
  virtual OpResult TxApply(uint64_t txid, const OpCall& call) = 0;
  // Admin: checkpoint + compact the journal now (wire op CHECKPOINT,
  // atomfsd SIGHUP). Non-pure so hosts without a journal keep compiling;
  // the default answers kInval, a journaled host kIo on a failed write.
  virtual Status TxCheckpoint() { return Status(Errc::kInval); }
  // True when every commit point fdatasyncs: the server then runs every
  // mutation on its worker pool, so no event loop waits on the disk.
  virtual bool SyncsCommits() const { return false; }
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_SERVER_TXN_HOST_H_
