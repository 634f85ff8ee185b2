// Fixture: a forwarded body materialized, and a block range-copied.
#include "rpc/rpc.h"

sim::Task<rpc::Body> Forward(rpc::RpcNode& node, rpc::Body args) {
  Bytes raw = args.ToBytes();
  co_return co_await node.Call(kServer, kProg, kProc, std::move(raw), {});
}

void Store(Cache& cache, const nfs3::WriteArgs& args) {
  Bytes chunk(args.data.begin(), args.data.end());
  cache.Put(Bytes(args.data.data(), args.data.data() + 10));
  Bytes flat = args.body->Flatten();
}
