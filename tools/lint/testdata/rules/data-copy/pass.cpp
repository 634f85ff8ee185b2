// Fixture: the block plane's idioms — forward the body, share the block.
#include "rpc/rpc.h"

sim::Task<rpc::Body> Forward(rpc::RpcNode& node, rpc::Body args) {
  co_return co_await node.Call(kServer, kProg, kProc, std::move(args), {});
}

void Store(Cache& cache, const nfs3::WriteArgs& args) {
  cache.Put(args.data.Slice(0, 10));
  Bytes empty;
  Bytes sized(64, 0);
  std::optional<Bytes> none;
}

Bytes Encode(const Fh& fh) {
  return Serialize(fh);
}
