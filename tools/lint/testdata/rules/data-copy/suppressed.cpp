// Fixture: an intended copy, with its reason.
#include "rpc/rpc.h"

void Snapshot(Dump& dump, const nfs3::WriteArgs& args) {
  // gvfs-lint: allow(data-copy): the dump outlives the session and must own its bytes
  dump.Add(Bytes(args.data.begin(), args.data.end()));
}
