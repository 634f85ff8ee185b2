#include <gtest/gtest.h>

#include "memfs/memfs.h"
#include "net/network.h"
#include "nfs3/client.h"
#include "nfs3/proto.h"
#include "nfs3/server.h"
#include "rpc/rpc.h"
#include "sim/scheduler.h"

namespace gvfs::nfs3 {
namespace {

// ---------------------------------------------------------------------------
// Codec round-trips
// ---------------------------------------------------------------------------

template <typename T>
T RoundTrip(const T& msg) {
  auto parsed = Parse<T>(Serialize(msg));
  EXPECT_TRUE(parsed.has_value());
  return *parsed;
}

TEST(Nfs3ProtoTest, FhRoundTrip) {
  Fh fh{7, 42};
  xdr::Encoder enc;
  fh.Encode(enc);
  xdr::Decoder dec(enc.bytes());
  auto back = Fh::Decode(dec);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, fh);
}

TEST(Nfs3ProtoTest, FattrRoundTrip) {
  Fattr attr;
  attr.type = FType::kDir;
  attr.mode = 0755;
  attr.nlink = 3;
  attr.size = 123456;
  attr.fileid = 99;
  attr.mtime = Seconds(55);
  xdr::Encoder enc;
  attr.Encode(enc);
  xdr::Decoder dec(enc.bytes());
  auto back = Fattr::Decode(dec);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, attr);
}

TEST(Nfs3ProtoTest, FattrDecodeRejectsEveryTruncation) {
  // Fattr decodes through one fused 60-byte window (xdr::Decoder::GetRaw);
  // every strictly-short prefix must fail kTruncated and consume nothing.
  Fattr attr;
  attr.type = FType::kReg;
  attr.mode = 0644;
  attr.size = 7;
  attr.fileid = 42;
  xdr::Encoder enc;
  attr.Encode(enc);
  const Bytes& wire = enc.bytes();
  ASSERT_EQ(wire.size(), 60u) << "Fattr wire layout changed";
  for (std::size_t len = 0; len < wire.size(); ++len) {
    xdr::Decoder dec(wire.data(), len);
    auto res = Fattr::Decode(dec);
    ASSERT_FALSE(res.has_value()) << "decoded from " << len << " bytes";
    EXPECT_EQ(res.error(), xdr::DecodeError::kTruncated);
    EXPECT_EQ(dec.pos(), 0u);
  }
}

TEST(Nfs3ProtoTest, LookupResWithError) {
  LookupRes res;
  res.status = Status::kNoEnt;
  res.dir_attr = Fattr{};
  auto back = RoundTrip(res);
  EXPECT_EQ(back.status, Status::kNoEnt);
  EXPECT_FALSE(back.obj_attr.has_value());
  EXPECT_TRUE(back.dir_attr.has_value());
}

TEST(Nfs3ProtoTest, WriteArgsCarryData) {
  WriteArgs args;
  args.file = Fh{1, 5};
  args.offset = 32768;
  args.stable = StableHow::kUnstable;
  args.data = BlockRef::Copy(Bytes(1000, 0xcd));
  auto back = RoundTrip(args);
  EXPECT_EQ(back.offset, 32768u);
  EXPECT_EQ(back.stable, StableHow::kUnstable);
  EXPECT_EQ(back.data, args.data);
}

TEST(Nfs3ProtoTest, ReadDirResEntries) {
  ReadDirRes res;
  res.dir_attr = Fattr{};
  res.entries = {{1, "a", 1}, {2, "b", 2}};
  res.eof = true;
  auto back = RoundTrip(res);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[1].name, "b");
  EXPECT_TRUE(back.eof);
}

TEST(Nfs3ProtoTest, SetAttrArgsOptionalFields) {
  SetAttrArgs args;
  args.object = Fh{1, 2};
  args.size = 77;
  auto back = RoundTrip(args);
  EXPECT_FALSE(back.mode.has_value());
  ASSERT_TRUE(back.size.has_value());
  EXPECT_EQ(*back.size, 77u);
}

TEST(Nfs3ProtoTest, ParseRejectsTruncated) {
  GetAttrRes res;
  res.attr.size = 1;
  Bytes wire = Serialize(res).Flatten();
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(Parse<GetAttrRes>(wire).has_value());
}

TEST(Nfs3ProtoTest, ProcNames) {
  EXPECT_STREQ(ProcName(kGetAttr), "GETATTR");
  EXPECT_STREQ(ProcName(kLookup), "LOOKUP");
  EXPECT_STREQ(ProcName(999), "UNKNOWN");
}

// ---------------------------------------------------------------------------
// Server end-to-end over the simulated network
// ---------------------------------------------------------------------------

class Nfs3ServerTest : public ::testing::Test {
 protected:
  Nfs3ServerTest()
      : network_(sched_),
        domain_(sched_, network_),
        fs_(&clock_),
        client_host_(network_.AddHost("client")),
        server_host_(network_.AddHost("server")),
        client_node_(domain_.CreateNode(client_host_, 900, "kclient")),
        server_node_(domain_.CreateNode(server_host_, 2049, "nfsd")),
        server_(sched_, fs_, server_node_),
        client_(client_node_, server_node_.address()) {
    network_.Connect(client_host_, server_host_,
                     net::LinkConfig{Milliseconds(20), 4'000'000});
  }

  /// Runs a typed call to completion on the simulation.
  template <typename Res, typename ArgsT>
  Res Run(Proc proc, const ArgsT& args) {
    std::optional<Res> out;
    sim::Spawn(RunCall<Res>(&client_, proc, args, &out));
    sched_.Run();
    EXPECT_TRUE(out.has_value());
    return *out;
  }

  // args by const&: the referenced object (Run's parameter) outlives the
  // coroutine, which completes inside Run's sched_.Run(). Protocol structs
  // must not be coroutine by-value params (GCC 12 aggregate-param bug; see
  // rpc::CallOptions).
  template <typename Res, typename ArgsT>
  static sim::Task<void> RunCall(Nfs3Client* client, Proc proc, const ArgsT& args,
                                 std::optional<Res>* out) {
    auto r = co_await client->Call<Res>(proc, args);
    if (r.has_value()) *out = std::move(*r);
  }

  sim::Scheduler sched_;
  net::Network network_;
  rpc::Domain domain_;
  SimTime clock_ = 0;  // memfs timestamps (kept at 0; server uses sim time in prod wiring)
  memfs::MemFs fs_;
  HostId client_host_, server_host_;
  rpc::RpcNode& client_node_;
  rpc::RpcNode& server_node_;
  Nfs3Server server_;
  Nfs3Client client_;
};

TEST_F(Nfs3ServerTest, GetAttrRoot) {
  auto res = Run<GetAttrRes>(kGetAttr, GetAttrArgs{server_.RootFh()});
  EXPECT_EQ(res.status, Status::kOk);
  EXPECT_EQ(res.attr.type, FType::kDir);
  EXPECT_EQ(res.attr.fileid, fs_.root());
}

TEST_F(Nfs3ServerTest, GetAttrStale) {
  auto res = Run<GetAttrRes>(kGetAttr, GetAttrArgs{Fh{1, 9999}});
  EXPECT_EQ(res.status, Status::kStale);
}

TEST_F(Nfs3ServerTest, CreateLookupReadWrite) {
  auto create = Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, false});
  ASSERT_EQ(create.status, Status::kOk);
  ASSERT_TRUE(create.obj_attr.has_value());
  ASSERT_TRUE(create.dir_attr.has_value());

  WriteArgs wargs;
  wargs.file = create.object;
  wargs.offset = 0;
  wargs.data = BlockRef::Copy(Bytes(64, 0xee));
  auto write = Run<WriteRes>(kWrite, wargs);
  ASSERT_EQ(write.status, Status::kOk);
  EXPECT_EQ(write.count, 64u);
  ASSERT_TRUE(write.attr.has_value());
  EXPECT_EQ(write.attr->size, 64u);

  auto lookup = Run<LookupRes>(kLookup, LookupArgs{server_.RootFh(), "f"});
  ASSERT_EQ(lookup.status, Status::kOk);
  EXPECT_EQ(lookup.object, create.object);

  auto read = Run<ReadRes>(kRead, ReadArgs{create.object, 0, 128});
  ASSERT_EQ(read.status, Status::kOk);
  EXPECT_EQ(read.data, wargs.data);
  EXPECT_TRUE(read.eof);
}

TEST_F(Nfs3ServerTest, UncheckedCreateOfExistingSucceeds) {
  auto first = Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, false});
  auto second = Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, false});
  EXPECT_EQ(second.status, Status::kOk);
  EXPECT_EQ(second.object, first.object);
}

TEST_F(Nfs3ServerTest, ExclusiveCreateOfExistingFails) {
  Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, true});
  auto second = Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, true});
  EXPECT_EQ(second.status, Status::kExist);
}

TEST_F(Nfs3ServerTest, LinkThenRemove) {
  auto create = Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, false});
  auto link = Run<LinkRes>(kLink, LinkArgs{create.object, server_.RootFh(), "g"});
  ASSERT_EQ(link.status, Status::kOk);
  ASSERT_TRUE(link.file_attr.has_value());
  EXPECT_EQ(link.file_attr->nlink, 2u);

  auto link_again = Run<LinkRes>(kLink, LinkArgs{create.object, server_.RootFh(), "g"});
  EXPECT_EQ(link_again.status, Status::kExist);

  auto remove = Run<RemoveRes>(kRemove, RemoveArgs{server_.RootFh(), "f"});
  EXPECT_EQ(remove.status, Status::kOk);
  auto lookup = Run<LookupRes>(kLookup, LookupArgs{server_.RootFh(), "f"});
  EXPECT_EQ(lookup.status, Status::kNoEnt);
}

TEST_F(Nfs3ServerTest, MkdirRenameRmdir) {
  auto mk = Run<MkdirRes>(kMkdir, MkdirArgs{server_.RootFh(), "d", 0755, false});
  ASSERT_EQ(mk.status, Status::kOk);
  auto rn = Run<RenameRes>(
      kRename, RenameArgs{server_.RootFh(), "d", server_.RootFh(), "e"});
  EXPECT_EQ(rn.status, Status::kOk);
  auto rm = Run<RmdirRes>(kRmdir, RmdirArgs{server_.RootFh(), "e"});
  EXPECT_EQ(rm.status, Status::kOk);
}

TEST_F(Nfs3ServerTest, ReadDirListsEntries) {
  Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "b", 0644, false});
  Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "a", 0644, false});
  auto res = Run<ReadDirRes>(kReadDir, ReadDirArgs{server_.RootFh(), 0, 10});
  ASSERT_EQ(res.status, Status::kOk);
  ASSERT_EQ(res.entries.size(), 2u);
  EXPECT_EQ(res.entries[0].name, "a");
  EXPECT_TRUE(res.eof);
}

TEST_F(Nfs3ServerTest, SetAttrTruncate) {
  auto create = Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, false});
  WriteArgs wargs;
  wargs.file = create.object;
  wargs.data = BlockRef::Copy(Bytes(100, 1));
  Run<WriteRes>(kWrite, wargs);
  SetAttrArgs sargs;
  sargs.object = create.object;
  sargs.size = 10;
  auto res = Run<SetAttrRes>(kSetAttr, sargs);
  ASSERT_EQ(res.status, Status::kOk);
  ASSERT_TRUE(res.attr.has_value());
  EXPECT_EQ(res.attr->size, 10u);
}

TEST_F(Nfs3ServerTest, FsStatReportsUsage) {
  auto create = Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, false});
  WriteArgs wargs;
  wargs.file = create.object;
  wargs.data = BlockRef::Copy(Bytes(500, 1));
  Run<WriteRes>(kWrite, wargs);
  auto res = Run<FsStatRes>(kFsStat, FsStatArgs{server_.RootFh()});
  ASSERT_EQ(res.status, Status::kOk);
  EXPECT_EQ(res.used_bytes, 500u);
}

TEST_F(Nfs3ServerTest, CommitSucceedsOnLiveFile) {
  auto create = Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, false});
  auto res = Run<CommitRes>(kCommit, CommitArgs{create.object, 0, 0});
  EXPECT_EQ(res.status, Status::kOk);
}

TEST_F(Nfs3ServerTest, AccessGrantsRequested) {
  auto res = Run<AccessRes>(kAccess, AccessArgs{server_.RootFh(), 0x3f});
  ASSERT_EQ(res.status, Status::kOk);
  EXPECT_EQ(res.access, 0x3fu);
}

TEST_F(Nfs3ServerTest, ServerCountsServedProcedures) {
  Run<GetAttrRes>(kGetAttr, GetAttrArgs{server_.RootFh()});
  Run<GetAttrRes>(kGetAttr, GetAttrArgs{server_.RootFh()});
  Run<LookupRes>(kLookup, LookupArgs{server_.RootFh(), "x"});
  EXPECT_EQ(server_.served().Calls("GETATTR"), 2u);
  EXPECT_EQ(server_.served().Calls("LOOKUP"), 1u);
}

TEST_F(Nfs3ServerTest, CallTakesAtLeastOneRtt) {
  const SimTime start = sched_.Now();
  Run<GetAttrRes>(kGetAttr, GetAttrArgs{server_.RootFh()});
  EXPECT_GE(sched_.Now() - start, Milliseconds(40));
}

TEST_F(Nfs3ServerTest, LargeReadPaysBandwidthCost) {
  auto create = Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, false});
  WriteArgs wargs;
  wargs.file = create.object;
  wargs.data = BlockRef::Copy(Bytes(256 * 1024, 2));
  Run<WriteRes>(kWrite, wargs);

  const SimTime start = sched_.Now();
  auto read = Run<ReadRes>(kRead, ReadArgs{create.object, 0, 256 * 1024});
  ASSERT_EQ(read.status, Status::kOk);
  // 256 KB at 4 Mbps is ~0.5 s of transmission alone.
  EXPECT_GE(sched_.Now() - start, Milliseconds(500));
}

// Wire-size parity: READ and WRITE data rides as spliced blocks, yet every
// packet must cost exactly what the old inline (PutOpaque) encoding cost.

/// WriteArgs as encoded before the block plane: the data copied inline.
std::size_t InlineWriteArgsSize(const WriteArgs& args) {
  xdr::Encoder enc;
  args.file.Encode(enc);
  enc.PutU64(args.offset);
  enc.PutU32(static_cast<std::uint32_t>(args.stable));
  enc.PutOpaque(args.data.view());
  return enc.size();
}

/// ReadRes as encoded before the block plane.
std::size_t InlineReadResSize(const ReadRes& res) {
  xdr::Encoder enc;
  enc.PutU32(static_cast<std::uint32_t>(res.status));
  EncodePostOp(enc, res.attr);
  enc.PutU32(res.count);
  enc.PutBool(res.eof);
  enc.PutOpaque(res.data.view());
  return enc.size();
}

class WireSizeParity : public Nfs3ServerTest,
                       public ::testing::WithParamInterface<std::size_t> {};

TEST_P(WireSizeParity, ReadAndWritePacketsCostTheInlineEncoding) {
  // RPC framing around a body: call header 40 + reply header 12, the body's
  // length word 4, and 100 bytes of UDP/IP + auth overhead per datagram.
  constexpr std::size_t kCallFraming = 40 + 4 + 100;
  constexpr std::size_t kReplyFraming = 12 + 4 + 100;
  const std::size_t len = GetParam();
  auto create = Run<CreateRes>(kCreate, CreateArgs{server_.RootFh(), "f", 0644, false});
  ASSERT_EQ(create.status, Status::kOk);

  WriteArgs wargs;
  wargs.file = create.object;
  wargs.data = BlockRef::Copy(Bytes(len, 0x3c));
  const std::uint64_t up_before = network_.StatsFor(client_host_, server_host_).bytes;
  ASSERT_EQ(Run<WriteRes>(kWrite, wargs).status, Status::kOk);
  EXPECT_EQ(network_.StatsFor(client_host_, server_host_).bytes - up_before,
            kCallFraming + InlineWriteArgsSize(wargs));

  const std::uint64_t down_before = network_.StatsFor(server_host_, client_host_).bytes;
  auto read = Run<ReadRes>(kRead, ReadArgs{create.object, 0, 32768});
  ASSERT_EQ(read.status, Status::kOk);
  EXPECT_EQ(read.data, Bytes(len, 0x3c));
  EXPECT_EQ(network_.StatsFor(server_host_, client_host_).bytes - down_before,
            kReplyFraming + InlineReadResSize(read));
}

INSTANTIATE_TEST_SUITE_P(Lengths, WireSizeParity,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{4095}, std::size_t{32768}));

}  // namespace
}  // namespace gvfs::nfs3
