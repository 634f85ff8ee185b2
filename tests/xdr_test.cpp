#include <gtest/gtest.h>

#include "xdr/xdr.h"

namespace gvfs::xdr {
namespace {

TEST(XdrTest, U32RoundTrip) {
  Encoder enc;
  enc.PutU32(0xdeadbeef);
  EXPECT_EQ(enc.size(), 4u);
  Decoder dec(enc.bytes());
  auto v = dec.GetU32();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0xdeadbeefu);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, U32BigEndianWire) {
  Encoder enc;
  enc.PutU32(0x01020304);
  const Bytes& b = enc.bytes();
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[1], 0x02);
  EXPECT_EQ(b[2], 0x03);
  EXPECT_EQ(b[3], 0x04);
}

TEST(XdrTest, I32Negative) {
  Encoder enc;
  enc.PutI32(-12345);
  Decoder dec(enc.bytes());
  auto v = dec.GetI32();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, -12345);
}

TEST(XdrTest, U64RoundTrip) {
  Encoder enc;
  enc.PutU64(0x0123456789abcdefULL);
  EXPECT_EQ(enc.size(), 8u);
  Decoder dec(enc.bytes());
  auto v = dec.GetU64();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0x0123456789abcdefULL);
}

TEST(XdrTest, I64Negative) {
  Encoder enc;
  enc.PutI64(-9'000'000'000LL);
  Decoder dec(enc.bytes());
  auto v = dec.GetI64();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, -9'000'000'000LL);
}

TEST(XdrTest, BoolRoundTrip) {
  Encoder enc;
  enc.PutBool(true);
  enc.PutBool(false);
  Decoder dec(enc.bytes());
  EXPECT_TRUE(*dec.GetBool());
  EXPECT_FALSE(*dec.GetBool());
}

TEST(XdrTest, BoolRejectsOutOfRange) {
  Encoder enc;
  enc.PutU32(2);
  Decoder dec(enc.bytes());
  auto v = dec.GetBool();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error(), DecodeError::kBadValue);
}

TEST(XdrTest, OpaquePadding) {
  Encoder enc;
  Bytes payload = {1, 2, 3, 4, 5};
  enc.PutOpaque(payload);
  // 4 (length) + 5 (data) + 3 (pad) = 12
  EXPECT_EQ(enc.size(), 12u);
  Decoder dec(enc.bytes());
  auto v = dec.GetOpaque();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Copy(), payload);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, EmptyOpaque) {
  Encoder enc;
  enc.PutOpaque(Bytes{});
  EXPECT_EQ(enc.size(), 4u);
  Decoder dec(enc.bytes());
  auto v = dec.GetOpaque();
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
}

TEST(XdrTest, FixedOpaqueNoLengthPrefix) {
  Encoder enc;
  std::uint8_t data[6] = {9, 8, 7, 6, 5, 4};
  enc.PutFixedOpaque(data, 6);
  EXPECT_EQ(enc.size(), 8u);  // 6 + 2 pad
  Decoder dec(enc.bytes());
  auto v = dec.GetFixedOpaque(6);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 9);
  EXPECT_EQ((*v)[5], 4);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, StringRoundTrip) {
  Encoder enc;
  enc.PutString("hello, xdr");
  Decoder dec(enc.bytes());
  auto v = dec.GetString();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "hello, xdr");
}

TEST(XdrTest, TruncatedU32) {
  Bytes short_buf = {1, 2, 3};
  Decoder dec(short_buf);
  auto v = dec.GetU32();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error(), DecodeError::kTruncated);
}

TEST(XdrTest, TruncatedOpaqueBody) {
  Encoder enc;
  enc.PutU32(100);  // claims 100 bytes follow; none do
  Decoder dec(enc.bytes());
  auto v = dec.GetOpaque();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error(), DecodeError::kTruncated);
}

TEST(XdrTest, MixedSequenceRoundTrip) {
  Encoder enc;
  enc.PutU32(7);
  enc.PutString("name");
  enc.PutU64(1ULL << 40);
  enc.PutBool(true);
  enc.PutOpaque(Bytes{0xff});

  Decoder dec(enc.bytes());
  EXPECT_EQ(*dec.GetU32(), 7u);
  EXPECT_EQ(*dec.GetString(), "name");
  EXPECT_EQ(*dec.GetU64(), 1ULL << 40);
  EXPECT_TRUE(*dec.GetBool());
  EXPECT_EQ((*dec.GetOpaque())[0], 0xff);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, RemainingCount) {
  Encoder enc;
  enc.PutU32(1);
  enc.PutU32(2);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.remaining(), 8u);
  (void)dec.GetU32();
  EXPECT_EQ(dec.remaining(), 4u);
}

// Property-style sweep: encode/decode random payload sizes, verify padding
// invariants hold for every size.
class XdrOpaqueSweep : public ::testing::TestWithParam<int> {};

TEST_P(XdrOpaqueSweep, SizeAlwaysMultipleOfFour) {
  const int n = GetParam();
  Bytes payload(static_cast<std::size_t>(n), 0xab);
  Encoder enc;
  enc.PutOpaque(payload);
  EXPECT_EQ(enc.size() % 4, 0u);
  Decoder dec(enc.bytes());
  auto v = dec.GetOpaque();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Copy(), payload);
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(AllResidues, XdrOpaqueSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 31, 32, 33, 1024,
                                           4095, 4096, 4097));

// --- Truncation property sweep -------------------------------------------
// Every getter, offered every strictly-short prefix of a valid encoding,
// must report kTruncated (GetRaw: nullptr) and never read past the buffer
// (the sanitizer job enforces the second half). At the exact length each
// must succeed with the original value.

TEST(XdrTruncationSweep, EveryGetterEveryShortPrefix) {
  Encoder enc;
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutBool(true);
  Bytes payload = {1, 2, 3, 4, 5};
  enc.PutOpaque(payload);
  enc.PutString("hello");
  const Bytes& wire = enc.bytes();

  for (std::size_t len = 0; len < wire.size(); ++len) {
    Decoder dec(wire.data(), len);
    bool truncated = false;
    auto u32 = dec.GetU32();
    if (!u32.has_value()) {
      EXPECT_EQ(u32.error(), DecodeError::kTruncated);
      truncated = true;
    }
    if (!truncated) {
      auto u64 = dec.GetU64();
      if (!u64.has_value()) {
        EXPECT_EQ(u64.error(), DecodeError::kTruncated);
        truncated = true;
      }
    }
    if (!truncated) {
      auto b = dec.GetBool();
      if (!b.has_value()) {
        EXPECT_EQ(b.error(), DecodeError::kTruncated);
        truncated = true;
      }
    }
    if (!truncated) {
      auto op = dec.GetOpaque();
      if (!op.has_value()) {
        EXPECT_EQ(op.error(), DecodeError::kTruncated);
        truncated = true;
      }
    }
    if (!truncated) {
      auto s = dec.GetString();
      if (!s.has_value()) {
        EXPECT_EQ(s.error(), DecodeError::kTruncated);
        truncated = true;
      }
    }
    // A strict prefix can never decode the full sequence.
    EXPECT_TRUE(truncated) << "prefix of " << len << " bytes decoded fully";
  }

  // The untruncated wire decodes to exactly what went in.
  Decoder dec(wire);
  EXPECT_EQ(dec.GetU32().value_or(0), 0xdeadbeefu);
  EXPECT_EQ(dec.GetU64().value_or(0), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.GetBool().value_or(false), true);
  auto op = dec.GetOpaque();
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->Copy(), payload);
  auto s = dec.GetString();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->Copy(), "hello");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTruncationSweep, GetFixedOpaqueShortBuffer) {
  Bytes wire = {1, 2, 3, 4, 5, 6, 7};  // not a multiple of 4: 8 needed
  for (std::size_t want : {8u, 12u, 100u}) {
    Decoder dec(wire);
    auto v = dec.GetFixedOpaque(want);
    ASSERT_FALSE(v.has_value()) << want;
    EXPECT_EQ(v.error(), DecodeError::kTruncated);
  }
}

TEST(XdrTruncationSweep, GetRawShortBuffer) {
  Bytes wire = {1, 2, 3, 4};
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    Decoder dec(wire.data(), len);
    const std::uint8_t* p = dec.GetRaw(len + 1);  // one past what's there
    EXPECT_EQ(p, nullptr);
    EXPECT_EQ(dec.pos(), 0u) << "failed GetRaw must not consume";
    if (len > 0) {
      EXPECT_NE(dec.GetRaw(len), nullptr);  // exact fit succeeds
      EXPECT_TRUE(dec.AtEnd());
    }
  }
}

// --- Fixed-layout window round trips --------------------------------------
// Reserve/StoreBe must be byte-identical to the per-field Put path, and
// GetRaw/LoadBe must read back what Put wrote: the fused header writers in
// rpc.cpp and proto.cpp rely on the two paths being interchangeable on the
// wire.

TEST(XdrFixedWindow, ReserveStoreMatchesPut) {
  Encoder put;
  put.PutU32(0x01020304);
  put.PutU64(0x1122334455667788ULL);
  put.PutU32(7);

  Encoder fused;
  std::uint8_t* w = fused.Reserve(16);
  Encoder::StoreBe32(w, 0x01020304);
  Encoder::StoreBe64(w + 4, 0x1122334455667788ULL);
  Encoder::StoreBe32(w + 12, 7);

  EXPECT_EQ(put.bytes(), fused.bytes());
}

TEST(XdrFixedWindow, LoadBeMatchesGet) {
  Encoder enc;
  enc.PutU32(0xcafef00d);
  enc.PutU64(0x8000000000000001ULL);
  Decoder dec(enc.bytes());
  const std::uint8_t* r = dec.GetRaw(12);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(Decoder::LoadBe32(r), 0xcafef00du);
  EXPECT_EQ(Decoder::LoadBe64(r + 4), 0x8000000000000001ULL);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrFixedWindow, ReserveInterleavesWithPuts) {
  Encoder enc;
  enc.PutU32(1);
  std::uint8_t* w = enc.Reserve(8);
  Encoder::StoreBe64(w, 2);
  enc.PutU32(3);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.GetU32().value_or(0), 1u);
  EXPECT_EQ(dec.GetU64().value_or(0), 2u);
  EXPECT_EQ(dec.GetU32().value_or(0), 3u);
  EXPECT_TRUE(dec.AtEnd());
}

// --- Spliced blocks ----------------------------------------------------------
// PutBlock keeps the block's bytes out of the buffer; the message must still
// cost exactly what the flat encoding costs, and decode back the same ref.

/// The flat (copying) encoding of the same fields, for parity checks.
Bytes FlatEncoding(std::uint32_t head, const Bytes& payload, std::uint32_t tail) {
  Encoder enc;
  enc.PutU32(head);
  enc.PutOpaque(payload);
  enc.PutU32(tail);
  return enc.Take();
}

class XdrBlockSweep : public ::testing::TestWithParam<int> {};

TEST_P(XdrBlockSweep, SplicedMessageMatchesFlatEncoding) {
  const Bytes payload(static_cast<std::size_t>(GetParam()), 0x5c);
  const BlockRef block = BlockRef::Copy(payload);
  Encoder enc;
  enc.PutU32(7);
  enc.PutBlock(block);
  enc.PutU32(9);
  const Message msg = enc.Finish();

  const Bytes flat = FlatEncoding(7, payload, 9);
  EXPECT_EQ(msg.WireSize(), flat.size());
  EXPECT_EQ(msg.Flatten(), flat);
  // Only the length word is inline; a non-empty block rides as one splice.
  EXPECT_EQ(msg.size(), 12u);
  EXPECT_EQ(msg.splices().size(), payload.empty() ? 0u : 1u);

  Decoder dec(msg);
  EXPECT_EQ(dec.GetU32().value_or(0), 7u);
  auto got = dec.GetBlock();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  if (!payload.empty()) {
    EXPECT_EQ(got->data(), block.data());  // shared, not copied
  }
  EXPECT_EQ(dec.GetU32().value_or(0), 9u);
  EXPECT_TRUE(dec.AtEnd());

  // The flat bytes decode to the same block by copy.
  Decoder flat_dec(flat);
  (void)flat_dec.GetU32();
  auto copied = flat_dec.GetBlock();
  ASSERT_TRUE(copied.has_value());
  EXPECT_EQ(*copied, payload);
}

INSTANTIATE_TEST_SUITE_P(Lengths, XdrBlockSweep,
                         ::testing::Values(0, 1, 3, 4095, 32768));

TEST(XdrBlockTest, NestedMessageKeepsSplicesAtTheirWirePositions) {
  Encoder inner;
  inner.PutU32(1);
  inner.PutBlock(BlockRef::Copy(Bytes{4, 5, 6}));
  const Message body = inner.Finish();

  Encoder outer;
  outer.PutU32(0xabcd);
  outer.PutSpliced(body.view(), body.splices());
  const Message wrapped = outer.Finish();
  ASSERT_EQ(wrapped.splices().size(), 1u);
  EXPECT_EQ(wrapped.splices().begin()->pos, 4u + 4u + 8u);
  EXPECT_EQ(wrapped.WireSize(), 4u + 4u + body.WireSize());
}

TEST(XdrBlockTest, InlineOpaqueReaderRejectsASplicedField) {
  Encoder enc;
  enc.PutBlock(BlockRef::Copy(Bytes(8, 1)));
  const Message msg = enc.Finish();
  Decoder dec(msg);
  auto v = dec.GetOpaque();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error(), DecodeError::kBadValue);
}

TEST(XdrBlockTest, SpliceLengthMismatchIsBadValue) {
  Encoder enc;
  enc.PutBlock(BlockRef::Copy(Bytes(8, 1)));
  Message msg = enc.Finish();
  // Corrupt the inline length word: the splice no longer matches it.
  Bytes bytes(msg.data(), msg.data() + msg.size());
  bytes[3] = 9;
  SpliceList splices = msg.splices();
  const Message bad(std::move(bytes), 0, 4, std::move(splices));
  Decoder dec(bad);
  auto got = dec.GetBlock();
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.error(), DecodeError::kBadValue);
}

// The truncation sweep above, over a spliced message: every strictly-short
// prefix of the inline bytes (keeping only the splices it still reaches)
// fails with kTruncated, never reads past the buffer, and never hands out a
// block the prefix does not contain.
TEST(XdrTruncationSweep, SplicedMessageEveryShortPrefix) {
  Encoder enc;
  enc.PutU32(0xdeadbeef);
  enc.PutBlock(BlockRef::Copy(Bytes{1, 2, 3, 4, 5}));
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutBlock(BlockRef::Copy(Bytes(4095, 7)));
  enc.PutString("tail");
  const Message msg = enc.Finish();
  ASSERT_EQ(msg.splices().size(), 2u);

  for (std::size_t len = 0; len < msg.size(); ++len) {
    SpliceList kept;
    for (const Splice& sp : msg.splices()) {
      if (sp.pos <= len) kept.push_back(sp);
    }
    const Message prefix(Bytes(msg.data(), msg.data() + len), 0, len, std::move(kept));
    Decoder dec(prefix);
    bool truncated = false;
    auto step = [&](auto result) {
      if (truncated) return;
      if (!result.has_value()) {
        EXPECT_EQ(result.error(), DecodeError::kTruncated) << "prefix " << len;
        truncated = true;
      }
    };
    step(dec.GetU32());
    if (!truncated) step(dec.GetBlock());
    if (!truncated) step(dec.GetU64());
    if (!truncated) step(dec.GetBlock());
    if (!truncated) step(dec.GetString());
    EXPECT_TRUE(truncated) << "prefix of " << len << " bytes decoded fully";
  }

  Decoder dec(msg);
  EXPECT_EQ(dec.GetU32().value_or(0), 0xdeadbeefu);
  EXPECT_EQ(dec.GetBlock().value_or(BlockRef()), (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(dec.GetU64().value_or(0), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.GetBlock().value_or(BlockRef()), Bytes(4095, 7));
  auto s = dec.GetString();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->Copy(), "tail");
  EXPECT_TRUE(dec.AtEnd());
}

}  // namespace
}  // namespace gvfs::xdr
