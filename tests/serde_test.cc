// Unit tests for the Value type and the pickle-like codec, including
// malformed-input rejection.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>

#include "serde/json.h"
#include "serde/pickle.h"
#include "serde/value.h"
#include "util/hash.h"
#include "util/rng.h"

namespace lfm::serde {
namespace {

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_none());
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_EQ(Value("hi").as_str(), "hi");
  EXPECT_EQ(Value(Bytes{1, 2, 3}).as_bytes().size(), 3u);
}

TEST(Value, IntWidensToReal) {
  EXPECT_DOUBLE_EQ(Value(7).as_real(), 7.0);
}

TEST(Value, WrongAccessorThrows) {
  EXPECT_THROW(Value(1).as_str(), Error);
  EXPECT_THROW(Value("x").as_int(), Error);
  EXPECT_THROW(Value().as_list(), Error);
}

TEST(Value, DictAccess) {
  ValueDict d;
  d["a"] = Value(1);
  Value v(std::move(d));
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("b"));
  EXPECT_THROW(v.at("b"), Error);
  EXPECT_FALSE(Value(1).contains("a"));
}

TEST(Value, EqualityDeep) {
  ValueList l1{Value(1), Value("x")};
  ValueList l2{Value(1), Value("x")};
  EXPECT_EQ(Value(l1), Value(l2));
  l2.push_back(Value());
  EXPECT_NE(Value(l1), Value(l2));
}

TEST(Value, Repr) {
  EXPECT_EQ(Value().repr(), "None");
  EXPECT_EQ(Value(true).repr(), "True");
  EXPECT_EQ(Value(-3).repr(), "-3");
  EXPECT_EQ(Value("a'b").repr(), "'a\\'b'");
  ValueList l{Value(1), Value(2)};
  EXPECT_EQ(Value(l).repr(), "[1, 2]");
  ValueDict d;
  d["k"] = Value(1);
  EXPECT_EQ(Value(d).repr(), "{'k': 1}");
}

Value roundtrip(const Value& v) { return loads(dumps(v)); }

TEST(Pickle, RoundtripScalars) {
  EXPECT_EQ(roundtrip(Value()), Value());
  EXPECT_EQ(roundtrip(Value(true)), Value(true));
  EXPECT_EQ(roundtrip(Value(false)), Value(false));
  EXPECT_EQ(roundtrip(Value(int64_t{0})), Value(int64_t{0}));
  EXPECT_EQ(roundtrip(Value(int64_t{-1})), Value(int64_t{-1}));
  EXPECT_EQ(roundtrip(Value(INT64_MAX)), Value(INT64_MAX));
  EXPECT_EQ(roundtrip(Value(INT64_MIN)), Value(INT64_MIN));
  EXPECT_EQ(roundtrip(Value(3.14159)), Value(3.14159));
  EXPECT_EQ(roundtrip(Value(-0.0)).as_real(), 0.0);
  EXPECT_EQ(roundtrip(Value("")), Value(""));
  EXPECT_EQ(roundtrip(Value("hello \n world")), Value("hello \n world"));
}

TEST(Pickle, RoundtripContainers) {
  ValueList inner{Value(1), Value("two"), Value(3.0)};
  ValueDict d;
  d["list"] = Value(inner);
  d["nested"] = Value(ValueDict{{"x", Value(Bytes{0, 255, 10})}});
  const Value v{std::move(d)};
  EXPECT_EQ(roundtrip(v), v);
}

TEST(Pickle, RoundtripDeepNesting) {
  Value v(int64_t{42});
  for (int i = 0; i < 100; ++i) v = Value(ValueList{std::move(v)});
  EXPECT_EQ(roundtrip(v), v);
}

TEST(Pickle, EncodedSizeMatches) {
  ValueDict d;
  d["k"] = Value(ValueList{Value(1), Value("str"), Value(2.5)});
  const Value v(std::move(d));
  EXPECT_EQ(dumps(v).size(), encoded_size(v));
}

TEST(Pickle, RejectsBadMagic) {
  Bytes b = dumps(Value(1));
  b[0] = 'X';
  EXPECT_THROW(loads(b), Error);
}

TEST(Pickle, RejectsBadVersion) {
  Bytes b = dumps(Value(1));
  b[4] = 99;
  EXPECT_THROW(loads(b), Error);
}

TEST(Pickle, RejectsTruncation) {
  const Bytes b = dumps(Value(std::string(100, 'a')));
  for (const size_t cut : {size_t{4}, b.size() / 2, b.size() - 1}) {
    Bytes t(b.begin(), b.begin() + static_cast<long>(cut));
    EXPECT_THROW(loads(t), Error) << "cut=" << cut;
  }
}

TEST(Pickle, RejectsTrailingGarbage) {
  Bytes b = dumps(Value(1));
  b.push_back(0);
  EXPECT_THROW(loads(b), Error);
}

TEST(Pickle, RejectsUnknownTag) {
  Bytes b = dumps(Value(1));
  b[5] = 200;  // tag byte
  EXPECT_THROW(loads(b), Error);
}

TEST(Pickle, RejectsBadBoolByte) {
  Bytes b = dumps(Value(true));
  b[6] = 7;
  EXPECT_THROW(loads(b), Error);
}

TEST(Pickle, RejectsEmpty) {
  EXPECT_THROW(loads(Bytes{}), Error);
}


TEST(Pickle, RejectsExcessiveNesting) {
  // The decoder guards against stack exhaustion at depth > 256.
  Value v(int64_t{1});
  for (int i = 0; i < 300; ++i) v = Value(ValueList{std::move(v)});
  const Bytes wire = dumps(v);  // encoding recurses but 300 frames is fine
  EXPECT_THROW(loads(wire), Error);
}

TEST(Pickle, AcceptsNestingAtGuardBoundary) {
  Value v(int64_t{7});
  for (int i = 0; i < 250; ++i) v = Value(ValueList{std::move(v)});
  EXPECT_EQ(loads(dumps(v)), v);
}

TEST(Pickle, LargePayload) {
  ValueList big;
  for (int i = 0; i < 10000; ++i) big.push_back(Value(int64_t{i} * 1000003));
  const Value v(std::move(big));
  const Value back = roundtrip(v);
  ASSERT_EQ(back.as_list().size(), 10000u);
  EXPECT_EQ(back.as_list()[9999].as_int(), 9999LL * 1000003);
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(from_json("null").is_none());
  EXPECT_EQ(from_json("true"), Value(true));
  EXPECT_EQ(from_json("false"), Value(false));
  EXPECT_EQ(from_json("42"), Value(int64_t{42}));
  EXPECT_EQ(from_json("-7"), Value(int64_t{-7}));
  EXPECT_EQ(from_json("\"hi\""), Value(std::string("hi")));
  EXPECT_TRUE(from_json("2.5").is_real());
  EXPECT_DOUBLE_EQ(from_json("2.5").as_real(), 2.5);
  EXPECT_TRUE(from_json("1e3").is_real());
  EXPECT_DOUBLE_EQ(from_json("1e3").as_real(), 1000.0);
}

TEST(Json, ParsesContainersAndWhitespace) {
  const Value v = from_json("  { \"a\" : [ 1 , 2.0 , \"x\" ] , \"b\" : { } }  ");
  ASSERT_TRUE(v.is_dict());
  const auto& list = v.as_dict().at("a").as_list();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], Value(int64_t{1}));
  EXPECT_DOUBLE_EQ(list[1].as_real(), 2.0);
  EXPECT_EQ(list[2], Value(std::string("x")));
  EXPECT_TRUE(v.as_dict().at("b").as_dict().empty());
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(from_json(R"("a\"b\\c\/d\n\t")").as_str(), "a\"b\\c/d\n\t");
  // \u sequences decode to UTF-8, including surrogate pairs.
  EXPECT_EQ(from_json(R"("\u0041")").as_str(), "A");
  EXPECT_EQ(from_json(R"("\u00e9")").as_str(), "\xc3\xa9");
  EXPECT_EQ(from_json(R"("\ud83d\ude00")").as_str(), "\xf0\x9f\x98\x80");
}

TEST(Json, RoundTripsThroughToJson) {
  ValueDict d;
  d["name"] = Value(std::string("task \"1\"\n"));
  d["count"] = Value(int64_t{3});
  d["ratio"] = Value(0.125);
  d["flags"] = Value(ValueList{Value(true), Value(false), Value()});
  const Value v(std::move(d));
  EXPECT_EQ(from_json(to_json(v)), v);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(from_json(""), Error);
  EXPECT_THROW(from_json("{"), Error);
  EXPECT_THROW(from_json("[1,]"), Error);
  EXPECT_THROW(from_json("{\"a\":}"), Error);
  EXPECT_THROW(from_json("{\"a\" 1}"), Error);
  EXPECT_THROW(from_json("nul"), Error);
  EXPECT_THROW(from_json("\"unterminated"), Error);
  EXPECT_THROW(from_json("1 2"), Error);  // trailing content
  EXPECT_THROW(from_json("\"bad \\q escape\""), Error);
  EXPECT_THROW(from_json("\"\\ud83d\""), Error);  // lone surrogate
}

// --- allocation-lean fast path: dumps_into / loads_view ---------------------

TEST(FastPath, DumpsIntoReusesBuffer) {
  ValueDict d;
  d["k"] = Value(ValueList{Value(1), Value("str"), Value(Bytes{9, 8, 7})});
  const Value v(std::move(d));
  const Bytes reference = dumps(v);

  Bytes buffer;
  EXPECT_EQ(dumps_into(v, buffer), reference.size());
  EXPECT_EQ(buffer, reference);

  // Re-encoding into the same buffer replaces the contents without
  // shrinking: the capacity from the first pass is kept.
  const size_t cap = buffer.capacity();
  EXPECT_EQ(dumps_into(Value(int64_t{5}), buffer), dumps(Value(int64_t{5})).size());
  EXPECT_EQ(buffer, dumps(Value(int64_t{5})));
  EXPECT_GE(buffer.capacity(), cap);
}

TEST(FastPath, LoadsViewBorrowsLeaves) {
  ValueDict d;
  d["name"] = Value(std::string("a-rather-long-function-name"));
  d["blob"] = Value(Bytes{1, 2, 3, 4});
  const Bytes wire = dumps(Value(std::move(d)));

  const Value v = loads_view(wire);
  const Value& name = v.at("name");
  EXPECT_TRUE(name.is_str());
  EXPECT_TRUE(name.is_borrowed());
  // The view points into the wire buffer, no copy made.
  const std::string_view sv = name.str_view();
  EXPECT_EQ(sv, "a-rather-long-function-name");
  EXPECT_GE(reinterpret_cast<const uint8_t*>(sv.data()), wire.data());
  EXPECT_LT(reinterpret_cast<const uint8_t*>(sv.data()), wire.data() + wire.size());

  const Value& blob = v.at("blob");
  EXPECT_TRUE(blob.is_bytes());
  EXPECT_TRUE(blob.is_borrowed());
  EXPECT_EQ(blob.bytes_view().size, 4u);
}

TEST(FastPath, OwningAccessorMaterializesInPlace) {
  const Bytes wire = dumps(Value(std::string("lazy")));
  const Value v = loads_view(wire);
  EXPECT_TRUE(v.is_borrowed());
  // as_str promotes the borrowed leaf to an owned string and the result
  // stays valid after the wire buffer is gone.
  const std::string& owned = v.as_str();
  EXPECT_EQ(owned, "lazy");
  EXPECT_FALSE(v.is_borrowed());
  EXPECT_EQ(v.str_view(), "lazy");
}

TEST(FastPath, BorrowedEqualsOwned) {
  ValueDict d;
  d["s"] = Value(std::string("twin"));
  d["b"] = Value(Bytes{5, 6});
  const Value owned(std::move(d));
  const Bytes wire = dumps(owned);
  EXPECT_TRUE(loads_view(wire) == owned);
  EXPECT_TRUE(owned == loads_view(wire));
}

TEST(FastPath, ToOwnedSurvivesBufferDeath) {
  Value copy;
  {
    const Bytes wire = dumps(Value(ValueList{Value(std::string("deep")),
                                             Value(Bytes{42})}));
    copy = loads_view(wire).to_owned();
  }  // wire destroyed; views would now dangle
  EXPECT_FALSE(copy.as_list()[0].is_borrowed());
  EXPECT_EQ(copy.as_list()[0].as_str(), "deep");
  EXPECT_EQ(copy.as_list()[1].as_bytes(), (Bytes{42}));
}

TEST(FastPath, LoadsViewMatchesLoads) {
  ValueDict d;
  d["nested"] = Value(ValueDict{{"x", Value(Bytes{0, 255, 10})},
                                {"y", Value(std::string("why"))}});
  d["nums"] = Value(ValueList{Value(1), Value(2.5), Value(false)});
  const Value v(std::move(d));
  const Bytes wire = dumps(v);
  EXPECT_EQ(loads_view(wire).to_owned(), loads(wire));
}

TEST(FastPath, LoadsViewRejectsSameMalformedInput) {
  Bytes b = dumps(Value(std::string("x")));
  EXPECT_THROW(loads_view(b.data(), b.size() - 1), Error);
  b[0] = 'X';
  EXPECT_THROW(loads_view(b), Error);
}

// A seeded value of any kind: ints of every width and sign, reals with
// the IEEE special cases, strings and bytes across the 1- and 2-byte varint
// lengths, nested lists and dicts.
Value seeded_value(Rng& rng, int depth) {
  switch (rng.uniform_int(0, depth < 3 ? 7 : 5)) {
    case 0:
      return Value();
    case 1:
      return Value(rng.chance(0.5));
    case 2: {
      const auto v = static_cast<int64_t>(rng.next() >> rng.uniform_int(0, 63));
      return Value(rng.chance(0.5) ? v : -(v / 2));
    }
    case 3: {
      const double specials[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::denorm_min()};
      if (rng.chance(0.2)) return Value(specials[rng.uniform_int(0, 3)]);
      return Value(rng.normal(0.0, 1e6));
    }
    case 4: {
      std::string str(static_cast<size_t>(rng.uniform_int(0, 300)), ' ');
      for (char& c : str) c = static_cast<char>(rng.uniform_int(0, 255));
      return Value(std::move(str));
    }
    case 5: {
      Bytes b(static_cast<size_t>(rng.uniform_int(0, 300)));
      for (uint8_t& c : b) c = static_cast<uint8_t>(rng.uniform_int(0, 255));
      return Value(std::move(b));
    }
    case 6: {
      ValueList l;
      for (int64_t n = rng.uniform_int(0, 6); n > 0; --n) {
        l.push_back(seeded_value(rng, depth + 1));
      }
      return Value(std::move(l));
    }
    default: {
      ValueDict d;
      for (int64_t n = rng.uniform_int(0, 6); n > 0; --n) {
        d["k" + std::to_string(rng.uniform_int(0, 1000))] = seeded_value(rng, depth + 1);
      }
      return Value(std::move(d));
    }
  }
}

TEST(Pickle, SeededValueSetPicklesToTheRecordedBytes) {
  // The byte count and digest (hash64) of 500 seeded values' pickles,
  // recorded from the codec before it wrote through serde::Writer. Any
  // change to any pickle's bytes changes the digest.
  Rng rng(19);
  uint64_t digest = 0;
  size_t bytes = 0;
  for (int i = 0; i < 500; ++i) {
    const Bytes wire = dumps(seeded_value(rng, 0));
    bytes += wire.size();
    digest = hash_combine64(
        digest, hash64(std::string_view(reinterpret_cast<const char*>(wire.data()),
                                        wire.size())));
  }
  EXPECT_EQ(bytes, 59823u);
  EXPECT_EQ(digest, 0x146ec23cc5e5c45eull) << "0x" << std::hex << digest;
}

}  // namespace
}  // namespace lfm::serde
