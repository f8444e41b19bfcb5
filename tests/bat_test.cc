#include <gtest/gtest.h>

#include "bat/bat.h"
#include "bat/column.h"
#include "bat/datavector.h"
#include "bat/hash_index.h"
#include "storage/page_accountant.h"

namespace moaflat::bat {
namespace {

TEST(ColumnTest, VoidColumnIsDenseSequence) {
  ColumnPtr c = Column::MakeVoid(100, 5);
  EXPECT_TRUE(c->is_void());
  EXPECT_EQ(c->size(), 5u);
  EXPECT_EQ(c->width(), 0);
  EXPECT_EQ(c->byte_size(), 0u);  // the zero-space type
  EXPECT_EQ(c->OidAt(0), 100u);
  EXPECT_EQ(c->OidAt(4), 104u);
  EXPECT_EQ(c->GetValue(2).AsOid(), 102u);
}

TEST(ColumnTest, TypedFactoriesRoundTrip) {
  ColumnPtr ints = Column::MakeInt({3, 1, 2});
  EXPECT_EQ(ints->type(), MonetType::kInt);
  EXPECT_EQ(ints->Data<int32_t>()[1], 1);
  ColumnPtr dbls = Column::MakeDbl({1.5, 2.5});
  EXPECT_DOUBLE_EQ(dbls->NumAt(1), 2.5);
  ColumnPtr dates = Column::MakeDate({Date::FromYmd(1994, 1, 1)});
  EXPECT_EQ(dates->GetValue(0).AsDate().Year(), 1994);
}

TEST(ColumnTest, StringColumnUsesSharedHeap) {
  ColumnPtr c = Column::MakeStr({"alpha", "beta", "alpha"});
  EXPECT_EQ(c->type(), MonetType::kStr);
  EXPECT_EQ(c->Str(0), "alpha");
  EXPECT_EQ(c->Str(1), "beta");
  // Identical strings are interned once: offsets equal.
  EXPECT_EQ(c->StrOffset(0), c->StrOffset(2));
}

TEST(ColumnTest, EqualAndCompareAcrossColumns) {
  ColumnPtr a = Column::MakeInt({1, 5});
  ColumnPtr b = Column::MakeInt({5, 1});
  EXPECT_TRUE(a->EqualAt(1, *b, 0));
  EXPECT_FALSE(a->EqualAt(0, *b, 0));
  EXPECT_LT(a->CompareAt(0, *b, 0), 0);
  EXPECT_GT(a->CompareAt(1, *b, 1), 0);
}

TEST(ColumnTest, StringEqualAcrossDifferentHeaps) {
  ColumnPtr a = Column::MakeStr({"x", "y"});
  ColumnPtr b = Column::MakeStr({"y"});
  EXPECT_TRUE(a->EqualAt(1, *b, 0));
  EXPECT_FALSE(a->EqualAt(0, *b, 0));
}

TEST(ColumnTest, HashConsistentWithEquality) {
  ColumnPtr a = Column::MakeStr({"clerk", "manager"});
  ColumnPtr b = Column::MakeStr({"clerk"});
  EXPECT_EQ(a->HashAt(0), b->HashAt(0));
  ColumnPtr v = Column::MakeVoid(7, 3);
  ColumnPtr o = Column::MakeOid({7, 8, 9});
  EXPECT_EQ(v->HashAt(1), o->HashAt(1));
}

TEST(ColumnTest, ComputeSortedAndKey) {
  EXPECT_TRUE(Column::MakeInt({1, 2, 2, 3})->ComputeSorted());
  EXPECT_FALSE(Column::MakeInt({2, 1})->ComputeSorted());
  EXPECT_TRUE(Column::MakeInt({1, 2, 3})->ComputeKey());
  EXPECT_FALSE(Column::MakeInt({1, 2, 2})->ComputeKey());
  EXPECT_TRUE(Column::MakeVoid(0, 10)->ComputeKey());
}

TEST(ColumnTest, CompareValueAgainstBoxed) {
  ColumnPtr c = Column::MakeDate(
      {Date::FromYmd(1994, 1, 1), Date::FromYmd(1995, 6, 1)});
  EXPECT_EQ(c->CompareValue(0, Value::MakeDate(Date::FromYmd(1994, 1, 1))),
            0);
  EXPECT_LT(c->CompareValue(0, Value::MakeDate(Date::FromYmd(1994, 1, 2))),
            0);
}

TEST(ColumnBuilderTest, AppendFromSharesStringHeap) {
  ColumnPtr src = Column::MakeStr({"a", "b", "c"});
  ColumnBuilder b(MonetType::kStr, src->str_heap());
  b.AppendFrom(*src, 2);
  b.AppendFrom(*src, 0);
  ColumnPtr out = b.Finish();
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(out->Str(0), "c");
  EXPECT_EQ(out->str_heap(), src->str_heap());
}

TEST(ColumnBuilderTest, AppendValueCoerces) {
  ColumnBuilder b(MonetType::kDbl);
  ASSERT_TRUE(b.AppendValue(Value::Int(4)).ok());
  ColumnPtr out = b.Finish();
  EXPECT_DOUBLE_EQ(out->NumAt(0), 4.0);
}

TEST(ColumnBuilderTest, AppendRangeMatchesAppendFromLoop) {
  auto ints = Column::MakeInt({5, 6, 7, 8, 9});
  ColumnBuilder bulk(MonetType::kInt);
  bulk.AppendRange(*ints, 1, 4);
  auto out = bulk.Finish();
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ(out->Data<int32_t>(), (std::vector<int32_t>{6, 7, 8}));
  // Void sources materialize their oid view.
  auto v = Column::MakeVoid(100, 10);
  ColumnBuilder ob(MonetType::kOidT);
  ob.AppendRange(*v, 2, 5);
  EXPECT_EQ(ob.Finish()->Data<Oid>(), (std::vector<Oid>{102, 103, 104}));
  // Strings on a shared heap copy offsets; a foreign heap re-interns.
  auto strs = Column::MakeStr({"a", "bb", "ccc"});
  ColumnBuilder shared(MonetType::kStr, strs->str_heap());
  shared.AppendRange(*strs, 0, 3);
  auto sh = shared.Finish();
  EXPECT_EQ(sh->Str(2), "ccc");
  ColumnBuilder foreign(MonetType::kStr);
  foreign.AppendRange(*strs, 1, 3);
  auto fo = foreign.Finish();
  EXPECT_EQ(fo->Str(0), "bb");
  EXPECT_EQ(fo->Str(1), "ccc");
}

TEST(ColumnBuilderTest, GatherFromMatchesAppendFromLoop) {
  auto dbls = Column::MakeDbl({0.5, 1.5, 2.5, 3.5});
  const std::vector<uint32_t> idx{3, 0, 0, 2};
  ColumnBuilder gathered(MonetType::kDbl);
  ColumnBuilder looped(MonetType::kDbl);
  gathered.GatherFrom(*dbls, idx.data(), idx.size());
  for (uint32_t i : idx) looped.AppendFrom(*dbls, i);
  EXPECT_EQ(gathered.Finish()->Data<double>(),
            looped.Finish()->Data<double>());
}

TEST(ColumnScatterTest, ConcurrentSlicesAssembleTheGather) {
  auto ints = Column::MakeInt({10, 20, 30, 40, 50});
  const std::vector<uint32_t> a{4, 2};
  const std::vector<uint32_t> b{0, 1, 3};
  ColumnScatter sc(*ints, 5);
  sc.Gather(b.data(), b.size(), 2);  // out-of-order block writes
  sc.Gather(a.data(), a.size(), 0);
  auto out = sc.Finish();
  EXPECT_EQ(out->Data<int32_t>(),
            (std::vector<int32_t>{50, 30, 10, 20, 40}));
  // Void source scatters its oid view.
  auto v = Column::MakeVoid(7, 10);
  ColumnScatter vs(*v, 2);
  const std::vector<uint32_t> vi{9, 0};
  vs.Gather(vi.data(), vi.size(), 0);
  EXPECT_EQ(vs.Finish()->Data<Oid>(), (std::vector<Oid>{16, 7}));
  // String gathers share the source heap.
  auto strs = Column::MakeStr({"x", "yy", "zzz"});
  ColumnScatter ss(*strs, 2);
  const std::vector<uint32_t> si{2, 1};
  ss.Gather(si.data(), si.size(), 0);
  auto sout = ss.Finish();
  EXPECT_EQ(sout->str_heap(), strs->str_heap());
  EXPECT_EQ(sout->Str(0), "zzz");
  EXPECT_EQ(sout->Str(1), "yy");
}

TEST(ColumnTest, RangeSortedAgreesWithCompareLoop) {
  auto c = Column::MakeInt({1, 3, 3, 2, 5});
  EXPECT_TRUE(c->RangeSorted(0, 3));
  EXPECT_FALSE(c->RangeSorted(0, 4));
  EXPECT_TRUE(c->RangeSorted(3, 5));
  EXPECT_TRUE(c->RangeSorted(2, 2));
  EXPECT_TRUE(Column::MakeVoid(0, 5)->RangeSorted(0, 5));
  auto s = Column::MakeStr({"a", "b", "a"});
  EXPECT_TRUE(s->RangeSorted(0, 2));
  EXPECT_FALSE(s->RangeSorted(0, 3));
}

TEST(ColumnTest, SpanExposesNativeStorage) {
  auto c = Column::MakeLng({4, 5, 6});
  auto span = c->Span<int64_t>();
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[1], 5);
  EXPECT_EQ(span.data(), c->Data<int64_t>().data());
}

TEST(ColumnTest, TypedValueHashMatchesHashAt) {
  auto ints = Column::MakeInt({-3, 0, 41});
  auto oids = Column::MakeOid({41, 7});
  auto dbls = Column::MakeDbl({41.0, -2.5});
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(TypedValueHash(ints->Data<int32_t>()[i]), ints->HashAt(i));
  }
  EXPECT_EQ(TypedValueHash(oids->Data<Oid>()[0]), oids->HashAt(0));
  EXPECT_EQ(TypedValueHash(dbls->Data<double>()[1]), dbls->HashAt(1));
  // Equal values hash equal across the integer-valued storage types
  // (what lets a typed int probe hit an oid-keyed accelerator).
  EXPECT_EQ(ints->HashAt(2), oids->HashAt(0));
}

TEST(BatTest, MakeValidatesSizes) {
  auto ok = Bat::Make(Column::MakeVoid(0, 2), Column::MakeInt({1, 2}));
  EXPECT_TRUE(ok.ok());
  auto bad = Bat::Make(Column::MakeVoid(0, 2), Column::MakeInt({1}));
  EXPECT_FALSE(bad.ok());
}

TEST(BatTest, MirrorSwapsRolesAndProperties) {
  Bat b(Column::MakeOid({1, 2, 3}), Column::MakeInt({9, 8, 7}),
        Properties{true, false, true, false});
  Bat m = b.Mirror();
  EXPECT_EQ(m.head().type(), MonetType::kInt);
  EXPECT_EQ(m.tail().type(), MonetType::kOidT);
  EXPECT_TRUE(m.props().tkey);
  EXPECT_FALSE(m.props().hkey);
  EXPECT_TRUE(m.props().tsorted);
  // Double mirror is the identity.
  Bat mm = m.Mirror();
  EXPECT_EQ(mm.head_col().get(), b.head_col().get());
}

TEST(BatTest, MirrorIsZeroCost) {
  Bat b(Column::MakeOid({1, 2, 3}), Column::MakeInt({9, 8, 7}));
  Bat m = b.Mirror();
  // No data movement: the columns are the same objects.
  EXPECT_EQ(m.head_col().get(), b.tail_col().get());
  EXPECT_EQ(m.tail_col().get(), b.head_col().get());
}

TEST(BatTest, SyncedWithSharedHeadColumn) {
  ColumnPtr head = Column::MakeOid({1, 2, 3});
  Bat x(head, Column::MakeInt({1, 2, 3}));
  Bat y(head, Column::MakeDbl({0.1, 0.2, 0.3}));
  EXPECT_TRUE(x.SyncedWith(y));
  Bat z(Column::MakeOid({1, 2, 3}), Column::MakeInt({1, 2, 3}));
  EXPECT_FALSE(x.SyncedWith(z));  // distinct columns, distinct sync keys
}

TEST(BatTest, ValidateChecksDeclaredProperties) {
  Bat good(Column::MakeOid({1, 2, 3}), Column::MakeInt({5, 5, 6}),
           Properties{true, false, true, true});
  EXPECT_TRUE(good.Validate().ok());
  Bat bad(Column::MakeOid({3, 1}), Column::MakeInt({1, 2}),
          Properties{false, false, true, false});
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(BatTest, DebugStringMentionsTypesAndCount) {
  Bat b(Column::MakeVoid(0, 3), Column::MakeStr({"a", "b", "c"}));
  const std::string s = b.DebugString();
  EXPECT_NE(s.find("bat[void,str]"), std::string::npos);
  EXPECT_NE(s.find("#3"), std::string::npos);
}

TEST(HashIndexTest, FindsAllMatches) {
  ColumnPtr col = Column::MakeInt({5, 3, 5, 9});
  HashIndex idx(col);
  ColumnPtr probe = Column::MakeInt({5});
  int hits = 0;
  idx.ForEachMatch(*probe, 0, [&](uint32_t pos) {
    EXPECT_TRUE(pos == 0 || pos == 2);
    ++hits;
  });
  EXPECT_EQ(hits, 2);
  EXPECT_TRUE(idx.Contains(*probe, 0));
  ColumnPtr miss = Column::MakeInt({4});
  EXPECT_FALSE(idx.Contains(*miss, 0));
  EXPECT_EQ(idx.FindFirst(*probe, 0), 0);
}

TEST(HashIndexTest, WorksOnStrings) {
  ColumnPtr col = Column::MakeStr({"x", "y", "x"});
  HashIndex idx(col);
  ColumnPtr probe = Column::MakeStr({"x"});
  EXPECT_EQ(idx.FindFirst(*probe, 0), 0);
}

TEST(DatavectorTest, MapPositionsIsTheOffsetInTheExtent) {
  auto extent = Column::MakeOid({10, 11, 12, 13});
  auto values = Column::MakeInt({1, 2, 3, 4});
  Datavector dv(extent, values);
  auto probes = Column::MakeOid({12, 10, 13, 9, 99});
  std::vector<int64_t> got(probes->size(), -2);
  dv.MapPositions(
      *probes, 0, probes->size(),
      [&](size_t i, uint32_t pos) { got[i] = pos; },
      [&](size_t i) { got[i] = -1; });
  EXPECT_EQ(got, (std::vector<int64_t>{2, 0, 3, -1, -1}));
}

TEST(DatavectorDeathTest, SparseExtentAborts) {
  // MapPositions' offset arithmetic is only right on a dense extent, so a
  // sparse one is refused at construction rather than probed wrongly.
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
  auto values = Column::MakeInt({1, 2, 3, 4});
  EXPECT_DEATH(Datavector(Column::MakeOid({10, 20, 30, 40}), values),
               "not dense");
  EXPECT_DEATH(Datavector(Column::MakeOid({10, 11, 13, 14}), values),
               "not dense");  // a single missing oid
}

TEST(PageAccountingTest, ColdTouchesFaultOncePerPage) {
  storage::IoStats io;
  ColumnPtr c = Column::MakeInt(std::vector<int32_t>(4096, 7));  // 16 KB
  c->TouchAll(&io);
  EXPECT_EQ(io.faults(), 4u);  // 16KB / 4KB pages
  c->TouchAll(&io);            // warm now
  EXPECT_EQ(io.faults(), 4u);
  io.Reset();
  c->TouchAt(&io, 0);
  EXPECT_EQ(io.faults(), 1u);
}

TEST(PageAccountingTest, VoidColumnsCostNoIo) {
  storage::IoStats io;
  Column::MakeVoid(0, 1 << 20)->TouchAll(&io);
  EXPECT_EQ(io.faults(), 0u);
}

TEST(PageAccountingTest, NullAccountantMeansNoAccounting) {
  ColumnPtr c = Column::MakeInt({1, 2, 3});
  c->TouchAll(nullptr);  // must not crash without an accountant
  SUCCEED();
}

TEST(WithPropsTest, NewlyClaimedPropertiesAreVerified) {
  Bat ab(Column::MakeOid({1, 2, 3}), Column::MakeInt({30, 10, 20}));

  // Claiming a property the data supports succeeds and shares storage.
  auto keyed = ab.WithProps(Properties{true, true, false, false});
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  EXPECT_TRUE(keyed->props().hkey);
  EXPECT_TRUE(keyed->props().tkey);
  EXPECT_EQ(&keyed->head(), &ab.head());  // no copy

  // Claiming sortedness the data violates is rejected: properties are
  // only ever set by code that proves them (Section 5.1 guarding).
  auto bogus = ab.WithProps(Properties{false, false, false, true});
  EXPECT_FALSE(bogus.ok());
  Bat dups(Column::MakeOid({2, 2, 1}), Column::MakeInt({1, 2, 3}));
  EXPECT_FALSE(dups.WithProps(Properties{false, false, true, false}).ok());
  EXPECT_FALSE(dups.WithProps(Properties{true, false, false, false}).ok());
}

TEST(WithPropsTest, DroppingPropertiesIsAlwaysAllowed) {
  Bat ab(Column::MakeOid({1, 2, 3}), Column::MakeInt({10, 20, 30}),
         Properties{true, true, true, true});
  auto dropped = ab.WithProps(Properties{});
  ASSERT_TRUE(dropped.ok());
  EXPECT_FALSE(dropped->props().tsorted);
}

TEST(WithPropsTest, AlreadyDeclaredPropertiesAreNotRechecked) {
  // A property already declared passes through even when expensive to
  // verify: the declaration was proven when it was first set.
  Bat ab(Column::MakeOid({1, 2}), Column::MakeInt({10, 20}),
         Properties{true, true, true, true});
  auto same = ab.WithProps(ab.props());
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->props().hsorted);
}

}  // namespace
}  // namespace moaflat::bat
