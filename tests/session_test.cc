#include "api/session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "api/database.h"
#include "api/prepared_statement.h"
#include "test_util.h"

namespace skinner {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (k INT, v INT)").ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE u (k INT, w INT)").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 10), (1, 11), (2, 20), "
                            "(3, 30)")
                    .ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO u VALUES (1, 100), (2, 200), "
                            "(2, 201), (9, 900)")
                    .ok());
  }

  Database db_;
};

TEST_F(SessionTest, DefaultSessionIsSeedTransparent) {
  // Database::Query is a thin wrapper over the id-0 session: seeds pass
  // through unchanged, so pre-session behavior is preserved exactly.
  EXPECT_EQ(db_.default_session()->id(), 0u);
  EXPECT_EQ(db_.default_session()->DeriveSeed(42), 42u);
  auto out = db_.Query("SELECT COUNT(*) FROM t, u WHERE t.k = u.k");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().result.rows[0][0].AsInt(), 4);
}

TEST_F(SessionTest, SessionsDeriveDistinctDeterministicSeeds) {
  auto s1 = db_.CreateSession();
  auto s2 = db_.CreateSession();
  EXPECT_NE(s1->id(), s2->id());
  EXPECT_GE(s1->id(), 1u);
  // Same session: deterministic; distinct sessions: independent streams.
  EXPECT_EQ(s1->DeriveSeed(42), s1->DeriveSeed(42));
  EXPECT_NE(s1->DeriveSeed(42), s2->DeriveSeed(42));
  EXPECT_NE(s1->DeriveSeed(42), 42u);

  // Whatever the seed, results stay exact.
  const char* sql = "SELECT COUNT(*) FROM t, u WHERE t.k = u.k";
  auto r1 = s1->Query(sql);
  auto r2 = s2->Query(sql);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().result.rows[0][0].AsInt(), 4);
  EXPECT_EQ(r2.value().result.rows[0][0].AsInt(), 4);
}

TEST_F(SessionTest, SessionDefaultsApplyToQueries) {
  ExecOptions defaults;
  defaults.engine = EngineKind::kVolcano;
  auto s = db_.CreateSession(defaults);
  EXPECT_EQ(s->defaults().engine, EngineKind::kVolcano);
  auto out = s->Query("SELECT COUNT(*) FROM t, u WHERE t.k = u.k");
  ASSERT_TRUE(out.ok());
  // Volcano reports the optimizer's estimated plan cost; Skinner-C leaves
  // it at zero — observable proof the defaults were applied.
  EXPECT_GT(out.value().stats.estimated_cost, 0.0);

  s->mutable_defaults()->engine = EngineKind::kSkinnerC;
  auto out2 = s->Query("SELECT COUNT(*) FROM t, u WHERE t.k = u.k");
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2.value().stats.estimated_cost, 0.0);
}

TEST_F(SessionTest, StatsRollUpAcrossQueriesAndStatements) {
  auto s = db_.CreateSession();
  ASSERT_TRUE(s->Query("SELECT COUNT(*) FROM t").ok());
  ASSERT_FALSE(s->Query("SELECT COUNT(*) FROM nope").ok());

  auto stmt = s->Prepare("SELECT COUNT(*) FROM t WHERE t.v > ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt.value()->Execute({Value::Int(10)}).ok());
  ASSERT_TRUE(stmt.value()->Execute({Value::Int(25)}).ok());

  SessionStats stats = s->stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.statements_prepared, 1u);
  EXPECT_GT(stats.total_cost, 0u);
  EXPECT_GT(stats.preprocess_cost, 0u);
  // Execution #2 of the template warm-started and re-prepared only the
  // param-filtered table (of one).
  EXPECT_EQ(stats.template_hits, 1u);
  EXPECT_EQ(stats.tables_reprepared, 2u);

  // The default session rolled nothing of the above.
  EXPECT_EQ(db_.default_session()->stats().queries, 0u);
}

TEST_F(SessionTest, QueryBatchRollsUpAndStaysCorrect) {
  auto s = db_.CreateSession();
  std::vector<BatchItem> items;
  for (int i = 0; i < 4; ++i) {
    BatchItem item;
    item.sql = "SELECT COUNT(*) FROM t, u WHERE t.k = u.k";
    items.push_back(std::move(item));
  }
  BatchOptions bo;
  bo.num_workers = 2;
  auto results = s->QueryBatch(items, bo);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().result.rows[0][0].AsInt(), 4);
  }
  EXPECT_EQ(s->stats().queries, 4u);
}

TEST_F(SessionTest, PreparedStatementsOnDistinctSessionsShareTheTemplateCache) {
  // The whole point of the template-keyed cache: session identity does
  // not fragment artifact reuse.
  auto s1 = db_.CreateSession();
  auto s2 = db_.CreateSession();
  auto stmt1 = s1->Prepare("SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v > ?");
  auto stmt2 = s2->Prepare("SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v > ?");
  ASSERT_TRUE(stmt1.ok());
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(stmt1.value()->template_signature(),
            stmt2.value()->template_signature());

  auto first = stmt1.value()->Execute({Value::Int(10)});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.tables_reprepared, 2);

  // Same value from the other session: full artifact reuse. Different
  // value: only the param-filtered table rebuilds.
  auto second = stmt2.value()->Execute({Value::Int(10)});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.tables_reprepared, 0);
  EXPECT_EQ(second.value().stats.tables_prepared_from_cache, 2);
  auto third = stmt2.value()->Execute({Value::Int(25)});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().stats.tables_reprepared, 1);
  EXPECT_EQ(third.value().result.rows[0][0].AsInt(),
            db_.Query("SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v > 25")
                .value()
                .result.rows[0][0]
                .AsInt());
}

// Snapshot reads: a reader blocked in the middle of scanning `t` holds
// its pinned version, and UPDATE, DELETE and CHECKPOINT all complete
// while it waits. The reader then returns the rows as they were before the
// writes, the next read sees the writes, and the version the reader alone
// kept alive is freed as soon as it finishes.
TEST(SnapshotReadTest, WritesDoNotWaitForABlockedReader) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT, v INT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
          .ok());

  // A latch inside the scan: the first call of gate() blocks until the
  // test releases it.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  ASSERT_TRUE(db.udfs()
                  ->Register("gate", 1, DataType::kInt64,
                             [&](const std::vector<Value>&) {
                               std::unique_lock<std::mutex> lock(mu);
                               if (!entered) {
                                 entered = true;
                                 cv.notify_all();
                                 cv.wait(lock, [&] { return released; });
                               }
                               return Value::Int(1);
                             })
                  .ok());
  auto release = [&] {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  };

  const std::weak_ptr<Table> before_writes = db.catalog()->Current("t");
  std::unique_ptr<Session> reader_session = db.CreateSession();
  std::promise<Result<QueryOutput>> read_promise;
  std::future<Result<QueryOutput>> read = read_promise.get_future();
  std::thread reader([&] {
    read_promise.set_value(
        reader_session->Query("SELECT k, v FROM t WHERE gate(k) = 1"));
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  // The writes run on their own thread, so a regression that makes them
  // wait for the reader fails the test instead of hanging it.
  std::weak_ptr<Table> after_update;
  auto writes = std::async(std::launch::async, [&] {
    Status st = db.Execute("UPDATE t SET v = v + 1 WHERE k = 1");
    if (!st.ok()) return st;
    after_update = db.catalog()->Current("t");
    st = db.Execute("DELETE FROM t WHERE k = 2");
    if (!st.ok()) return st;
    return db.Checkpoint();
  });
  const bool done =
      writes.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  EXPECT_TRUE(done) << "writes waited for a blocked reader";
  if (done) {
    Status st = writes.get();
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(read.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);  // still blocked
    // The reader's version was copied, not changed; the writes after the
    // first found the new version unpinned and wrote it in place.
    std::shared_ptr<Table> current = db.catalog()->Current("t");
    EXPECT_FALSE(before_writes.expired());
    EXPECT_NE(before_writes.lock(), current);
    EXPECT_EQ(after_update.lock(), current);
  }
  release();
  reader.join();
  if (!done) writes.wait();

  Result<QueryOutput> got = read.get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(testing::CanonicalRows(got.value().result),
            "1|10|\n2|20|\n3|30|\n4|40|\n");
  EXPECT_TRUE(before_writes.expired());

  Result<QueryOutput> next = db.Query("SELECT k, v FROM t");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(testing::CanonicalRows(next.value().result), "1|11|\n3|30|\n4|40|\n");
}

}  // namespace
}  // namespace skinner
