// Deployment-layer tests: launcher/client/agent lifecycle, the text query
// endpoint, live updates, dynamic UDF import/reload, logs, and the
// locality-aware scheduler.

#include <gtest/gtest.h>

#include "deploy/scheduler.h"
#include "deploy/service.h"

namespace ids::deploy {
namespace {

core::EngineOptions laptop_options(int ranks = 4) {
  core::EngineOptions o;
  o.topology = runtime::Topology::laptop(ranks);
  return o;
}

TEST(Launcher, LaunchAndTeardownLifecycle) {
  DatastoreLauncher launcher;
  auto id = launcher.launch(laptop_options());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(launcher.active_sessions(), 1u);
  EXPECT_NE(launcher.session(id.value()), nullptr);

  EXPECT_TRUE(launcher.teardown(id.value()).ok());
  EXPECT_EQ(launcher.active_sessions(), 0u);
  EXPECT_EQ(launcher.session(id.value()), nullptr);
  EXPECT_EQ(launcher.teardown(id.value()).code(), StatusCode::kNotFound);
}

TEST(Launcher, RejectsEmptyTopology) {
  DatastoreLauncher launcher;
  core::EngineOptions o;
  o.topology.num_nodes = 0;
  EXPECT_FALSE(launcher.launch(o).ok());
}

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = launcher_.launch(laptop_options());
    ASSERT_TRUE(id.ok());
    client_ = std::make_unique<DatastoreClient>(&launcher_, id.value());
    id_ = id.value();
  }

  DatastoreLauncher launcher_;
  std::unique_ptr<DatastoreClient> client_;
  SessionId id_ = 0;
};

TEST_F(ClientTest, UpdateThenTextQuery) {
  std::vector<TripleUpdate> facts;
  for (int i = 0; i < 6; ++i) {
    facts.push_back({"item" + std::to_string(i), "rdf:type", "Thing"});
  }
  ASSERT_TRUE(client_->update(facts).ok());

  auto r = client_->query("SELECT ?x WHERE { ?x rdf:type Thing }");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().solutions.num_rows(), 6u);
}

TEST_F(ClientTest, IncrementalUpdatesAreVisible) {
  ASSERT_TRUE(client_->update({{"a", "knows", "b"}}).ok());
  auto r1 = client_->query("SELECT ?x ?y WHERE { ?x knows ?y }");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().solutions.num_rows(), 1u);

  ASSERT_TRUE(client_->update({{"b", "knows", "c"}, {"c", "knows", "a"}}).ok());
  auto r2 = client_->query("SELECT ?x ?y WHERE { ?x knows ?y }");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().solutions.num_rows(), 3u);
}

TEST_F(ClientTest, ParseErrorsSurfaceAsStatus) {
  auto r = client_->query("SELEKT broken");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ClientTest, ImportUdfAndUseInQuery) {
  ASSERT_TRUE(client_->update({{"n1", "rdf:type", "Num"},
                               {"n2", "rdf:type", "Num"}})
                  .ok());
  IdsSession* s = launcher_.session(id_);
  s->features().set(*s->triples().dict().lookup("n1"), "v", 1.0);
  s->features().set(*s->triples().dict().lookup("n2"), "v", 9.0);

  ASSERT_TRUE(client_
                  ->import_udf("user", "big",
                               [](const udf::UdfContext& ctx,
                                  std::span<const expr::Value> args) {
                                 const auto* e =
                                     std::get_if<expr::Entity>(&args[0]);
                                 auto v = ctx.features->get_double(e->id, "v");
                                 return udf::UdfResult{v && *v > 5.0,
                                                       sim::from_micros(1)};
                               },
                               sim::from_millis(100))
                  .ok());

  auto r = client_->query(
      "SELECT ?x WHERE { ?x rdf:type Num } FILTER user.big(?x)");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().solutions.num_rows(), 1u);

  // Replace the module and force a reload: behaviour flips.
  ASSERT_TRUE(client_
                  ->import_udf("user", "big",
                               [](const udf::UdfContext&,
                                  std::span<const expr::Value>) {
                                 return udf::UdfResult{true,
                                                       sim::from_micros(1)};
                               },
                               sim::from_millis(100))
                  .ok());
  ASSERT_TRUE(client_->reload_module("user").ok());
  auto r2 = client_->query(
      "SELECT ?x WHERE { ?x rdf:type Num } FILTER user.big(?x)");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().solutions.num_rows(), 2u);
}

TEST_F(ClientTest, ImportUdfCannotReplaceAStaticUdf) {
  auto constant = [](double v) {
    return [v](const udf::UdfContext&, std::span<const expr::Value>) {
      return udf::UdfResult{v, sim::from_micros(1)};
    };
  };
  udf::UdfRegistry& reg = launcher_.session(id_)->engine().registry();
  ASSERT_TRUE(reg.register_static("user.fixed", constant(1.0)));

  const Status st = client_->import_udf("user", "fixed", constant(2.0), 0);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << st.to_string();
  const udf::UdfInfo* info = reg.find("user.fixed");
  ASSERT_NE(info, nullptr);
  EXPECT_FALSE(info->dynamic);
}

TEST_F(ClientTest, LogsAccumulateAndDrain) {
  ASSERT_TRUE(client_->update({{"a", "b", "c"}}).ok());
  (void)client_->query("SELECT ?x WHERE { ?x b c }");
  std::vector<LogEntry> logs = client_->fetch_logs();
  EXPECT_GT(logs.size(), 2u);
  bool saw_query_done = false;
  for (const auto& e : logs) {
    if (e.component == "backend" && e.message.find("query done") == 0) {
      saw_query_done = true;
    }
  }
  EXPECT_TRUE(saw_query_done);
  EXPECT_TRUE(client_->fetch_logs().empty());  // drained
}

TEST_F(ClientTest, DisconnectedAfterTeardown) {
  ASSERT_TRUE(launcher_.teardown(id_).ok());
  EXPECT_FALSE(client_->connected());
  EXPECT_EQ(client_->query("SELECT ?x WHERE { ?x a b }").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(client_->update({{"a", "b", "c"}}).code(),
            StatusCode::kUnavailable);
}

TEST(Launcher, MultipleConcurrentSessions) {
  DatastoreLauncher launcher;
  auto a = launcher.launch(laptop_options(2));
  auto b = launcher.launch(laptop_options(4));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());

  DatastoreClient ca(&launcher, a.value());
  DatastoreClient cb(&launcher, b.value());
  ASSERT_TRUE(ca.update({{"x", "in", "a"}}).ok());
  ASSERT_TRUE(cb.update({{"y", "in", "b"}}).ok());
  // Sessions are isolated.
  auto ra = ca.query("SELECT ?s WHERE { ?s in b }");
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra.value().solutions.num_rows(), 0u);
}

// ---- Locality-aware scheduler ----------------------------------------------

TEST(Scheduler, PlacesTasksWithTheirData) {
  cache::CacheConfig cc;
  cc.num_nodes = 4;
  cc.dram_capacity_bytes = 8 << 20;
  cache::CacheManager cache(cc);
  sim::VirtualClock clock;
  // Objects pinned to distinct nodes in REVERSE task order, so the
  // locality-blind round-robin baseline misplaces every task.
  for (int n = 0; n < 4; ++n) {
    cache::PlacementHint hint;
    hint.target_node = 3 - n;
    cache.put(clock, 0, "obj" + std::to_string(n), std::string(200'000, 'x'),
              hint);
  }

  std::vector<TaskSpec> tasks;
  for (int n = 0; n < 4; ++n) {
    tasks.push_back({"task" + std::to_string(n), {"obj" + std::to_string(n)}});
  }
  Placement p = schedule_by_locality(cache, tasks);
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(p.node_of_task.at("task" + std::to_string(n)), 3 - n);
  }
  EXPECT_LT(p.transfer_seconds, p.round_robin_seconds);
  EXPECT_GT(p.improvement(), 1.0);
}

TEST(Scheduler, RespectsSlotCapacity) {
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cache::CacheManager cache(cc);
  sim::VirtualClock clock;
  cache::PlacementHint hint;
  hint.target_node = 0;
  std::vector<std::string> objects;
  for (int i = 0; i < 4; ++i) {
    objects.push_back("o");
    objects.back() += std::to_string(i);
    cache.put(clock, 0, objects.back(), std::string(100'000, 'x'), hint);
  }
  // All data on node 0, but only 2 slots there.
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 4; ++i) {
    std::string task = "t";
    task += std::to_string(i);
    tasks.push_back({task, {objects[static_cast<std::size_t>(i)]}});
  }
  SchedulerOptions opts;
  opts.slots_per_node = 2;
  Placement p = schedule_by_locality(cache, tasks, opts);
  int on0 = 0;
  for (const auto& [task, node] : p.node_of_task) {
    if (node == 0) ++on0;
  }
  EXPECT_EQ(on0, 2);
}

TEST(Scheduler, AbsentObjectsDoNotBias) {
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cache::CacheManager cache(cc);
  std::vector<TaskSpec> tasks = {{"t", {"missing-object"}}};
  Placement p = schedule_by_locality(cache, tasks);
  EXPECT_EQ(p.node_of_task.count("t"), 1u);
}

}  // namespace
}  // namespace ids::deploy
