#include "deploy/service.h"

#include "common/strings.h"
#include "models/dtba.h"

namespace ids::deploy {

IdsSession::IdsSession(core::EngineOptions options, int num_shards) {
  triples_ = std::make_unique<graph::TripleStore>(num_shards);
  features_ = std::make_unique<store::FeatureStore>(num_shards);
  keywords_ = std::make_unique<store::InvertedIndex>();
  vectors_ = std::make_unique<store::VectorStore>(
      num_shards, static_cast<int>(models::DtbaModel::kProteinDims));
  engine_ = std::make_unique<core::IdsEngine>(options, triples_.get(),
                                              features_.get(), keywords_.get(),
                                              vectors_.get());
  for (int n = 0; n < options.topology.num_nodes; ++n) {
    agents_.push_back(std::make_unique<DatastoreAgent>(n));
    agents_.back()->log("agent", "backend shard group online");
  }
}

Result<SessionId> DatastoreLauncher::launch(core::EngineOptions options) {
  if (options.topology.num_ranks() <= 0) {
    return Status::InvalidArgument("topology has no ranks");
  }
  auto session = std::make_unique<IdsSession>(options,
                                              options.topology.num_ranks());
  MutexLock lock(mutex_);
  SessionId id = next_id_++;
  session->agent(0).log("launcher",
                        "session " + std::to_string(id) +
                            " launched; query/update endpoint open");
  sessions_.emplace(id, std::move(session));
  return id;
}

Status DatastoreLauncher::teardown(SessionId id) {
  MutexLock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no such session: " + std::to_string(id));
  }
  sessions_.erase(it);
  return Status::Ok();
}

IdsSession* DatastoreLauncher::session(SessionId id) {
  MutexLock lock(mutex_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::size_t DatastoreLauncher::active_sessions() const {
  MutexLock lock(mutex_);
  return sessions_.size();
}

bool DatastoreClient::connected() const { return session() != nullptr; }

Result<core::QueryResult> DatastoreClient::query(std::string_view text) {
  IdsSession* s = session();
  if (!s) return Status::Unavailable("session torn down");
  ASSIGN_OR_RETURN(core::Query parsed,
                   core::parse_query(text, &s->triples().dict()));
  s->agent(0).log("client", "query accepted");
  s->freeze_stores();
  core::QueryResult r = s->engine().execute(parsed);
  s->agent(0).log("backend",
                  "query done: " + std::to_string(r.solutions.num_rows()) +
                      " rows in " + format_seconds(r.total_seconds) + " s");
  return r;
}

Result<core::QueryResult> DatastoreClient::execute(const core::Query& q) {
  IdsSession* s = session();
  if (!s) return Status::Unavailable("session torn down");
  s->freeze_stores();
  return s->engine().execute(q);
}

Status DatastoreClient::update(const std::vector<TripleUpdate>& triples) {
  IdsSession* s = session();
  if (!s) return Status::Unavailable("session torn down");
  s->triples().reopen();
  for (const auto& t : triples) {
    s->triples().add(t.subject, t.predicate, t.object);
  }
  s->triples().finalize();
  s->agent(0).log("backend",
                  "update ingested: " + std::to_string(triples.size()) +
                      " triples (indexes rebuilt)");
  return Status::Ok();
}

Status DatastoreClient::import_udf(std::string module, std::string method,
                                   udf::UdfFn fn, sim::Nanos load_cost) {
  IdsSession* s = session();
  if (!s) return Status::Unavailable("session torn down");
  if (!s->engine().registry().register_dynamic(module, method, std::move(fn),
                                               load_cost)) {
    return Status::AlreadyExists("static UDF " + module + "." + method +
                                 " cannot be replaced");
  }
  // Every node's agent imports the user code (§2.2: agents "import new
  // user codes").
  for (int n = 0; n < s->num_nodes(); ++n) {
    s->agent(n).log("agent", "imported user module " + module);
  }
  return Status::Ok();
}

Status DatastoreClient::reload_module(std::string_view module) {
  IdsSession* s = session();
  if (!s) return Status::Unavailable("session torn down");
  s->engine().registry().force_reload(module);
  s->agent(0).log("backend",
                  "module " + std::string(module) +
                      " invalidated; reload on next use per rank");
  return Status::Ok();
}

std::vector<LogEntry> DatastoreClient::fetch_logs() {
  IdsSession* s = session();
  if (!s) return {};
  std::vector<LogEntry> out;
  for (int n = 0; n < s->num_nodes(); ++n) {
    auto part = s->agent(n).drain();
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

}  // namespace ids::deploy
