#pragma once

// Deployment components (§2.2).
//
// The paper's IDS framework consists of a *Datastore Launcher* (launch,
// open the query/update endpoint, tear down), a *Datastore Client*
// (submit queries/updates, fetch logs, add user codes), a per-node
// *Datastore Agent* (cooperates in launch/teardown, log retrieval, code
// import), and the CGE-based backend. This module reproduces that
// life-cycle around the in-process engine: sessions are launched against
// a topology, queries arrive as text (parsed by core/parser) or as ASTs,
// updates ingest triples into a running instance, and dynamic UDF modules
// can be imported and force-reloaded at runtime — each action logged by
// the responsible node's agent.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "core/engine.h"
#include "core/parser.h"

namespace ids::deploy {

struct LogEntry {
  int node = -1;          // -1 = launcher itself
  std::string component;  // "launcher", "agent", "client", "backend"
  std::string message;
};

/// Per-node agent: executes launch/teardown steps on its node and records
/// what happened there.
class DatastoreAgent {
 public:
  explicit DatastoreAgent(int node) : node_(node) {}

  int node() const { return node_; }

  void log(std::string_view component, std::string message)
      IDS_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    entries_.push_back(LogEntry{node_, std::string(component),
                                std::move(message)});
  }

  /// Returns and clears the buffered log entries.
  std::vector<LogEntry> drain() IDS_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    std::vector<LogEntry> out = std::move(entries_);
    entries_.clear();
    return out;
  }

 private:
  int node_;
  Mutex mutex_;
  std::vector<LogEntry> entries_ IDS_GUARDED_BY(mutex_);
};

/// A running IDS instance: stores + engine + per-node agents.
class IdsSession {
 public:
  IdsSession(core::EngineOptions options, int num_shards);

  graph::TripleStore& triples() { return *triples_; }
  store::FeatureStore& features() { return *features_; }
  store::InvertedIndex& keywords() { return *keywords_; }
  store::VectorStore& vectors() { return *vectors_; }

  /// Seals every store (ingest→serve epoch transition); idempotent. The
  /// client calls this before each query, so sessions may ingest through
  /// the store accessors freely between queries.
  void freeze_stores() {
    triples_->finalize();
    features_->freeze();
    keywords_->freeze();
  }

  /// Returns every store to the ingest phase (the update endpoint and
  /// bulk loads). Callers own quiescence: no queries in flight until the
  /// next freeze_stores().
  void reopen_stores() {
    triples_->reopen();
    features_->reopen();
    keywords_->reopen();
  }
  core::IdsEngine& engine() { return *engine_; }
  DatastoreAgent& agent(int node) { return *agents_[static_cast<std::size_t>(node)]; }
  int num_nodes() const { return static_cast<int>(agents_.size()); }

 private:
  std::unique_ptr<graph::TripleStore> triples_;
  std::unique_ptr<store::FeatureStore> features_;
  std::unique_ptr<store::InvertedIndex> keywords_;
  std::unique_ptr<store::VectorStore> vectors_;
  std::unique_ptr<core::IdsEngine> engine_;
  std::vector<std::unique_ptr<DatastoreAgent>> agents_;
};

using SessionId = std::uint64_t;

/// The launcher owns sessions: launch brings the backend up across the
/// topology's nodes (one agent per node), teardown destroys it.
class DatastoreLauncher {
 public:
  /// Launches a session across the options' topology (one agent per
  /// node; one store shard per rank) and opens its query/update endpoint.
  Result<SessionId> launch(core::EngineOptions options) IDS_EXCLUDES(mutex_);

  Status teardown(SessionId id) IDS_EXCLUDES(mutex_);

  /// nullptr if the session does not exist (e.g. torn down). The pointee
  /// stays valid until teardown(id) — callers must not race a query
  /// against teardown of the same session.
  IdsSession* session(SessionId id) IDS_EXCLUDES(mutex_);

  std::size_t active_sessions() const IDS_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::uint64_t next_id_ IDS_GUARDED_BY(mutex_) = 1;
  std::unordered_map<SessionId, std::unique_ptr<IdsSession>> sessions_
      IDS_GUARDED_BY(mutex_);
};

/// One fact for the update endpoint.
struct TripleUpdate {
  std::string subject, predicate, object;
};

/// The client talks to a launched session: text queries, updates, dynamic
/// UDF import, log retrieval.
class DatastoreClient {
 public:
  DatastoreClient(DatastoreLauncher* launcher, SessionId id)
      : launcher_(launcher), id_(id) {}

  bool connected() const;

  /// Parses and executes a text query against the session.
  Result<core::QueryResult> query(std::string_view text);

  /// Executes a prebuilt AST query.
  Result<core::QueryResult> execute(const core::Query& q);

  /// Ingests facts into the running instance (reopens the triple store,
  /// adds, and re-finalizes — the ingest→serve epoch round trip).
  Status update(const std::vector<TripleUpdate>& triples);

  /// Imports (or replaces) a dynamic UDF — the paper's Python-module
  /// import path. `load_cost` models the module import time per rank.
  /// AlreadyExists if a static UDF has the name: static UDFs cannot be
  /// replaced.
  Status import_udf(std::string module, std::string method, udf::UdfFn fn,
                    sim::Nanos load_cost);

  /// Forces a module reload so edited user code takes effect (§2.3).
  Status reload_module(std::string_view module);

  /// Collects and clears logs from every node's agent.
  std::vector<LogEntry> fetch_logs();

 private:
  IdsSession* session() const { return launcher_->session(id_); }

  DatastoreLauncher* launcher_;
  SessionId id_;
};

}  // namespace ids::deploy
