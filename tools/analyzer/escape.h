#pragma once

// Thread-escape analysis for ids-analyzer's concurrency layer.
//
// A *spawner* is a function that hands a callable to the thread pool:
// ThreadPool::submit / ThreadPool::parallel_for themselves, plus — by a
// fixed point over the call graph — every function that forwards one of
// its own parameters into a spawner call (runtime::for_each_rank wraps
// parallel_for this way). At each spawner call site the analysis parses
// the lambda arguments, resolves their captures, and flags state that is
// captured by reference (or reached through a captured `this`) and then
// mutated inside the task body without a guarding MutexLock, an atomic
// type, an IDS_GUARDED_BY/IDS_FROZEN_AFTER annotation, or an
// internally-synchronized receiver class.
//
// The sanctioned per-rank pattern — `dst[rank] = ...` indexed writes into
// disjoint slots — is exempt by construction: any subscripted access is
// assumed rank-partitioned (the analysis cannot prove disjointness, and
// the codebase's parallel loops all use it deliberately).

#include <set>
#include <string>
#include <vector>

#include "corpus.h"
#include "field_access.h"

namespace ids::analyzer {

/// The spawner fixed point (see above). Seeded by name so fixture code
/// with a stub `pool.parallel_for(...)` resolves without a full
/// ThreadPool definition in the corpus.
std::set<const MergedFunc*> compute_spawners(const Corpus& corpus);

/// Like compute_spawners but seeded with `submit` only — the detached-task
/// entry points whose callable may outlive the submitting frame.
/// parallel_for stays out: it joins before returning, so its captures
/// cannot dangle. Feeds [task-outlives-capture].
std::set<const MergedFunc*> compute_async_spawners(const Corpus& corpus);

struct EscapeFinding {
  std::string path;
  int line = 0;
  std::string message;
};

/// Scans every function body for lambdas passed to spawner calls and
/// returns the unprotected mutations of escaped state.
std::vector<EscapeFinding> find_escapes(
    const Corpus& corpus, const FieldTable& fields,
    const std::set<const MergedFunc*>& spawners);

/// Scans every function body for lambdas handed to an *async* spawner
/// (compute_async_spawners) in a frame that never joins the task — no
/// wait/get/join/drain call between the submit and the end of the body.
/// By-reference and `this` captures of such a task dangle if the task
/// outlives the frame; each one becomes a finding. IDS_VIEW_OK(reason) on
/// the submitting function waives it. Feeds [task-outlives-capture].
std::vector<EscapeFinding> find_task_lifetime(
    const Corpus& corpus, const std::set<const MergedFunc*>& async_spawners);

}  // namespace ids::analyzer
