#include "datagen/sources.h"

#include <cstdio>

#include "common/rng.h"
#include "telemetry/trace.h"

namespace ids::datagen {

const std::vector<SourceSpec>& paper_sources() {
  static const std::vector<SourceSpec> kSources = {
      {"UniProt", 12700ull * 1000 * 1000 * 1000, 87600ull * 1000 * 1000},
      {"ChEMBL-RDF", 81ull * 1000 * 1000 * 1000, 539ull * 1000 * 1000},
      {"Bio2RDF", 2400ull * 1000 * 1000 * 1000, 11500ull * 1000 * 1000},
      {"OrthoDB", 275ull * 1000 * 1000 * 1000, 2200ull * 1000 * 1000},
      {"Biomodels", 5200ull * 1000 * 1000, 28ull * 1000 * 1000},
      {"Biosamples", 112800ull * 1000 * 1000, 1100ull * 1000 * 1000},
      {"Reactome", 3200ull * 1000 * 1000, 19ull * 1000 * 1000},
  };
  return kSources;
}

SourceStats generate_source(graph::TripleStore* store, const SourceSpec& spec,
                            std::uint64_t scale_divisor, std::uint64_t seed) {
  SourceStats stats;
  stats.name = spec.name;
  const std::uint64_t n = std::max<std::uint64_t>(
      1, spec.paper_triples / std::max<std::uint64_t>(1, scale_divisor));
  // Literal padding reproduces the source's bytes-per-triple ratio (IRIs
  // account for ~40 bytes of it).
  const std::uint64_t bytes_per_triple =
      spec.paper_raw_bytes / std::max<std::uint64_t>(1, spec.paper_triples);
  const std::uint64_t pad =
      bytes_per_triple > 40 ? bytes_per_triple - 40 : 0;

  Rng rng(seed);
  auto& dict = store->dict();
  // A small predicate vocabulary per source, like real RDF dumps.
  std::vector<graph::TermId> preds;
  for (int p = 0; p < 12; ++p) {
    preds.push_back(dict.intern(spec.name + ":pred/" + std::to_string(p)));
  }

  // Host-side ingest duration (Table 1), read through the telemetry
  // layer's single wall-clock chokepoint — never a raw clock in
  // modeled code (see DESIGN.md §8, [wallclock-in-engine]).
  const std::uint64_t t0 = telemetry::wall_now_ns();
  std::string subject, object;
  // Entities are reused ~8x so the graph has realistic fan-out.
  const std::uint64_t n_entities = std::max<std::uint64_t>(1, n / 8);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t s_idx = rng.next_below(n_entities);
    subject = spec.name + ":e/" + std::to_string(s_idx);
    if (rng.bernoulli(0.5)) {
      // Literal-valued triple (carries the padding bytes).
      object = "\"v" + std::to_string(rng.next_u64() & 0xffff) +
               std::string(static_cast<std::size_t>(pad), 'x') + "\"";
    } else {
      object = spec.name + ":e/" + std::to_string(rng.next_below(n_entities));
    }
    graph::TermId sid = dict.intern(subject);
    graph::TermId oid = dict.intern(object);
    store->add_ids({sid, preds[rng.next_below(preds.size())], oid});
    stats.raw_bytes_generated += subject.size() + object.size() + 20;
    ++stats.triples_generated;
  }
  stats.ingest_seconds =
      static_cast<double>(telemetry::wall_now_ns() - t0) / 1e9;
  return stats;
}

}  // namespace ids::datagen
