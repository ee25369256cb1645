// Reproduces Table 1: knowledge-graph dataset characteristics.
//
// The paper's graph integrates seven public RDF sources totalling ≈103 B
// triples / ≈15.6 TB. We regenerate each source at a 1e6 scale divisor
// with matching bytes-per-triple ratios and report both the paper-scale
// spec and the generated measurements on stdout, which is reproducible
// byte for byte. The host wall times (per-source ingest, index build and
// ingest throughput of the sharded in-memory store) vary run to run and
// go to stderr.

#include <chrono>
#include <cstdio>

#include "common/strings.h"
#include "datagen/sources.h"

int main() {
  using namespace ids;
  constexpr std::uint64_t kScaleDivisor = 1'000'000;
  constexpr int kShards = 64;

  std::printf("=== Table 1: Knowledge Graph Dataset Characteristics ===\n");
  std::printf("(regenerated at 1/%llu scale; paper columns shown for "
              "reference)\n\n",
              static_cast<unsigned long long>(kScaleDivisor));
  std::printf("%-12s %14s %16s | %12s %14s\n", "Dataset", "paper raw",
              "paper triples", "gen triples", "gen raw");

  graph::TripleStore store(kShards);
  std::uint64_t total_triples = 0;
  std::uint64_t total_paper_triples = 0;
  double total_seconds = 0;

  std::fprintf(stderr, "host wall times (vary run to run):\n");
  std::uint64_t seed = 1;
  for (const auto& spec : datagen::paper_sources()) {
    datagen::SourceStats s =
        datagen::generate_source(&store, spec, kScaleDivisor, seed++);
    std::printf("%-12s %14s %16s | %12llu %14s\n", spec.name.c_str(),
                human_bytes(spec.paper_raw_bytes).c_str(),
                human_count(spec.paper_triples).c_str(),
                static_cast<unsigned long long>(s.triples_generated),
                human_bytes(s.raw_bytes_generated).c_str());
    std::fprintf(stderr, "%-12s ingest %.2f s\n", spec.name.c_str(),
                 s.ingest_seconds);
    total_triples += s.triples_generated;
    total_paper_triples += spec.paper_triples;
    total_seconds += s.ingest_seconds;
  }

  auto t0 = std::chrono::steady_clock::now();
  store.finalize();
  double finalize_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("\npaper total: %s triples; generated %llu triples "
              "(dedup to %zu), %d shards\n",
              human_count(total_paper_triples).c_str(),
              static_cast<unsigned long long>(total_triples),
              store.total_triples(), kShards);
  std::fprintf(stderr,
               "generation %.2f s, index build (3 sort orders) %.2f s, "
               "ingest rate %.0f triples/s\n",
               total_seconds, finalize_s,
               static_cast<double>(total_triples) /
                   (total_seconds + finalize_s));
  return 0;
}
