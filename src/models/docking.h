#pragma once

// Synthetic molecular docking engine (the AutoDock Vina stand-in).
//
// Substitution note (DESIGN.md): Vina's role in the paper's evaluation is
// an *expensive, variable-cost, deterministic-per-input, cacheable*
// simulation dominating the query critical path (31-44 s per ligand on
// their testbed). This engine reproduces that role with real computation:
// a pairwise Lennard-Jones + Coulomb + hydrogen-bond + hydrophobic scoring
// function over receptor/ligand atom pairs within an 8 A cutoff (no grid)
// and a multi-restart simulated-annealing pose search (Vina's Monte Carlo
// + local-optimization scheme, minus torsional flexibility). Cost
// genuinely varies with ligand size and exhaustiveness; identical
// (receptor, ligand, seed) inputs produce bit-identical results, which is
// what makes docking outputs cacheable.
//
// The energy kernel keeps one summation order: receptor atoms outer,
// ligand atoms inner, up to four serial adds per in-cutoff pair. The
// receptor is laid out once as SoA with a per-element-pair parameter
// table, and receptor atoms farther than the cutoff plus a rounding margin
// from the ligand's bounding box are skipped; neither changes a single bit
// of the result (DESIGN.md §2).

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "models/molecule.h"

namespace ids::models {

struct DockingParams {
  int exhaustiveness = 8;      // independent annealing restarts (Vina's knob)
  int steps_per_run = 160;     // Monte Carlo steps per restart
  int num_modes = 9;           // binding modes reported
  double box_radius = 12.0;    // search box half-extent around the pocket
  double temp_start = 2.0;     // annealing temperature schedule (kcal/mol)
  double temp_end = 0.1;
};

struct DockingResult {
  double best_energy = 0.0;            // kcal/mol, lower is better
  std::vector<double> mode_energies;   // best per restart, sorted ascending
  std::uint64_t work_units = 0;        // atom-pair evaluations performed
  std::uint32_t iterations = 0;        // total Monte Carlo steps

  friend bool operator==(const DockingResult&, const DockingResult&) = default;
};

/// Pair cutoff of the scoring function: pairs with r^2 > 64 contribute 0.
inline constexpr double kCutoff = 8.0;
/// Slack added to the cutoff when skipping receptor atoms by their distance
/// to the ligand's bounding box. The reference r^2 of a pair is at least
/// its exact squared distance times (1 - 2^-22) (float coordinate
/// differences, then double squares and sums), so a skipped atom can only
/// be wrong if its box distance is within ~1e-6 A of the cutoff; the
/// margin is four orders of magnitude above that.
inline constexpr double kPrefilterMargin = 0.01;

/// Pairwise interaction energy (kcal/mol-ish) between receptor and ligand
/// in their current coordinates, through the same kernel as
/// DockingEngine::dock. Exposed for tests and microbenchmarks.
double interaction_energy(const Molecule& receptor, const Molecule& ligand);

class DockingEngine {
 public:
  explicit DockingEngine(const Molecule& receptor, DockingParams params = {});

  const DockingParams& params() const { return params_; }

  /// Docks a ligand. Deterministic in (receptor, ligand, seed).
  DockingResult dock(const Molecule& ligand, std::uint64_t seed) const;

  /// Convenience: embed a SMILES string and dock it.
  DockingResult dock_smiles(std::string_view smiles,
                            std::uint64_t seed = 0) const;

 private:
  friend double interaction_energy(const Molecule&, const Molecule&);

  static constexpr std::size_t kElements =
      static_cast<std::size_t>(Element::kCount);

  /// Scoring parameters of one (receptor, ligand) element pair.
  struct ElementPair {
    double sigma2 = 0.0;  // LJ sigma squared
    double eps4 = 0.0;    // 4 * combined LJ well depth
    bool hb = false;      // both N/O: hydrogen-bond term applies
    bool cc = false;      // both C: hydrophobic term applies
  };

  /// Per-evaluation buffers: the ligand as SoA, and one receptor atom's
  /// squared distances and in-cutoff ligand indices. Reused across a
  /// dock() call.
  struct Scratch {
    std::vector<float> x, y, z;
    std::vector<std::uint8_t> element;
    std::vector<double> charge;
    std::vector<double> r2;
    std::vector<std::uint32_t> near;
  };

  /// Interaction energy of `ligand` against this receptor.
  double energy(const Molecule& ligand, Scratch* s) const;

  DockingParams params_;
  // The receptor as SoA, built once; 332 * charge is the Coulomb prefactor.
  std::vector<float> rx_, ry_, rz_;
  std::vector<std::uint8_t> relement_;
  std::vector<double> rq332_;
  std::array<ElementPair, kElements * kElements> pairs_{};
};

/// Compact text serialization for cache storage. Round-trips exactly
/// (energies are serialized with full precision).
std::string serialize(const DockingResult& r);
/// Parses a serialized result. Returns false on malformed input.
bool deserialize(std::string_view text, DockingResult* out);

}  // namespace ids::models
