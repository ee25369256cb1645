// Tests for the chemistry stack: molecules, structure prediction, docking
// (determinism, serialization, energetics), DTBA, pIC50, and the molecule
// generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/lifesci.h"
#include "models/cost_profile.h"
#include "models/docking.h"
#include "models/dtba.h"
#include "models/molecule.h"
#include "models/molgen.h"
#include "models/pic50.h"
#include "models/structure.h"

namespace ids::models {
namespace {

TEST(Molecule, ElementsFromSmiles) {
  auto e = elements_from_smiles("CC(=O)Nc1ccc1");
  // C,C,O,N,c,c,c,c -> 8 atoms.
  EXPECT_EQ(e.size(), 8u);
  EXPECT_EQ(e[2], Element::O);
  EXPECT_EQ(e[3], Element::N);
}

TEST(Molecule, LigandEmbeddingIsDeterministic) {
  Molecule a = ligand_from_smiles("CCNOC", 5);
  Molecule b = ligand_from_smiles("CCNOC", 5);
  ASSERT_EQ(a.atoms.size(), b.atoms.size());
  for (std::size_t i = 0; i < a.atoms.size(); ++i) {
    EXPECT_FLOAT_EQ(a.atoms[i].x, b.atoms[i].x);
    EXPECT_FLOAT_EQ(a.atoms[i].y, b.atoms[i].y);
    EXPECT_FLOAT_EQ(a.atoms[i].z, b.atoms[i].z);
  }
  // Different seed -> different conformer.
  Molecule c = ligand_from_smiles("CCNOC", 6);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.atoms.size(); ++i) {
    if (a.atoms[i].x != c.atoms[i].x) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Molecule, LigandCenteredAtOrigin) {
  Molecule m = ligand_from_smiles("CCCCCCCCCC", 0);
  Vec3 c = m.centroid();
  EXPECT_NEAR(c.x, 0.0, 1e-4);
  EXPECT_NEAR(c.y, 0.0, 1e-4);
  EXPECT_NEAR(c.z, 0.0, 1e-4);
}

TEST(Molecule, BondLengthsArePlausible) {
  Molecule m = ligand_from_smiles("CCCCCC", 1);
  for (std::size_t i = 1; i < m.atoms.size(); ++i) {
    double dx = m.atoms[i].x - m.atoms[i - 1].x;
    double dy = m.atoms[i].y - m.atoms[i - 1].y;
    double dz = m.atoms[i].z - m.atoms[i - 1].z;
    EXPECT_NEAR(std::sqrt(dx * dx + dy * dy + dz * dz), 1.5, 1e-3);
  }
}

TEST(Molecule, RotationPreservesShape) {
  Molecule m = ligand_from_smiles("CCNCCOCC", 2);
  double d01_before = std::hypot(m.atoms[0].x - m.atoms[1].x,
                                 m.atoms[0].y - m.atoms[1].y,
                                 m.atoms[0].z - m.atoms[1].z);
  m.rotate(0.7, -0.3, 1.9);
  double d01_after = std::hypot(m.atoms[0].x - m.atoms[1].x,
                                m.atoms[0].y - m.atoms[1].y,
                                m.atoms[0].z - m.atoms[1].z);
  EXPECT_NEAR(d01_before, d01_after, 1e-4);
}

TEST(Molecule, MolecularWeightCounts) {
  // C2: 2 * 12.011.
  EXPECT_NEAR(molecular_weight("CC"), 24.022, 1e-3);
  EXPECT_GT(molecular_weight("CCS"), molecular_weight("CCC"));
}

TEST(Structure, DeterministicAndCompleteTrace) {
  Rng rng(3);
  std::string seq = datagen::random_protein_sequence(rng, 150);
  PredictedStructure a = predict_structure(seq);
  PredictedStructure b = predict_structure(seq);
  ASSERT_EQ(a.ca_trace.size(), seq.size());
  for (std::size_t i = 0; i < a.ca_trace.size(); ++i) {
    EXPECT_FLOAT_EQ(a.ca_trace[i].x, b.ca_trace[i].x);
  }
  EXPECT_GT(a.mean_confidence, 40.0);
  EXPECT_LE(a.mean_confidence, 100.0);
  EXPECT_EQ(a.work_units, 150u * 150u);
}

TEST(Structure, PropensityClasses) {
  EXPECT_EQ(residue_propensity('A'), SecondaryStructure::kHelix);
  EXPECT_EQ(residue_propensity('V'), SecondaryStructure::kSheet);
  EXPECT_EQ(residue_propensity('G'), SecondaryStructure::kCoil);
}

TEST(Structure, ReceptorPocketIsCompactAndCentered) {
  Rng rng(5);
  std::string seq = datagen::random_protein_sequence(rng, 300);
  PredictedStructure s = predict_structure(seq);
  Molecule rec = receptor_from_structure(s, 48);
  ASSERT_EQ(rec.atoms.size(), 48u);
  // The anchor residue sits at the origin; some pocket atoms must be in
  // docking range of it.
  int close = 0;
  for (const auto& a : rec.atoms) {
    if (std::sqrt(a.x * a.x + a.y * a.y + a.z * a.z) < 15.0) ++close;
  }
  EXPECT_GT(close, 8);
}

TEST(Docking, DeterministicForSameInputs) {
  Rng rng(7);
  std::string seq = datagen::random_protein_sequence(rng, 200);
  DockingEngine eng(receptor_from_structure(predict_structure(seq)));
  DockingResult a = eng.dock_smiles("CCNC(=O)c1ccc1", 3);
  DockingResult b = eng.dock_smiles("CCNC(=O)c1ccc1", 3);
  EXPECT_EQ(a, b);
  DockingResult c = eng.dock_smiles("CCNC(=O)c1ccc1", 4);
  EXPECT_NE(a.best_energy, c.best_energy);  // seed matters
}

TEST(Docking, FindsNegativeEnergyPoses) {
  Rng rng(11);
  std::string seq = datagen::random_protein_sequence(rng, 250);
  DockingEngine eng(receptor_from_structure(predict_structure(seq)));
  Rng gen(13);
  int negative = 0;
  for (int i = 0; i < 5; ++i) {
    DockingResult r = eng.dock_smiles(generate_smiles(gen), 0);
    if (r.best_energy < -0.5) ++negative;
  }
  EXPECT_GE(negative, 3);  // most drug-like ligands find a binding pose
}

TEST(Docking, ModeEnergiesSortedBestFirst) {
  Rng rng(17);
  std::string seq = datagen::random_protein_sequence(rng, 200);
  DockingEngine eng(receptor_from_structure(predict_structure(seq)));
  DockingResult r = eng.dock_smiles("CCCNCCOC1CCCC1", 0);
  ASSERT_FALSE(r.mode_energies.empty());
  EXPECT_DOUBLE_EQ(r.best_energy, r.mode_energies.front());
  for (std::size_t i = 1; i < r.mode_energies.size(); ++i) {
    EXPECT_LE(r.mode_energies[i - 1], r.mode_energies[i]);
  }
}

TEST(Docking, WorkScalesWithLigandSizeAndExhaustiveness) {
  Rng rng(19);
  std::string seq = datagen::random_protein_sequence(rng, 200);
  Molecule rec = receptor_from_structure(predict_structure(seq));

  DockingEngine eng8(rec, DockingParams{});
  DockingParams p16;
  p16.exhaustiveness = 16;
  DockingEngine eng16(rec, p16);

  DockingResult small = eng8.dock_smiles("CCCC", 0);
  DockingResult large = eng8.dock_smiles("CCCCCCCCCCCCCCCCCCCCCCCC", 0);
  EXPECT_GT(large.work_units, small.work_units);

  DockingResult deep = eng16.dock_smiles("CCCC", 0);
  EXPECT_GT(deep.work_units, small.work_units);
}

TEST(Docking, ConstructorRejectsParamsThatYieldNoMode) {
  // dock() ends with mode_energies.front(): a search with no restart or no
  // reported mode would read an empty vector.
  Rng rng(19);
  const Molecule rec = receptor_from_structure(
      predict_structure(datagen::random_protein_sequence(rng, 60)));
  DockingParams no_restarts;
  no_restarts.exhaustiveness = 0;
  EXPECT_DEATH((void)DockingEngine(rec, no_restarts),
               "exhaustiveness must be positive");
  DockingParams no_modes;
  no_modes.num_modes = -1;
  EXPECT_DEATH((void)DockingEngine(rec, no_modes),
               "num_modes must be positive");
}

TEST(Docking, ModeledCostInPaperEnvelope) {
  // Typical drug-like ligands must cost tens of seconds (the paper reports
  // 31-44 s per compound; we accept a slightly wider band for the size
  // spread of the synthetic library).
  Rng rng(23);
  std::string seq = datagen::random_protein_sequence(rng, 250);
  DockingEngine eng(receptor_from_structure(predict_structure(seq)));
  CostProfile costs;
  Rng gen(29);
  for (int i = 0; i < 5; ++i) {
    DockingResult r = eng.dock_smiles(generate_smiles(gen), 0);
    double secs = sim::to_seconds(costs.docking_cost(r.work_units));
    EXPECT_GT(secs, 10.0);
    EXPECT_LT(secs, 80.0);
  }
}

TEST(Docking, SerializeRoundTrips) {
  DockingResult r;
  r.best_energy = -7.25;
  r.mode_energies = {-7.25, -6.5, -3.125};
  r.work_units = 123456789;
  r.iterations = 1280;
  DockingResult back;
  ASSERT_TRUE(deserialize(serialize(r), &back));
  EXPECT_EQ(r, back);
}

TEST(Docking, DeserializeRejectsGarbage) {
  DockingResult r;
  EXPECT_FALSE(deserialize("", &r));
  EXPECT_FALSE(deserialize("not;enough", &r));
  EXPECT_FALSE(deserialize("x;1,2;3;4", &r));
}

TEST(Docking, InteractionEnergyFarApartIsZero) {
  Molecule a = ligand_from_smiles("CCC", 0);
  Molecule b = ligand_from_smiles("CCC", 1);
  b.translate(100, 0, 0);
  EXPECT_DOUBLE_EQ(interaction_energy(a, b), 0.0);
}

// ---------------------------------------------------------------------------
// Bit-identity of the docking energy kernel.
//
// `naive_energy` is the original all-pairs AoS loop, kept verbatim as the
// oracle: the kernel's receptor tables, bounding-box prefilter and
// compressed distance pass must reproduce its result bit for bit, since
// cached docking results, modeled docking seconds and the benchmark
// goldens all pin these energies.

double naive_energy(const Molecule& receptor, const Molecule& ligand) {
  double energy = 0.0;
  for (const auto& ra : receptor.atoms) {
    LjParams rl = lj_params(ra.element);
    for (const auto& la : ligand.atoms) {
      double dx = ra.x - la.x;
      double dy = ra.y - la.y;
      double dz = ra.z - la.z;
      double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 > 64.0) continue;  // 8 A cutoff
      r2 = std::max(r2, 0.25);  // clamp to avoid singularities
      double r = std::sqrt(r2);

      LjParams ll = lj_params(la.element);
      double sigma = (rl.radius + ll.radius) * 0.5 * 1.78;
      double eps = std::sqrt(static_cast<double>(rl.well_depth) *
                             static_cast<double>(ll.well_depth));
      double sr2 = (sigma * sigma) / r2;
      double sr6 = sr2 * sr2 * sr2;
      // 6-12 Lennard-Jones, softened on the repulsive side so clashes are
      // steep but finite (Vina similarly caps steric terms).
      double lj = 4.0 * eps * (sr6 * sr6 - sr6);
      energy += std::min(lj, 10.0);

      // Coulomb with distance-dependent dielectric (4r).
      energy += 332.0 * ra.charge * la.charge / (4.0 * r2);

      // Hydrogen-bond-flavoured term: N/O donor-acceptor pairs in the
      // 2.6-3.4 A window get a bonus.
      bool ra_polar = ra.element == Element::N || ra.element == Element::O;
      bool la_polar = la.element == Element::N || la.element == Element::O;
      if (ra_polar && la_polar && r > 2.4 && r < 3.6) {
        double center = 3.0;
        double w = 1.0 - std::abs(r - center) / 0.6;
        if (w > 0.0) energy -= 1.6 * w;
      }

      // Hydrophobic contact (Vina's "hydrophobic" term): carbon-carbon
      // pairs in van-der-Waals contact contribute a mild attraction.
      if (ra.element == Element::C && la.element == Element::C && r > 3.2 &&
          r < 5.0) {
        energy -= 0.45 * (1.0 - (r - 3.2) / 1.8);
      }
    }
  }
  return energy;
}

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Asserts the kernel and the oracle agree bit for bit; returns the energy.
double expect_same_bits(const Molecule& receptor, const Molecule& ligand) {
  double want = naive_energy(receptor, ligand);
  double got = interaction_energy(receptor, ligand);
  EXPECT_EQ(bits(got), bits(want)) << "kernel " << got << " oracle " << want;
  return want;
}

Atom atom_at(Element e, float x, float y, float z) {
  return Atom{e, x, y, z, typical_charge(e)};
}

Molecule molecule_of(std::vector<Atom> atoms) {
  Molecule m;
  m.name = "constructed";
  m.atoms = std::move(atoms);
  return m;
}

// One receptor atom and one ligand atom at the origin, `r` apart along x.
double pair_energy(Element re, Element le, float r) {
  return expect_same_bits(molecule_of({atom_at(re, r, 0.0f, 0.0f)}),
                          molecule_of({atom_at(le, 0.0f, 0.0f, 0.0f)}));
}

Molecule pocket_receptor(std::uint64_t seed, std::size_t residues) {
  Rng rng(seed);
  std::string seq = datagen::random_protein_sequence(rng, 250);
  return receptor_from_structure(predict_structure(seq), residues);
}

void place_randomly(Molecule* m, Rng& rng, double box) {
  m->translate(rng.uniform(-box, box), rng.uniform(-box, box),
               rng.uniform(-box, box));
  m->rotate(rng.uniform(0.0, 6.2831853), rng.uniform(0.0, 6.2831853),
            rng.uniform(0.0, 6.2831853));
}

TEST(DockingKernel, RandomPosesAroundThePocketMatchOracle) {
  const Molecule receptors[] = {pocket_receptor(11, 48),
                                pocket_receptor(23, 120)};
  const char* smiles[] = {"CCNC(=O)c1ccc1", "c1ccc(cc1)C(=O)NCCOCCN",
                          "FC(F)(F)c1ccc(cc1)S(=O)(=O)NP(=O)(O)O",
                          "CCCCCCCCCCCCCCCCCCCCCCCC"};
  Rng rng(31);
  int nonzero = 0;
  for (const Molecule& rec : receptors) {
    for (const char* s : smiles) {
      Molecule lig = ligand_from_smiles(s, 4);
      for (int i = 0; i < 400; ++i) {
        Molecule pose = lig;
        // Mostly inside the docking box, some well outside the cutoff.
        place_randomly(&pose, rng, i % 4 == 0 ? 24.0 : 10.0);
        if (expect_same_bits(rec, pose) != 0.0) ++nonzero;
      }
    }
  }
  EXPECT_GT(nonzero, 1600);  // most of the 3200 poses touch the pocket
}

// Float offsets whose squared distance, summed in the kernel's order, is
// exactly `target`: x just below sqrt(target), y takes r^2 to just below
// the target and a tiny z lands it.
bool find_offset_with_r2(double target, float* dx, float* dy, float* dz) {
  float x = static_cast<float>(std::sqrt(target));
  for (int i = 0; i < 1000; ++i) {
    x = std::nextafter(x, 0.0f);
    double rest = target - static_cast<double>(x) * x;
    float y = static_cast<float>(std::sqrt(rest));
    for (int k = 0; k < 4; ++k, y = std::nextafter(y, 0.0f)) {
      double xy = static_cast<double>(x) * x + static_cast<double>(y) * y;
      if (xy > target) continue;
      float z = static_cast<float>(std::sqrt(target - xy));
      for (float c : {std::nextafter(z, 0.0f), z, std::nextafter(z, 1.0f)}) {
        if (xy + static_cast<double>(c) * c == target) {
          *dx = x;
          *dy = y;
          *dz = c;
          return true;
        }
      }
    }
  }
  return false;
}

TEST(DockingKernel, CutoffAtR2Of64AndItsNeighbouringDoubles) {
  // Exactly 64.0: the pair is in (the test is r2 > 64).
  EXPECT_NE(pair_energy(Element::N, Element::O, 8.0f), 0.0);
  EXPECT_EQ(pair_energy(Element::N, Element::O, std::nextafter(8.0f, 9.0f)),
            0.0);
  EXPECT_NE(pair_energy(Element::N, Element::O, std::nextafter(8.0f, 0.0f)),
            0.0);
  for (double target : {std::nextafter(64.0, 0.0), 64.0,
                        std::nextafter(64.0, 100.0)}) {
    float dx = 0.0f, dy = 0.0f, dz = 0.0f;
    ASSERT_TRUE(find_offset_with_r2(target, &dx, &dy, &dz)) << target;
    Molecule rec = molecule_of({atom_at(Element::N, dx, dy, dz)});
    Molecule lig = molecule_of({atom_at(Element::O, 0.0f, 0.0f, 0.0f)});
    double e = expect_same_bits(rec, lig);
    if (target > 64.0) {
      EXPECT_EQ(e, 0.0);
    } else {
      EXPECT_NE(e, 0.0);
    }
  }
}

TEST(DockingKernel, WindowEdgesAndClampMatchOracle) {
  // r^2 = 0.25 is the clamp; 2.4/3.0/3.6 bound and centre the HB window;
  // 3.2/5.0 bound the hydrophobic window.
  for (float edge : {0.1f, 0.5f, 2.4f, 3.0f, 3.6f, 3.2f, 5.0f}) {
    float r = edge;
    for (int k = 0; k < 4; ++k) r = std::nextafter(r, 0.0f);
    for (int k = 0; k < 9; ++k, r = std::nextafter(r, 9.0f)) {
      pair_energy(Element::N, Element::O, r);
      pair_energy(Element::O, Element::N, r);
      pair_energy(Element::C, Element::C, r);
      pair_energy(Element::C, Element::N, r);
    }
  }
  // No float distance is exactly 2.4, 3.6 or 3.2, but a pair whose r^2
  // rounds onto edge^2 has r == edge exactly.
  for (double edge : {2.4, 3.0, 3.6, 3.2}) {
    float dx = 0.0f, dy = 0.0f, dz = 0.0f;
    ASSERT_TRUE(find_offset_with_r2(edge * edge, &dx, &dy, &dz)) << edge;
    ASSERT_EQ(std::sqrt(edge * edge), edge);
    for (Element e : {Element::N, Element::C}) {
      expect_same_bits(molecule_of({atom_at(e, dx, dy, dz)}),
                       molecule_of({atom_at(e == Element::N ? Element::O : e,
                                            0.0f, 0.0f, 0.0f)}));
    }
  }
}

TEST(DockingKernel, EveryElementPairMatchesOracle) {
  constexpr int kN = static_cast<int>(Element::kCount);
  for (int re = 0; re < kN; ++re) {
    for (int le = 0; le < kN; ++le) {
      for (float r : {0.3f, 1.1f, 2.0f, 2.9f, 3.3f, 4.1f, 6.0f, 7.9f}) {
        pair_energy(static_cast<Element>(re), static_cast<Element>(le), r);
      }
    }
  }
  // All elements on both sides at once.
  std::vector<Atom> ra, la;
  for (int e = 0; e < kN; ++e) {
    ra.push_back(atom_at(static_cast<Element>(e), 1.3f * e, 0.7f, -0.4f));
    la.push_back(atom_at(static_cast<Element>(e), 0.4f, 1.1f * e, 0.9f));
  }
  EXPECT_NE(expect_same_bits(molecule_of(ra), molecule_of(la)), 0.0);
}

TEST(DockingKernel, ReceptorAtomsAroundThePrefilterMarginMatchOracle) {
  // A ligand with an atom on every corner of the box [-1, 2] x
  // [-0.5, 0.5] x [0, 1.5], plus one inside.
  std::vector<Atom> corners = {atom_at(Element::N, 0.5f, 0.1f, 0.7f)};
  for (int c = 0; c < 8; ++c) {
    corners.push_back(atom_at(c % 2 ? Element::O : Element::C,
                              c & 1 ? 2.0f : -1.0f, c & 2 ? 0.5f : -0.5f,
                              c & 4 ? 1.5f : 0.0f));
  }
  Molecule lig = molecule_of(corners);
  // Receptor atoms off a face and off a corner of the box, at box
  // distances straddling the cutoff (8) and the cutoff plus the margin.
  const double distances[] = {kCutoff - 1e-3, kCutoff - 1e-6, kCutoff,
                              kCutoff + 1e-6, kCutoff + 0.5 * kPrefilterMargin,
                              kCutoff + kPrefilterMargin - 1e-6,
                              kCutoff + kPrefilterMargin + 1e-6};
  int inside = 0;
  for (double d : distances) {
    for (const auto& a :
         {atom_at(Element::N, static_cast<float>(2.0 + d), 0.5f, 1.5f),
          atom_at(Element::N, static_cast<float>(2.0 + d / std::sqrt(3.0)),
                  static_cast<float>(0.5 + d / std::sqrt(3.0)),
                  static_cast<float>(1.5 + d / std::sqrt(3.0)))}) {
      if (expect_same_bits(molecule_of({a}), lig) != 0.0) ++inside;
    }
  }
  EXPECT_GT(inside, 0);

  // A shell of single receptor atoms within +-0.05 A of the cutoff around
  // the box: an atom the prefilter dropped while the oracle kept it would
  // read 0 here.
  Rng rng(41);
  inside = 0;
  for (int i = 0; i < 3000; ++i) {
    double ux = rng.normal(), uy = rng.normal(), uz = rng.normal();
    double norm = std::sqrt(ux * ux + uy * uy + uz * uz);
    double d = kCutoff + rng.uniform(-0.05, 0.05);
    // Offset from the corner atom on the direction's side of the box.
    double bx = ux < 0 ? -1.0 : 2.0, by = uy < 0 ? -0.5 : 0.5,
           bz = uz < 0 ? 0.0 : 1.5;
    Atom a = atom_at(Element::O, static_cast<float>(bx + d * ux / norm),
                     static_cast<float>(by + d * uy / norm),
                     static_cast<float>(bz + d * uz / norm));
    if (expect_same_bits(molecule_of({a}), lig) != 0.0) ++inside;
  }
  EXPECT_GT(inside, 100);
}

TEST(DockingKernel, EmptyMoleculesMatchOracle) {
  Molecule rec = pocket_receptor(11, 48);
  Molecule lig = ligand_from_smiles("CCNCCO", 0);
  Molecule empty = molecule_of({});
  EXPECT_EQ(bits(expect_same_bits(rec, empty)), bits(0.0));
  EXPECT_EQ(bits(expect_same_bits(empty, lig)), bits(0.0));
  EXPECT_EQ(bits(expect_same_bits(empty, empty)), bits(0.0));
}

TEST(DockingKernel, LargeLigandMatchesOracle) {
  // 640 atoms: far beyond any ligand the generator emits, so no fixed-size
  // scratch buffer can hide behind typical sizes.
  std::string smiles;
  for (int i = 0; i < 160; ++i) smiles += "CNOS";
  Molecule lig = ligand_from_smiles(smiles, 3);
  ASSERT_EQ(lig.atoms.size(), 640u);
  Molecule rec = pocket_receptor(23, 120);
  Rng rng(43);
  for (int i = 0; i < 20; ++i) {
    Molecule pose = lig;
    place_randomly(&pose, rng, 6.0);
    expect_same_bits(rec, pose);
  }
}

// serialize(dock_smiles(s, seed)) recorded from the original all-pairs
// implementation: any drift in an energy, a mode, the work units or the
// step count fails here.
TEST(DockingKernel, DockingResultsMatchRecordedGoldens) {
  struct Golden {
    const char* smiles;
    std::uint64_t seed;
    std::size_t atoms;
    const char* result;
  };
  const Golden goldens[] = {
      {"CCCC", 0, 4,
       "-3.9342461134817293;-3.9342461134817293,-3.8052570664410013,"
       "-3.7754569191365333,-2.7710516149529738,-2.6785169849219312,"
       "-2.005330917223731,-1.579337823721888,0;235776;1220"},
      {"CCNC(=O)c1ccc1", 3, 9,
       "-2.5515956699251561;-2.5515956699251561,-1.8720291141459724,"
       "-1.7244542926552799,-1.3465991003658273,-1.1748666308722491,"
       "-0.85600512047962773,-0.15055237671557603,-0.10198299551709375;"
       "534384;1229"},
      {"CCCNCCOC1CCCC1", 0, 12,
       "-4.0507725011466951;-4.0507725011466951,-3.4859320472156621,"
       "-3.3769262267495561,-2.5573145021605383,-1.6998682576135824,"
       "-1.2829475305062548,-1.1329873046797954,-0.60854781316154272;"
       "855936;1478"},
      {"c1ccc(cc1)C(=O)NCCOCCN", 1, 15,
       "-3.3912801888481807;-3.3912801888481807,-3.3461996553090514,"
       "-3.3115047287973574,-2.611990257750572,-1.424355070848994,"
       "-0.65710475757991726,-0.37161323781973493,-0.12115713622335672;"
       "1328400;1837"},
      {"FC(F)(F)c1ccc(cc1)S(=O)(=O)NP(=O)(O)O", 5, 18,
       "-4.1118338733017614;-4.1118338733017614,-3.0427534238247653,"
       "-2.5058565265142199,-1.7227820949066059,-1.1743095829597345,"
       "-0.94631963668401697,-0.25312909894061408,-0.22603254691033289;"
       "1904256;2196"},
      {"CCN(CC)CCOC(=O)c1ccc(cc1)NC(=O)CCSCCOCCNC(=O)c2ccc(cc2)"
       "OCCOCCN(C)CCc3ccc(F)cc3OCCSCCNCCO",
       2, 63,
       "-10.303240580766154;-10.303240580766154,-9.5909003328696176,"
       "-7.3397922996455165,-6.437233075923201,-6.195826513211375,"
       "-6.1862894011807859,-5.6006591832331685,-4.7790567385634555;"
       "22888656;7561"},
  };
  Rng rng(7);
  std::string seq = datagen::random_protein_sequence(rng, 200);
  DockingEngine eng(receptor_from_structure(predict_structure(seq)));
  for (const Golden& g : goldens) {
    EXPECT_EQ(ligand_from_smiles(g.smiles).atoms.size(), g.atoms);
    EXPECT_EQ(serialize(eng.dock_smiles(g.smiles, g.seed)), g.result)
        << g.smiles;
  }
}

TEST(Dtba, DeterministicPretrainedWeights) {
  DtbaModel a;
  DtbaModel b;
  auto pa = a.predict("ACDEFGHIKLMNPQRSTVWY", "CCNC");
  auto pb = b.predict("ACDEFGHIKLMNPQRSTVWY", "CCNC");
  EXPECT_DOUBLE_EQ(pa.affinity, pb.affinity);
}

TEST(Dtba, AffinityInPkdRange) {
  DtbaModel m;
  Rng rng(31);
  for (int i = 0; i < 20; ++i) {
    std::string seq = datagen::random_protein_sequence(rng, 150);
    Rng gen(static_cast<std::uint64_t>(i));
    auto p = m.predict(seq, generate_smiles(gen));
    EXPECT_GE(p.affinity, 4.0);
    EXPECT_LE(p.affinity, 11.0);
    EXPECT_GT(p.work_units, 0u);
  }
}

TEST(Dtba, InputsChangePrediction) {
  DtbaModel m;
  auto a = m.predict("AAAAAAAAAAAAAAAA", "CCCC");
  auto b = m.predict("WWWWWWWWWWWWWWWW", "CCCC");
  auto c = m.predict("AAAAAAAAAAAAAAAA", "NNNN");
  EXPECT_NE(a.affinity, b.affinity);
  EXPECT_NE(a.affinity, c.affinity);
}

TEST(Dtba, FeaturesAreL2Normalized) {
  auto f = DtbaModel::protein_features("ACDEFGHIKLMNPQRSTVWYACDEF");
  double norm = 0;
  for (float x : f) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-4);
}

TEST(Dtba, CostTailIsDeterministic) {
  CostProfile costs;
  sim::Nanos a = costs.dtba_cost(10000, 12345);
  sim::Nanos b = costs.dtba_cost(10000, 12345);
  EXPECT_EQ(a, b);
  // Over many call hashes, roughly tail_fraction of calls are slow.
  int slow = 0;
  for (std::uint64_t h = 0; h < 2000; ++h) {
    if (costs.dtba_cost(10000, h) > sim::from_seconds(0.5)) ++slow;
  }
  EXPECT_GT(slow, 100);
  EXPECT_LT(slow, 260);
}

TEST(Pic50, KnownConversions) {
  EXPECT_DOUBLE_EQ(*pic50_from_ic50_nm(1.0), 9.0);    // 1 nM
  EXPECT_DOUBLE_EQ(*pic50_from_ic50_nm(1000.0), 6.0); // 1 uM
  EXPECT_FALSE(pic50_from_ic50_nm(0.0).has_value());
  EXPECT_FALSE(pic50_from_ic50_nm(-5.0).has_value());
}

TEST(Pic50, PotencyThreshold) {
  EXPECT_TRUE(is_potent(1.0, 8.0));     // 1 nM is potent
  EXPECT_FALSE(is_potent(100000.0, 5.0));  // 100 uM is not
}

TEST(MolGen, LibraryIsDistinctAndDeterministic) {
  auto a = generate_library(50, 7);
  auto b = generate_library(50, 7);
  EXPECT_EQ(a, b);
  std::set<std::string> uniq(a.begin(), a.end());
  EXPECT_EQ(uniq.size(), a.size());
}

TEST(MolGen, RespectsAtomBounds) {
  MolGenParams p;
  p.min_atoms = 10;
  p.max_atoms = 20;
  Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    auto smi = generate_smiles(rng, p);
    auto n = elements_from_smiles(smi).size();
    EXPECT_GE(n, 10u);
    EXPECT_LE(n, 20u);
  }
}

TEST(MolGen, WeightConditioningSteers) {
  MolGenParams p;
  p.target_weight = 250.0;
  Rng rng(11);
  double err_sum = 0;
  for (int i = 0; i < 20; ++i) {
    err_sum += std::abs(molecular_weight(generate_smiles(rng, p)) - 250.0);
  }
  MolGenParams q;  // unconditioned
  Rng rng2(11);
  double base_err = 0;
  for (int i = 0; i < 20; ++i) {
    base_err += std::abs(molecular_weight(generate_smiles(rng2, q)) - 250.0);
  }
  EXPECT_LT(err_sum, base_err);
}

}  // namespace
}  // namespace ids::models
