#include "models/docking.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"

namespace ids::models {

DockingEngine::DockingEngine(const Molecule& receptor, DockingParams params)
    : params_(params) {
  // dock() reports mode_energies.front(), so both must yield a mode.
  IDS_CHECK(params_.exhaustiveness > 0)
      << "docking exhaustiveness must be positive, got "
      << params_.exhaustiveness;
  IDS_CHECK(params_.num_modes > 0)
      << "docking num_modes must be positive, got " << params_.num_modes;
  const std::size_t m = receptor.atoms.size();
  rx_.reserve(m);
  ry_.reserve(m);
  rz_.reserve(m);
  relement_.reserve(m);
  rq332_.reserve(m);
  for (const Atom& a : receptor.atoms) {
    rx_.push_back(a.x);
    ry_.push_back(a.y);
    rz_.push_back(a.z);
    relement_.push_back(static_cast<std::uint8_t>(a.element));
    rq332_.push_back(332.0 * a.charge);
  }
  auto polar = [](std::size_t e) {
    return e == static_cast<std::size_t>(Element::N) ||
           e == static_cast<std::size_t>(Element::O);
  };
  constexpr auto kC = static_cast<std::size_t>(Element::C);
  for (std::size_t re = 0; re < kElements; ++re) {
    for (std::size_t le = 0; le < kElements; ++le) {
      LjParams rl = lj_params(static_cast<Element>(re));
      LjParams ll = lj_params(static_cast<Element>(le));
      double sigma = (rl.radius + ll.radius) * 0.5 * 1.78;
      double eps = std::sqrt(static_cast<double>(rl.well_depth) *
                             static_cast<double>(ll.well_depth));
      pairs_[re * kElements + le] = {sigma * sigma, 4.0 * eps,
                                     polar(re) && polar(le),
                                     re == kC && le == kC};
    }
  }
}

double DockingEngine::energy(const Molecule& ligand, Scratch* s) const {
  const std::size_t n = ligand.atoms.size();
  if (n == 0) return 0.0;
  s->x.resize(n);
  s->y.resize(n);
  s->z.resize(n);
  s->element.resize(n);
  s->charge.resize(n);
  s->r2.resize(n);
  s->near.resize(n);
  float lo[3] = {ligand.atoms[0].x, ligand.atoms[0].y, ligand.atoms[0].z};
  float hi[3] = {lo[0], lo[1], lo[2]};
  for (std::size_t j = 0; j < n; ++j) {
    const Atom& a = ligand.atoms[j];
    s->x[j] = a.x;
    s->y[j] = a.y;
    s->z[j] = a.z;
    s->element[j] = static_cast<std::uint8_t>(a.element);
    s->charge[j] = a.charge;
    lo[0] = std::min(lo[0], a.x);
    lo[1] = std::min(lo[1], a.y);
    lo[2] = std::min(lo[2], a.z);
    hi[0] = std::max(hi[0], a.x);
    hi[1] = std::max(hi[1], a.y);
    hi[2] = std::max(hi[2], a.z);
  }
  constexpr double kPrefilterR2 =
      (kCutoff + kPrefilterMargin) * (kCutoff + kPrefilterMargin);
  const float* lx = s->x.data();
  const float* ly = s->y.data();
  const float* lz = s->z.data();
  double* r2 = s->r2.data();
  std::uint32_t* near = s->near.data();

  // The reference order: receptor atoms outer, ligand atoms inner, and per
  // in-cutoff pair the same serial updates of `energy` in the same order.
  double energy = 0.0;
  for (std::size_t i = 0; i < rx_.size(); ++i) {
    const float rx = rx_[i], ry = ry_[i], rz = rz_[i];
    // Every pair of an atom this far from the ligand's box is beyond the
    // cutoff (see kPrefilterMargin), so it adds nothing.
    double gx = std::max({0.0, double{lo[0]} - rx, rx - double{hi[0]}});
    double gy = std::max({0.0, double{lo[1]} - ry, ry - double{hi[1]}});
    double gz = std::max({0.0, double{lo[2]} - rz, rz - double{hi[2]}});
    if (gx * gx + gy * gy + gz * gz > kPrefilterR2) continue;

    // Distance pass: keep the ligand atoms within the cutoff, in order.
    for (std::size_t j = 0; j < n; ++j) {
      double dx = rx - lx[j];  // float differences, as in the AoS reference
      double dy = ry - ly[j];
      double dz = rz - lz[j];
      r2[j] = dx * dx + dy * dy + dz * dz;
    }
    std::size_t count = 0;
    for (std::size_t j = 0; j < n; ++j) {
      near[count] = static_cast<std::uint32_t>(j);
      count += !(r2[j] > kCutoff * kCutoff);
    }

    const ElementPair* row = &pairs_[relement_[i] * kElements];
    const double q332 = rq332_[i];
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t j = near[k];
      double r2c = std::max(r2[j], 0.25);  // clamp to avoid singularities
      double r = std::sqrt(r2c);
      const ElementPair& p = row[s->element[j]];
      double sr2 = p.sigma2 / r2c;
      double sr6 = sr2 * sr2 * sr2;
      // 6-12 Lennard-Jones, softened on the repulsive side so clashes are
      // steep but finite (Vina similarly caps steric terms).
      double lj = p.eps4 * (sr6 * sr6 - sr6);
      energy += std::min(lj, 10.0);

      // Coulomb with distance-dependent dielectric (4r).
      energy += q332 * s->charge[j] / (4.0 * r2c);

      // Hydrogen-bond-flavoured term: N/O donor-acceptor pairs in the
      // 2.6-3.4 A window get a bonus.
      if (p.hb && r > 2.4 && r < 3.6) {
        double w = 1.0 - std::abs(r - 3.0) / 0.6;
        if (w > 0.0) energy -= 1.6 * w;
      }

      // Hydrophobic contact (Vina's "hydrophobic" term): carbon-carbon
      // pairs in van-der-Waals contact contribute a mild attraction.
      if (p.cc && r > 3.2 && r < 5.0) {
        energy -= 0.45 * (1.0 - (r - 3.2) / 1.8);
      }
    }
  }
  return energy;
}

double interaction_energy(const Molecule& receptor, const Molecule& ligand) {
  DockingEngine::Scratch scratch;
  return DockingEngine(receptor).energy(ligand, &scratch);
}

DockingResult DockingEngine::dock(const Molecule& ligand,
                                  std::uint64_t seed) const {
  DockingResult result;
  if (ligand.atoms.empty() || rx_.empty()) return result;

  const std::uint64_t pair_work =
      static_cast<std::uint64_t>(ligand.atoms.size()) *
      static_cast<std::uint64_t>(rx_.size());

  // Larger ligands have a larger pose space and need proportionally more
  // Monte Carlo steps to converge (Vina's search effort likewise grows
  // with ligand size/torsions). This is what makes docking cost strongly
  // ligand-dependent — and the uncached Table 2 sweep superlinear once
  // diverse, bigger compounds enter the candidate set.
  const int steps =
      static_cast<int>(params_.steps_per_run *
                       std::max(1.0, static_cast<double>(ligand.atoms.size()) /
                                         10.0));

  // The annealing temperature of each step, shared by every restart.
  std::vector<double> temps(static_cast<std::size_t>(std::max(steps, 0)));
  for (int step = 0; step < steps; ++step) {
    double frac = static_cast<double>(step) / static_cast<double>(steps);
    temps[static_cast<std::size_t>(step)] =
        params_.temp_start *
        std::pow(params_.temp_end / params_.temp_start, frac);
  }

  Rng base_rng(hash_combine(fnv1a64(ligand.name), seed));

  // Poses and scratch live for the whole call, so the loop does not
  // allocate once they have grown to the ligand's size.
  Molecule pose;
  Molecule trial;
  Scratch scratch;
  std::vector<double> mode_energies;
  for (int run = 0; run < params_.exhaustiveness; ++run) {
    Rng rng = base_rng.fork(static_cast<std::uint64_t>(run));

    // Random initial placement inside the box.
    pose = ligand;
    pose.translate(rng.uniform(-params_.box_radius, params_.box_radius),
                   rng.uniform(-params_.box_radius, params_.box_radius),
                   rng.uniform(-params_.box_radius, params_.box_radius));
    pose.rotate(rng.uniform(0.0, 6.2831853), rng.uniform(0.0, 6.2831853),
                rng.uniform(0.0, 6.2831853));

    double current = energy(pose, &scratch);
    double best = current;
    result.work_units += pair_work;

    for (int step = 0; step < steps; ++step) {
      double frac = static_cast<double>(step) / static_cast<double>(steps);
      double move_scale = 0.3 + 1.2 * (1.0 - frac);  // shrink moves as we cool

      trial = pose;
      if (rng.bernoulli(0.5)) {
        trial.translate(rng.normal(0.0, move_scale),
                        rng.normal(0.0, move_scale),
                        rng.normal(0.0, move_scale));
      } else {
        trial.rotate(rng.normal(0.0, 0.35 * move_scale),
                     rng.normal(0.0, 0.35 * move_scale),
                     rng.normal(0.0, 0.35 * move_scale));
      }
      // Keep the pose inside the search box.
      Vec3 c = trial.centroid();
      if (std::abs(c.x) > params_.box_radius ||
          std::abs(c.y) > params_.box_radius ||
          std::abs(c.z) > params_.box_radius) {
        continue;
      }

      double e = energy(trial, &scratch);
      result.work_units += pair_work;
      ++result.iterations;

      if (e < current ||
          rng.bernoulli(std::exp(-(e - current) /
                                 temps[static_cast<std::size_t>(step)]))) {
        std::swap(pose, trial);
        current = e;
        best = std::min(best, e);
      }
    }
    mode_energies.push_back(best);
  }

  std::sort(mode_energies.begin(), mode_energies.end());
  if (mode_energies.size() > static_cast<std::size_t>(params_.num_modes)) {
    mode_energies.resize(static_cast<std::size_t>(params_.num_modes));
  }
  result.mode_energies = std::move(mode_energies);
  result.best_energy = result.mode_energies.front();
  return result;
}

DockingResult DockingEngine::dock_smiles(std::string_view smiles,
                                         std::uint64_t seed) const {
  return dock(ligand_from_smiles(smiles), seed);
}

std::string serialize(const DockingResult& r) {
  std::string out;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", r.best_energy);
  out += buf;
  out += ';';
  for (std::size_t i = 0; i < r.mode_energies.size(); ++i) {
    if (i) out += ',';
    std::snprintf(buf, sizeof(buf), "%.17g", r.mode_energies[i]);
    out += buf;
  }
  out += ';';
  out += std::to_string(r.work_units);
  out += ';';
  out += std::to_string(r.iterations);
  return out;
}

bool deserialize(std::string_view text, DockingResult* out) {
  auto parts = split(text, ';');
  if (parts.size() != 4) return false;
  DockingResult r;
  char* end = nullptr;
  r.best_energy = std::strtod(parts[0].c_str(), &end);
  if (end == parts[0].c_str()) return false;
  if (!parts[1].empty()) {
    for (const auto& tok : split(parts[1], ',')) {
      r.mode_energies.push_back(std::strtod(tok.c_str(), nullptr));
    }
  }
  r.work_units = std::strtoull(parts[2].c_str(), nullptr, 10);
  r.iterations = static_cast<std::uint32_t>(
      std::strtoul(parts[3].c_str(), nullptr, 10));
  *out = r;
  return true;
}

}  // namespace ids::models
