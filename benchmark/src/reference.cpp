#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace oocc_bench {

namespace {

std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string at(std::size_t i, double got, double want) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "element %zu: got %.17g, want %.17g", i,
                got, want);
  return buf;
}

}  // namespace

double seeded_value(std::uint64_t seed, std::uint64_t stream, std::int64_t r,
                    std::int64_t c, double lo, double hi) {
  const std::uint64_t h =
      splitmix(splitmix(splitmix(seed) ^ stream) ^
               (static_cast<std::uint64_t>(r) << 32 ^
                static_cast<std::uint64_t>(c)));
  return lo + (hi - lo) * static_cast<double>(h >> 11) * 0x1.0p-53;
}

double serve_input(std::int64_t r, std::int64_t c) {
  return 1.0 + 1e-3 * static_cast<double>((r * 31 + c * 7) % 101);
}

std::vector<double> flat_jacobi(std::vector<double> grid, std::int64_t n,
                                int sweeps, double* last_residual) {
  std::vector<double> next = grid;
  double residual = 0.0;
  for (int it = 0; it < sweeps; ++it) {
    residual = 0.0;
    for (std::int64_t c = 1; c < n - 1; ++c) {
      const double* left = grid.data() + (c - 1) * n;
      const double* mid = grid.data() + c * n;
      const double* right = grid.data() + (c + 1) * n;
      double* out = next.data() + c * n;
      for (std::int64_t r = 1; r < n - 1; ++r) {
        // b(2:n-1,k) = (a(1:n-2,k) + a(3:n,k) + a(2:n-1,k-1) + a(2:n-1,k+1))/4
        out[r] = (mid[r - 1] + mid[r + 1] + left[r] + right[r]) / 4;
        residual = std::max(residual, std::abs(out[r] - mid[r]));
      }
    }
    std::swap(grid, next);
  }
  if (last_residual != nullptr) {
    *last_residual = residual;
  }
  return grid;
}

std::vector<double> flat_matmul(const std::vector<double>& a,
                                const std::vector<double>& b, std::int64_t n) {
  std::vector<double> c(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t j = 0; j < n; ++j) {
    double* cj = c.data() + j * n;
    for (std::int64_t k = 0; k < n; ++k) {
      const double bkj = b[static_cast<std::size_t>(j * n + k)];
      const double* ak = a.data() + k * n;
      for (std::int64_t i = 0; i < n; ++i) {
        cj[i] += ak[i] * bkj;
      }
    }
  }
  return c;
}

std::uint64_t fnv1a_named(const std::string& name,
                          const std::vector<double>& data, std::uint64_t h) {
  auto fold = [&h](const unsigned char* p, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  fold(reinterpret_cast<const unsigned char*>(name.data()), name.size());
  fold(reinterpret_cast<const unsigned char*>(data.data()),
       data.size() * sizeof(double));
  return h;
}

Check check_equal(const std::string& what, const std::vector<double>& got,
                  const std::vector<double>& want) {
  Check check;
  if (got.size() != want.size()) {
    check.fail(what + ": size " + std::to_string(got.size()) + " != " +
               std::to_string(want.size()));
    return check;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bitwise-equal values compare equal; a NaN never does.
    if (!(got[i] == want[i])) {
      check.fail(what + " " + at(i, got[i], want[i]));
      break;
    }
  }
  return check;
}

Check check_jacobi(const std::vector<double>& got,
                   const std::vector<double>& want, double got_residual,
                   double want_residual, double lo, double hi) {
  Check check = check_equal("jacobi vs flat reference", got, want);
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] >= lo && got[i] <= hi)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "max principle: element %zu = %.17g outside [%.17g, %.17g]",
                    i, got[i], lo, hi);
      check.fail(buf);
      break;
    }
  }
  if (!(got_residual == want_residual)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "final residual %.17g != reference %.17g",
                  got_residual, want_residual);
    check.fail(buf);
  }
  return check;
}

Freivalds freivalds_probes(const std::vector<double>& a,
                           const std::vector<double>& b, std::int64_t n,
                           std::uint64_t seed, int probes) {
  const auto un = static_cast<std::size_t>(n);
  // y = M v and |M| |v| for column-major M.
  auto apply = [&](const std::vector<double>& m, const std::vector<double>& v,
                   std::vector<double>& y, std::vector<double>& ya,
                   const std::vector<double>& va) {
    y.assign(un, 0.0);
    ya.assign(un, 0.0);
    for (std::size_t k = 0; k < un; ++k) {
      const double* col = m.data() + k * un;
      for (std::size_t i = 0; i < un; ++i) {
        y[i] += col[i] * v[k];
        ya[i] += std::abs(col[i]) * va[k];
      }
    }
  };
  Freivalds f;
  for (int p = 0; p < probes; ++p) {
    std::vector<double> x(un);
    std::vector<double> xa(un);
    for (std::size_t i = 0; i < un; ++i) {
      x[i] = seeded_value(seed, 1000 + static_cast<std::uint64_t>(p),
                          static_cast<std::int64_t>(i), 0, -1.0, 1.0);
      xa[i] = std::abs(x[i]);
    }
    std::vector<double> bx, bxa, abx, abxa;
    apply(b, x, bx, bxa, xa);
    apply(a, bx, abx, abxa, bxa);
    f.x.push_back(std::move(x));
    f.want.push_back(std::move(abx));
    f.scale.push_back(std::move(abxa));
  }
  return f;
}

Check check_gaxpy(const std::vector<double>& c, std::int64_t n,
                  const Freivalds& probes) {
  Check check;
  const auto un = static_cast<std::size_t>(n);
  if (c.size() != un * un) {
    check.fail("gaxpy: C has " + std::to_string(c.size()) + " elements");
    return check;
  }
  std::vector<double> cx(un);
  for (std::size_t p = 0; p < probes.x.size(); ++p) {
    const std::vector<double>& x = probes.x[p];
    std::fill(cx.begin(), cx.end(), 0.0);
    for (std::size_t j = 0; j < un; ++j) {
      const double* col = c.data() + j * un;
      for (std::size_t i = 0; i < un; ++i) {
        cx[i] += col[i] * x[j];
      }
    }
    // Each side is a sum of n products whose magnitudes add up to scale, so
    // its rounding error is at most about 2 n u scale (u = 2^-53).
    const double tol_factor = 4.0 * static_cast<double>(n) * 0x1.0p-53;
    for (std::size_t i = 0; i < un; ++i) {
      const double err = std::abs(cx[i] - probes.want[p][i]);
      const double tol = tol_factor * probes.scale[p][i];
      if (!(err <= tol)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "Freivalds probe %zu row %zu: |Cx - A(Bx)| = %.3g "
                      "exceeds %.3g",
                      p, i, err, tol);
        check.fail(buf);
        return check;
      }
    }
  }
  return check;
}

}  // namespace oocc_bench
