// Inputs and independent references of the benchmark.
//
// Every expected value is computed here, apart from the program: flat
// serial loops over the same arithmetic, a Freivalds check for the matrix
// product, and an FNV-1a of the serve results. No golden copy of an earlier
// output is kept.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace oocc_bench {

/// Seeded input value at global (r, c) of the array `stream`, uniform in
/// [lo, hi). Pure function of its arguments, so inputs never need to be
/// materialized to be initialized or checked.
double seeded_value(std::uint64_t seed, std::uint64_t stream, std::int64_t r,
                    std::int64_t c, double lo, double hi);

/// The serve protocol's documented run inputs (docs/serve.md: every input
/// array of an elementwise or stencil run), restated here rather than
/// taken from the library.
double serve_input(std::int64_t r, std::int64_t c);

/// Column-major n x n array of f(r, c).
template <typename F>
std::vector<double> materialize(std::int64_t rows, std::int64_t cols, F f) {
  std::vector<double> out(static_cast<std::size_t>(rows * cols));
  for (std::int64_t c = 0; c < cols; ++c) {
    for (std::int64_t r = 0; r < rows; ++r) {
      out[static_cast<std::size_t>(c * rows + r)] = f(r, c);
    }
  }
  return out;
}

/// Flat serial 5-point Jacobi over a column-major n x n grid, `sweeps`
/// ping-pong sweeps with fixed boundary, in the compiled stencil's operand
/// order. `last_residual` gets the last sweep's max |update|.
std::vector<double> flat_jacobi(std::vector<double> grid, std::int64_t n,
                                int sweeps, double* last_residual);

/// Flat serial C = A * B (column-major), the plain baseline of the GAXPY.
std::vector<double> flat_matmul(const std::vector<double>& a,
                                const std::vector<double>& b, std::int64_t n);

/// 64-bit FNV-1a over (name bytes, then the doubles' bytes), the fold the
/// serve protocol documents for `result_hash`.
std::uint64_t fnv1a_named(const std::string& name,
                          const std::vector<double>& data, std::uint64_t h);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Result of one check: ok, or the first reason it failed.
struct Check {
  bool ok = true;
  std::string why;
  void fail(std::string reason) {
    if (ok) {
      ok = false;
      why = std::move(reason);
    }
  }
};

/// Jacobi: exact agreement with the flat reference, the max principle
/// (every value within [lo, hi] of the initial grid) and the reported
/// last-sweep residual equal to the reference's.
Check check_jacobi(const std::vector<double>& got,
                   const std::vector<double>& want, double got_residual,
                   double want_residual, double lo, double hi);

/// Freivalds' test for C = A B: seeded random probe vectors x with the
/// expected A (B x) and, per row, the magnitude |A| (|B| |x|) that bounds
/// the rounding error of any summation order. O(n^2) per probe.
struct Freivalds {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> want;
  std::vector<std::vector<double>> scale;
};
Freivalds freivalds_probes(const std::vector<double>& a,
                           const std::vector<double>& b, std::int64_t n,
                           std::uint64_t seed, int probes);

/// GAXPY: C x == A (B x) for every probe, within the rounding bound
/// 4 n u |A| (|B| |x|) of each row.
Check check_gaxpy(const std::vector<double>& c, std::int64_t n,
                  const Freivalds& probes);

/// Exact agreement of two arrays, element by element.
Check check_equal(const std::string& what, const std::vector<double>& got,
                  const std::vector<double>& want);

}  // namespace oocc_bench
