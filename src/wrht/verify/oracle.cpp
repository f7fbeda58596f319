#include "wrht/verify/oracle.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht::verify {

namespace {

using coll::Schedule;
using coll::Transfer;
using coll::TransferKind;

/// Interpreter state: numeric buffers always, contribution counts when
/// provenance is on. counts[node] is a row-major [elements][num_nodes]
/// matrix: counts[node][e * n + src] = how many copies of src's initial
/// element e node currently holds.
struct Machine {
  std::uint32_t n = 0;
  std::size_t elements = 0;
  bool provenance = false;
  std::vector<std::vector<double>> values;
  std::vector<std::vector<std::uint32_t>> counts;
};

Machine boot(const Schedule& schedule, const OracleOptions& options) {
  Machine m;
  m.n = schedule.num_nodes();
  m.elements = schedule.elements();
  const std::uint64_t cells = static_cast<std::uint64_t>(m.n) * m.n *
                              static_cast<std::uint64_t>(m.elements);
  m.provenance = cells <= options.provenance_cell_limit;

  Rng rng(options.seed);
  m.values.resize(m.n);
  if (m.provenance) m.counts.resize(m.n);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    m.values[i] = rng.uniform_vector(m.elements, -1.0, 1.0);
    if (m.provenance) {
      m.counts[i].assign(m.elements * m.n, 0);
      for (std::size_t e = 0; e < m.elements; ++e) m.counts[i][e * m.n + i] = 1;
    }
  }
  return m;
}

/// Runs the schedule with snapshot-per-step semantics. Senders are read
/// from a beginning-of-step copy, so the transfer order inside a step
/// cannot matter — exactly the concurrency model the lightpath hardware
/// implements. Only senders that also receive in the step can change
/// before their reads, so only their rows are copied, into buffers reused
/// from step to step; every other sender is read in place.
void interpret(const Schedule& schedule, Machine& m) {
  // Per-node marks of the current step (`stamp`; 0 = never): `receives`
  // flags the step's receivers, `copied` the senders whose rows sit in
  // buffer slot[node].
  std::vector<std::size_t> receives(m.n, 0);
  std::vector<std::size_t> copied(m.n, 0);
  std::vector<std::size_t> slot(m.n, 0);
  std::vector<std::vector<double>> value_copies;
  std::vector<std::vector<std::uint32_t>> count_copies;
  std::size_t stamp = 0;
  for (const auto& step : schedule.steps()) {
    ++stamp;
    for (const Transfer& t : step.transfers) receives[t.dst] = stamp;
    std::size_t used = 0;
    for (const Transfer& t : step.transfers) {
      if (receives[t.src] != stamp || copied[t.src] == stamp) continue;
      copied[t.src] = stamp;
      slot[t.src] = used;
      if (used == value_copies.size()) {
        value_copies.emplace_back();
        count_copies.emplace_back();
      }
      value_copies[used] = m.values[t.src];
      if (m.provenance) count_copies[used] = m.counts[t.src];
      ++used;
    }
    for (const Transfer& t : step.transfers) {
      const bool copy = copied[t.src] == stamp;
      const auto& src_v = copy ? value_copies[slot[t.src]] : m.values[t.src];
      auto& dst_v = m.values[t.dst];
      if (t.kind == TransferKind::kReduce) {
        for (std::size_t e = t.offset; e < t.offset + t.count; ++e) {
          dst_v[e] += src_v[e];
        }
      } else {
        for (std::size_t e = t.offset; e < t.offset + t.count; ++e) {
          dst_v[e] = src_v[e];
        }
      }
      if (m.provenance) {
        const auto& src_c = copy ? count_copies[slot[t.src]] : m.counts[t.src];
        auto& dst_c = m.counts[t.dst];
        const std::size_t lo = t.offset * m.n;
        const std::size_t hi = (t.offset + t.count) * m.n;
        if (t.kind == TransferKind::kReduce) {
          for (std::size_t c = lo; c < hi; ++c) dst_c[c] += src_c[c];
        } else {
          std::memcpy(dst_c.data() + lo, src_c.data() + lo,
                      (hi - lo) * sizeof(std::uint32_t));
        }
      }
    }
  }
}

/// Numeric comparison of node `i`'s buffer against `expected`.
void compare_numeric(const Machine& m, std::uint32_t i,
                     const std::vector<double>& expected, double tolerance,
                     const char* what, OracleReport& report) {
  for (std::size_t e = 0; e < m.elements; ++e) {
    const double err = std::abs(m.values[i][e] - expected[e]);
    if (err > report.max_abs_error) {
      report.max_abs_error = err;
      report.worst_node = i;
      report.worst_element = e;
    }
    if (err > tolerance) {
      report.result.add(
          std::string("oracle.") + what + ".numeric",
          "node " + std::to_string(i) + " element " + std::to_string(e) +
              " off by " + std::to_string(err));
      return;  // one numeric finding per node is enough
    }
  }
}

/// Exact provenance comparison: node `i` must hold `want[src]` copies of
/// every source's contribution at every element.
void compare_provenance(const Machine& m, std::uint32_t i,
                        const std::vector<std::uint32_t>& want,
                        const char* what, OracleReport& report) {
  for (std::size_t e = 0; e < m.elements; ++e) {
    for (std::uint32_t src = 0; src < m.n; ++src) {
      const std::uint32_t got = m.counts[i][e * m.n + src];
      if (got != want[src]) {
        report.result.add(
            std::string("oracle.") + what + ".provenance",
            "node " + std::to_string(i) + " element " + std::to_string(e) +
                " holds " + std::to_string(got) + " contribution(s) of node " +
                std::to_string(src) + ", want " + std::to_string(want[src]));
        return;  // one provenance finding per node is enough
      }
    }
  }
}

}  // namespace

OracleReport check_allreduce(const coll::Schedule& schedule,
                             const OracleOptions& options) {
  const prof::ScopedTimer timer("verify.oracle.check");
  schedule.validate();
  Machine m = boot(schedule, options);
  std::vector<double> expected(m.elements, 0.0);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    for (std::size_t e = 0; e < m.elements; ++e) expected[e] += m.values[i][e];
  }
  interpret(schedule, m);

  OracleReport report;
  report.provenance_checked = m.provenance;
  const std::vector<std::uint32_t> one_of_each(m.n, 1);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    compare_numeric(m, i, expected, options.tolerance, "allreduce", report);
    if (m.provenance) {
      compare_provenance(m, i, one_of_each, "allreduce", report);
    }
  }
  return report;
}

OracleReport check_reduce(const coll::Schedule& schedule, std::uint32_t root,
                          const OracleOptions& options) {
  schedule.validate();
  require(root < schedule.num_nodes(), "check_reduce: root out of range");
  Machine m = boot(schedule, options);
  std::vector<double> expected(m.elements, 0.0);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    for (std::size_t e = 0; e < m.elements; ++e) expected[e] += m.values[i][e];
  }
  interpret(schedule, m);

  OracleReport report;
  report.provenance_checked = m.provenance;
  compare_numeric(m, root, expected, options.tolerance, "reduce", report);
  if (m.provenance) {
    const std::vector<std::uint32_t> one_of_each(m.n, 1);
    compare_provenance(m, root, one_of_each, "reduce", report);
  }
  return report;
}

OracleReport check_broadcast(const coll::Schedule& schedule,
                             std::uint32_t root,
                             const OracleOptions& options) {
  schedule.validate();
  require(root < schedule.num_nodes(), "check_broadcast: root out of range");
  Machine m = boot(schedule, options);
  const std::vector<double> expected = m.values[root];
  interpret(schedule, m);

  OracleReport report;
  report.provenance_checked = m.provenance;
  std::vector<std::uint32_t> roots_only(m.n, 0);
  roots_only[root] = 1;
  for (std::uint32_t i = 0; i < m.n; ++i) {
    compare_numeric(m, i, expected, options.tolerance, "broadcast", report);
    if (m.provenance) {
      compare_provenance(m, i, roots_only, "broadcast", report);
    }
  }
  return report;
}

}  // namespace wrht::verify
