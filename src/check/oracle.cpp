#include "check/oracle.h"

#include <cmath>
#include <cstdint>
#include <optional>

#include "core/bounds.h"
#include "core/measure_family.h"
#include "util/string_util.h"

namespace infoleak::check {
namespace {

std::string Render(const Result<double>& v) {
  if (!v.ok()) return "<error: " + v.status().message() + ">";
  return FormatDoubleRoundTrip(*v);
}

}  // namespace

Oracle::Oracle(OracleConfig config)
    : config_(config),
      naive_(kAutoNaiveCutoff),
      approx1_(1),
      approx2_(2),
      mc_(config.mc_samples) {}

OracleOutcome Oracle::Evaluate(const CheckCase& c, uint64_t case_seed) const {
  OracleOutcome out;
  auto fail = [&](const char* kind, std::string detail) {
    out.findings.push_back(Finding{kind, std::move(detail), c});
  };
  // Bit-identity across API paths: same ok-ness, and on success the exact
  // same double.
  auto same_bits = [&](const char* kind, const char* what,
                       const Result<double>& a, const Result<double>& b) {
    ++out.comparisons;
    if (a.ok() != b.ok() || (a.ok() && *a != *b)) {
      fail(kind, std::string(what) + ": " + Render(a) + " vs " + Render(b));
    }
  };
  auto in_range = [&](const char* what, const Result<double>& v) {
    ++out.comparisons;
    if (v.ok() && !(*v >= 0.0 && *v <= 1.0)) {
      fail("range", std::string(what) + " = " + Render(v) +
                        " is outside [0, 1]");
    }
  };

  // The engines' one evaluation path, on a bank view of `r`; the string
  // adapter must reproduce it bit for bit.
  const PreparedReference ref(c.p, c.wm);
  ColumnBank bank(ref);
  bank.Append(c.r);
  const ColumnRecordView v = bank.view(0);
  LeakageWorkspace ws;

  const bool uniform = c.wm.IsConstantOver(c.r, c.p);
  const bool enumerable = c.r.size() <= kAutoNaiveCutoff;
  const bool small = c.r.size() <= config_.naive_max;

  // ---- Per-engine values, string adapter and column view ----------------
  Result<double> naive_v = Status::NotSupported("naive disabled");
  if (config_.check_naive) {
    naive_v = naive_.RecordLeakageColumnar(v, ref, &ws);
    same_bits("string-vs-columnar", "naive leakage",
              naive_.RecordLeakage(c.r, c.p, c.wm), naive_v);
    in_range("naive leakage", naive_v);
    ++out.comparisons;
    if (naive_v.ok() != enumerable) {
      fail("error-contract",
           "naive must succeed exactly when |r| <= " +
               std::to_string(kAutoNaiveCutoff) + "; |r|=" +
               std::to_string(c.r.size()) + " gave " + Render(naive_v));
    }
  }

  Result<double> exact_v = Status::NotSupported("exact disabled");
  if (config_.check_exact) {
    exact_v = exact_.RecordLeakageColumnar(v, ref, &ws);
    same_bits("string-vs-columnar", "exact leakage",
              exact_.RecordLeakage(c.r, c.p, c.wm), exact_v);
    in_range("exact leakage", exact_v);
    ++out.comparisons;
    if (exact_v.ok() != uniform) {
      fail("error-contract",
           std::string("exact must succeed exactly when the weights are "
                       "uniform over (r, p); uniform=") +
               (uniform ? "true" : "false") + " gave " + Render(exact_v));
    }
  }

  Result<double> approx1_v = Status::NotSupported("approx disabled");
  Result<double> approx2_v = approx1_v;
  if (config_.check_approx) {
    approx1_v = approx1_.RecordLeakageColumnar(v, ref, &ws);
    approx2_v = approx2_.RecordLeakageColumnar(v, ref, &ws);
    same_bits("string-vs-columnar", "approx order-1 leakage",
              approx1_.RecordLeakage(c.r, c.p, c.wm), approx1_v);
    same_bits("string-vs-columnar", "approx order-2 leakage",
              approx2_.RecordLeakage(c.r, c.p, c.wm), approx2_v);
    in_range("approx order-1 leakage", approx1_v);
    in_range("approx order-2 leakage", approx2_v);
    ++out.comparisons;
    if (approx1_v.ok() && approx2_v.ok() && !(*approx1_v <= *approx2_v)) {
      fail("approx-order", "order-1 " + Render(approx1_v) +
                               " > order-2 " + Render(approx2_v) +
                               " (the variance correction is non-negative)");
    }
  }

  Result<double> auto_v = Status::NotSupported("auto disabled");
  if (config_.check_auto) {
    auto_v = auto_.RecordLeakageColumnar(v, ref, &ws);
    same_bits("string-vs-columnar", "auto leakage",
              auto_.RecordLeakage(c.r, c.p, c.wm), auto_v);
    in_range("auto leakage", auto_v);
    // Replicate the documented dispatch rule and demand bit-identity with
    // the engine it names.
    const Result<double>& expected =
        uniform ? exact_v : (enumerable ? naive_v : approx2_v);
    const char* expected_name =
        uniform ? "exact" : (enumerable ? "naive" : "approx");
    if (config_.check_exact && config_.check_naive && config_.check_approx) {
      ++out.comparisons;
      if (expected.ok() != auto_v.ok() ||
          (auto_v.ok() && *auto_v != *expected)) {
        fail("auto-dispatch", std::string("auto = ") + Render(auto_v) +
                                  " but its rule picks " + expected_name +
                                  " = " + Render(expected));
      }
    }
  }

  // Expected recall is engine-independent and exact; check the adapter
  // against the view and the range.
  {
    const Result<double> recall_v = naive_.ExpectedRecallColumnar(v, ref, &ws);
    same_bits("string-vs-columnar", "expected recall",
              naive_.ExpectedRecall(c.r, c.p, c.wm), recall_v);
    in_range("expected recall", recall_v);
  }

  // Expected precision: same cross-checks as leakage, cheaper tolerance
  // set (no Taylor bound is derived for it).
  if (config_.check_naive && config_.check_exact) {
    const Result<double> prec_naive =
        naive_.ExpectedPrecisionColumnar(v, ref, &ws);
    const Result<double> prec_exact =
        exact_.ExpectedPrecisionColumnar(v, ref, &ws);
    same_bits("string-vs-columnar", "naive expected precision",
              naive_.ExpectedPrecision(c.r, c.p, c.wm), prec_naive);
    same_bits("string-vs-columnar", "exact expected precision",
              exact_.ExpectedPrecision(c.r, c.p, c.wm), prec_exact);
    in_range("naive expected precision", prec_naive);
    in_range("exact expected precision", prec_exact);
    if (uniform && small && prec_naive.ok() && prec_exact.ok()) {
      ++out.comparisons;
      if (std::abs(*prec_naive - *prec_exact) > config_.exact_tol) {
        fail("exact-vs-naive",
             "expected precision: naive " + Render(prec_naive) +
                 " vs exact " + Render(prec_exact) + " differ by more than " +
                 FormatDoubleRoundTrip(config_.exact_tol));
      }
    }
  }

  // ---- Truth and the analytic tolerances ---------------------------------
  std::optional<double> truth;
  if (small && naive_v.ok()) {
    truth = *naive_v;
  } else if (uniform && exact_v.ok()) {
    truth = *exact_v;
  }

  if (uniform && small && naive_v.ok() && exact_v.ok()) {
    ++out.comparisons;
    if (std::abs(*naive_v - *exact_v) > config_.exact_tol) {
      fail("exact-vs-naive",
           "naive " + Render(naive_v) + " vs exact " + Render(exact_v) +
               " differ by " +
               FormatDoubleRoundTrip(std::abs(*naive_v - *exact_v)) +
               " > " + FormatDoubleRoundTrip(config_.exact_tol));
    }
  }

  if (config_.check_approx && truth.has_value()) {
    const Result<double>* approxes[] = {&approx1_v, &approx2_v};
    for (int order = 1; order <= 2; ++order) {
      const Result<double>& a = *approxes[order - 1];
      if (!a.ok()) continue;
      const double bound = ApproxLeakageErrorBound(c.r, c.p, c.wm, order);
      const double tol = bound + config_.slack + config_.exact_tol;
      ++out.comparisons;
      if (std::abs(*a - *truth) > tol) {
        fail("approx-bound",
             "order-" + std::to_string(order) + " Taylor " + Render(a) +
                 " vs truth " + FormatDoubleRoundTrip(*truth) +
                 " differ by " + FormatDoubleRoundTrip(std::abs(*a - *truth)) +
                 " > computed bound " + FormatDoubleRoundTrip(bound) +
                 " (+slack)");
      }
    }
  }

  if (config_.check_bounds) {
    const LeakageBounds lb = BoundRecordLeakage(c.r, c.p, c.wm);
    // The string form is an independent implementation, not an adapter:
    // the bounds kernel over the view must reproduce it bit for bit.
    const LeakageBounds lv = BoundRecordLeakageColumnar(bank, 0, &ws);
    ++out.comparisons;
    if (lb.lower != lv.lower || lb.upper != lv.upper) {
      fail("string-vs-columnar",
           "bounds: string [" + FormatDoubleRoundTrip(lb.lower) + ", " +
               FormatDoubleRoundTrip(lb.upper) + "] vs columnar [" +
               FormatDoubleRoundTrip(lv.lower) + ", " +
               FormatDoubleRoundTrip(lv.upper) + "]");
    }
    ++out.comparisons;
    if (!(lb.lower >= 0.0 && lb.lower <= lb.upper && lb.upper <= 1.0)) {
      fail("bounds", "malformed bracket [" + FormatDoubleRoundTrip(lb.lower) +
                         ", " + FormatDoubleRoundTrip(lb.upper) + "]");
    }
    if (truth.has_value()) {
      ++out.comparisons;
      if (*truth < lb.lower - config_.slack ||
          *truth > lb.upper + config_.slack) {
        fail("bounds", "truth " + FormatDoubleRoundTrip(*truth) +
                           " escapes [" + FormatDoubleRoundTrip(lb.lower) +
                           ", " + FormatDoubleRoundTrip(lb.upper) + "]");
      }
    } else if (config_.check_approx && approx2_v.ok()) {
      // No independent truth (large, non-uniform): the Taylor value must
      // still land inside the bracket widened by its own error bound.
      const double bound = ApproxLeakageErrorBound(c.r, c.p, c.wm, 2);
      ++out.comparisons;
      if (*approx2_v < lb.lower - bound - config_.slack ||
          *approx2_v > lb.upper + bound + config_.slack) {
        fail("bounds",
             "approx " + Render(approx2_v) + " escapes the bound-widened "
                 "bracket [" + FormatDoubleRoundTrip(lb.lower) + ", " +
                 FormatDoubleRoundTrip(lb.upper) + "] +/- " +
                 FormatDoubleRoundTrip(bound));
      }
    }
  }

  if (config_.check_mc) {
    const Result<MonteCarloLeakage::Estimate> est =
        mc_.EstimateLeakage(c.r, c.p, c.wm, case_seed);
    const Result<MonteCarloLeakage::Estimate> est2 =
        mc_.EstimateLeakage(c.r, c.p, c.wm, case_seed);
    ++out.comparisons;
    if (est.ok() != est2.ok() ||
        (est.ok() && (est->mean != est2->mean ||
                      est->standard_error != est2->standard_error))) {
      fail("monte-carlo-repro",
           "same seed, different estimates: " +
               (est.ok() ? FormatDoubleRoundTrip(est->mean) : "<error>") +
               " vs " +
               (est2.ok() ? FormatDoubleRoundTrip(est2->mean) : "<error>"));
    }
    if (est.ok()) {
      in_range("monte-carlo mean", Result<double>(est->mean));
      if (truth.has_value()) {
        // Empirical-Bernstein-style half-width: the sigma·SE term alone is
        // a trap near boundary confidences — when (say) conf = 1 − 1e-7,
        // all n samples usually come out identical, the sample variance is
        // exactly 0, and the CI degenerates even though a true deviation
        // of order 1/n is statistically expected. The range/n term (F1 has
        // range 1) keeps the band honest there while staying far below any
        // systematic estimator bias.
        const double bernstein =
            config_.mc_sigmas * config_.mc_sigmas /
            static_cast<double>(mc_.samples());
        const double tol = config_.mc_sigmas * est->standard_error +
                           bernstein + config_.slack;
        ++out.comparisons;
        if (std::abs(est->mean - *truth) > tol) {
          fail("monte-carlo-ci",
               "mean " + FormatDoubleRoundTrip(est->mean) + " vs truth " +
                   FormatDoubleRoundTrip(*truth) + " differ by " +
                   FormatDoubleRoundTrip(std::abs(est->mean - *truth)) +
                   " > " + FormatDoubleRoundTrip(config_.mc_sigmas) +
                   "*SE+sigma^2/n+slack = " + FormatDoubleRoundTrip(tol));
        }
      }
    }
  }

  if (config_.check_batch && config_.check_auto && auto_v.ok()) {
    Database db;
    db.Add(c.r);
    const Record* rec_ptr = &db[0];
    const Result<std::vector<double>> batch =
        BatchLeakage(std::span<const Record* const>(&rec_ptr, 1), ref, auto_);
    ++out.comparisons;
    if (!batch.ok() || batch->size() != 1 || (*batch)[0] != *auto_v) {
      fail("batch-vs-single",
           "BatchLeakage gave " +
               (batch.ok() && batch->size() == 1
                    ? FormatDoubleRoundTrip((*batch)[0])
                    : std::string("<error>")) +
               " vs single " + Render(auto_v));
    }
    std::ptrdiff_t argmax = -2;
    const Result<double> set = SetLeakageArgMax(db, ref, auto_, &argmax);
    ++out.comparisons;
    if (!set.ok() || *set != *auto_v || argmax != 0) {
      fail("batch-vs-single",
           "SetLeakageArgMax gave " + Render(set) + " (argmax " +
               std::to_string(argmax) + ") vs single " + Render(auto_v));
    }
    argmax = -2;
    const Result<double> scan = SetLeakageColumnar(bank, auto_, &argmax);
    ++out.comparisons;
    if (!scan.ok() || *scan != *auto_v || argmax != 0) {
      fail("batch-vs-single",
           "SetLeakageColumnar gave " + Render(scan) + " (argmax " +
               std::to_string(argmax) + ") vs single " + Render(auto_v));
    }
    const Result<std::vector<double>> bank_batch =
        BatchLeakageColumnar(bank, auto_);
    ++out.comparisons;
    if (!bank_batch.ok() || bank_batch->size() != 1 ||
        (*bank_batch)[0] != *auto_v) {
      fail("batch-vs-single",
           "BatchLeakageColumnar gave " +
               (bank_batch.ok() && bank_batch->size() == 1
                    ? FormatDoubleRoundTrip((*bank_batch)[0])
                    : std::string("<error>")) +
               " vs single " + Render(auto_v));
    }
  }

  EvaluateMeasures(c, MeasureEngines{}, &out);

  return out;
}

void Oracle::EvaluateMeasures(const CheckCase& c, const MeasureEngines& engines,
                              OracleOutcome* out) const {
  const bool do_pml = config_.check_pml;
  const bool do_gw = config_.check_guesswork;
  const bool do_ou = config_.check_overunder;
  if (!do_pml && !do_gw && !do_ou) return;

  const LeakageEngine* pml_e =
      engines.pml ? engines.pml : MeasureEngineSingleton(Measure::kPml);
  const LeakageEngine* gw_e = engines.guesswork
                                  ? engines.guesswork
                                  : MeasureEngineSingleton(Measure::kGuesswork);
  const LeakageEngine* under_e =
      engines.under ? engines.under : MeasureEngineSingleton(Measure::kUnder);
  const LeakageEngine* over_e =
      engines.over ? engines.over : MeasureEngineSingleton(Measure::kOver);

  auto fail = [&](const char* kind, std::string detail) {
    out->findings.push_back(Finding{kind, std::move(detail), c});
  };
  auto same_bits = [&](const char* kind, const std::string& what,
                       const Result<double>& a, const Result<double>& b) {
    ++out->comparisons;
    if (a.ok() != b.ok() || (a.ok() && *a != *b)) {
      fail(kind, what + ": " + Render(a) + " vs " + Render(b));
    }
  };
  auto in_range = [&](const std::string& what, const Result<double>& v) {
    ++out->comparisons;
    if (v.ok() && !(*v >= 0.0 && *v <= 1.0)) {
      fail("measure-path",
           what + " = " + Render(v) + " is outside [0, 1]");
    }
  };

  const PreparedReference ref(c.p, c.wm);
  LeakageWorkspace ws;
  ColumnBank bank(ref);
  bank.Append(c.r);
  const ColumnRecordView v = bank.view(0);

  // ---- measure-path: string adapter and column view agree bit for bit ----
  struct Row {
    const char* what;
    const LeakageEngine* e;
    bool on;
    bool has_precision;
  };
  const Row rows[] = {
      {"pml leakage", pml_e, do_pml, true},
      {"guesswork leakage", gw_e, do_gw, true},
      {"under leakage", under_e, do_ou, false},
      {"over leakage", over_e, do_ou, false},
  };
  // Column-view values, indexed like `rows`; the monotone and truth checks
  // below reuse them (string == columnar once measure-path passed, so
  // either surface is "the" value).
  Result<double> vals[4] = {
      Status::NotSupported("measure disabled"),
      Status::NotSupported("measure disabled"),
      Status::NotSupported("measure disabled"),
      Status::NotSupported("measure disabled"),
  };
  for (std::size_t i = 0; i < 4; ++i) {
    const Row& row = rows[i];
    if (!row.on) continue;
    const Result<double> col = row.e->RecordLeakageColumnar(v, ref, &ws);
    same_bits("measure-path", std::string(row.what) + " string-vs-columnar",
              row.e->RecordLeakage(c.r, c.p, c.wm), col);
    in_range(row.what, col);
    vals[i] = col;
    if (row.has_precision) {
      const std::string what = std::string(rows[i].e->name()) + " precision";
      const Result<double> prec = row.e->ExpectedPrecisionColumnar(v, ref, &ws);
      same_bits("measure-path", what + " string-vs-columnar",
                row.e->ExpectedPrecision(c.r, c.p, c.wm), prec);
      in_range(what, prec);
    } else {
      // under/over bound expected F1 only; a precision value would be
      // unsound, so the engines must refuse rather than answer.
      ++out->comparisons;
      const Result<double> prec = row.e->ExpectedPrecision(c.r, c.p, c.wm);
      if (prec.ok()) {
        fail("measure-path", std::string(rows[i].e->name()) +
                                 " precision must be NotSupported, got " +
                                 Render(prec));
      }
    }
  }
  const Result<double>& pml_v = vals[0];
  const Result<double>& gw_v = vals[1];
  const Result<double>& under_v = vals[2];
  const Result<double>& over_v = vals[3];

  const bool uniform = c.wm.IsConstantOver(c.r, c.p);
  const bool small = c.r.size() <= config_.naive_max;
  const double wp = c.wm.TotalWeight(c.p);

  // Expected-F1 truth, by the same rule Evaluate uses: naive when
  // enumerable (any weights), else Algorithm 1 when uniform.
  std::optional<double> truth;
  if (small) {
    const Result<double> n = naive_.RecordLeakageColumnar(v, ref, &ws);
    if (n.ok()) truth = *n;
  } else if (uniform) {
    const Result<double> e = exact_.RecordLeakageColumnar(v, ref, &ws);
    if (e.ok()) truth = *e;
  }

  // ---- measure-truth: independent recomputations --------------------------
  // pml vs a brute-force maximum over every feasible world. The engine's
  // closed form rests on a monotonicity argument; the enumeration does not,
  // so a wrong "optimal world" choice shows up here.
  if (do_pml && small && pml_v.ok()) {
    struct Attr {
      double conf;
      double w;
      bool matched;
    };
    std::vector<Attr> attrs;
    attrs.reserve(c.r.size());
    for (const auto& a : c.r) {
      attrs.push_back({a.confidence, c.wm.Weight(a.label),
                       c.p.Find(a.label, a.value) != nullptr});
    }
    const std::size_t n = attrs.size();
    double best = 0.0;
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      double total = 0.0;
      double overlap = 0.0;
      bool feasible = true;
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) {
          if (attrs[i].conf == 0.0) {
            feasible = false;
            break;
          }
          total += attrs[i].w;
          if (attrs[i].matched) overlap += attrs[i].w;
        } else if (attrs[i].conf == 1.0) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      const double denom = total + wp;
      const double f1 = denom > 0.0 ? 2.0 * overlap / denom : 0.0;
      if (f1 > best) best = f1;
    }
    ++out->comparisons;
    if (std::abs(*pml_v - best) > config_.exact_tol) {
      fail("measure-truth",
           "pml " + Render(pml_v) + " vs brute-force world maximum " +
               FormatDoubleRoundTrip(best) + " differ by more than " +
               FormatDoubleRoundTrip(config_.exact_tol));
    }
  }

  // guesswork vs the modal world materialized as a deterministic record and
  // pushed through the Taylor engine: with every confidence at 1 the world
  // distribution is a point mass, Var[Y] = 0, and the order-2 value is the
  // modal world's F1 exactly — an independent code path end to end.
  if (do_gw && gw_v.ok()) {
    Record modal;
    for (const auto& a : c.r) {
      if (a.confidence >= 0.5) modal.Insert(Attribute(a.label, a.value, 1.0));
    }
    const Result<double> direct = approx2_.RecordLeakage(modal, c.p, c.wm);
    if (direct.ok()) {
      ++out->comparisons;
      if (std::abs(*gw_v - *direct) > config_.exact_tol) {
        fail("measure-truth",
             "guesswork " + Render(gw_v) +
                 " vs modal-world F1 via the Taylor engine " + Render(direct) +
                 " differ by more than " +
                 FormatDoubleRoundTrip(config_.exact_tol));
      }
    }
  }

  // ---- measure-order: the family's provable inequalities ------------------
  // E[F1] ≤ max-world F1, and the modal world is one feasible world.
  if (do_pml && pml_v.ok()) {
    if (truth.has_value()) {
      ++out->comparisons;
      if (*truth > *pml_v + config_.slack) {
        fail("measure-order", "expected-F1 truth " +
                                  FormatDoubleRoundTrip(*truth) +
                                  " exceeds pml " + Render(pml_v));
      }
    }
    if (do_gw && gw_v.ok()) {
      ++out->comparisons;
      if (*gw_v > *pml_v + config_.slack) {
        fail("measure-order",
             "guesswork " + Render(gw_v) + " exceeds pml " + Render(pml_v));
      }
    }
  }

  // ---- measure-bracket: under ≤ E[F1] ≤ over, and under ≤ over ------------
  if (do_ou) {
    if (under_v.ok() && over_v.ok()) {
      ++out->comparisons;
      if (!(*under_v <= *over_v)) {
        fail("measure-bracket", "under " + Render(under_v) + " > over " +
                                    Render(over_v));
      }
    }
    if (truth.has_value()) {
      if (under_v.ok()) {
        ++out->comparisons;
        if (*truth < *under_v - config_.slack) {
          fail("measure-bracket",
               "truth " + FormatDoubleRoundTrip(*truth) +
                   " falls below under " + Render(under_v));
        }
      }
      if (over_v.ok()) {
        ++out->comparisons;
        if (*truth > *over_v + config_.slack) {
          fail("measure-bracket", "truth " + FormatDoubleRoundTrip(*truth) +
                                      " escapes above over " +
                                      Render(over_v));
        }
      }
    }
  }

  // ---- measure-vs-bounds: the bound engines ARE the bounds, bitwise -------
  // (FinishUnitInterval's clamp is the identity on a well-formed bracket,
  // so any difference is a real divergence between the two code paths.)
  if (do_ou) {
    const LeakageBounds lb = BoundRecordLeakage(c.r, c.p, c.wm);
    if (under_v.ok()) {
      ++out->comparisons;
      if (*under_v != lb.lower) {
        fail("measure-vs-bounds",
             "under " + Render(under_v) + " vs BoundRecordLeakage lower " +
                 FormatDoubleRoundTrip(lb.lower));
      }
    }
    if (over_v.ok()) {
      ++out->comparisons;
      if (*over_v != lb.upper) {
        fail("measure-vs-bounds",
             "over " + Render(over_v) + " vs BoundRecordLeakage upper " +
                 FormatDoubleRoundTrip(lb.upper));
      }
    }
  }

  // ---- measure-degenerate: one possible world, everyone must report it ----
  // All confidences in {0, 1} collapse the distribution to a point: the
  // included set is exactly the confidence-1 attributes, its F1 is directly
  // computable at any record size, and max / modal / expectation coincide.
  // The Jensen lower bound is tight on a point mass too.
  bool degenerate = true;
  for (const auto& a : c.r) {
    if (a.confidence != 0.0 && a.confidence != 1.0) {
      degenerate = false;
      break;
    }
  }
  if (degenerate) {
    double total = 0.0;
    double overlap = 0.0;
    for (const auto& a : c.r) {
      if (a.confidence != 1.0) continue;
      const double w = c.wm.Weight(a.label);
      total += w;
      if (c.p.Find(a.label, a.value) != nullptr) overlap += w;
    }
    const double denom = total + wp;
    const double f1 = denom > 0.0 ? 2.0 * overlap / denom : 0.0;
    if (std::isfinite(f1)) {
      auto agree = [&](const char* what, const Result<double>& m) {
        if (!m.ok()) return;
        ++out->comparisons;
        if (std::abs(*m - f1) > config_.exact_tol) {
          fail("measure-degenerate",
               std::string(what) + " " + Render(m) +
                   " vs the single world's F1 " + FormatDoubleRoundTrip(f1));
        }
      };
      if (do_pml) agree("pml", pml_v);
      if (do_gw) agree("guesswork", gw_v);
      if (do_ou) {
        agree("under", under_v);
        if (over_v.ok()) {
          ++out->comparisons;
          if (f1 > *over_v + config_.slack) {
            fail("measure-degenerate",
                 "single world's F1 " + FormatDoubleRoundTrip(f1) +
                     " escapes above over " + Render(over_v));
          }
        }
      }
    }
  }

  // ---- measure-monotone: a fresh unmatched attribute cannot help ----------
  // Extending r with an attribute absent from p adds no overlap: pml skips
  // it outright when conf < 1 (bit-identical by the branching-skip
  // contract); guesswork skips it below the 0.5 modal threshold and
  // otherwise only grows the modal denominator; the under/over bounds both
  // weakly decrease (larger E[Y] in every Jensen term, unchanged recall
  // mass).
  {
    bool label_free = true;
    for (const auto& a : c.r) {
      if (a.label == "__ext") {
        label_free = false;
        break;
      }
    }
    for (const auto& a : c.p) {
      if (a.label == "__ext") {
        label_free = false;
        break;
      }
    }
    if (label_free) {
      auto leq = [&](const char* what, const Result<double>& base,
                     const Result<double>& ext) {
        if (!base.ok() || !ext.ok()) return;
        ++out->comparisons;
        if (*ext > *base + config_.slack) {
          fail("measure-monotone",
               std::string(what) + " grew from " + Render(base) + " to " +
                   Render(ext) + " on an unmatched extension");
        }
      };
      const double confs[] = {0.75, 0.25};
      for (const double conf : confs) {
        Record ext = c.r;
        ext.Insert(Attribute("__ext", "1", conf));
        if (do_pml) {
          same_bits("measure-monotone",
                    "pml under unmatched conf-" + FormatDoubleRoundTrip(conf) +
                        " extension",
                    pml_e->RecordLeakage(ext, c.p, c.wm), pml_v);
        }
        if (do_gw) {
          const Result<double> g = gw_e->RecordLeakage(ext, c.p, c.wm);
          if (conf < 0.5) {
            same_bits("measure-monotone",
                      "guesswork under sub-modal unmatched extension", g,
                      gw_v);
          } else {
            leq("guesswork", gw_v, g);
          }
        }
        if (do_ou) {
          leq("under", under_v, under_e->RecordLeakage(ext, c.p, c.wm));
          leq("over", over_v, over_e->RecordLeakage(ext, c.p, c.wm));
        }
      }
    }
  }
}

}  // namespace infoleak::check
