// Umbrella header for the FPRAS public API:
//   ApproxCount()      — (ε,δ)-approximate |L(A_n)|        (Theorem 3)
//   EngineSession      — counts and almost-uniform words from one set of
//                        tables (Theorems 2 and 3), incremental extension,
//                        binary checkpoints
//   ApproxCountAcjr()  — ACJR-schedule baseline            (comparator)

#ifndef NFACOUNT_FPRAS_FPRAS_HPP_
#define NFACOUNT_FPRAS_FPRAS_HPP_

#include "fpras/acjr.hpp"       // IWYU pragma: export
#include "fpras/amplify.hpp"    // IWYU pragma: export
#include "fpras/checkpoint.hpp" // IWYU pragma: export
#include "fpras/estimator.hpp"  // IWYU pragma: export
#include "fpras/params.hpp"     // IWYU pragma: export
#include "fpras/session.hpp"    // IWYU pragma: export

#endif  // NFACOUNT_FPRAS_FPRAS_HPP_
