#ifndef TRINIT_TESTS_TESTING_ANSWER_BYTES_H_
#define TRINIT_TESTS_TESTING_ANSWER_BYTES_H_

#include <cmath>
#include <sstream>
#include <string>

#include "topk/topk_processor.h"

namespace trinit::testing {

/// Byte-comparable rendering of a ranked answer list (projection values
/// + nano-rounded scores), the same equality the benches gate on.
inline std::string AnswerBytes(const topk::TopKResult& result) {
  std::ostringstream os;
  for (const auto& ans : result.answers) {
    for (size_t i = 0; i < result.projection.size(); ++i) {
      os << ans.binding.Get(static_cast<query::VarId>(i)) << ',';
    }
    os << std::llround(ans.score * 1e9) << ';';
  }
  return os.str();
}

}  // namespace trinit::testing

#endif  // TRINIT_TESTS_TESTING_ANSWER_BYTES_H_
