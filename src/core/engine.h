#ifndef TRINIT_CORE_ENGINE_H_
#define TRINIT_CORE_ENGINE_H_

#include <string_view>

#include "core/request.h"
#include "util/result.h"
#include "xkg/xkg.h"

namespace trinit::core {

/// The common front door of every TriniT query engine — the full system
/// (`Trinit`), the strict conjunctive baseline (`baselines::ExactEngine`)
/// and the structure-less keyword baseline (`baselines::KeywordEngine`).
/// `eval::Runner` and the bench harnesses drive all of them through this
/// interface, so a system under test is just a pointer plus a display
/// name.
///
/// Contract: `Execute` is `const` and safe to call concurrently from
/// many threads over one engine. An engine that can be written to while
/// it serves (`core::Trinit`) runs each request on the immutable state
/// it pinned at the start, so a request never waits for a write and
/// sees it entirely or not at all. All per-request state lives in the
/// `QueryRequest` / local stack. Cross-call state is allowed only when
/// it is internally synchronized and semantically transparent — a cached
/// response must be identical to what uncached execution would return
/// (see `serve::ServingCache`, which `core::Trinit` consults and reports
/// through `QueryResponse::serving`).
class Engine {
 public:
  virtual ~Engine();

  /// Stable implementation name ("TriniT", "exact", "keyword") — display
  /// labels for reports belong to the caller, not here.
  virtual std::string_view name() const = 0;

  /// The knowledge graph this engine answers over (used e.g. to turn
  /// result term ids back into labels). For an engine that takes
  /// writes, the reference is valid until the next write returns.
  virtual const xkg::Xkg& xkg() const = 0;

  /// Executes one request: resolves effective options (engine defaults +
  /// request overrides), parses `request.text` against the engine's
  /// dictionary unless a parsed query was supplied, runs the engine's
  /// retrieval semantics, and reports the top-k with timings.
  virtual Result<QueryResponse> Execute(const QueryRequest& request) const = 0;
};

}  // namespace trinit::core

#endif  // TRINIT_CORE_ENGINE_H_
