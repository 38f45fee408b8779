#ifndef TRINIT_CORE_ENGINE_STATE_H_
#define TRINIT_CORE_ENGINE_STATE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "relax/rule_set.h"
#include "suggest/autocomplete.h"
#include "suggest/suggester.h"
#include "xkg/xkg.h"

namespace trinit::core {

/// An XKG plus the state derived from it. Immutable once shared, and
/// shared by every `EngineState` that differs only in its rules, so a
/// rule write never copies or rebuilds it.
///
/// `Suggester` and `Autocomplete` are built on first use, each at most
/// once behind its own `std::once_flag` (the lazy score shapes' idiom):
/// no query needs either, so a state that nobody asks for suggestions
/// or completions never pays for them. Concurrent first callers
/// serialize in `call_once`; later callers take no lock.
class XkgState {
 public:
  explicit XkgState(xkg::Xkg xkg) : xkg_(std::move(xkg)) {}
  XkgState(const XkgState&) = delete;
  XkgState& operator=(const XkgState&) = delete;

  const xkg::Xkg& xkg() const { return xkg_; }

  /// Built on the first call.
  const suggest::Suggester& suggester() const;

  /// Built on the first call.
  const suggest::Autocomplete& autocomplete() const;

 private:
  xkg::Xkg xkg_;
  // Declared after `xkg_`, which both view: destroyed before it.
  mutable std::once_flag suggester_once_;
  mutable std::unique_ptr<const suggest::Suggester> suggester_;
  mutable std::once_flag autocomplete_once_;
  mutable std::unique_ptr<const suggest::Autocomplete> autocomplete_;
};

/// Everything an engine write replaces, in one immutable value:
/// `core::Trinit` holds the current one behind a
/// `shared_ptr<const EngineState>`. A reader pins it once and runs
/// against it to the end; a writer builds the next one off the read
/// path and publishes it with one pointer swap (docs/CONCURRENCY.md).
struct EngineState {
  std::shared_ptr<const XkgState> xkg_state;
  relax::RuleSet rules;
  /// Published states count up from the engine's first state by one
  /// per write. Serving-cache keys and plan stamps use it.
  uint64_t generation = 0;

  const xkg::Xkg& xkg() const { return xkg_state->xkg(); }
};

}  // namespace trinit::core

#endif  // TRINIT_CORE_ENGINE_STATE_H_
