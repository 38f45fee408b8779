#include "core/engine_state.h"

namespace trinit::core {

const suggest::Suggester& XkgState::suggester() const {
  std::call_once(suggester_once_, [this] {
    suggester_ = std::make_unique<const suggest::Suggester>(xkg_);
  });
  return *suggester_;
}

const suggest::Autocomplete& XkgState::autocomplete() const {
  std::call_once(autocomplete_once_, [this] {
    autocomplete_ = std::make_unique<const suggest::Autocomplete>(xkg_);
  });
  return *autocomplete_;
}

}  // namespace trinit::core
