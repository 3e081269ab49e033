#include "support/scope.hh"

#include <string_view>

#include "support/profiler.hh"

namespace tepic::support {

Scope::Scope(Layer layer, std::uint64_t task)
    : task_(task)
{
    if (task_ != sched::kNoTask)
        sched::taskStarted(task_);
    const LayerRow &row = kLayers[unsigned(layer)];
    if (row.span && trace::enabled()) {
        const std::string_view name = row.span;
        span_.emplace(row.span, name.substr(0, name.find('.')));
    }
    if (row.phase)
        profiled_ = prof::pushFrame(layer);
}

Scope::~Scope()
{
    if (profiled_)
        prof::popFrame();
    span_.reset();
    if (task_ != sched::kNoTask)
        sched::taskFinished(task_);
}

} // namespace tepic::support
