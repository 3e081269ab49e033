#include "workloads/workload.hh"

#include "support/logging.hh"

namespace tepic::workloads {

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> workloads = [] {
        std::vector<Workload> list;
        list.push_back(makeCompress());
        list.push_back(makeGcc());
        list.push_back(makeGo());
        list.push_back(makeIjpeg());
        list.push_back(makeLi());
        list.push_back(makeM88ksim());
        list.push_back(makePerl());
        list.push_back(makeVortex());
        list.push_back(makeFir());
        list.push_back(makeMatmul());
        return list;
    }();
    return workloads;
}

const Workload &
workloadByName(const std::string &name)
{
    for (const auto &w : allWorkloads())
        if (w.name == name)
            return w;
    std::string known;
    for (const auto &w : allWorkloads())
        known += (known.empty() ? "" : ", ") + w.name;
    TEPIC_FATAL("unknown workload '", name, "' (known: ", known, ")");
}

} // namespace tepic::workloads
