#include "mem/hierarchy.hh"

namespace carf::mem
{

Hierarchy::Hierarchy(const HierarchyParams &params)
    : params_(params), il1_(params.il1), dl1_(params.dl1), l2_(params.l2)
{
}

} // namespace carf::mem
