#include "sim/oracle.hh"

#include <algorithm>
#include <unordered_map>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace carf::sim
{

const char *
GroupAccumulator::bucketName(unsigned bucket)
{
    switch (bucket) {
      case 0: return "group 1";
      case 1: return "group 2";
      case 2: return "group 3..4";
      case 3: return "group 5..8";
      case 4: return "group 9..16";
      case 5: return "rest";
    }
    return "?";
}

namespace
{

unsigned
rankBucket(size_t rank)
{
    // rank is 1-based.
    if (rank == 1)
        return 0;
    if (rank == 2)
        return 1;
    if (rank <= 4)
        return 2;
    if (rank <= 8)
        return 3;
    if (rank <= 16)
        return 4;
    return 5;
}

} // namespace

void
GroupAccumulator::addSample(std::vector<u32> &group_sizes)
{
    std::sort(group_sizes.begin(), group_sizes.end(),
              std::greater<u32>());
    for (size_t i = 0; i < group_sizes.size(); ++i) {
        buckets_[rankBucket(i + 1)] += group_sizes[i];
        total_ += group_sizes[i];
    }
}

void
GroupAccumulator::merge(const GroupAccumulator &other)
{
    for (unsigned b = 0; b < numBuckets; ++b)
        buckets_[b] += other.buckets_[b];
    total_ += other.total_;
}

double
GroupAccumulator::fraction(unsigned bucket) const
{
    return total_ ? static_cast<double>(buckets_.at(bucket)) / total_
                  : 0.0;
}

LiveValueOracle::LiveValueOracle(std::vector<unsigned> similarity_ds)
    : ds_(std::move(similarity_ds)), similarity_(ds_.size())
{
}

void
LiveValueOracle::sampleCycle(Cycle cycle,
                             const regfile::RegisterFile &int_rf)
{
    (void)cycle;
    std::vector<u64> live;
    live.reserve(int_rf.entries());
    for (u32 tag = 0; tag < int_rf.entries(); ++tag) {
        regfile::RegisterFile::Peek p = int_rf.peek(tag);
        if (p.live)
            live.push_back(p.value);
    }
    ++samples_;
    liveRegSum_ += live.size();
    if (live.empty())
        return;

    std::unordered_map<u64, u32> groups;
    std::vector<u32> sizes;

    groups.reserve(live.size() * 2);
    for (u64 v : live)
        ++groups[v];
    sizes.reserve(groups.size());
    for (const auto &[key, count] : groups)
        sizes.push_back(count);
    exact_.addSample(sizes);

    for (size_t i = 0; i < ds_.size(); ++i) {
        groups.clear();
        for (u64 v : live)
            ++groups[similarityTag(v, ds_[i])];
        sizes.clear();
        for (const auto &[key, count] : groups)
            sizes.push_back(count);
        similarity_[i].addSample(sizes);
    }
}

void
LiveValueOracle::merge(const LiveValueOracle &other)
{
    if (other.ds_ != ds_)
        panic("LiveValueOracle::merge: mismatched similarity d lists");
    exact_.merge(other.exact_);
    for (size_t i = 0; i < similarity_.size(); ++i)
        similarity_[i].merge(other.similarity_[i]);
    samples_ += other.samples_;
    liveRegSum_ += other.liveRegSum_;
}

double
LiveValueOracle::avgLiveRegs() const
{
    return samples_ ? static_cast<double>(liveRegSum_) / samples_ : 0.0;
}

} // namespace carf::sim
