#include "mem/cache.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace carf::mem
{

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    if (!isPowerOf2(params_.lineBytes))
        fatal("%s: line size must be a power of two", params_.name.c_str());
    if (params_.sizeBytes % (params_.lineBytes * params_.assoc) != 0)
        fatal("%s: size not divisible by line*assoc", params_.name.c_str());
    lineShift_ = log2Ceil(params_.lineBytes);
    numSets_ = params_.sizeBytes / (params_.lineBytes * params_.assoc);
    if (!isPowerOf2(numSets_))
        fatal("%s: set count must be a power of two", params_.name.c_str());
    lines_.resize(numSets_ * params_.assoc);
}

size_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

u64
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

bool
Cache::accessSet(u64 tag)
{
    size_t base = (tag & (numSets_ - 1)) * params_.assoc;
    lastTag_ = tag;

    for (unsigned way = 0; way < params_.assoc; ++way) {
        Line &line = lines_[base + way];
        if (line.valid && line.tag == tag) {
            line.lruStamp = stamp_;
            lastLine_ = base + way;
            ++hits_;
            return true;
        }
    }

    // Miss: fill into the LRU way.
    unsigned victim = 0;
    u64 oldest = ~u64{0};
    for (unsigned way = 0; way < params_.assoc; ++way) {
        Line &line = lines_[base + way];
        if (!line.valid) {
            victim = way;
            break;
        }
        if (line.lruStamp < oldest) {
            oldest = line.lruStamp;
            victim = way;
        }
    }
    lastLine_ = base + victim;
    Line &fill = lines_[base + victim];
    fill.valid = true;
    fill.tag = tag;
    fill.lruStamp = stamp_;
    ++misses_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    size_t base = setIndex(addr) * params_.assoc;
    u64 tag = tagOf(addr);
    for (unsigned way = 0; way < params_.assoc; ++way) {
        const Line &line = lines_[base + way];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

double
Cache::missRate() const
{
    u64 total = hits() + misses();
    return total ? static_cast<double>(misses()) / total : 0.0;
}

} // namespace carf::mem
