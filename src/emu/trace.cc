#include "emu/trace.hh"

#include <chrono>

namespace carf::emu
{

MeteredSource::MeteredSource(std::unique_ptr<TraceSource> inner)
    : inner_(std::move(inner)), block_(blockRecords)
{
}

bool
MeteredSource::refill()
{
    if (drained_)
        return false;
    auto start = std::chrono::steady_clock::now();
    size_t n = 0;
    while (n < block_.size() && inner_->next(block_[n]))
        ++n;
    seconds_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    drained_ = n < block_.size();
    filled_ = n;
    pos_ = 0;
    return n > 0;
}

} // namespace carf::emu
