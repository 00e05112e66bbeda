#include "emu/trace.hh"

#include <algorithm>
#include <chrono>

namespace carf::emu
{

size_t
TraceSource::fill(std::span<DynOp> out)
{
    size_t n = 0;
    while (n < out.size() && next(out[n]))
        ++n;
    return n;
}

MeteredSource::MeteredSource(std::unique_ptr<TraceSource> inner)
    : inner_(std::move(inner)), block_(blockRecords)
{
}

size_t
MeteredSource::fill(std::span<DynOp> out)
{
    size_t n = std::min(out.size(), filled_ - pos_);
    std::copy_n(block_.begin() + pos_, n, out.begin());
    pos_ += n;
    if (n == out.size() || drained_)
        return n;
    return n + timedFill(out.subspan(n));
}

bool
MeteredSource::refill()
{
    if (drained_)
        return false;
    filled_ = timedFill(block_);
    pos_ = 0;
    return filled_ > 0;
}

size_t
MeteredSource::timedFill(std::span<DynOp> out)
{
    auto start = std::chrono::steady_clock::now();
    size_t n = inner_->fill(out);
    seconds_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    drained_ = n < out.size();
    return n;
}

} // namespace carf::emu
