#include "mct/samplers.hh"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/sweep_cache.hh"

namespace mct
{

std::vector<MellowConfig>
featureBasedSamples(std::uint64_t seed, const SpaceOptions &opts)
{
    Rng rng(seed);
    std::vector<MellowConfig> out;

    // Secondary knobs are randomized per sample ("randomly sampling
    // from the left", Section 4.4).
    auto randomizeSecondary = [&](MellowConfig &cfg, bool needSlow) {
        // At least one slow-write technique must be on when the
        // sample grids a slow latency.
        while (true) {
            const bool bank = rng.flip(0.5);
            const bool eager = rng.flip(0.5);
            if (needSlow && !bank && !eager)
                continue;
            cfg.bankAware = bank;
            cfg.eagerWritebacks = eager;
            break;
        }
        if (cfg.bankAware) {
            cfg.bankAwareThreshold = opts.bankThresholds[rng.below(
                opts.bankThresholds.size())];
        }
        if (cfg.eagerWritebacks) {
            cfg.eagerThreshold = opts.eagerThresholds[rng.below(
                opts.eagerThresholds.size())];
        }
        cfg.wearQuota = false;
    };

    // 21 latency pairs x 3 cancellation pairs = 63 slow-write samples.
    const auto &lat = opts.latencies;
    const bool cancelFast[] = {false, false, true};
    const bool cancelSlow[] = {false, true, true};
    for (std::size_t fi = 0; fi < lat.size(); ++fi) {
        for (std::size_t si = fi + 1; si < lat.size(); ++si) {
            for (int c = 0; c < 3; ++c) {
                MellowConfig cfg;
                cfg.fastLatency = lat[fi];
                cfg.slowLatency = lat[si];
                cfg.fastCancellation = cancelFast[c];
                cfg.slowCancellation = cancelSlow[c];
                randomizeSecondary(cfg, true);
                if (!cfg.valid())
                    mct_panic("featureBasedSamples: invalid sample");
                out.push_back(cfg);
            }
        }
    }
    // 7 latencies x 2 cancellation choices = 14 fast-only samples.
    for (double f : lat) {
        for (bool fc : {false, true}) {
            MellowConfig cfg;
            cfg.fastLatency = f;
            cfg.slowLatency = f;
            cfg.fastCancellation = fc;
            cfg.slowCancellation = fc;
            cfg.bankAware = false;
            cfg.eagerWritebacks = false;
            cfg.wearQuota = false;
            if (!cfg.valid())
                mct_panic("featureBasedSamples: invalid sample");
            out.push_back(cfg);
        }
    }
    return out;
}

std::vector<MellowConfig>
randomSamples(const std::vector<MellowConfig> &space, std::size_t n,
              std::uint64_t seed)
{
    if (n > space.size())
        mct_fatal("randomSamples: asked for ", n, " of ", space.size());
    Rng rng(seed);
    std::vector<std::size_t> idx(space.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng.below(idx.size() - i));
        std::swap(idx[i], idx[j]);
    }
    std::vector<MellowConfig> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(space[idx[i]]);
    return out;
}

std::vector<std::size_t>
indicesInSpace(const std::vector<MellowConfig> &space,
               const std::vector<MellowConfig> &samples)
{
    // Each key maps to its first index, as a linear scan would find.
    std::unordered_map<std::string, std::size_t> first;
    first.reserve(space.size());
    for (std::size_t i = 0; i < space.size(); ++i)
        first.emplace(configKey(space[i]), i);
    std::vector<std::size_t> out;
    out.reserve(samples.size());
    for (const auto &s : samples) {
        const std::string key = configKey(s);
        const auto it = first.find(key);
        if (it == first.end())
            mct_fatal("indicesInSpace: sample not in space: ", key);
        out.push_back(it->second);
    }
    return out;
}

} // namespace mct
