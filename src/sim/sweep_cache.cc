#include "sim/sweep_cache.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/csv.hh"
#include "common/logging.hh"

namespace mct
{

std::string
configKey(const MellowConfig &cfg)
{
    std::ostringstream os;
    os << "ba";
    if (cfg.bankAware)
        os << cfg.bankAwareThreshold;
    else
        os << "-";
    os << "_ew";
    if (cfg.eagerWritebacks)
        os << cfg.eagerThreshold;
    else
        os << "-";
    os << "_wq";
    if (cfg.wearQuota) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.1f", cfg.wearQuotaTarget);
        os << buf;
    } else {
        os << "-";
    }
    char lat[32];
    std::snprintf(lat, sizeof(lat), "_f%.1f_s", cfg.fastLatency);
    os << lat;
    if (cfg.usesSlowWrites()) {
        std::snprintf(lat, sizeof(lat), "%.1f", cfg.slowLatency);
        os << lat;
    } else {
        os << "-";
    }
    os << "_c" << (cfg.fastCancellation ? "F" : "")
       << (cfg.usesSlowWrites() && cfg.slowCancellation ? "S" : "");
    if (cfg.pauseInsteadOfCancel)
        os << "_P"; // extension: write pausing
    if (cfg.shortRetentionWrites)
        os << "_R"; // extension: short-retention writes
    if (cfg.fastDisturbingReads)
        os << "_D"; // extension: fast disturbing reads
    return os.str();
}

SweepCache::SweepCache(const EvalParams &evalParams, std::string csvPath)
    : ep(evalParams), fp(fingerprint(evalParams)), path(std::move(csvPath))
{
    load();
}

SweepCache::~SweepCache()
{
    save();
}

std::string
SweepCache::defaultPath()
{
    if (const char *env = std::getenv("MCT_SWEEP_CACHE"))
        return env;
#ifdef MCT_SWEEP_CACHE_DIR
    return std::string(MCT_SWEEP_CACHE_DIR) + "/mct_sweep_cache.csv";
#else
    return "mct_sweep_cache.csv";
#endif
}

std::string
SweepCache::fingerprint(const EvalParams &ep)
{
    std::ostringstream os;
    os << "w" << ep.warmupInsts << "_m" << ep.measureInsts << "_s"
       << ep.sys.seed << "_wl" << static_cast<int>(ep.sys.nvm.wearLevelMode);
    return os.str();
}

void
SweepCache::load()
{
    if (path.empty())
        return;
    CsvFile csv;
    if (!csv.load(path))
        return;
    for (const auto &row : csv.data()) {
        // Rows are fingerprint, app, config and three metrics. The old
        // format lacks the fingerprint: its rows' parameters are
        // unknown, so they are dropped. A truncated or corrupted file
        // must not abort the run: skip rows that fail to parse and let
        // misses recompute them.
        const bool unkeyed = row.size() == 5;
        const std::size_t at = unkeyed ? 2 : 3;
        Metrics m;
        if ((row.size() != 6 && !unkeyed) ||
            !CsvFile::tryDouble(row[at], m.ipc) ||
            !CsvFile::tryDouble(row[at + 1], m.lifetimeYears) ||
            !CsvFile::tryDouble(row[at + 2], m.energyJ) ||
            !std::isfinite(m.ipc) || !std::isfinite(m.lifetimeYears) ||
            !std::isfinite(m.energyJ)) {
            ++nRecovered;
            continue;
        }
        if (unkeyed)
            ++nUnkeyed;
        else if (row[0] == fp)
            table[row[1] + "|" + row[2]] = m;
        else
            foreign.push_back(row);
    }
    if (nRecovered) {
        mct_warn("SweepCache: skipped ", nRecovered,
                 " corrupt row(s) in ", path,
                 "; they will be recomputed on demand");
    }
    if (nUnkeyed) {
        mct_warn("SweepCache: dropped ", nUnkeyed, " row(s) in ", path,
                 " that name no evaluation parameters (the old format);"
                 " they will be recomputed on demand");
    }
    mct_inform("SweepCache: loaded ", table.size(), " entries from ",
               path);
}

void
SweepCache::save()
{
    if (path.empty() || unsaved == 0)
        return;
    CsvFile csv;
    for (const auto &[key, m] : table) {
        const auto bar = key.find('|');
        std::ostringstream ipc, life, en;
        ipc.precision(17);
        life.precision(17);
        en.precision(17);
        ipc << m.ipc;
        life << m.lifetimeYears;
        en << m.energyJ;
        csv.row({fp, key.substr(0, bar), key.substr(bar + 1), ipc.str(),
                 life.str(), en.str()});
    }
    for (const auto &row : foreign)
        csv.row(row);
    if (!csv.save(path))
        mct_warn("SweepCache: could not write ", path);
    else
        unsaved = 0;
}

Metrics
SweepCache::get(const std::string &app, const MellowConfig &cfg)
{
    const std::string key = app + "|" + configKey(cfg);
    const auto it = table.find(key);
    if (it != table.end())
        return it->second;
    const Metrics m = evaluateConfig(app, cfg, ep);
    table[key] = m;
    ++nMisses;
    if (++unsaved >= 500)
        save();
    return m;
}

std::vector<Metrics>
SweepCache::getAll(const std::string &app,
                   const std::vector<MellowConfig> &cfgs, bool progress)
{
    std::vector<Metrics> out;
    out.reserve(cfgs.size());
    std::size_t done = 0;
    for (const auto &cfg : cfgs) {
        out.push_back(get(app, cfg));
        if (progress && (++done % 500 == 0)) {
            mct_inform("sweep ", app, ": ", done, "/", cfgs.size());
        }
    }
    return out;
}

} // namespace mct
